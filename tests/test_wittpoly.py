"""Universal Witt polynomials: the symbolic ghost oracle over the integers."""

import sympy

from framecalc import wittpoly


def test_ghost_identities_p3_up_to_3():
    # depth 4 at p = 3 needs the expansion of P_3^3 (per-variable degree
    # 243), which does not fit in memory; depth 3 covers every truncation
    # length the library instantiates, and depth 4 is checked at p = 2
    assert wittpoly.verify_ghost_identities(3, 3)


def test_ghost_identities_p2_up_to_4():
    assert wittpoly.verify_ghost_identities(2, 4)


def test_first_sum_polys_match_hand_computation():
    # S_0 = X_0 + Y_0, S_1 = X_1 + Y_1 - sum of cross terms / p
    X0, X1 = sympy.symbols("X0 X1")
    Y0, Y1 = sympy.symbols("Y0 Y1")
    S = wittpoly.sum_polys(2, 1)
    assert sympy.expand(S[0] - (X0 + Y0)) == 0
    assert sympy.expand(S[1] - (X1 + Y1 - X0 * Y0)) == 0


def test_first_prod_polys_match_hand_computation():
    X0, X1 = sympy.symbols("X0 X1")
    Y0, Y1 = sympy.symbols("Y0 Y1")
    P = wittpoly.prod_polys(3, 1)
    assert sympy.expand(P[0] - X0 * Y0) == 0
    assert sympy.expand(P[1] - (X0 ** 3 * Y1 + X1 * Y0 ** 3 + 3 * X1 * Y1)) == 0


def test_negation_at_odd_p_is_componentwise():
    # for odd p, -(x_0, x_1, ...) = (-x_0, -x_1, ...)
    for n in range(3):
        N = wittpoly.neg_polys(3, n)[n]
        Xn = sympy.Symbol(f"X{n}")
        assert sympy.expand(N + Xn) == 0


def test_frobenius_poly_leading_term():
    # F_0 = X_0^p + p X_1
    X0, X1 = sympy.symbols("X0 X1")
    F = wittpoly.frob_polys(3, 0)
    assert sympy.expand(F[0] - (X0 ** 3 + 3 * X1)) == 0


def test_eval_terms_reduce_mod_p():
    for op in ("sum", "prod", "neg"):
        for n in range(3):
            for c, _ in wittpoly.eval_terms(3, op, n):
                assert 0 < c < 3


def test_eval_poly_matches_symbolic():
    from framecalc.rings import prime_field
    R = prime_field(5)
    terms = wittpoly.eval_terms(5, "sum", 1)
    S1 = wittpoly.sum_polys(5, 1)[1]
    gens = sympy.symbols("X0 X1 Y0 Y1")
    for vals in [(1, 2, 3, 4), (0, 4, 2, 1), (3, 3, 3, 3)]:
        sym = int(S1.subs(dict(zip(gens, vals)))) % 5
        args = [R.el(v) for v in vals]
        assert wittpoly.eval_poly(terms, args, R) == R.el(sym)


def test_oracle_rejects_a_perturbed_polynomial(monkeypatch):
    # the oracle must fail when any derived polynomial is off by a constant
    derive = wittpoly._derive
    for op in ("sum", "prod", "neg", "frob"):
        def perturbed(p, o, n, op=op):
            polys = derive(p, o, n)
            return polys[:-1] + (polys[-1] + 1,) if o == op else polys
        monkeypatch.setattr(wittpoly, "_derive", perturbed)
        assert not wittpoly.verify_ghost_identities(3, 2)
    monkeypatch.setattr(wittpoly, "_derive", derive)
    assert wittpoly.verify_ghost_identities(3, 2)
