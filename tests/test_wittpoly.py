"""Universal Witt polynomials: the ghost oracle over the integers.

The package derives the polynomials with its own sparse integer polynomial
(`wittpoly.ZPoly`).  sympy serves here only as an independent reference: a
second ghost-inversion derivation to compare term tables with, and a second
check of the ghost identities, so the in-house kernel cannot certify itself.
"""

import math

import pytest
import sympy
from sympy.polys.rings import ring as sympy_ring

from framecalc import wittpoly
from framecalc.rings import VerificationError
from framecalc.wittpoly import ZPoly

OPS = ("sum", "prod", "neg", "frob")


def test_ghost_identities_p3_up_to_3():
    # depth 4 at p = 3 needs the expansion of P_3^3 (per-variable degree
    # 243), which does not fit in memory; depth 3 covers every truncation
    # length the library instantiates, and depth 4 is checked at p = 2
    assert wittpoly.verify_ghost_identities(3, 3)


def test_ghost_identities_p2_up_to_4():
    assert wittpoly.verify_ghost_identities(2, 4)


def test_zpoly_arithmetic():
    X, Y = wittpoly._gens(0)
    x, y = X[0], Y[0]
    assert not x - x
    assert (x + y) ** 3 == x ** 3 + 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3
    assert (x + y) * (x - y) == x * x - y * y
    assert (2 * x) ** 2 == x * x * 4
    assert not (x + y) * 0


def test_first_sum_polys_match_hand_computation():
    # S_0 = X_0 + Y_0, S_1 = X_1 + Y_1 - sum of cross terms / p
    X, Y = wittpoly._gens(1)
    S = wittpoly._derive(2, "sum", 1)
    assert S[0] == X[0] + Y[0]
    assert S[1] == X[1] + Y[1] - X[0] * Y[0]


def test_first_prod_polys_match_hand_computation():
    X, Y = wittpoly._gens(1)
    P = wittpoly._derive(3, "prod", 1)
    assert P[0] == X[0] * Y[0]
    assert P[1] == X[0] ** 3 * Y[1] + X[1] * Y[0] ** 3 + 3 * X[1] * Y[1]


def test_negation_at_odd_p_is_componentwise():
    # for odd p, -(x_0, x_1, ...) = (-x_0, -x_1, ...)
    for n in range(3):
        X, _ = wittpoly._gens(n)
        assert not wittpoly._derive(3, "neg", n)[n] + X[n]


def test_frobenius_poly_leading_term():
    # F_0 = X_0^p + p X_1
    X, _ = wittpoly._gens(0)
    F = wittpoly._derive(3, "frob", 0)
    assert F[0] == X[0] ** 3 + 3 * X[1]


def test_eval_terms_reduce_mod_p():
    for op in ("sum", "prod", "neg"):
        for n in range(3):
            for c, _ in wittpoly.eval_terms(3, op, n):
                assert 0 < c < 3


def test_eval_poly_matches_symbolic():
    from framecalc.rings import prime_field
    R = prime_field(5)
    terms = wittpoly.eval_terms(5, "sum", 1)
    S1 = wittpoly._derive(5, "sum", 1)[1]  # in X0, X1, X2, Y0, Y1
    for vals in [(1, 2, 3, 4), (0, 4, 2, 1), (3, 3, 3, 3)]:
        point = vals[:2] + (0,) + vals[2:]
        exact = sum(c * math.prod(v ** e for v, e in zip(point, monom))
                    for monom, c in S1.items())
        args = [R.el(v) for v in vals]
        assert wittpoly.eval_poly(terms, args, R) == R.el(exact % 5)


def test_oracle_rejects_a_perturbed_polynomial(monkeypatch):
    # the oracle must fail when any derived polynomial is off by a constant
    derive = wittpoly._derive
    for op in OPS:
        def perturbed(p, o, n, op=op):
            polys = derive(p, o, n)
            one = ZPoly({(0,) * (2 * n + 3): 1})
            return polys[:-1] + (polys[-1] + one,) if o == op else polys
        monkeypatch.setattr(wittpoly, "_derive", perturbed)
        assert not wittpoly.verify_ghost_identities(3, 2)
    monkeypatch.setattr(wittpoly, "_derive", derive)
    assert wittpoly.verify_ghost_identities(3, 2)


# ---------------------------------------------------------------------------
# sympy as an independent reference
# ---------------------------------------------------------------------------

def _sympy_ghost(R, p, comps, n):
    return sum((p ** i * comps[i] ** (p ** (n - i)) for i in range(n + 1)), R.zero)


def _sympy_terms(p, op, n):
    """eval_terms(p, op, n) by sympy's own ghost inversion over ZZ."""
    nx = n + 2 if op == "frob" else n + 1
    ny = n + 1 if op in ("sum", "prod") else 0
    R, *gens = sympy_ring([f"X{i}" for i in range(nx)]
                          + [f"Y{i}" for i in range(ny)], sympy.ZZ)
    X, Y = gens[:nx], gens[nx:]
    polys = []
    for k in range(n + 1):
        wx = _sympy_ghost(R, p, X, k)
        if op == "sum":
            target = wx + _sympy_ghost(R, p, Y, k)
        elif op == "prod":
            target = wx * _sympy_ghost(R, p, Y, k)
        elif op == "neg":
            target = -wx
        else:
            target = _sympy_ghost(R, p, X, k + 1)
        num = target - sum((p ** i * polys[i] ** (p ** (k - i)) for i in range(k)),
                           R.zero)
        assert all(c % p ** k == 0 for c in num.values())
        polys.append(num.quo_ground(p ** k))
    return tuple((int(c) % p, tuple(monom)) for monom, c in polys[n].terms()
                 if int(c) % p)


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 1), (2, 4), (3, 3)])
def test_eval_terms_match_a_sympy_derivation(p, n):
    for op in OPS:
        assert wittpoly.eval_terms(p, op, n) == _sympy_terms(p, op, n), op


def test_ghost_identities_rechecked_with_sympy():
    p, n = 3, 2
    R, *gens = sympy_ring([f"X{i}" for i in range(n + 2)]
                          + [f"Y{i}" for i in range(n + 1)], sympy.ZZ)
    X, Y = gens[:n + 2], gens[n + 2:]
    S, P, N, F = ([R.from_dict(dict(f)) for f in wittpoly._derive(p, op, n)]
                  for op in OPS)
    for k in range(n + 1):
        wx, wy = _sympy_ghost(R, p, X, k), _sympy_ghost(R, p, Y, k)
        assert _sympy_ghost(R, p, S, k) == wx + wy
        assert _sympy_ghost(R, p, P, k) == wx * wy
        assert _sympy_ghost(R, p, N, k) == -wx
        assert _sympy_ghost(R, p, F, k) == _sympy_ghost(R, p, X, k + 1)


def test_ghost_inversion_check_fires_off_the_image():
    # ghost_1(X_0, S_1) = X_0^3 + 3 S_1 = X_0 has no integral solution
    X, _ = wittpoly._gens(0)
    with pytest.raises(VerificationError, match="non-integral coefficient in S_1"):
        wittpoly._invert_ghost(3, 1, X[0], [X[0]])
