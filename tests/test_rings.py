"""Finite fields, monomial quotient rings, and square-zero extensions."""

import itertools

import pytest

from framecalc import serialize
from framecalc.rings import (ArtinRing, Field, NotAUnit, dual_numbers,
                             dual_number_extension, extension_field,
                             prime_field, truncated_poly_ring)


def test_prime_field_arithmetic_exhaustive():
    F = prime_field(5)
    els = list(F.elements())
    assert len(els) == 5
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def test_extension_field_f9():
    F9 = extension_field(3, 2)
    els = list(F9.elements())
    assert len(els) == 9
    # multiplicative group has order 8
    g = F9.el({(): [0, 1]})
    powers = set()
    x = F9.one()
    for _ in range(8):
        x = x * g
        powers.add(x.coeffs)
    # the default modulus is chosen so that t generates (checked, not assumed)
    nonzero = [a for a in els if not a.is_zero()]
    for a in nonzero:
        assert a.invert() * a == F9.one()


def test_frobenius_is_additive_on_f9():
    F9 = extension_field(3, 2)
    for a in F9.elements():
        for b in F9.elements():
            assert (a + b) ** 3 == a ** 3 + b ** 3


def test_bad_field_parameters():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        Field(2, 2, [1, 1])  # wrong degree


def test_artin_ring_basis_and_size():
    R = dual_numbers(3)
    assert R.size == 9
    assert len(R.basis) == 2
    T = truncated_poly_ring(3, "x", 3)
    assert T.size == 27
    two_vars = ArtinRing(Field(2), ("x", "y"), ((2, 0), (0, 2), (1, 1)))
    assert len(two_vars.basis) == 3  # 1, x, y


def test_artin_ring_not_cofinite():
    with pytest.raises(ValueError):
        ArtinRing(Field(3), ("x", "y"), ((2, 0),))


def test_ring_axioms_exhaustive_dual_numbers():
    R = dual_numbers(2)
    els = list(R.elements())
    assert len(els) == 4
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        assert a + R.zero() == a
        assert a * R.one() == a
        assert a + (-a) == R.zero()


def test_units_and_inverses():
    R = truncated_poly_ring(3, "x", 2)
    units = [a for a in R.elements() if a.is_unit()]
    assert len(units) == 6
    for u in units:
        assert u * u.invert() == R.one()
    x = R.el({(1,): 1})
    assert not x.is_unit()
    with pytest.raises(NotAUnit):
        x.invert()


def test_residue_roundtrip():
    R = truncated_poly_ring(3, "x", 2)
    for a in R.elements():
        r = R.to_residue(a)
        assert R.to_residue(R.lift_residue(r)) == r


def test_square_zero_extension_projection_section():
    ext = dual_number_extension(3)
    A, B = ext.A, ext.B
    for b in B.elements():
        a = ext.proj(b)
        assert a.ring == A
        assert ext.proj(ext.section(a)) == a
    # the section is additive and multiplicative modulo J
    for a1 in A.elements():
        for a2 in A.elements():
            assert ext.proj(ext.section(a1) * ext.section(a2)) == a1 * a2


def test_kernel_squares_to_zero():
    ext = dual_number_extension(5)
    js = list(ext.j_elements())
    assert len(js) == ext.j_size == 5
    for x in js:
        for y in js:
            assert (x * y).is_zero()


def test_kernel_not_square_zero_rejected():
    from framecalc.rings import SquareZeroExtension
    B = truncated_poly_ring(3, "x", 3)
    with pytest.raises(ValueError):
        SquareZeroExtension(B, ((1,),))  # kernel (x, x^2) has x*x != 0


def test_elements_enumeration_is_deterministic():
    R = extension_field(3, 2)
    first = [repr(a) for a in R.elements()]
    second = [repr(a) for a in R.elements()]
    assert first == second
    assert len(first) == 9


# ---------------------------------------------------------------------------
# The flat representation against a polynomial reference
# ---------------------------------------------------------------------------
#
# The reference reads an element through serialize.elem_to_dict as a
# polynomial {(monomial, t-degree): coefficient} and computes with it over
# F_p: products multiply polynomials, then reduce by the monomial ideal and
# the modulus of t; Frobenius is x * ... * x (p factors).

FLAT_RINGS = [
    prime_field(5),
    extension_field(2, 3),
    extension_field(3, 2),
    dual_numbers(3),
    ArtinRing(Field(2), ("x", "y"), ((2, 0), (1, 1), (0, 2))),
    ArtinRing(Field(3, 2), ("x",), ((2,),)),
]


def _poly(R, a):
    out = {}
    for mono, cs in serialize.elem_to_dict(a).items():
        m = serialize.mono_from_str(R.vars, mono)
        for e, c in enumerate(cs):
            if c:
                out[m, e] = c
    return out


def _ref_reduce(R, poly):
    p, mod = R.field.p, list(R.field.modulus)
    f = len(mod) - 1
    by_mono = {}
    for (m, e), c in poly.items():
        if any(all(gi <= mi for gi, mi in zip(g, m)) for g in R.ideal_gens):
            continue
        cs = by_mono.setdefault(m, [])
        cs.extend([0] * (e + 1 - len(cs)))
        cs[e] += c
    out = {}
    for m, cs in by_mono.items():
        # t^top = t^(top - f) * (t^f - modulus), highest degree first
        for top in range(len(cs) - 1, f - 1, -1):
            lead = cs[top]
            for i in range(f + 1):
                cs[top - f + i] -= lead * mod[i]
        for e in range(min(f, len(cs))):
            if cs[e] % p:
                out[m, e] = cs[e] % p
    return out


def _ref_add(R, a, b):
    total = dict(a)
    for k, c in b.items():
        total[k] = total.get(k, 0) + c
    return _ref_reduce(R, total)


def _ref_mul(R, a, b):
    prod = {}
    for (m1, e1), c1 in a.items():
        for (m2, e2), c2 in b.items():
            k = (tuple(x + y for x, y in zip(m1, m2)), e1 + e2)
            prod[k] = prod.get(k, 0) + c1 * c2
    return _ref_reduce(R, prod)


@pytest.mark.parametrize("R", FLAT_RINGS, ids=repr)
def test_flat_arithmetic_matches_polynomial_reference(R):
    els = list(R.elements())
    polys = [_poly(R, a) for a in els]
    one = _poly(R, R.one())
    for a, pa in zip(els, polys):
        assert _poly(R, -a) == _ref_reduce(R, {k: -c for k, c in pa.items()})
        power = one
        for _ in range(R.p):
            power = _ref_mul(R, power, pa)
        assert _poly(R, a.frobenius()) == power
        inverses = []
        for b, pb in zip(els, polys):
            assert _poly(R, a + b) == _ref_add(R, pa, pb)
            prod = _ref_mul(R, pa, pb)
            assert _poly(R, a * b) == prod
            if prod == one:
                inverses.append(b)
        if inverses:
            assert a.is_unit() and [a.invert()] == inverses
        else:
            assert not a.is_unit()
            with pytest.raises(NotAUnit):
                a.invert()


@pytest.mark.parametrize("R", FLAT_RINGS, ids=repr)
def test_enumeration_order_is_lexicographic_in_monomial_coefficients(R):
    p, f = R.field.p, R.field.f
    names = [serialize.mono_to_str(R.vars, m) for m in R.basis]
    expected = [{n: list(cs) for n, cs in zip(names, combo) if any(cs)}
                for combo in itertools.product(
                    itertools.product(range(p), repeat=f), repeat=len(R.basis))]
    els = list(R.elements())
    assert [serialize.elem_to_dict(a) for a in els] == expected
    assert [serialize.elem_from_dict(R, d) for d in expected] == els
    assert all(isinstance(a.coeffs, tuple) and len(a.coeffs) == f * len(R.basis)
               and all(c in range(p) for c in a.coeffs) for a in els)


def test_elem_from_dict_reduces_long_coefficient_lists():
    R = ArtinRing(Field(3, 2), ("x",), ((2,),))
    a = serialize.elem_from_dict(R, {"x": [1, 2, 1, 1], "1": [2, 0, 4]})
    raw = {((1,), 0): 1, ((1,), 1): 2, ((1,), 2): 1, ((1,), 3): 1,
           ((0,), 0): 2, ((0,), 2): 4}
    assert _poly(R, a) == _ref_reduce(R, raw)
    F5 = prime_field(5)
    assert serialize.elem_from_dict(F5, {"1": [7, 3]}) == F5.el(2)
