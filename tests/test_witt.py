"""Truncated Witt ring arithmetic against ring axioms, frozen values and
the universal polynomials (the second route of the ghost arithmetic)."""

import itertools
import random

import pytest

from framecalc import witt, wittpoly
from framecalc.rings import (NotAUnit, RingMismatch, dual_numbers,
                             extension_field, prime_field, truncated_poly_ring)
from framecalc.witt import (NotInIdeal, TruncationUnderflow, WittRing,
                            divided_frobenius, frobenius_fixed, teichmuller,
                            verschiebung, verschiebung_trunc, witt_frobenius)


RINGS_SMALL = [
    (prime_field(3), 2),      # 9 elements
    (prime_field(3), 3),      # 27
    (prime_field(2), 3),      # 8
    (extension_field(3, 2), 2),          # 81
    (truncated_poly_ring(3, "x", 2), 2),  # 81
]


@pytest.mark.parametrize("ring,m", RINGS_SMALL)
def test_ring_axioms_exhaustive(ring, m):
    wr = WittRing(ring, m)
    els = list(wr.elements())
    assert len(els) == ring.size ** m <= 10 ** 4
    zero, one = wr.zero(), wr.one()
    for x in els:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
    # pairwise laws exhaustively; triples only for the smallest rings
    for x in els:
        for y in els:
            assert x + y == y + x
            assert x * y == y * x
    # triple laws on a deterministic sub-grid (full |W|^3 is out of scale)
    sample = els[:: max(1, len(els) // 9)]
    for x, y, z in itertools.product(sample, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (2, 3)])
def test_additive_order_of_one(p, m):
    wr = WittRing(prime_field(p), m)
    one = wr.one()
    acc = one
    order = 1
    while not acc.is_zero():
        acc = acc + one
        order += 1
        assert order <= p ** m
    assert order == p ** m
    # and W_m(F_p) is cyclic: from_int is a bijection onto the ring
    images = {wr.from_int(k) for k in range(p ** m)}
    assert len(images) == p ** m


def test_frozen_values_w2_f3():
    wr = WittRing(prime_field(3), 2)
    R = wr.ring
    W = lambda a, b: wr.el([R.el(a), R.el(b)])
    assert W(1, 0) + W(2, 0) == W(0, 0)
    assert W(1, 1) * W(1, 1) == W(1, 2)
    assert -W(1, 0) == W(2, 0)
    # the constants are built once per interned ring
    assert wr.zero() is WittRing(R, 2).zero() and wr.zero() == W(0, 0)
    assert wr.one() is WittRing(R, 2).one() and wr.one() == W(1, 0)


def test_teichmuller_is_multiplicative():
    ring = extension_field(3, 2)
    for a in ring.elements():
        for b in ring.elements():
            lhs = teichmuller(a, 3) * teichmuller(b, 3)
            assert lhs == teichmuller(a * b, 3)


@pytest.mark.parametrize("ring,m", [(dual_numbers(3), 2), (extension_field(3, 2), 3)],
                         ids=["W2(F3[e]/e2)", "W3(F9)"])
def test_lift_residue_is_the_teichmuller_lift_of_the_ring_lift(ring, m):
    wr = WittRing(ring, m)
    for c in wr.residue_field.elements():
        lifted = wr.lift_residue(c)
        assert lifted == wr.el([ring.lift_residue(c)] + [0] * (m - 1))
        assert lifted == wr.teichmuller(ring.lift_residue(c))
        assert wr.to_residue(lifted) == c


def test_verschiebung_is_additive():
    wr = WittRing(prime_field(3), 2)
    for x in wr.elements():
        for y in wr.elements():
            assert verschiebung(x + y) == verschiebung(x) + verschiebung(y)
            assert verschiebung_trunc(x + y) == \
                verschiebung_trunc(x) + verschiebung_trunc(y)


def test_frobenius_is_a_ring_map():
    wr = WittRing(prime_field(3), 3)
    els = list(wr.elements())
    for x in els[::3]:
        for y in els[::3]:
            assert witt_frobenius(x + y) == witt_frobenius(x) + witt_frobenius(y)
            assert witt_frobenius(x * y) == witt_frobenius(x) * witt_frobenius(y)


def test_frobenius_after_verschiebung_is_p():
    wr = WittRing(prime_field(3), 2)
    for x in wr.elements():
        assert witt_frobenius(verschiebung(x)) == x + x + x


def test_fixed_length_frobenius_char_p():
    # over F_p the fixed-length Frobenius is the identity; over F_9 it is
    # the field Frobenius componentwise
    wr = WittRing(prime_field(3), 2)
    for x in wr.elements():
        assert frobenius_fixed(x) == x
    ring9 = extension_field(3, 2)
    wr9 = WittRing(ring9, 2)
    x = wr9.el([ring9.el({(): [1, 1]}), ring9.el({(): [0, 2]})])
    fx = frobenius_fixed(x)
    assert fx.comps[0] == x.comps[0] ** 3
    assert fx.comps[1] == x.comps[1] ** 3


def test_divided_frobenius_is_a_section_of_v():
    wr = WittRing(prime_field(3), 3)
    small = WittRing(prime_field(3), 2)
    for x in small.elements():
        assert divided_frobenius(verschiebung(x)) == x
    with pytest.raises(NotInIdeal):
        divided_frobenius(wr.one())


def test_frobenius_of_length_one_underflows():
    with pytest.raises(TruncationUnderflow):
        witt_frobenius(WittRing(prime_field(3), 1).one())


@pytest.mark.parametrize("ring,m", [(dual_numbers(3), 2), (prime_field(2), 3),
                                    (extension_field(2, 2), 2)],
                         ids=["W2(F3[e]/e2)", "W3(F2)", "W2(F4)"])
def test_invert_is_the_brute_force_inverse(ring, m):
    wr = WittRing(ring, m)
    els = list(wr.elements())
    for x in els:
        inverses = [y for y in els if x * y == wr.one()]
        if inverses:
            assert x.is_unit() and [x.invert()] == inverses
        else:
            assert not x.is_unit()
            with pytest.raises(NotAUnit):
                x.invert()


# ---------------------------------------------------------------------------
# The flat element: one coordinate tuple, components as a view
# ---------------------------------------------------------------------------

FLAT_RINGS = [(dual_numbers(3), 2), (extension_field(2, 2), 3),
              (truncated_poly_ring(3, "x", 4), 2)]
FLAT_IDS = ["W2(F3[e]/e2)", "W3(F4)", "W2(F3[x]/x4)"]


def _fresh(monkeypatch, ring, m):
    # a fresh interned ring, so its memo (if it has one) starts empty
    monkeypatch.setattr(WittRing, "_instances", {})
    return WittRing(ring, m)


def _flat_sample(wr):
    # every element, or a seeded sample of 600 beyond |W| = 4096
    if wr.size <= 4096:
        return list(wr.elements())
    rng = random.Random(f"{wr!r}")
    base = list(wr.ring.elements())
    return [wr.el([rng.choice(base) for _ in range(wr.m)]) for _ in range(600)]


def test_memo_covers_the_small_rings_only():
    sizes = {FLAT_IDS[k]: WittRing(ring, m).size for k, (ring, m) in enumerate(FLAT_RINGS)}
    assert sizes == {"W2(F3[e]/e2)": 81, "W3(F4)": 64, "W2(F3[x]/x4)": 6561}
    assert WittRing(*FLAT_RINGS[2])._memo is None
    assert all(WittRing(*rm)._memo is not None for rm in FLAT_RINGS[:2])


@pytest.mark.parametrize("ring,m", FLAT_RINGS, ids=FLAT_IDS)
def test_flat_element_is_its_components(monkeypatch, ring, m):
    wr = _fresh(monkeypatch, ring, m)
    d = ring.dim
    for x in _flat_sample(wr):
        assert len(x.coeffs) == m * d and all(type(a) is int for a in x.coeffs)
        assert wr.el(x.comps) == x
        assert x.comps == tuple(x.comp(n) for n in range(m))
        assert [c.coeffs for c in x.comps] == [x.coeffs[n * d:(n + 1) * d]
                                               for n in range(m)]
        # the hash of the component coordinate tuples keeps set and dict
        # orders, and so the report bytes, as they were
        assert hash(x) == hash(tuple(c.coeffs for c in x.comps))
        assert x.is_zero() == all(c.is_zero() for c in x.comps)
        assert verschiebung_trunc(x) == wr.el([0] + list(x.comps[:-1]))


def test_elements_come_in_component_order():
    for ring, m in FLAT_RINGS[:2]:
        wr = WittRing(ring, m)
        expected = [wr.el(combo) for combo in
                    itertools.product(list(ring.elements()), repeat=m)]
        assert list(wr.elements()) == expected


@pytest.mark.parametrize("ring,m", FLAT_RINGS, ids=FLAT_IDS)
def test_fixed_frobenius_is_componentwise_on_a_miss_and_a_hit(monkeypatch, ring, m):
    wr = _fresh(monkeypatch, ring, m)
    for x in _flat_sample(wr):
        expected = wr.el([c.frobenius() for c in x.comps])
        miss = frobenius_fixed(x)
        assert miss == expected
        hit = frobenius_fixed(wr.el(x.comps))
        assert hit == expected
        if wr._memo is not None:
            assert wr._memo[("F", x.coeffs)] is miss and hit is miss
    if wr._memo is not None:
        assert len(wr._memo) == wr.size


def test_memo_stops_growing_at_the_cap(monkeypatch):
    # a fresh memoized W_2(F_3[e]/e^2) with a small cap against a fresh one
    # without a memo; the second pass also reads the capped memo's hits
    monkeypatch.setattr(witt, "MEMO_CAP", 50)
    monkeypatch.setattr(WittRing, "_instances", {})
    capped = WittRing(dual_numbers(3), 2)
    monkeypatch.setattr(WittRing, "_instances", {})
    plain = WittRing(dual_numbers(3), 2)
    plain._memo = None
    assert capped is not plain and capped._memo == {}
    els = list(capped.elements())
    for _ in range(2):
        for x in els[:20]:
            for y in els:
                assert capped.add(x, y) == plain.add(x, y)
                assert capped.mul(x, y) == plain.mul(x, y)
                assert capped.neg(y) == plain.neg(y)
                assert len(capped._memo) <= 50
    assert len(capped._memo) == 50
    # ghost vectors count against the cap: some were stored before it was
    # reached, and none is stored after
    assert "w" in {key[0] for key in capped._memo}
    last = els[-1]
    assert ("w", last.coeffs) not in capped._memo
    assert capped._ghosts(last) == plain._ghosts(last)
    assert len(capped._memo) == 50 and ("w", last.coeffs) not in capped._memo


# ---------------------------------------------------------------------------
# The ghost route on the flat lift against the universal polynomials
# ---------------------------------------------------------------------------

def _polynomial_route(wr, op, *args):
    """The reference: component n is wittpoly's mod-p term list of op at
    index n, evaluated at components 0..n of the arguments."""
    return wr.el([
        wittpoly.eval_poly(wittpoly.eval_terms(wr.p, op, n),
                           sum((x.comps[:n + 1] for x in args), ()), wr.ring)
        for n in range(wr.m)])


def _unmemoized(monkeypatch, ring, m):
    # a fresh ring without a memo, so every operation takes the lift route
    wr = _fresh(monkeypatch, ring, m)
    wr._memo = None
    return wr


def _assert_routes_agree(wr, pairs):
    for x, y in pairs:
        assert wr.add(x, y) == _polynomial_route(wr, "sum", x, y), (x, y)
        assert wr.mul(x, y) == _polynomial_route(wr, "prod", x, y), (x, y)
        assert wr.neg(x) == _polynomial_route(wr, "neg", x), x


EXHAUSTIVE_RINGS = [(prime_field(2), 3), (prime_field(3), 2),
                    (extension_field(3, 2), 2), (dual_numbers(3), 2)]
EXHAUSTIVE_IDS = ["W3(F2)", "W2(F3)", "W2(F9)", "W2(F3[e]/e2)"]


@pytest.mark.parametrize(
    "ring,m,memo", [(ring, m, memo) for memo in (False, True) for ring, m in EXHAUSTIVE_RINGS],
    ids=EXHAUSTIVE_IDS + [f"{i}-memo" for i in EXHAUSTIVE_IDS])
def test_lift_route_matches_the_polynomials_exhaustively(monkeypatch, ring, m, memo):
    # with the memo a sum or product reaches the ghost route only for
    # operands whose top components are zero, and every miss after an
    # operand's first reads its ghost vector from the memo; without it every
    # miss recomputes both
    wr = _fresh(monkeypatch, ring, m) if memo else _unmemoized(monkeypatch, ring, m)
    els = list(wr.elements())
    _assert_routes_agree(wr, itertools.product(els, repeat=2))
    if memo:
        # the ghost vectors made are exactly those of the elements with a
        # zero top component, and at p = 2 of every negated element too
        ghosts = {key[1]: w for key, w in wr._memo.items() if key[0] == "w"}
        routed = [x for x in els if wr.p == 2 or x.comp(m - 1).is_zero()]
        assert len(routed) == (len(els) if wr.p == 2 else len(els) // ring.size)
        assert sorted(ghosts) == sorted(x.coeffs for x in routed)
        twin = _unmemoized(monkeypatch, ring, m)
        assert twin is not wr
        for x in routed:
            assert type(ghosts[x.coeffs]) is tuple
            assert ghosts[x.coeffs] == twin._ghosts(twin.el(x.comps))


@pytest.mark.parametrize("ring,m,inversions", [
    (prime_field(2), 3, 32), (prime_field(3), 3, 162),
    (extension_field(3, 2), 2, 162), (dual_numbers(3), 2, 162)],
    ids=["W3(F2)", "W3(F3)", "W2(F9)", "W2(F3[e]/e2)"])
def test_tables_invert_the_ghost_map_once_per_pair_of_truncations(monkeypatch, ring, m,
                                                                  inversions):
    # a memo miss with a nonzero top component goes through the memoized
    # result of the operands with their top components zeroed, so the + and
    # * tables of a fresh memo ring make one ghost inversion per pair of
    # elements of W_{m-1}(R) and operation
    wr = _fresh(monkeypatch, ring, m)
    calls = []
    inner = wr._from_ghosts
    monkeypatch.setattr(wr, "_from_ghosts", lambda *args: calls.append(args) or inner(*args))
    els = list(wr.elements())
    for x, y in itertools.product(els, repeat=2):
        wr.add(x, y)
        wr.mul(x, y)
    assert len(calls) == inversions == 2 * WittRing(ring, m - 1).size ** 2


@pytest.mark.parametrize("ring,m", EXHAUSTIVE_RINGS, ids=EXHAUSTIVE_IDS)
def test_top_component_identities_hold_on_the_polynomials(ring, m):
    # x + V^(m-1)[a] is x with a added to its top component, and
    # x V^(m-1)[a] = V^(m-1)[x_0^(p^(m-1)) a] (from x V(y) = V(F(x) y)),
    # each checked on the universal polynomials only
    wr = WittRing(ring, m)
    for a in ring.elements():
        va = teichmuller(a, 1)
        for _ in range(m - 1):
            va = verschiebung(va)
        assert va.wring == wr
        for x in wr.elements():
            comps = list(x.comps)
            assert _polynomial_route(wr, "sum", x, va) == wr.el(comps[:-1] + [comps[-1] + a])
            assert _polynomial_route(wr, "prod", x, va) == \
                wr.el([0] * (m - 1) + [comps[0] ** (wr.p ** (m - 1)) * a])


@pytest.mark.parametrize("ring,m,count", [
    (prime_field(3), 3, 2000), (dual_numbers(3), 3, 1000),
    (truncated_poly_ring(2, "e", 3), 3, 1000), (extension_field(2, 2), 3, 1000),
    (prime_field(5), 3, 1000), (dual_numbers(5), 3, 500)],
    ids=["W3(F3)", "W3(F3[e]/e2)", "W3(F2[e]/e3)", "W3(F4)", "W3(F5)", "W3(F5[e]/e2)"])
def test_lift_route_matches_the_polynomials_on_seeded_pairs(monkeypatch, ring, m, count):
    wr = _unmemoized(monkeypatch, ring, m)
    rng = random.Random(f"{ring!r}/{m}")
    base = list(ring.elements())

    def draw():
        return wr.el([rng.choice(base) for _ in range(m)])
    _assert_routes_agree(wr, [(draw(), draw()) for _ in range(count)])


def test_lifted_table_reduces_the_modulus_over_the_integers():
    # F_9 = F_3[t]/(t^2 + 1): t * t = -1 is 2 mod 3 and 8 mod 9
    F9 = extension_field(3, 2, [1, 0, 1])
    t = F9.el({(): [0, 1]})
    assert F9._lifted == {}
    assert (t * t).coeffs == (2, 0) and (1, 1, 0, 2) in F9._mul
    assert F9.lift_mul(t.coeffs, t.coeffs, 2) == [8, 0]
    assert (1, 1, 0, 8) in F9._lifted[2]
    assert sorted((i, j, k) for i, j, k, _ in F9._lifted[2]) == \
        sorted((i, j, k) for i, j, k, _ in F9._mul)


@pytest.mark.parametrize("ring", [dual_numbers(3), truncated_poly_ring(2, "e", 3)],
                         ids=["W3(F3[e]/e2)", "W3(F2[e]/e3)"])
def test_lifted_rows_are_the_repeated_products(ring):
    # row j of an element x is x^(p^j) on the flat lift mod p^3, here the
    # chain of p^j - 1 products by x; arithmetic leaves the shared rows as
    # they are
    wr = WittRing(ring, 3)
    p = ring.p
    for x in ring.elements():
        power, chain = list(x.coeffs), [list(x.coeffs)]
        for k in range(2, p ** 2 + 1):
            power = ring.lift_mul(power, x.coeffs, 3)
            if k in (p, p ** 2):
                chain.append(power)
        assert [list(r) for r in wr._row(x.coeffs)] == chain
        assert wr._row(x.coeffs) is wr._row(x.coeffs)
    rng = random.Random(7)
    base = list(ring.elements())
    for _ in range(200):
        x, y = (wr.el([rng.choice(base) for _ in range(3)]) for _ in range(2))
        assert x + y == y + x and x * y == y * x and -(-x) == x
    assert {len(row) for row in wr._rows.values()} == {3}


def test_inexact_ghost_inversion_raises():
    # w_1 = 1 with c_0 = 0 asks for c_1 = 1/3 in W_2(F_3)
    wr = WittRing(prime_field(3), 2)
    with pytest.raises(AssertionError):
        wr._from_ghosts(wr.ring.zero(), [[1]])
    assert wr._from_ghosts(wr.ring.zero(), [[3]]) == wr.el([0, 1])


def test_witt_rings_of_different_rings_do_not_mix():
    x = WittRing(prime_field(3), 2).one()
    for other in (WittRing(prime_field(3), 3), WittRing(dual_numbers(3), 2)):
        with pytest.raises(RingMismatch):
            x + other.one()
        assert x != other.one()
    assert x == WittRing(prime_field(3), 2).el([1, 0])
