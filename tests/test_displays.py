"""Graded matrices, the display group action, F-zips, and orbit counts."""

import functools
import itertools
import random

import pytest

from framecalc import displays as displays_module
from framecalc import linalg
from framecalc.rings import (EnumerationTooLarge, SquareZeroExtension,
                             dual_numbers, extension_field, prime_field,
                             truncated_poly_ring)
from framecalc.frames import RelativeFrame, TautologicalFrame, WittFrame, ZipFrame
from framecalc.displays import (Display, GradedElem, GradedMatrix,
                                all_displays, classify_fzips, classify_orbits,
                                dual, from_fzip, fzip_isomorphic,
                                group_elements,
                                in_display_group, is_isomorphic_bruteforce,
                                orbit_search, tensor, to_fzip, twist,
                                unit_display)
from framecalc.fixtures import fixture_frames, rand_group_element, rand_payload


F3 = prime_field(3)
ZF3 = ZipFrame(F3)
ZF2 = ZipFrame(prime_field(2))
WF3 = WittFrame(F3, 2)


def test_graded_sigma_tau_are_multiplicative():
    rng = random.Random(2)
    mu = (1, 0)
    for frame in (ZF3, WF3):
        for _ in range(25):
            A = rand_group_element(frame, mu, rng)
            B = rand_group_element(frame, mu, rng)
            C = A * B
            s0 = frame.s0
            assert linalg.mat_eq(C.sigma(), linalg.mat_mul(s0, A.sigma(), B.sigma()))
            assert linalg.mat_eq(C.tau(), linalg.mat_mul(s0, A.tau(), B.tau()))


def _rand_graded(frame, mu_row, mu_col, rng):
    return GradedMatrix(frame, mu_row, mu_col,
                        [[GradedElem(frame, c - r, rand_payload(frame, c - r, rng))
                          for c in mu_col] for r in mu_row])


def _entrywise_product(A, B):
    """The definition: entry (i, j) is the sum over k of the
    `GradedElem.__mul__` terms A[i][k] * B[k][j]."""
    return GradedMatrix(A.frame, A.mu_row, B.mu_col, [
        [sum((A.entries[i][k] * B.entries[k][j] for k in range(len(B.entries))),
             GradedElem.zero(A.frame, B.mu_col[j] - A.mu_row[i]))
         for j in range(len(B.mu_col))] for i in range(len(A.mu_row))])


# W_2(B/A) for B = F_3[x]/x^4 and A = B/(x^2): J = (x^2) with m_B J != 0,
# so a J-part s_0 x_j differs from s_0^p x_j, unlike on the fixture frame
X4_OVER_X2 = RelativeFrame(SquareZeroExtension(truncated_poly_ring(3, "x", 4), ((2,),)), 2)


@pytest.mark.parametrize("mu", [(1, 0, 0, -1), (2, 1, 0), (1, -1)])
@pytest.mark.parametrize("frame", fixture_frames() + [X4_OVER_X2],
                         ids=lambda f: f.kind + "/" + repr(f.s0))
def test_fused_graded_product_is_the_entrywise_sum(frame, mu):
    rng = random.Random(str(mu))
    neg = tuple(-w for w in mu)
    for _ in range(3):
        A = _rand_graded(frame, mu, mu, rng)
        B = _rand_graded(frame, mu, mu, rng)
        gram = _rand_graded(frame, neg, mu, rng)
        x = _rand_graded(frame, mu, (mu[0],), rng)
        y = _rand_graded(frame, mu, (mu[-1],), rng)
        rect = _rand_graded(frame, (mu[-1] + 1, mu[0] - 1), mu, rng)
        # the square product, the shapes of form_transform's A^t B A and of
        # x^t B y, and a non-square product
        for left, right in [(A, B), (A.transpose(), gram),
                            (A.transpose() * gram, A), (x.transpose(), gram),
                            (x.transpose() * gram, y), (rect, A)]:
            assert left * right == _entrywise_product(left, right)


@pytest.mark.parametrize("frame", fixture_frames(),
                         ids=lambda f: f.kind + "/" + repr(f.s0))
def test_graded_difference_is_the_sum_with_the_negative(frame):
    rng = random.Random(7)
    mu = (2, 1, 0, -1)
    for _ in range(3):
        A = _rand_graded(frame, mu, mu, rng)
        B = _rand_graded(frame, mu, mu, rng)
        assert A - B == GradedMatrix(frame, mu, mu, [
            [a + (-b) for a, b in zip(ra, rb)]
            for ra, rb in zip(A.entries, B.entries)])


def test_graded_entry_degrees_enforced():
    with pytest.raises(ValueError):
        GradedMatrix(ZF3, (1, 0), (1, 0),
                     [[GradedElem(ZF3, 1, F3.zero()), GradedElem(ZF3, 1, F3.zero())],
                      [GradedElem(ZF3, 1, F3.zero()), GradedElem(ZF3, 1, F3.zero())]])


def test_positive_degree_entries_over_p_zero_are_refused():
    # the tautological frame has P = 0: a nonzero positive-degree payload is
    # refused by both validating constructors, a zero one is kept
    taut = TautologicalFrame(F3)
    with pytest.raises(ValueError):
        GradedMatrix.from_payloads(taut, (1, 0), [[F3.one(), F3.zero()], [F3.one(), F3.one()]])
    with pytest.raises(ValueError):
        GradedMatrix(taut, (0,), (1,), [[GradedElem(taut, 1, F3.el(2))]])
    A = GradedMatrix.from_payloads(taut, (1, 0), [[F3.one(), F3.el(2)], [F3.zero(), F3.one()]])
    assert A.entries[1][0].degree == 1 and A.entries[1][0].is_zero()


@pytest.mark.parametrize("frame", fixture_frames(),
                         ids=lambda f: f.kind + "/" + repr(f.s0))
def test_built_matrices_have_the_degrees_of_their_weights(frame):
    # products, sums, differences, transposes and the identity skip the
    # public constructor's degree check; the public constructor, handed
    # their entries with other weights, still raises
    rng = random.Random(11)
    mu = (2, 1, 0, -1)
    A = _rand_graded(frame, mu, mu, rng)
    B = _rand_graded(frame, mu, mu, rng)
    for M in (A * B, A + B, A - B, A.transpose(), GradedMatrix.identity(frame, mu)):
        assert all(e.degree == c - r
                   for r, row in zip(M.mu_row, M.entries)
                   for c, e in zip(M.mu_col, row))
        GradedMatrix(frame, M.mu_row, M.mu_col, M.entries)
        with pytest.raises(ValueError):
            GradedMatrix(frame, M.mu_row, (3,) + M.mu_col[1:], M.entries)


def test_act_is_a_right_action():
    rng = random.Random(5)
    mu = (1, 0)
    for frame in (ZF3, WF3):
        d = Display(frame, mu, linalg.identity(frame.s0, 2))
        for _ in range(20):
            A = rand_group_element(frame, mu, rng)
            B = rand_group_element(frame, mu, rng)
            assert d.act(A * B) == d.act(A).act(B)


def test_display_group_membership_weights_10():
    # over the zip frame with mu = (1,0), tau kills the degree-1 slot, so
    # group elements are exactly those with unit diagonal
    count = 0
    for g in group_elements(ZF3, (1, 0)):
        count += 1
        assert not g.entries[0][0].payload.is_zero()
        assert not g.entries[1][1].payload.is_zero()
    assert count == 36


def test_weight_zero_group_is_gln():
    # all of GL_2(F_3): 48 elements
    assert sum(1 for _ in group_elements(ZF3, (0, 0))) == 48


def test_fzip_roundtrip_exhaustive_rank_le_2():
    total = 0
    for mu in [(0,), (1,), (1, 1), (1, 0), (0, 0)]:
        frame = ZF3
        for d in all_displays(frame, len(mu), mu):
            z = to_fzip(d)
            back = from_fzip(z, frame)
            assert back == d
            assert to_fzip(back).weights == z.weights
            total += 1
    # 2 + 2 + three rank-2 types with |GL_2(F_3)| = 48 invertible matrices
    assert total == 2 + 2 + 3 * 48 == 148


def test_fzip_weights_read_off_mu():
    d = Display(ZF3, (1, 0), [[F3.zero(), F3.one()], [F3.one(), F3.el(2)]])
    assert to_fzip(d).weights == (1, 0)


def test_orbit_count_f2_dual_route():
    zf = ZipFrame(prime_field(2))
    orbits = classify_orbits(zf, (1, 0))
    zips = classify_fzips(zf, (1, 0))
    assert len(orbits) == 2
    assert len(zips) == 2
    assert sorted(len(o) for o in orbits) == [2, 4]


def test_orbit_count_f3_dual_route():
    orbits = classify_orbits(ZF3, (1, 0))
    zips = classify_fzips(ZF3, (1, 0))
    assert len(orbits) == 6
    assert len(zips) == 6


def test_orbit_count_rank1_f3():
    orbits = classify_orbits(ZF3, (1,))
    zips = classify_fzips(ZF3, (1,))
    assert len(orbits) == 2
    assert len(zips) == 2


@pytest.mark.parametrize("ring,sizes", [
    (extension_field(2, 2), [12, 12, 12, 144]), (dual_numbers(2), [16, 16, 64])],
    ids=["F4", "F2[e]/e2"])
def test_orbit_count_beyond_prime_fields_dual_route(ring, sizes):
    zf = ZipFrame(ring)
    orbits = classify_orbits(zf, (1, 0))
    zips = classify_fzips(zf, (1, 0))
    assert sorted(len(o) for o in orbits) == sizes
    assert len(zips) == len(sizes)


def _fzip_isomorphic_bruteforce(z1, z2):
    """The reference route: every n x n matrix over R, tested for the
    F-zip morphism conditions and invertibility."""
    if z1.weights != z2.weights or z1.ring != z2.ring:
        return False
    R, n = z1.ring, z1.n
    spans = displays_module._fzip_spans(z1, z2)
    for combo in itertools.product(list(R.elements()), repeat=n * n):
        g = [list(combo[i * n:(i + 1) * n]) for i in range(n)]
        if (displays_module._is_fzip_morphism(z1, z2, g, spans)
                and linalg.is_invertible(R, g)):
            return True
    return False


def _random_display(frame, mu, rng):
    return Display(frame, mu, rand_group_element(frame, (0,) * len(mu), rng).tau())


def _act_pairs(frame, count, rng):
    """(1,0) pairs; every odd-numbered second display is the first one
    moved by a random element of the display group."""
    mu = (1, 0)
    pairs = []
    for k in range(count):
        d1 = _random_display(frame, mu, rng)
        d2 = (d1.act(rand_group_element(frame, mu, rng)) if k % 2
              else _random_display(frame, mu, rng))
        pairs.append((d1, d2))
    return pairs


def _drawn_pairs(frame, mu, count, rng):
    displays = list(all_displays(frame, len(mu), mu))
    return [(rng.choice(displays), rng.choice(displays)) for _ in range(count)]


FZIP_PAIRS = {
    "F2 (1,0)": lambda rng: list(itertools.product(all_displays(ZF2, 2, (1, 0)),
                                                   repeat=2)),
    "F3 (1,0)": lambda rng: _drawn_pairs(ZF3, (1, 0), 300, rng),
    "F2 (2,1,0)": lambda rng: _drawn_pairs(ZF2, (2, 1, 0), 30, rng),
    "F9 (1,0)": lambda rng: _act_pairs(ZipFrame(extension_field(3, 2)), 6, rng),
    "F3[e]/e2 (1,0)": lambda rng: _act_pairs(ZipFrame(dual_numbers(3)), 6, rng),
}
ACT_PAIRS = ("F9 (1,0)", "F3[e]/e2 (1,0)")


@functools.lru_cache(maxsize=None)
def _fzip_pairs(name):
    rng = random.Random(f"fzip pairs {name}")
    return [(to_fzip(d1), to_fzip(d2)) for d1, d2 in FZIP_PAIRS[name](rng)]


def _hom_elements(z1, z2):
    """Every element of Hom(z1, z2) from the kernel basis, as matrices."""
    R, n = z1.ring, z1.n
    hom = displays_module._fzip_hom(z1, z2, displays_module._fzip_spans(z1, z2))
    return [displays_module._fp_matrix(
                R, n, linalg.combine_modp(R.p, hom, c, n * n * R.dim))
            for c in itertools.product(range(R.p), repeat=len(hom))]


@pytest.mark.parametrize("name", list(FZIP_PAIRS))
def test_fzip_isomorphic_matches_the_full_enumeration(name):
    pairs = _fzip_pairs(name)
    found = [fzip_isomorphic(z1, z2) for z1, z2 in pairs]
    assert found == [_fzip_isomorphic_bruteforce(z1, z2) for z1, z2 in pairs]
    if name in ACT_PAIRS:
        assert all(found[1::2])
    assert any(found) and not all(found)


@pytest.mark.parametrize("name", list(FZIP_PAIRS))
def test_fzip_hom_is_a_subspace_of_morphisms(name):
    # every element of the kernel span is a morphism, so the morphisms the
    # kernels find are closed under addition; z is isomorphic to itself
    # through the identity, which Hom(z, z) holds
    for z1, z2 in _fzip_pairs(name):
        spans = displays_module._fzip_spans(z1, z2)
        for g in _hom_elements(z1, z2):
            assert displays_module._is_fzip_morphism(z1, z2, g, spans)
        R, n = z1.ring, z1.n
        assert linalg.identity(R, n) in _hom_elements(z1, z1)
        assert fzip_isomorphic(z1, z1)


def test_fzip_hom_is_every_morphism_over_f2():
    # all 16 matrices against the kernel span, for all 36 (1,0) pairs
    def coords(g):
        return tuple(x.coeffs for row in g for x in row)

    R = prime_field(2)
    for z1, z2 in _fzip_pairs("F2 (1,0)"):
        spans = displays_module._fzip_spans(z1, z2)
        matrices = ([list(c[:2]), list(c[2:])]
                    for c in itertools.product(list(R.elements()), repeat=4))
        morphisms = {coords(g) for g in matrices
                     if displays_module._is_fzip_morphism(z1, z2, g, spans)}
        assert morphisms == {coords(g) for g in _hom_elements(z1, z2)}


def test_fzip_isomorphism_cap_bounds_the_hom_enumeration():
    # Hom(z, z) holds F_3 times the identity, so it has at least 3 elements
    z = to_fzip(next(all_displays(ZF3, 2, (1, 0))))
    with pytest.raises(EnumerationTooLarge):
        fzip_isomorphic(z, z, cap=2)
    assert fzip_isomorphic(z, z, cap=3 ** 4)


def test_fzip_isomorphism_tests_at_most_the_hom_elements(monkeypatch):
    # the full enumeration over F_9 could test 9^4 = 6,561 matrices
    pairs = _fzip_pairs("F9 (1,0)")
    sizes = [len(_hom_elements(z1, z2)) for z1, z2 in pairs]
    calls = []
    real = linalg.is_invertible

    def counted(ring, A):
        calls.append(1)
        return real(ring, A)
    monkeypatch.setattr(linalg, "is_invertible", counted)
    for (z1, z2), size in zip(pairs, sizes):
        del calls[:]
        found = fzip_isomorphic(z1, z2)
        assert 1 <= len(calls) <= size
        assert found or len(calls) == size


def test_orbit_search_needs_a_group():
    # {0, 2} is no subgroup of Z/6: the orbits {0, 2}, {1, 3} and {4, 0}
    # overlap, and a set without 0 misses the point itself
    def add(x, g):
        return (x + g) % 6

    with pytest.raises(AssertionError, match="group action"):
        orbit_search(range(6), lambda: [0, 2], add)
    with pytest.raises(AssertionError, match="group action"):
        orbit_search(range(6), lambda: [2, 4], add)
    assert orbit_search(range(6), lambda: [0, 2, 4], add) == [{0, 2, 4}, {1, 3, 5}]


def test_enumerations_past_the_cap_raise_their_own_error():
    with pytest.raises(EnumerationTooLarge):
        next(group_elements(ZF3, (1, 0), cap=10))
    with pytest.raises(EnumerationTooLarge):
        next(all_displays(ZF3, 2, (1, 0), cap=10))
    with pytest.raises(EnumerationTooLarge):
        next(all_displays(WF3, 2, (1, 0), cap=8))


def test_orbit_multiset_is_twist_invariant():
    # twisting by the unit display is an equivalence of groupoids: orbit
    # sizes at mu and mu + k agree
    base = sorted(len(o) for o in classify_orbits(ZF3, (1, 0)))
    shifted = sorted(len(o) for o in classify_orbits(ZF3, (2, 1)))
    assert base == shifted


def test_twist_and_dual_are_inverses_up_to_double_dual():
    d = Display(ZF3, (1, 0), [[F3.zero(), F3.one()], [F3.one(), F3.el(2)]])
    assert twist(twist(d, 1), -1) == d
    dd = dual(dual(d))
    assert dd.mu == d.mu
    assert linalg.mat_eq(dd.phi, d.phi)


def test_tensor_with_unit_is_identity_on_phi():
    d = Display(ZF3, (1, 0), [[F3.one(), F3.one()], [F3.el(2), F3.one()]])
    u = unit_display(ZF3, 1, 0)
    t = tensor(d, u)
    assert t.mu == d.mu
    assert linalg.mat_eq(t.phi, d.phi)


def test_isomorphic_bruteforce_consistent_with_orbits():
    orbits = classify_orbits(ZF3, (1, 0))
    reps = [next(iter(o)) for o in orbits]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            assert is_isomorphic_bruteforce(a, b) == (i == j)


@pytest.mark.parametrize("p", [2, 3])
def test_isomorphic_bruteforce_matches_the_action(monkeypatch, p):
    # every pair of (1,0) displays against the definition through act; the
    # search gets the enumerated group as a list, in enumeration order, so
    # the pairs run through its transport test rather than re-enumerating
    zf = ZipFrame(prime_field(p))
    mu = (1, 0)
    group = list(group_elements(zf, mu))
    monkeypatch.setattr(displays_module, "group_elements",
                        lambda frame, mu_, cap: iter(group))
    displays = list(all_displays(zf, 2, mu))
    for d1 in displays:
        orbit = {d1.act(g) for g in group}
        for d2 in displays:
            assert is_isomorphic_bruteforce(d1, d2) == (d2 in orbit)


def test_transports_is_the_action_equation():
    rng = random.Random(5)
    mu = (1, 0)
    for frame in (ZF3, WF3):
        displays = [Display(frame, mu, rand_group_element(frame, (0, 0), rng).tau())
                    for _ in range(4)]
        for d1 in displays:
            for _ in range(10):
                g = rand_group_element(frame, mu, rng)
                assert d1.transports(g, d1.act(g))
                for d2 in displays:
                    assert d1.transports(g, d2) == (d1.act(g) == d2)
        # tau(0) = sigma(0) = 0 passes the inverse-free test; act refuses it
        zero = GradedMatrix.from_payloads(
            frame, mu, [[GradedElem.zero(frame, mu[j] - mu[i]).payload
                         for j in range(2)] for i in range(2)])
        with pytest.raises(linalg.SingularMatrix):
            displays[0].transports(zero, displays[1])
        with pytest.raises(ValueError):
            displays[0].transports(GradedMatrix.identity(frame, (0, 0)), displays[0])


def test_invertibility_is_checked():
    with pytest.raises(ValueError):
        Display(ZF3, (1, 0), [[F3.zero(), F3.zero()],
                              [F3.zero(), F3.one()]])
    with pytest.raises(ValueError):
        Display(ZF3, (0, 1), linalg.identity(F3, 2))  # weights must descend
