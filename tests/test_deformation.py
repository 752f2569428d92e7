"""Descent along thickenings, Hodge lifts, and fiber classification."""

import itertools
import random

import pytest

from framecalc import deformation, linalg, orthogonal
from framecalc.rings import (SquareZeroExtension, VerificationError,
                             dual_number_extension, prime_field,
                             truncated_poly_ring)
from framecalc.frames import RelativeFrame, Thickening, WittFrame, ZipFrame
from framecalc.displays import Display, GradedMatrix, group_elements
from framecalc.orthogonal import (OrthDisplay, exp_minus_orth, exp_plus_orth,
                                  levi_element, o2_elements,
                                  orth_group_elements, plain_gram,
                                  standard_J, verify_orth)
from framecalc.deformation import (_ZIP_LEVEL_CAP, WittKernelCoords,
                                   _linear_columns, _zip_level,
                                   base_change, kernel_basis,
                                   skew_basis, stabilizer_lifts,
                                   classify_witt_fiber, conj_operator,
                                   fiber_direction_basis,
                                   enumerate_hodge_deformations,
                                   hodge_lift_matrix, hodge_lift_parameters,
                                   is_isomorphic_witt, k3_deform,
                                   lift_orth_display,
                                   lift_uniqueness_witness, solve_descent,
                                   solve_identity_iso, tau_inverse_kernel,
                                   theta,
                                   witt_orth_zip_lift_pairs,
                                   witt_zip_lift_pairs)
from framecalc.fixtures import gl2_fixture, k3_fixture


def _rand_kernel_matrix(th, mu, rng):
    """I + random J-supported entries over W_2(B)."""
    s0 = th.source.s0
    js = list(th.ext.j_elements())
    n = len(mu)
    I = linalg.identity(s0, n)
    return [[I[i][j] + s0.el([rng.choice(js), rng.choice(js)])
             for j in range(n)] for i in range(n)]


def test_lift_reduce_is_identity_gl():
    th, d = gl2_fixture()
    dhat = base_change(d, th.source, th.lift0, Display)
    assert linalg.mat_eq(base_change(dhat, th.target, th.eps0).phi, d.phi)


def test_lift_reduce_is_identity_orth():
    th, d = k3_fixture()
    dhat = lift_orth_display(th, d)
    assert verify_orth(dhat)
    assert linalg.mat_eq(base_change(dhat, th.target, th.eps0).phi, d.phi)


def test_theta_shifts_positive_and_kills_nonpositive():
    th, d = gl2_fixture()
    rel = th.source
    mu = d.mu
    rng = random.Random(1)
    Y = _rand_kernel_matrix(th, mu, rng)
    T = theta(rel, mu, Y)
    # only the (1,0) slot has positive degree for mu = (1,0)
    assert T[0][0] == rel.s0.one()
    assert T[1][1] == rel.s0.one()
    assert T[0][1].is_zero()
    shifted = rel.s0.el([Y[1][0].comps[1], rel.ext.B.zero()])
    assert T[1][0] == shifted


def test_descent_operator_is_nilpotent():
    th, d = gl2_fixture()
    rel = th.source
    rng = random.Random(2)
    g = d.phi
    g_hat = base_change(d, th.source, th.lift0, Display).phi
    g_inv = linalg.mat_inverse(rel.s0, g_hat)
    I = linalg.identity(rel.s0, 2)
    for _ in range(10):
        term = _rand_kernel_matrix(th, d.mu, rng)
        for _ in range(rel.m + 1):
            term = conj_operator(rel, d.mu, g_hat, g_inv, term)
        assert linalg.mat_eq(term, I)


def test_solve_descent_exact_and_unique():
    th, d = gl2_fixture()
    rel = th.source
    rng = random.Random(3)
    g = base_change(d, th.source, th.lift0, Display).phi
    for _ in range(30):
        h = _rand_kernel_matrix(th, d.mu, rng)
        y = solve_descent(rel, d.mu, g, h)  # re-substitution asserted inside
        y2 = solve_descent(rel, d.mu, g, h)
        assert linalg.mat_eq(y, y2)


def test_tau_inverse_kernel_inverts_tau():
    th, d = gl2_fixture()
    rel = th.source
    rng = random.Random(4)
    for _ in range(20):
        Y = _rand_kernel_matrix(th, d.mu, rng)
        z = tau_inverse_kernel(rel, d.mu, Y)
        assert linalg.mat_eq(z.tau(), Y)
        assert linalg.mat_eq(z.sigma(), theta(rel, d.mu, Y))


def test_two_lifts_conjugate_by_descent_witness():
    th, d = gl2_fixture()
    rel = th.source
    rng = random.Random(5)
    d1 = base_change(d, th.source, th.lift0, Display)
    js = list(th.ext.j_elements())
    s0 = rel.s0
    for _ in range(50):
        eta = [[s0.el([rng.choice(js), rng.choice(js)]) for _ in range(2)]
               for _ in range(2)]
        d2 = Display(rel, d.mu, linalg.mat_add(d1.phi, eta))
        z = lift_uniqueness_witness(rel, d1, d2)  # asserts d1.act(z) == d2
        assert linalg.mat_eq(d1.act(z).phi, d2.phi)


def test_hodge_lift_counts():
    th_gl, d_gl = gl2_fixture()
    assert len(list(hodge_lift_parameters(th_gl.source, d_gl.mu))) == 3
    th_k3, d_k3 = k3_fixture()
    assert len(list(hodge_lift_parameters(th_k3.source, d_k3.mu,
                                          orth=True))) == 9


def test_hodge_lift_matrices_have_identity_sigma():
    th, d = gl2_fixture()
    rel = th.source
    I = linalg.identity(rel.s0, d.n)
    for params in hodge_lift_parameters(rel, d.mu):
        A = hodge_lift_matrix(rel, d.mu, params)
        assert linalg.mat_eq(A.sigma(), I)


def test_hodge_deformations_reduce_and_are_distinct():
    th, d = gl2_fixture()
    deformations = enumerate_hodge_deformations(th, d)
    assert len(deformations) == 3
    seen = set()
    for dd in deformations:
        assert dd.frame.kind == "witt"
        assert linalg.mat_eq(
            base_change(dd, th.target, th.eps0).phi, d.phi)
        seen.add(hash(dd))
    assert len(seen) == 3


def _unit_directions(coords):
    """The kernel matrices with one entry a J-supported unit Witt vector,
    in the order of coords' value coordinates, as dense matrices: unit k
    encodes to the k-th unit vector of the "jsupp" coordinate space."""
    s0 = coords.frame.s0
    n = len(coords.mu)
    units = []
    for i in range(n):
        for j in range(n):
            for c, mo in coords.value_basis:
                K = linalg.zeros(s0, n, n)
                K[i][j] = coords._witt_unit(c, mo)
                units.append(K)
    return units


@pytest.mark.parametrize("fixture", [gl2_fixture, k3_fixture], ids=["gl2", "k3"])
def test_fiber_directions_are_jsupp_coordinate_vectors(fixture):
    th, d = fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    s0 = frame_b.s0
    coords = WittKernelCoords(frame_b, d.mu, "jsupp", ext=ext)
    units = _unit_directions(coords)
    # the unit kernel matrices encode to the unit vectors, in order
    assert len(units) == 2 * d.n ** 2
    assert [coords.encode_value_matrix(K) for K in units] == fiber_direction_basis(coords)
    if not verify_orth(d):
        return
    # each orthogonal direction, rebuilt as a matrix from the units, solves
    # the linearized condition K^t J Phi + Phi^t J K = 0
    phi = base_change(d, frame_b, th.lift0).phi
    J = standard_J(s0, d.n)
    dirs = fiber_direction_basis(coords, orth_base=phi)
    assert dirs
    for vec in dirs:
        K = linalg.zeros(s0, d.n, d.n)
        for c, unit in zip(vec, units):
            for _ in range(c):
                K = linalg.mat_add(K, unit)
        cond = linalg.mat_add(
            linalg.mat_mul(s0, linalg.transpose(K), linalg.mat_mul(s0, J, phi)),
            linalg.mat_mul(s0, linalg.transpose(phi), linalg.mat_mul(s0, J, K)))
        assert all(e.is_zero() for row in cond for e in row)
        assert coords.encode_value_matrix(K) == vec


def test_classify_gl_fixture_frozen_report():
    th, d = gl2_fixture()
    report = classify_witt_fiber(th, d)
    # passed: each Hodge deformation lands in its own class
    assert report["passed"]
    assert report["classes"] == 3
    assert report["hodge_lifts"] == 3
    assert report["fiber_dim"] == 8
    assert report["action_rank"] == 7
    assert report["cosets"] == 3
    assert report["stab_components"] == 6


def test_gl_deformations_pairwise_noniso_over_witt_b():
    th, d = gl2_fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    deformations = enumerate_hodge_deformations(th, d)
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    pairs = witt_zip_lift_pairs(frame_b, d.mu, ext.A, ext.section)
    resmap = lambda w: ext.proj(w.comps[0])
    for i, a in enumerate(deformations):
        for j, b in enumerate(deformations):
            assert is_isomorphic_witt(coords, pairs, resmap, a, b) == (i == j)


def test_gl_deformations_all_iso_over_relative_frame():
    # unique lifting: over the relative frame the whole fiber is one class
    th, d = gl2_fixture()
    rel = th.source
    deformations = enumerate_hodge_deformations(th, d)
    rels = [Display(rel, d.mu, dd.phi) for dd in deformations]
    coords = WittKernelCoords(rel, d.mu, "zip")
    for other in rels[1:]:
        z = solve_identity_iso(coords, rels[0], other)
        assert z is not None
        assert rels[0].act(z) == other


def test_k3_deform_count_and_verification():
    th, d = k3_fixture()
    deformations = k3_deform(th, d)
    assert len(deformations) == 9
    seen = set()
    for dd in deformations:
        assert verify_orth(dd)
        assert linalg.mat_eq(
            base_change(dd, th.target, th.eps0).phi, d.phi)
        seen.add(hash(dd))
    assert len(seen) == 9


def test_ordinary_base_collapses_to_one_class():
    # with the identity matrix as base the kernel action is surjective on
    # the fiber directions: a single class, and a single Hodge lift class
    ext = dual_number_extension(3)
    th = Thickening(ext, 2)
    s0 = th.target.s0
    d = Display(th.target, (1, 0), linalg.identity(s0, 2))
    report = classify_witt_fiber(th, d)
    assert report["classes"] == 1
    assert report["action_rank"] == 8
    assert not report["passed"]  # the Hodge count 3 is not matched


# ---------------------------------------------------------------------------
# The lazy lift tower against the eager construction it replaces
# ---------------------------------------------------------------------------

def _eager_gl_pairs(wframe, mu, zring, lift_scalar):
    """Every (g0, Teichmueller lift) of the zip-level group, built at once."""
    s0 = wframe.s0
    return [(g0, GradedMatrix.from_payloads(
                wframe, mu, [[s0.teichmuller(lift_scalar(e.payload)) for e in row]
                             for row in g0.entries]))
            for g0 in group_elements(ZipFrame(zring), mu)]


def _eager_orth_pairs(wframe, mu, zring, lift_scalar):
    """The orthogonal zip group with its lifts, Levi times lower times upper
    unipotent, every lift built at once."""
    zf = ZipFrame(zring)
    s0 = wframe.s0
    n = len(mu)

    def teich(a):
        return s0.teichmuller(lift_scalar(a))

    elems = list(zring.elements())
    pairs = []
    for a in [a for a in elems if a.is_unit()]:
        for H in o2_elements(zring):
            grid_z = [[zring.zero()] * n for _ in range(n)]
            grid_w = [[s0.zero()] * n for _ in range(n)]
            grid_z[0][0], grid_w[0][0] = a, teich(a)
            grid_z[n - 1][n - 1] = a.invert()
            grid_w[n - 1][n - 1] = teich(a.invert())
            for bi in range(2):
                for bj in range(2):
                    grid_z[1 + bi][1 + bj] = H[bi][bj]
                    grid_w[1 + bi][1 + bj] = teich(H[bi][bj])
            l_z = GradedMatrix.from_payloads(zf, mu, grid_z)
            l_w = GradedMatrix.from_payloads(wframe, mu, grid_w)
            for xm in itertools.product(elems, repeat=n - 2):
                lum_z = l_z * exp_minus_orth(zf, mu, list(xm))
                lum_w = l_w * exp_minus_orth(wframe, mu, [teich(x) for x in xm])
                for xp in itertools.product(elems, repeat=n - 2):
                    pairs.append((lum_z * exp_plus_orth(zf, mu, list(xp)),
                                  lum_w * exp_plus_orth(
                                      wframe, mu, [teich(x) for x in xp])))
    return pairs


@pytest.fixture(scope="module")
def k3_tower():
    th, d = k3_fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    args = (frame_b, d.mu, ext.A, ext.section)
    return th, d, frame_b, witt_orth_zip_lift_pairs(*args), _eager_orth_pairs(*args)


def _brute_transporter(pairs, z1, z2):
    return [k for k, (g0, _) in enumerate(pairs) if z1.act(g0) == z2]


def test_orth_tower_transporter_matches_brute_force(k3_tower):
    th, d, frame_b, tower, eager = k3_tower
    assert len(tower) == len(eager) == 648
    resmap = lambda w: th.ext.proj(w.comps[0])
    z0 = base_change(k3_deform(th, d)[0], tower.frame, resmap, Display)
    z1 = z0.act(eager[100][0])
    for a, b in [(z0, z0), (z1, z0)]:
        brute = _brute_transporter(eager, a, b)
        assert brute
        assert tower.transporter(a, b) == brute
    assert tower.transporter(z0, z0) is tower.transporter(z0, z0)
    assert len(tower.transporter(z0, z0)) == 6


def test_orth_tower_lifts_match_eager_construction(k3_tower):
    _, _, _, tower, eager = k3_tower
    for k, (g0, ghat) in enumerate(eager):
        assert tower[k] == (g0, ghat)
    assert sorted(tower._lifts) == list(range(len(eager)))
    assert tower[-1] == eager[-1]
    with pytest.raises(IndexError):
        tower[len(eager)]


def test_orth_tower_follows_the_orthogonal_group_enumeration():
    # the zip level is orth_group_elements in its order, and every lift over
    # W_2(F_3) reduces to its g0 through the leading Witt coordinate
    F3 = prime_field(3)
    mu = (1, 0, 0, -1)
    tower = witt_orth_zip_lift_pairs(WittFrame(F3, 2), mu, F3, lambda a: a)
    pairs = list(tower)
    assert [g0 for g0, _ in pairs] == list(orth_group_elements(ZipFrame(F3), mu))
    for g0, ghat in pairs:
        assert [[w.comps[0] for w in row]
                for row in ghat.payload_grid()] == g0.payload_grid()


def test_gl_tower_matches_eager_construction():
    th, d = gl2_fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    args = (frame_b, d.mu, ext.A, ext.section)
    tower = witt_zip_lift_pairs(*args)
    eager = _eager_gl_pairs(*args)
    assert len(tower) == len(eager)
    resmap = lambda w: ext.proj(w.comps[0])
    zs = [base_change(dd, tower.frame, resmap, Display)
          for dd in enumerate_hodge_deformations(th, d)]
    zs.append(zs[0].act(eager[5][0]))
    for a in zs:
        for b in zs:
            assert tower.transporter(a, b) == _brute_transporter(eager, a, b)
    assert not tower._lifts
    assert list(tower) == eager


def test_isomorphism_query_lifts_only_transporter_elements():
    th, d = k3_fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    tower = witt_orth_zip_lift_pairs(frame_b, d.mu, ext.A, ext.section)
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    resmap = lambda w: ext.proj(w.comps[0])
    defs = k3_deform(th, d)
    assert not is_isomorphic_witt(coords, tower, resmap, defs[0], defs[1],
                                  orth=True)
    z1 = base_change(defs[0], tower.frame, resmap, Display)
    z2 = base_change(defs[1], tower.frame, resmap, Display)
    # a negative answer lifts the whole transporter and nothing else
    assert sorted(tower._lifts) == tower.transporter(z1, z2)
    assert len(tower._lifts) < len(tower)
    assert is_isomorphic_witt(coords, tower, resmap, defs[2], defs[2],
                              orth=True)
    assert set(tower._lifts) == set(tower.transporter(z1, z2))


def test_stabilizer_lifts_match_eager_search():
    th, d = k3_fixture()
    frame_a = th.target
    zring = frame_a.ring
    args = (frame_a, d.mu, zring, lambda a: a)
    tower = witt_orth_zip_lift_pairs(*args)
    coords = WittKernelCoords(frame_a, d.mu, "resfield")
    stabs = stabilizer_lifts(d, tower, coords, orth=True)
    # the eager search: every lift pair, filtered at the zip level
    z0 = base_change(d, tower.frame, lambda w: w.comps[0], Display)
    basis = skew_basis(coords)
    expected = []
    for g0, ghat in _eager_orth_pairs(*args):
        if z0.act(g0) != z0:
            continue
        z = solve_identity_iso(coords, d.act(ghat), d, basis_vectors=basis)
        if z is not None:
            expected.append(ghat * z)
    assert stabs == expected
    assert len(stabs) == 6
    assert sorted(tower._lifts) == tower.transporter(z0, z0)


def _count_calls(monkeypatch, name):
    """(args, kwargs, result) of every call of deformation.<name> that
    returns, from here on."""
    calls = []
    real = getattr(deformation, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out
    monkeypatch.setattr(deformation, name, counted)
    return calls


def _capture_stabilizer_tower(monkeypatch):
    """The towers classify_witt_fiber hands to stabilizer_lifts."""
    towers = []
    real = deformation.stabilizer_lifts

    def capture(d, tower, *args, **kwargs):
        towers.append(tower)
        return real(d, tower, *args, **kwargs)
    monkeypatch.setattr(deformation, "stabilizer_lifts", capture)
    return towers


@pytest.mark.parametrize("orth", [True, False])
def test_fiber_classification_shares_the_query_zip_level(monkeypatch, orth):
    # the query tower over W_2(B) and the stabilizer tower over W_2(A) share
    # one enumeration of the zip-level group and one transporter memo
    th, d = k3_fixture() if orth else gl2_fixture()
    ext = th.ext
    _zip_level.cache_clear()
    calls = _count_calls(monkeypatch,
                         "orth_group_factors" if orth else "group_elements")
    make = witt_orth_zip_lift_pairs if orth else witt_zip_lift_pairs
    query = make(WittFrame(ext.B, 2), d.mu, ext.A, ext.section)
    assert len(calls) == 1
    resmap = lambda w: ext.proj(w.comps[0])
    z0 = base_change(enumerate_hodge_deformations(th, d, orth=orth)[0],
                     query.frame, resmap, Display)
    memo = query.transporter(z0, z0)
    towers = _capture_stabilizer_tower(monkeypatch)
    report = classify_witt_fiber(th, d, orth=orth)
    assert report["passed"]
    assert report["stab_components"] == 6
    assert len(calls) == 1
    [tower] = towers
    assert tower is not query and tower.frame == query.frame
    assert tower.transporter(z0, z0) is memo
    # the lifts stay per tower: W_2(A) lifts for the stabilizer only
    assert not query._lifts
    assert sorted(tower._lifts) == memo


def test_zip_level_cache_stays_at_its_cap():
    keys = [(prime_field(p), mu) for p in (2, 3) for mu in ((0,), (1,), (1, 0))]
    assert len(keys) > _ZIP_LEVEL_CAP
    for zring, mu in keys:
        tower = witt_zip_lift_pairs(WittFrame(zring, 2), mu, zring, lambda a: a)
        assert len(tower) == len(list(group_elements(ZipFrame(zring), mu)))
        assert _zip_level.cache_info().currsize <= _ZIP_LEVEL_CAP
    assert _zip_level.cache_info().currsize == _ZIP_LEVEL_CAP
    assert _zip_level.cache_info().maxsize == _ZIP_LEVEL_CAP


def _dense_columns(coords, left, right, basis_vectors):
    """zeta -> left sigma(zeta) - tau(zeta) right by dense matrix products,
    with zeta decoded from its coordinates."""
    s0 = coords.frame.s0
    I = linalg.identity(s0, len(coords.mu))
    cols = []
    for bv in basis_vectors:
        Z = coords.decode(bv)
        sig = linalg.mat_sub(Z.sigma(), I)
        tau = linalg.mat_sub(Z.tau(), I)
        cols.append(coords.encode_value_matrix(linalg.mat_sub(
            linalg.mat_mul(s0, left, sig), linalg.mat_mul(s0, tau, right))))
    return cols


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_linear_columns_match_dense_formula(seed):
    th, d = k3_fixture()
    frame_b = WittFrame(th.ext.B, 2)
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    s0 = frame_b.s0
    els = list(s0.elements())
    rng = random.Random(seed)
    n = len(d.mu)
    left = [[rng.choice(els) for _ in range(n)] for _ in range(n)]
    right = [[rng.choice(els) for _ in range(n)] for _ in range(n)]
    units = kernel_basis(coords)
    skew = kernel_basis(coords, orth=True)
    mixed = [[rng.randrange(coords.p) for _ in range(coords.dim)]
             for _ in range(3)]
    for basis in (units, skew, mixed):
        assert (_linear_columns(coords, left, right, basis)
                == _dense_columns(coords, left, right, basis))


# ---------------------------------------------------------------------------
# A base that is not a field
# ---------------------------------------------------------------------------

def _nonfield_thickening(cls, fixture, b_power=3):
    """(thickening, display over W_2(A)) for B = F_3[x]/x^b_power and
    A = B/(x^2), so J = (x^2): the fixture's matrix read in W_2(A), times
    the tau of a degree-0 element with entries off F_3, where a = (1+x, x)
    and t = [1+x]: diag(a, t, t^-1, a^-1) for the K3 type, diag(a, t) for
    GL."""
    ext = SquareZeroExtension(truncated_poly_ring(3, "x", b_power), ((2,),))
    th = Thickening(ext, 2)
    frame, s0, A = th.target, th.target.s0, ext.A
    _, d0 = fixture()
    phi = [[s0.el([A.el(c.coeffs[0]) for c in w.comps]) for w in row]
           for row in d0.phi]
    one_x = A.el({(0,): 1, (1,): 1})
    a, t = s0.el([one_x, A.el({(1,): 1})]), s0.teichmuller(one_x)
    zero = s0.zero()
    if cls is OrthDisplay:
        g = levi_element(frame, d0.mu, a, a.invert(),
                         [[t, zero], [zero, t.invert()]])
    else:
        g = GradedMatrix.from_payloads(frame, d0.mu, [[a, zero], [zero, t]])
    return th, cls(frame, d0.mu, linalg.mat_mul(s0, phi, g.tau()))


@pytest.fixture(scope="module")
def nonfield_k3():
    return _nonfield_thickening(OrthDisplay, k3_fixture)


def test_section_lift_is_not_orthogonal_on_a_nonfield_base(nonfield_k3):
    # the section A -> B is not multiplicative here, so the square-zero
    # correction runs with E = U^t J U - J nonzero
    th, d = nonfield_k3
    s0 = th.source.s0
    U = base_change(d, th.source, th.lift0, Display).phi
    E = linalg.mat_sub(plain_gram(s0, U, U), standard_J(s0, d.n))
    assert any(not e.is_zero() for row in E for e in row)
    assert verify_orth(lift_orth_display(th, d))


def test_fiber_classification_on_a_nonfield_base(nonfield_k3):
    th, d = nonfield_k3
    report = classify_witt_fiber(th, d, orth=True)
    assert report["passed"]
    assert report["classes"] == report["hodge_lifts"] == len(k3_deform(th, d)) == 9
    th, d = _nonfield_thickening(Display, gl2_fixture)
    report = classify_witt_fiber(th, d)
    assert report["passed"]
    assert report["classes"] == report["hodge_lifts"] == 3


def test_fiber_classification_refuses_m_b_j_nonzero(monkeypatch):
    # B = F_3[x]/x^4, A = B/(x^2): x * x^2 = x^3 is not zero in B; refused
    # before the lift is built
    th, d = _nonfield_thickening(OrthDisplay, k3_fixture, b_power=4)
    lifts = _count_calls(monkeypatch, "lift_orth_display")
    with pytest.raises(ValueError, match="needs m_B J = 0"):
        classify_witt_fiber(th, d, orth=True)
    assert not lifts


def test_orthogonal_correction_check_fires(monkeypatch, nonfield_k3):
    # 1 in place of 1/2; on k3_fixture E = 0, so the correction is the
    # identity there and the check cannot fire
    th, d = nonfield_k3
    monkeypatch.setattr(orthogonal, "half", lambda s0: s0.one())
    with pytest.raises(VerificationError, match="orthogonal correction failed: phi = "):
        lift_orth_display(th, d)


def test_deformation_orthogonality_check_fires(monkeypatch):
    th, d = k3_fixture()
    real = deformation.exp_plus_orth

    def doubled(frame, mu, xs):
        A = real(frame, mu, xs)
        A.entries[0][0] = A.entries[0][0] + A.entries[0][0]
        return A
    monkeypatch.setattr(deformation, "exp_plus_orth", doubled)
    with pytest.raises(VerificationError, match="deformation lost orthogonality: phi = "):
        k3_deform(th, d)


def test_fiber_classification_lifts_the_base_once(monkeypatch, nonfield_k3):
    # one lift_orth_display per classification: the fiber's base point and
    # the Hodge deformations share it
    lifts = _count_calls(monkeypatch, "lift_orth_display")
    for k, (th, d) in enumerate([k3_fixture(), nonfield_k3], 1):
        assert classify_witt_fiber(th, d, orth=True)["passed"]
        assert len(lifts) == k


# ---------------------------------------------------------------------------
# Rank-one images against the dense formulas
# ---------------------------------------------------------------------------

CLASSIFIER_INPUTS = ["gl2", "k3", "nonfield-gl2", "nonfield-k3"]


def _classifier_input(name):
    """(thickening, display over W_2(A), orth) for a fixture or for the
    base that is not a field."""
    fixture = k3_fixture if name.endswith("k3") else gl2_fixture
    orth = fixture is k3_fixture
    if name.startswith("nonfield"):
        th, d = _nonfield_thickening(OrthDisplay if orth else Display, fixture)
    else:
        th, d = fixture()
    return th, d, orth


@pytest.mark.parametrize("name", CLASSIFIER_INPUTS)
def test_classifier_images_match_dense_formulas(monkeypatch, name):
    # every rank-one image the classifier builds, against the dense products
    # over the unit kernel matrices and the decoded basis vectors
    th, d, orth = _classifier_input(name)
    columns = _count_calls(monkeypatch, "_linear_columns")
    conjugations = _count_calls(monkeypatch, "_conjugation_columns")
    directions = _count_calls(monkeypatch, "fiber_direction_basis")
    report = classify_witt_fiber(th, d, orth=orth)
    assert report["passed"]
    # the fiber's V first, then the stabilizer search's queries
    assert columns[0][0][0].kind == "jsupp"
    assert len(columns) > report["stab_components"]
    for args, _, out in columns:
        assert out == _dense_columns(*args)
    assert len(conjugations) == report["stab_components"]
    for (coords, tau_inv, sig), _, out in conjugations:
        sb = coords.frame.s0
        assert out == [coords.encode_value_matrix(
            linalg.mat_mul(sb, tau_inv, linalg.mat_mul(sb, K, sig)))
            for K in _unit_directions(coords)]
    [((coords,), kwargs, out)] = directions
    phi = kwargs["orth_base"]
    if not orth:
        assert phi is None
        return
    s0 = coords.frame.s0

    def cond(K):
        return linalg.mat_add(plain_gram(s0, K, phi), plain_gram(s0, phi, K))
    dense = [coords.encode_value_matrix(cond(K)) for K in _unit_directions(coords)]
    assert out == linalg.kernel_modp(coords.p, dense)


@pytest.mark.parametrize("fixture", [gl2_fixture, k3_fixture], ids=["gl2", "k3"])
def test_query_linear_columns_match_dense_formula(fixture):
    # L = d1.act(ghat).phi over the whole transporter of an off-diagonal
    # query, R = the target, on the basis the query solves over
    th, d = fixture()
    ext = th.ext
    orth = fixture is k3_fixture
    frame_b = WittFrame(ext.B, 2)
    make = witt_orth_zip_lift_pairs if orth else witt_zip_lift_pairs
    tower = make(frame_b, d.mu, ext.A, ext.section)
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    resmap = lambda w: ext.proj(w.comps[0])
    d1, d2 = enumerate_hodge_deformations(th, d, orth=orth)[:2]
    z1, z2 = (base_change(x, tower.frame, resmap, Display) for x in (d1, d2))
    basis = kernel_basis(coords, orth)
    ks = tower.transporter(z1, z2)
    assert len(ks) == 6
    for k in ks:
        left = d1.act(tower[k][1]).phi
        assert (_linear_columns(coords, left, d2.phi, basis)
                == _dense_columns(coords, left, d2.phi, basis))


@pytest.mark.parametrize("kind", ["resfield", "jsupp"])
def test_encode_value_matches_the_component_route(kind):
    # every element of W_2(B): the flat-index encoder against a reading of
    # e.comps component by component; a unit is refused
    th, d = k3_fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    coords = WittKernelCoords(frame_b, d.mu, kind, ext=ext)
    pos = {(c, ext.B.coord_index(mo)): k for k, (c, mo) in enumerate(coords.value_basis)}
    inside = 0
    for e in frame_b.s0.elements():
        hits = [((c, i), x) for c, comp in enumerate(e.comps)
                for i, x in enumerate(comp.coeffs) if x]
        if any(key not in pos for key, _ in hits):
            with pytest.raises(ValueError, match="value outside the kernel space"):
                coords.encode_value(e)
            continue
        inside += 1
        v = [0] * len(coords.value_basis)
        for key, x in hits:
            v[pos[key]] = x
        assert coords.encode_value(e) == v
    assert inside == 3 ** len(coords.value_basis)
    with pytest.raises(ValueError, match="value outside the kernel space"):
        coords.encode_value(frame_b.s0.one())


# ---------------------------------------------------------------------------
# The classifier's and the tower search's checks fire
# ---------------------------------------------------------------------------

def test_tower_search_verification_fires(monkeypatch):
    # the solver hands back the identity, so g = ghat, which does not carry
    # d1 to d2 on an off-diagonal query
    th, d = k3_fixture()
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    tower = witt_orth_zip_lift_pairs(frame_b, d.mu, ext.A, ext.section)
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    d1, d2 = k3_deform(th, d)[:2]
    monkeypatch.setattr(deformation, "solve_identity_iso",
                        lambda c, *args, **kwargs: GradedMatrix.identity(c.frame, c.mu))
    with pytest.raises(VerificationError,
                       match="linear solution failed exact verification: g = "):
        is_isomorphic_witt(coords, tower, lambda w: ext.proj(w.comps[0]), d1, d2,
                           orth=True)


def test_kernel_action_check_fires(monkeypatch):
    # the first column of V replaced by the unit vector e_0, which is not a
    # direction of the orthogonal fiber
    real = deformation._linear_columns

    def first_unit(coords, *args):
        cols = real(coords, *args)
        return [[int(k == 0) for k in range(len(cols[0]))]] + cols[1:]
    monkeypatch.setattr(deformation, "_linear_columns", first_unit)
    th, d = k3_fixture()
    with pytest.raises(VerificationError,
                       match=r"kernel action left the fiber: column \[1, 0, 0,"):
        classify_witt_fiber(th, d, orth=True)


def test_stabilizer_check_fires(monkeypatch):
    # the stabilizer search hands back the lift of a zip-level element
    # outside the stabilizer of d
    def outside(d, tower, coords_res, orth=False):
        z0 = base_change(d, tower.frame, d.frame.s0.to_residue, Display)
        inside = tower.transporter(z0, z0)
        return [tower[next(k for k in range(len(tower)) if k not in inside)][1]]
    monkeypatch.setattr(deformation, "stabilizer_lifts", outside)
    th, d = k3_fixture()
    with pytest.raises(VerificationError,
                       match="stabilizer did not preserve the kernel image: s = "):
        classify_witt_fiber(th, d, orth=True)
