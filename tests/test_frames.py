"""Frame axioms, the zip projection, and the two thickenings."""

import pytest

from framecalc.fixtures import fixture_frames
from framecalc.rings import (dual_number_extension, extension_field,
                             prime_field, truncated_poly_ring)
from framecalc.witt import WittRing
from framecalc.frames import (HodgeThickening, RelativeFrame,
                              TautologicalFrame, Thickening, WittFrame,
                              ZipFrame, check_zip_projection,
                              frame_axiom_check, zip_projection)


def frames_under_test():
    return [
        WittFrame(prime_field(3), 2),
        ZipFrame(prime_field(3)),
        ZipFrame(extension_field(3, 2)),
        ZipFrame(truncated_poly_ring(3, "x", 2)),
        RelativeFrame(dual_number_extension(3), 2),
        TautologicalFrame(prime_field(3)),
    ]


@pytest.mark.parametrize("frame", frames_under_test(),
                         ids=lambda f: f.kind + "/" + repr(f.s0))
def test_declared_structure_facts_hold(frame):
    # the facts graded products fold their terms by, checked exhaustively
    s0s = list(frame.s0.elements())
    ps = list(frame.p_elements())
    if frame.t_is_zero:
        for x in ps:
            assert frame.t1(x).is_zero() and frame.p_is_zero(frame.tP(x))
    if frame.p_is_s0:
        p_elem = frame.p_int()
        assert set(ps) == set(s0s)
        for x in ps:
            assert frame.tP(x) == p_elem * x
            for y in ps:
                assert frame.nu(x, y) == x * y
        for s in s0s:
            for x in ps:
                assert frame.act(s, x) == frame.sigma0(s) * x


def test_frame_equality_needs_the_same_kind():
    F3 = prime_field(3)
    assert ZipFrame(F3) == ZipFrame(prime_field(3))
    assert hash(ZipFrame(F3)) == hash(ZipFrame(prime_field(3)))
    # same s0 and r_ring, different kinds
    zf, taut = ZipFrame(F3), TautologicalFrame(F3)
    assert zf.s0 == taut.s0 and zf.r_ring == taut.r_ring
    assert zf != taut and taut != zf
    # same s0 = W_2(F_3[e]/e^2), different kinds (and quotient rings)
    ext = dual_number_extension(3)
    wf, rel = WittFrame(ext.B, 2), RelativeFrame(ext, 2)
    assert wf.s0 == rel.s0
    assert wf != rel and rel != wf
    assert rel == RelativeFrame(dual_number_extension(3), 2)


def test_fixture_frames_declare_every_combination_of_facts():
    facts = {(f.t_is_zero, f.p_is_s0) for f in frames_under_test()}
    assert facts == {(True, True), (False, True), (False, False), (True, False)}


@pytest.mark.parametrize("frame", frames_under_test(),
                         ids=lambda f: f.kind + "/" + repr(f.s0))
def test_frame_axioms(frame):
    report = frame_axiom_check(frame, budget=20000, seed=0)
    assert report["passed"], report["failures"][:5]
    assert report["mode"] == "exhaustive"


P_MULTIPLE_RINGS = {f"{f.kind}/{f.s0!r}": f.s0 for f in fixture_frames()}
P_MULTIPLE_RINGS.update((repr(w), w) for w in [
    WittRing(prime_field(2), 4), WittRing(extension_field(2, 2), 3),
    WittRing(prime_field(5), 3), WittRing(truncated_poly_ring(3, "x", 4), 2)])


@pytest.mark.parametrize("s0", P_MULTIPLE_RINGS.values(), ids=P_MULTIPLE_RINGS.keys())
def test_p_multiples_are_decided_from_structure(s0):
    # p*S0 as the enumerated set {p s}: zero on R, and (0, Frob(R), ...) on
    # W_m(R), a proper subset where R is not a perfect field
    p_elem = s0.from_int(s0.p)
    elements = list(s0.elements())
    multiples = {p_elem * s for s in elements}
    assert [s0.is_p_multiple(x) for x in elements] == [x in multiples for x in elements]


@pytest.mark.parametrize("seed", range(5))
def test_sampled_checks_of_the_relative_frame(seed):
    # |S0| = 81 is listed, |S0| * |P| = 19683 exceeds the budget
    rel = fixture_frames()[4]
    report = frame_axiom_check(rel, budget=19682, seed=seed)
    assert (report["mode"], report["passed"], report["checks"]) == ("sampled", True, 1324)
    proj = check_zip_projection(rel, budget=19682, seed=seed)
    assert (proj["mode"], proj["passed"]) == ("sampled", True), proj["failures"][:5]


@pytest.mark.parametrize("frame", [WittFrame(prime_field(3), 2),
                                   RelativeFrame(dual_number_extension(3), 2)],
                         ids=["witt", "relative"])
def test_zip_projection_commutes(frame):
    report = check_zip_projection(frame, budget=20000, seed=0)
    assert report["passed"], report["failures"][:5]
    assert report["mode"] == "exhaustive"


def test_zip_projection_catches_a_non_additive_projection():
    # piP = pi0 . sigmadot; with sigmadot(x) = x^2 it is not additive, which
    # only the additivity condition sees (pi0 . sigmadot equals piP by
    # definition)
    frame = WittFrame(prime_field(3), 2)
    frame.sigmadot = lambda x: x * x
    report = check_zip_projection(frame, budget=20000, seed=0)
    assert not report["passed"]
    assert "additive" in {name for name, _ in report["failures"]}


def test_zip_projection_names_each_broken_pair():
    # pairs over the same images share the target's value, yet each pair's
    # own projection is compared with it: one broken nu and act pair among
    # 81 is reported, and nothing else
    frame = WittFrame(prime_field(3), 2)
    one = frame.s0.one()
    bad = (frame.s0.el([1, 2]), frame.s0.el([2, 1]))
    nu, act = frame.nu, frame.act
    frame.nu = lambda x, y: nu(x, y) + one if (x, y) == bad else nu(x, y)
    frame.act = lambda s, x: act(s, x) + one if (s, x) == bad else act(s, x)
    report = check_zip_projection(frame, budget=20000, seed=0)
    witness = (repr(bad[0]), repr(bad[1]))
    assert report["mode"] == "exhaustive"
    assert report["failures"] == [("nu", witness), ("act", witness)]


def test_zip_projection_target():
    frame = WittFrame(prime_field(3), 2)
    pi0, piP, target = zip_projection(frame)
    assert target.kind == "zip"
    # pi0 is reduction to the first Witt component
    x = frame.s0.el([1, 2])
    assert pi0(x) == target.ring.el(1)


def test_relative_frame_p_is_at_least_3():
    with pytest.raises(ValueError):
        RelativeFrame(dual_number_extension(2), 2)


def test_thickening_reduction_is_surjective():
    ext = dual_number_extension(3)
    th = Thickening(ext, 2)
    targets = {th.eps0(th.lift0(s)) for s in th.target.s0.elements()}
    assert len(targets) == th.target.s0.size
    for s in th.target.s0.elements():
        assert th.eps0(th.lift0(s)) == s


def test_thickening_compatibilities_and_kernel():
    ext = dual_number_extension(3)
    th = Thickening(ext, 2)
    report = th.check(samples=50, seed=0)
    assert report["passed"], report["failures"][:5]
    assert len(list(th.k0_elements())) == 9
    # every kernel element projects to zero and sdot is nilpotent of order m
    for k in th.k0_elements():
        assert th.eps0(k).is_zero()
        assert th.sdotK(th.sdotK(k)).is_zero()


def test_hodge_thickening_cokernel_is_j():
    ext = dual_number_extension(3)
    ht = HodgeThickening(ext, 2)
    assert ht.s_prime.kind == "witt"
    assert ht.s_rel.kind == "relative"
    report = ht.check()
    assert report["passed"], report["failures"][:5]


def test_tautological_frame_sigma_is_frobenius():
    frame = TautologicalFrame(prime_field(5))
    for a in frame.s0.elements():
        assert frame.sigma0(a) == a ** 5
