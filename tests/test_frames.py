"""Frame axioms, the zip projection, the thickening and the J-cokernel of
the relative frame."""

import pytest

from framecalc.fixtures import fixture_frames
from framecalc.rings import (VerificationError, dual_number_extension,
                             dual_numbers, extension_field, prime_field,
                             truncated_poly_ring)
from framecalc.witt import WittRing
from framecalc.frames import (RelativeFrame, TautologicalFrame, Thickening,
                              WittFrame, ZipFrame, check_frame_map,
                              check_zip_projection, frame_axiom_check)


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
    assert frame.p_size == len(ps)
    if frame.t_is_zero:
        for x in ps:
            assert frame.t1(x).is_zero() and frame.p_is_zero(frame.tP(x))
    if frame.p_is_s0:
        p_elem = frame.p_elem
        # P is S0, or P = 0 is the zero of S0 (the tautological frame)
        assert set(ps) == set(s0s) if frame.has_p_module else ps == [frame.s0.zero()]
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
    # the tautological frame's P = 0 lies in S0: (True, False) is no fixture's
    facts = {(f.t_is_zero, f.p_is_s0) for f in frames_under_test()}
    assert facts == {(True, True), (False, True), (False, False)}


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


def _break(frame, t1_at=None, tP_at=None, nu_at=None, act_at=None):
    """frame with t1 off by 1 or tP off by the P-element 1 (the pair (1, 0)
    on the relative frame) at one element of P, or nu or act off by the
    P-element 1 at one pair."""
    t1, tP, nu, act = frame.t1, frame.tP, frame.nu, frame.act
    one = frame.s0.one()
    one_p = one if frame.p_is_s0 else (one, frame.ext.B.zero())
    if t1_at is not None:
        frame.t1 = lambda x: t1(x) + one if x == t1_at else t1(x)
    if tP_at is not None:
        frame.tP = lambda x: frame.p_add(tP(x), one_p) if x == tP_at else tP(x)
    if nu_at is not None:
        frame.nu = lambda x, y: (frame.p_add(nu(x, y), one_p) if (x, y) == nu_at
                                 else nu(x, y))
    if act_at is not None:
        frame.act = lambda s, x: (frame.p_add(act(s, x), one_p) if (s, x) == act_at
                                  else act(s, x))
    return frame


def test_zip_projection_names_each_broken_pair():
    # pairs over the same images share the target's value, yet each pair's
    # own projection is compared with it, although each S0 value is reduced
    # once: one broken nu and act pair is reported, and nothing else, on the
    # Witt frame (P = S0) and on the relative frame (P = pairs)
    for frame in [WittFrame(prime_field(3), 2), RelativeFrame(dual_number_extension(3), 2)]:
        s, t = frame.s0.el([1, 2]), frame.s0.el([2, 1])
        if frame.p_is_s0:
            x, y = s, t
        else:
            j = list(frame.ext.j_elements())[1]
            x, y = (s, j), (t, frame.ext.B.zero())
        _break(frame, nu_at=(x, y), act_at=(s, y))
        report = check_zip_projection(frame, budget=20000, seed=0)
        assert report["mode"] == "exhaustive", frame.kind
        assert report["failures"] == [("nu", (repr(x), repr(y))),
                                      ("act", (repr(s), repr(y)))], frame.kind


# a frame broken at one place, with the number of checks and the first
# failure of each loop: (frame, budget, broken map, index into P or into
# S0 and P, checks, failures); the relative frame's |S0| |P| = 19683
# exceeds 19682, so its check is sampled with seed 0
BROKEN_AXIOMS = {
    "exhaustive-t1": (
        lambda: WittFrame(dual_numbers(3), 2), 20000, "t1", 40, 10255,
        [{"axiom": "sigma0-t1", "witness": "(1 + 1*e, 1 + 1*e)"},
         {"axiom": "t-linearity-act", "witness": ("(1 + 1*e, 1 + 1*e)", "(0, 1*e)")},
         {"axiom": "t1-projection", "witness": ("(0, 1*e)", "(1 + 1*e, 1 + 1*e)")}]),
    "exhaustive-act": (
        lambda: WittFrame(dual_numbers(3), 2), 20000, "act", (5, 7), 12441,
        [{"axiom": "t-linearity-act", "witness": ("(1 + 2*e, 0)", "(0, 2 + 1*e)")},
         {"axiom": "sigmadot-act", "witness": ("(0, 1 + 2*e)", "(0, 2 + 1*e)")}]),
    "sampled-t1": (
        lambda: RelativeFrame(dual_number_extension(3), 2), 19682, "t1", 100, 728,
        [{"axiom": "sigma0-t1", "witness": "((1, 2), 1*e)"},
         {"axiom": "t-linearity-act",
          "witness": ("((1, 2), 1*e)", "((1 + 2*e, 2 + 1*e), 0)")}]),
    "sampled-act": (
        lambda: RelativeFrame(dual_number_extension(3), 2), 19682, "act", (40, 96), 1204,
        [{"axiom": "sigmadot-act",
          "witness": ("(1 + 1*e, 1 + 1*e)", "((1, 1 + 2*e), 0)")}]),
}


@pytest.mark.parametrize("case", BROKEN_AXIOMS.values(), ids=BROKEN_AXIOMS.keys())
def test_axiom_check_names_the_first_broken_identity(case):
    make, budget, broken, at, checks, failures = case
    frame = make()
    s0s, ps = list(frame.s0.elements()), list(frame.p_elements())
    if broken == "t1":
        _break(frame, t1_at=ps[at])
    else:
        _break(frame, act_at=(s0s[at[0]], ps[at[1]]))
    report = frame_axiom_check(frame, budget=budget, seed=0)
    mode = "exhaustive" if budget == 20000 else "sampled"
    assert (report["mode"], report["checks"], report["failures"]) == (mode, checks, failures)


def test_zip_projection_target():
    # the projection is the frame map reduce: S0 -> R to the zip frame of R;
    # on W_m(R), reduce is the first Witt component, and the second is no
    # ring map
    frame = WittFrame(prime_field(3), 2)
    target = ZipFrame(frame.r_ring)
    assert frame.reduce(frame.s0.el([1, 2])) == target.ring.el(1)
    assert check_frame_map(frame, target, frame.reduce) == check_zip_projection(frame)
    report = check_frame_map(frame, target, lambda s: s.comp(1))
    assert not report["passed"]
    assert "ring-hom" in {name for name, _ in report["failures"]}


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
    report = th.check()
    assert report["passed"], report["failures"][:5]
    assert len(list(th.k0_elements())) == 9
    # every kernel element projects to zero and sdot is nilpotent of order m
    for k in th.k0_elements():
        assert th.eps0(k).is_zero()
        assert th.sdotK(th.sdotK(k)).is_zero()


@pytest.mark.parametrize("broken, at", [("act", (40, 96)), ("tP", 100)],
                         ids=["act", "tP"])
def test_thickening_check_names_a_map_broken_at_one_place(broken, at):
    # eps is checked over all |S0| |P| = 19683 pairs, so a source map broken
    # at one place is named, and nothing else
    th = Thickening(dual_number_extension(3), 2)
    src = th.source
    s0s, ps = list(src.s0.elements()), list(src.p_elements())
    if broken == "act":
        s, x = s0s[at[0]], ps[at[1]]
        _break(src, act_at=(s, x))
        failures = [("act", (repr(s), repr(x)))]
    else:
        _break(src, tP_at=ps[at])
        failures = [("tP", repr(ps[at]))]
    assert th.check() == {"passed": False, "failures": failures}


def test_hodge_thickening_cokernel_is_j():
    # the inclusion of the W_m(B)-frame into W_m(B/A) sends a to (a, 0); its
    # cokernel in degrees 1 and 2 is J, read off by t1 and t1 tP: both have
    # the J-part of x = (a, j) as first Witt coordinate
    rel = RelativeFrame(dual_number_extension(3), 2)
    xs = list(rel.p_elements())
    assert len(xs) == rel.p_size == 243
    for x in xs:
        assert rel.t1(x).comp(0) == x[1], x
        assert rel.t1(rel.tP(x)).comp(0) == x[1], x


def test_tautological_frame_sigma_is_frobenius():
    frame = TautologicalFrame(prime_field(5))
    for a in frame.s0.elements():
        assert frame.sigma0(a) == a ** 5


def test_sdotK_check_fires_off_the_kernel():
    th = Thickening(dual_number_extension(3), 2)
    with pytest.raises(VerificationError, match="sdotK takes kernel elements only, not "):
        th.sdotK(th.source.s0.one())
