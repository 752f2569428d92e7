"""Acceptance gate: the nine headline checks, with hard time budgets.

Each test prints a single PASS line with its elapsed time; every comparison
is exact equality.  Run with `python3 -m pytest tests/test_acceptance.py -s`
to see the lines as they complete.
"""

import itertools
import random
import time

import pytest

from framecalc import linalg, wittpoly
from framecalc.rings import (dual_number_extension, extension_field,
                             prime_field, truncated_poly_ring)
from framecalc.witt import WittRing
from framecalc.frames import (WittFrame, ZipFrame, check_zip_projection,
                              frame_axiom_check)
from framecalc.displays import (Display, all_displays, classify_fzips,
                                classify_orbits, from_fzip, to_fzip)
from framecalc.orthogonal import (decompose, form_transform, normalize_gram,
                                  orth_group_elements, standard_gram,
                                  verify_orth)
from framecalc.deformation import (WittKernelCoords, base_change,
                                   classify_witt_fiber, conj_operator,
                                   enumerate_hodge_deformations,
                                   is_isomorphic_witt, k3_deform,
                                   lift_orth_display, lift_uniqueness_witness,
                                   solve_identity_iso,
                                   witt_orth_zip_lift_pairs,
                                   witt_zip_lift_pairs)
from framecalc.fixtures import (fixture_frames, gl2_fixture, k3_fixture,
                                rand_gram_perturbation, rand_group_element)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"\n[acceptance] {self.name}: PASS in {elapsed:.2f}s "
              f"(budget {self.seconds}s)")
        assert elapsed < self.seconds


def test_01_witt_kernel():
    budget = Budget("01 witt kernel", 30)

    # ghost identities for the universal polynomials, symbolically over Z.
    # depth 4 at p = 3 needs an expansion with per-variable degree 243 and
    # does not fit in memory, so depth 4 is pinned at p = 2 and p = 3 stops
    # at depth 3 (see notes on the symbolic budget).
    assert wittpoly.verify_ghost_identities(2, 4)
    assert wittpoly.verify_ghost_identities(3, 3)

    # ring axioms, exhaustive in pairs with a deterministic triple sub-grid
    rings = [WittRing(prime_field(2), 3),
             WittRing(prime_field(3), 2),
             WittRing(prime_field(3), 3),
             WittRing(extension_field(3, 2), 2),
             WittRing(truncated_poly_ring(3, "x", 2), 2)]
    for wr in rings:
        assert wr.size <= 10 ** 4
        els = list(wr.elements())
        zero, one = wr.zero(), wr.one()
        for x in els:
            assert x + zero == x
            assert x * one == x
            assert x + (-x) == zero
            for y in els:
                assert x + y == y + x
                assert x * y == y * x
        grid = els[:: max(1, len(els) // 9)]
        for x in grid:
            for y in grid:
                for z in grid:
                    assert (x + y) + z == x + (y + z)
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z

    # additive order of 1 in W_m(F_p) is p^m
    for p, m in [(3, 1), (3, 2), (3, 3), (2, 3)]:
        wr = WittRing(prime_field(p), m)
        acc, order = wr.one(), 1
        while not acc.is_zero():
            acc = acc + wr.one()
            order += 1
        assert order == p ** m

    budget.done()


def test_02_frame_axioms():
    budget = Budget("02 frame axioms", 30)
    for frame in fixture_frames():
        res = frame_axiom_check(frame)
        assert res["mode"] == "exhaustive"
        assert res["passed"], res["failures"][:3]
        if frame.kind in ("witt", "relative"):
            proj = check_zip_projection(frame)
            assert proj["mode"] == "exhaustive"
            assert proj["passed"], proj["failures"][:3]
    budget.done()


def test_03_fzip_equivalence():
    budget = Budget("03 f-zip equivalence", 60)
    frame = ZipFrame(prime_field(3))
    total = 0
    for mu in [(0,), (1,), (0, 0), (1, 0), (1, 1)]:
        for d in all_displays(frame, len(mu), mu):
            z = to_fzip(d)
            assert from_fzip(z, frame) == d
            z2 = to_fzip(from_fzip(z, frame))
            assert z2.weights == z.weights and z2.C == z.C
            assert z2.D == z.D and z2.alpha == z.alpha
            total += 1
    assert total == 148
    budget.done()


def test_04_orbit_classification():
    budget = Budget("04 orbit classification", 120)
    rng = random.Random(0)
    for p in (2, 3):
        frame = ZipFrame(prime_field(p))
        d = Display(frame, (1, 0), linalg.identity(frame.s0, 2))
        for _ in range(20):
            A = rand_group_element(frame, (1, 0), rng)
            B = rand_group_element(frame, (1, 0), rng)
            assert d.act(A * B) == d.act(A).act(B)
        orbits = classify_orbits(frame, (1, 0))
        zips = classify_fzips(frame, (1, 0))
        assert len(orbits) == len(zips) == (2 if p == 2 else 6)
        shifted = classify_orbits(frame, (2, 1))
        assert (sorted(len(o) for o in orbits)
                == sorted(len(o) for o in shifted))
    budget.done()


def test_05_parabolic_decomposition():
    budget = Budget("05 parabolic decomposition", 60)
    wf = WittFrame(prime_field(3), 2)
    rng = random.Random(1)
    for _ in range(200):
        g = rand_group_element(wf, (1, 0), rng)
        q, u = decompose(g)
        assert q * u == g
    zf = ZipFrame(prime_field(3))
    count = 0
    for g in orth_group_elements(zf, (1, 0, 0, -1)):
        q, u = decompose(g)
        assert q * u == g
        count += 1
    assert count == 648
    budget.done()


def test_06_gram_normalization():
    budget = Budget("06 gram normalization", 60)
    rel = fixture_frames()[4]
    assert rel.kind == "relative"
    rng = random.Random(2)
    for mu in [(1, -1), (1, 0, 0, -1)]:
        G0 = standard_gram(rel, mu)
        for _ in range(100):
            B = rand_gram_perturbation(rel, mu, rng)
            A = normalize_gram(B)
            assert form_transform(B, A) == G0
    budget.done()


def test_07_unique_lifting():
    budget = Budget("07 unique lifting", 120)
    th, d = gl2_fixture()
    rel = th.source
    s0 = rel.s0

    dhat = base_change(d, th.source, th.lift0, Display)
    assert linalg.mat_eq(base_change(dhat, th.target, th.eps0).phi, d.phi)

    # the descent map y -> U_g(y)^{-1} y is a bijection of G(K0): the
    # domain has |K0|^(n^2) = 6561 elements and so does the image
    g = dhat.phi
    g_inv = linalg.mat_inverse(s0, g)
    k0 = list(th.k0_elements())
    assert len(k0) == 9
    I = linalg.identity(s0, 2)
    images = set()
    domain = 0
    for a, b, c, e in itertools.product(k0, repeat=4):
        Y = [[I[0][0] + a, b], [c, I[1][1] + e]]
        U = conj_operator(rel, d.mu, g, g_inv, Y)
        img = linalg.mat_mul(s0, linalg.mat_inverse(s0, U), Y)
        images.add((img[0][0], img[0][1], img[1][0], img[1][1]))
        domain += 1
    assert domain == 6561
    assert len(images) == 6561

    # any two entrywise lifts are conjugate by the descent witness
    rng = random.Random(3)
    js = list(th.ext.j_elements())
    for _ in range(50):
        eta = [[s0.el([rng.choice(js), rng.choice(js)]) for _ in range(2)]
               for _ in range(2)]
        d2 = Display(rel, d.mu, linalg.mat_add(dhat.phi, eta))
        z = lift_uniqueness_witness(rel, dhat, d2)
        assert linalg.mat_eq(dhat.act(z).phi, d2.phi)
    budget.done()


def test_08_fiber_counts_match_hodge_lifts():
    budget = Budget("08 fiber counts = hodge lifts", 300)
    th, d = gl2_fixture()
    report = classify_witt_fiber(th, d)
    assert report["passed"]
    assert report["classes"] == report["hodge_lifts"] == 3

    # cross-check: the enumerated Hodge deformations are pairwise
    # non-isomorphic over W_2(B) ...
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    deformations = enumerate_hodge_deformations(th, d)
    assert len(deformations) == 3
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    pairs = witt_zip_lift_pairs(frame_b, d.mu, ext.A, ext.section)
    resmap = lambda w: ext.proj(w.comps[0])
    for i, a in enumerate(deformations):
        for j, b in enumerate(deformations):
            assert is_isomorphic_witt(coords, pairs, resmap, a, b) == (i == j)

    # ... yet all isomorphic over the relative frame (unique lifting)
    rel = th.source
    rels = [Display(rel, d.mu, dd.phi) for dd in deformations]
    kc = WittKernelCoords(rel, d.mu, "zip")
    for other in rels[1:]:
        z = solve_identity_iso(kc, rels[0], other)
        assert z is not None
        assert rels[0].act(z) == other
    budget.done()


def test_09_k3_deformations():
    budget = Budget("09 k3 deformations", 600)
    th, d = k3_fixture()
    assert verify_orth(lift_orth_display(th, d))

    deformations = k3_deform(th, d)
    assert len(deformations) == th.ext.j_size ** (d.n - 2) == 9
    seen = set()
    for dd in deformations:
        assert verify_orth(dd)
        assert linalg.mat_eq(
            base_change(dd, th.target, th.eps0).phi, d.phi)
        seen.add(hash(dd))
    assert len(seen) == 9

    # independent route: classify every k3 display over W_2(B) in the fiber
    report = classify_witt_fiber(th, d, orth=True)
    assert report["passed"]
    assert report["classes"] == report["hodge_lifts"] == 9

    # and decide isomorphism pairwise by the complete lifting tower
    ext = th.ext
    frame_b = WittFrame(ext.B, 2)
    coords = WittKernelCoords(frame_b, d.mu, "resfield")
    pairs = witt_orth_zip_lift_pairs(frame_b, d.mu, ext.A, ext.section)
    resmap = lambda w: ext.proj(w.comps[0])
    for i, a in enumerate(deformations):
        for j, b in enumerate(deformations):
            assert is_isomorphic_witt(coords, pairs, resmap, a, b,
                                      orth=True) == (i == j)
    budget.done()
