"""The four benchmark workloads: seeded inputs, a fixed job, frozen answers.

Each workload has `setup(rng)`, which builds the rings, frames and fixtures
and draws every seeded input from the benchmark's own `random.Random`, and
`job(inp, rec)`, which calls framecalc's public functions on those inputs
and compares every answer with its frozen value through `rec.check` (an
explicit comparison, so it also runs under `python -O`).  `OP` names the
seeded operation whose per-call latency the run record reports.

Job sizes are fixed so that one cold round (fresh interpreter, empty memos)
takes 15-20 s on a 2-core box; the acceptance-test work that does not fit in
that is named in perfbench/README.md.

framecalc names are looked up on their modules at call time, so that the
tracer's wrappers are the ones called when a round is traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

from framecalc import (cli, deformation, displays, fixtures, frames, linalg,
                       orthogonal, rings, witt, wittpoly)

# ---------------------------------------------------------------------------
# Frozen answers, recorded from the seed implementation
# ---------------------------------------------------------------------------

# frame_axiom_check(frame)["checks"] on fixture_frames(), all exhaustive; the
# relative frame's 236763 checks (about 28 s) are left out of the job
FIXTURE_CHECKS = [513, 63, 513, 513, 236763, 3]
RELATIVE = 4                       # index of the relative frame W_2(F_3[e]/e^2 / F_3)
# sampled checks of the relative frame: |S0| = 81 fits, |S0|*|P| = 19683 does not
REL_SAMPLED_BUDGET = 19682
REL_SAMPLED_CHECKS = 1324
# exhaustive axiom check of the Witt frame W_2(F_3[e]/e^2), the relative
# frame's S0 ring with its own positive part
DUAL_WITT_CHECKS = 39609

K3_REPORT_SHA256 = "006b2845ffbd11c5aedf98a15048e9b3762602879a48379b926041e701eaa8b5"
K3_DEFORMATIONS = 9
K3_LIFT_PAIRS = 648

ORBITS = {2: 2, 3: 6}
FZIP_DISPLAYS = 148
ORTH_GROUP_ZIP_F3 = 648


class _Stream:
    """A workload's seeded operations, each timed, each answer checked.

    The job runs them a chunk at a time between and inside its fixed steps,
    so that the latency sample spans the whole round rather than one short
    stretch of a shared machine's time.  `finish` runs whatever is left.
    """

    def __init__(self, rec, name, items, chunks, call, check):
        k, r = divmod(len(items), chunks)
        bounds = [i * k + min(i, r) for i in range(chunks + 1)]
        self._chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
        self._rec, self._name, self._call, self._check = rec, name, call, check

    def chunk(self):
        if not self._chunks:
            return
        rec = self._rec
        with rec.step(self._name):
            for item in self._chunks.pop(0):
                with rec.op():
                    out = self._call(item)
                rec.check(*self._check(item, out))

    def finish(self):
        while self._chunks:
            self.chunk()


# ---------------------------------------------------------------------------
# frame-axioms: the rings -> witt -> frames stack on the memo hit path
# ---------------------------------------------------------------------------

class FrameAxioms:
    OP = "sampled relative-frame check (frame_axiom_check + check_zip_projection)"
    SAMPLED_CHECKS = 6

    @staticmethod
    def setup(rng):
        return {
            "frames": fixtures.fixture_frames(),
            "dual_witt": frames.WittFrame(rings.dual_numbers(3), 2),
            "seeds": [rng.randrange(2 ** 31)
                      for _ in range(FrameAxioms.SAMPLED_CHECKS)],
        }

    @staticmethod
    def job(inp, rec):
        fr = inp["frames"]
        rel = fr[RELATIVE]

        def sampled(seed):
            return (frames.frame_axiom_check(rel, budget=REL_SAMPLED_BUDGET, seed=seed),
                    frames.check_zip_projection(rel, budget=REL_SAMPLED_BUDGET,
                                                seed=seed))

        def sampled_answer(seed, out):
            res, proj = out
            return ("sampled relative checks",
                    (res["mode"], res["passed"], res["checks"],
                     proj["mode"], proj["passed"]),
                    ("sampled", True, REL_SAMPLED_CHECKS, "sampled", True))

        for k, frame in enumerate(fr):
            if k == RELATIVE:
                continue
            with rec.step(f"frame_axiom_check[{k}]"):
                res = frames.frame_axiom_check(frame)
                rec.check(f"axioms[{k}]", (res["mode"], res["passed"], res["checks"]),
                          ("exhaustive", True, FIXTURE_CHECKS[k]))
            if frame.kind == "witt":
                with rec.step(f"check_zip_projection[{k}]"):
                    res = frames.check_zip_projection(frame)
                    rec.check(f"projection[{k}]", (res["mode"], res["passed"]),
                              ("exhaustive", True))
        # the exhaustive projection fills the W_2(F_3[e]/e^2) memo, so every
        # sampled check below runs on the hit path
        with rec.step("check_zip_projection[relative]"):
            res = frames.check_zip_projection(rel)
            rec.check("projection[relative]", (res["mode"], res["passed"]),
                      ("exhaustive", True))
        stream = _Stream(rec, "sampled relative checks", inp["seeds"], 2,
                         sampled, sampled_answer)
        stream.chunk()
        with rec.step("frame_axiom_check[W_2(F_3[e]/e^2)]"):
            res = frames.frame_axiom_check(inp["dual_witt"])
            rec.check("axioms[dual_witt]", (res["mode"], res["passed"], res["checks"]),
                      ("exhaustive", True, DUAL_WITT_CHECKS))
        stream.finish()


# ---------------------------------------------------------------------------
# witt-kernel: sympy derivation plus Witt arithmetic, mostly on the miss path
# ---------------------------------------------------------------------------

def _axiom_violations(els, zero, one, grid, every_rows, between):
    """Failed ring identities: exhaustive in pairs, triples on a sub-grid.

    `between()` runs after every `every_rows` rows of the pair loop.
    """
    bad = 0
    for k, x in enumerate(els, 1):
        bad += (x + zero != x) + (x * one != x) + (x + (-x) != zero)
        for y in els:
            bad += (x + y != y + x) + (x * y != y * x)
        if k % every_rows == 0:
            between()
    for x in grid:
        for y in grid:
            for z in grid:
                bad += ((x + y) + z != x + (y + z)) + ((x * y) * z != x * (y * z))
                bad += x * (y + z) != x * y + x * z
    return bad


def _triple_ok(x, y, z):
    return ((x + y) + z == x + (y + z), (x * y) * z == x * (y * z),
            x * (y + z) == x * y + x * z)


class WittKernel:
    OP = "ring-axiom triple over W_3(F_3[e]/e^2)"
    GHOST = [(2, 3), (3, 3)]
    TRIPLES = 100

    @staticmethod
    def setup(rng):
        F3 = rings.prime_field(3)
        # (ring, exhaustive pairs?): all five get the triple grid; W_2(F_9)
        # skips the 3.9 s pair loop to keep the round within its time
        axiom_rings = [(witt.WittRing(rings.prime_field(2), 3), True),
                       (witt.WittRing(F3, 2), True),
                       (witt.WittRing(F3, 3), True),
                       (witt.WittRing(rings.extension_field(3, 2), 2), False),
                       (witt.WittRing(rings.truncated_poly_ring(3, "x", 2), 2), True)]
        streams = []
        # |W| = 729 sits under the 4096 memo cut-off, |W| = 6561 above it
        for wr in (witt.WittRing(rings.dual_numbers(3), 3),
                   witt.WittRing(rings.truncated_poly_ring(3, "x", 4), 2)):
            base = list(wr.ring.elements())
            triples = [tuple(wr.el([rng.choice(base) for _ in range(wr.m)])
                             for _ in range(3))
                       for _ in range(WittKernel.TRIPLES)]
            streams.append((wr, triples))
        return {"rings": axiom_rings, "streams": streams,
                "orders": [(F3, 1), (F3, 2), (F3, 3), (rings.prime_field(2), 3)]}

    @staticmethod
    def job(inp, rec):
        (memo_wr, memo_triples), (big_wr, big_triples) = inp["streams"]
        stream = _Stream(rec, f"axiom stream {memo_wr!r}", memo_triples, 20,
                         lambda t: _triple_ok(*t),
                         lambda t, ok: (f"triple {memo_wr!r}", ok, (True, True, True)))

        for p, n in WittKernel.GHOST:
            with rec.step(f"verify_ghost_identities({p},{n})"):
                rec.check(f"ghost({p},{n})", wittpoly.verify_ghost_identities(p, n), True)
            stream.chunk()
        for wr, pairs in inp["rings"]:
            with rec.step(f"ring axioms {wr!r}"):
                els = list(wr.elements())
                grid = els[:: max(1, len(els) // 9)]
                # a stream chunk about every 0.6 s of the pair loops
                rec.check(f"axioms {wr!r}",
                          _axiom_violations(els if pairs else [], wr.zero(),
                                            wr.one(), grid, 9, stream.chunk), 0)
        with rec.step("additive order of 1"):
            for ring, m in inp["orders"]:
                wr = witt.WittRing(ring, m)
                acc, order = wr.one(), 1
                while not acc.is_zero():
                    acc = acc + wr.one()
                    order += 1
                rec.check(f"order {wr!r}", order, ring.p ** m)
        with rec.step(f"axiom stream {big_wr!r}"):
            for k, t in enumerate(big_triples, 1):
                rec.check(f"triple {big_wr!r}", _triple_ok(*t), (True, True, True))
                if k % 25 == 0:
                    stream.chunk()
        stream.finish()


# ---------------------------------------------------------------------------
# k3-iso: the deformation route of the K3 fixture, isomorphism queries
# ---------------------------------------------------------------------------

class K3Iso:
    OP = "is_isomorphic_witt query"
    OFF_DIAGONAL = 5
    DIAGONAL = 1

    @staticmethod
    def setup(rng):
        th, d = fixtures.k3_fixture()
        ext = th.ext
        frame_b = frames.WittFrame(ext.B, 2)
        n = K3_DEFORMATIONS
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        # a fixed mix of queries, so the cheap diagonal ones (an isomorphism
        # is found at once) never outnumber the complete searches
        queries = (rng.sample(off, K3Iso.OFF_DIAGONAL)
                   + [(i, i) for i in rng.sample(range(n), K3Iso.DIAGONAL)])
        rng.shuffle(queries)
        return {"th": th, "d": d, "frame_b": frame_b,
                "coords": deformation.WittKernelCoords(frame_b, d.mu, "resfield"),
                "queries": queries,
                "out": os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "out", f"deform-k3-{os.getpid()}.json")}

    @staticmethod
    def job(inp, rec):
        th, d = inp["th"], inp["d"]
        ext = th.ext
        out = inp["out"]
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with rec.step("cli deform k3"):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["deform", "k3", "--json", "--out", out])
                with open(out, "rb") as fh:
                    report = fh.read()
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)
            rec.check("deform k3 exit", code, 0)
            rec.check("deform k3 report sha256",
                      hashlib.sha256(report).hexdigest(), K3_REPORT_SHA256)
            rec.check("deform k3 stdout", buf.getvalue().encode(), report)
            rec.note("cli.report_bytes", len(report))
        defs = []
        with rec.step("k3_deform"):
            defs = deformation.k3_deform(th, d)
            rec.check("k3_deform count", len(defs), K3_DEFORMATIONS)
            rec.check("k3_deform distinct", len({hash(x) for x in defs}),
                      K3_DEFORMATIONS)
        pairs = []
        with rec.step("witt_orth_zip_lift_pairs"):
            pairs = deformation.witt_orth_zip_lift_pairs(
                inp["frame_b"], d.mu, ext.A, ext.section)
            rec.check("lift pairs", len(pairs), K3_LIFT_PAIRS)

        def resmap(w):
            return ext.proj(w.comps[0])

        def query(ij):
            i, j = ij
            return deformation.is_isomorphic_witt(
                inp["coords"], pairs, resmap, defs[i], defs[j], orth=True)

        def query_answer(ij, iso):
            return (f"iso{ij}", iso, ij[0] == ij[1])

        stream = _Stream(rec, "is_isomorphic_witt queries", inp["queries"], 2,
                         query, query_answer)
        stream.chunk()
        with rec.step("classify_witt_fiber"):
            rep = deformation.classify_witt_fiber(th, d, orth=True)
            rec.check("classify_witt_fiber",
                      (rep["passed"], rep["classes"], rep["hodge_lifts"]),
                      (True, K3_DEFORMATIONS, K3_DEFORMATIONS))
        stream.finish()


# ---------------------------------------------------------------------------
# display-census: enumerators, orbit censuses, decompose and normalize_gram
# ---------------------------------------------------------------------------

class DisplayCensus:
    OP = "normalize_gram over the relative frame, weights (1,0,0,-1)"
    ACT_PAIRS = 20
    DECOMPOSE = 200
    GRAMS = 100
    MUS = [(0,), (1,), (0, 0), (1, 0), (1, 1)]
    GRAM_MUS = [(1, -1), (1, 0, 0, -1)]

    @staticmethod
    def setup(rng):
        zips = {p: frames.ZipFrame(rings.prime_field(p)) for p in (2, 3)}
        act = {p: [(fixtures.rand_group_element(zf, (1, 0), rng),
                    fixtures.rand_group_element(zf, (1, 0), rng))
                   for _ in range(DisplayCensus.ACT_PAIRS)]
               for p, zf in zips.items()}
        wf = frames.WittFrame(rings.prime_field(3), 2)
        group = [fixtures.rand_group_element(wf, (1, 0), rng)
                 for _ in range(DisplayCensus.DECOMPOSE)]
        rel = fixtures.fixture_frames()[RELATIVE]
        grams = [(mu, orthogonal.standard_gram(rel, mu),
                  [fixtures.rand_gram_perturbation(rel, mu, rng)
                   for _ in range(DisplayCensus.GRAMS)])
                 for mu in DisplayCensus.GRAM_MUS]
        return {"zips": zips, "act": act, "group": group, "grams": grams}

    @staticmethod
    def job(inp, rec):
        zf3 = inp["zips"][3]
        with rec.step("f-zip round trip"):
            total = bad = 0
            for mu in DisplayCensus.MUS:
                for d in displays.all_displays(zf3, len(mu), mu):
                    z = displays.to_fzip(d)
                    z2 = displays.to_fzip(displays.from_fzip(z, zf3))
                    bad += not (displays.from_fzip(z, zf3) == d
                                and z2.weights == z.weights and z2.C == z.C
                                and z2.D == z.D and z2.alpha == z.alpha)
                    total += 1
            rec.check("f-zip displays", total, FZIP_DISPLAYS)
            rec.check("f-zip round-trip failures", bad, 0)
        # the stream: normalize_gram at rank 4, whose cost is unimodal (a
        # decompose costs either about 2.0 or about 3.0 ms, so its median
        # would jump between the two with the seed)
        (mu2, G2, grams2), (mu4, G4, grams4) = inp["grams"]
        stream = _Stream(
            rec, f"normalize_gram {mu4}", grams4, 20, orthogonal.normalize_gram,
            lambda B, A: (f"normalize_gram {mu4}",
                          orthogonal.form_transform(B, A) == G4, True))

        orbit_sizes = {}
        for p, zf in inp["zips"].items():
            with rec.step(f"act homomorphism p={p}"):
                d = displays.Display(zf, (1, 0), linalg.identity(zf.s0, 2))
                for A, B in inp["act"][p]:
                    rec.check(f"act hom p={p}", d.act(A * B) == d.act(A).act(B), True)
            with rec.step(f"classify_orbits p={p}"):
                orbits = displays.classify_orbits(zf, (1, 0))
                orbit_sizes[p] = sorted(len(o) for o in orbits)
                rec.check(f"orbits p={p}", len(orbits), ORBITS[p])
            stream.chunk()
            with rec.step(f"classify_fzips p={p}"):
                rec.check(f"f-zip classes p={p}",
                          len(displays.classify_fzips(zf, (1, 0))), ORBITS[p])
            with rec.step(f"classify_orbits (2,1) p={p}"):
                shifted = displays.classify_orbits(zf, (2, 1))
                rec.check(f"shifted orbit sizes p={p}",
                          sorted(len(o) for o in shifted), orbit_sizes[p])
            stream.chunk()
        with rec.step("decompose seeded"):
            for k, g in enumerate(inp["group"], 1):
                q, u = orthogonal.decompose(g)
                rec.check("decompose", q * u == g, True)
                if k % 100 == 0:
                    stream.chunk()
        with rec.step("decompose orthogonal"):
            count = bad = 0
            for g in orthogonal.orth_group_elements(zf3, (1, 0, 0, -1)):
                q, u = orthogonal.decompose(g)
                bad += q * u != g
                count += 1
                # a stream chunk about every 0.6 s of the enumeration
                if count % 54 == 0:
                    stream.chunk()
            rec.check("orthogonal group", count, ORTH_GROUP_ZIP_F3)
            rec.check("orthogonal decompose failures", bad, 0)
        with rec.step(f"normalize_gram {mu2}"):
            for B in grams2:
                rec.check(f"normalize_gram {mu2}",
                          orthogonal.form_transform(B, orthogonal.normalize_gram(B)) == G2,
                          True)
        stream.finish()


WORKLOADS = {
    "frame-axioms": FrameAxioms,
    "witt-kernel": WittKernel,
    "k3-iso": K3Iso,
    "display-census": DisplayCensus,
}
