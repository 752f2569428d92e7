"""Frames in the uniform presentation (S_0, P, t1, tP, nu, act, sigma0, sigmadot).

All frames used here have a constant positive part: S_n = P for every n >= 1,
so a frame is finite data.  Negative degrees never materialize; they are
handled symbolically by tau-payloads in the display layer.

The four constructors are the truncated Witt frame W_m(R), the zip frame
(W_1 with its canonical divided structure), the relative frame W_m(B/A) for a
square-zero extension, and the tautological frame with zero positive part.
The Witt and zip frames have P = S0 and take their P-module, nu, act and
sigmadot from `Frame`; they define only t1, tP, sigma0 and reduce.  The
relative frame (P = pairs) overrides the whole P side.  The tautological
frame is the zip frame with P = 0, the zero of S0, on which `Frame`'s P
side holds: a subclass of `ZipFrame` that lists only its P.

One check, `check_frame_map`, serves both frame maps here: the canonical
projection to the zip frame of R = S_0/t1(P), a final object
(`check_zip_projection`), and a thickening W_m(B/A) -> W_m(A)
(`Thickening.check`).  It and `frame_axiom_check` list S0 and P in one
place, `_points`, and compute each value once per call: the axiom check
builds each sampled element's maps (t1, tP, sigmadot on P; sigma0 on S0)
before its pair loops, and the map check maps each distinct S0 value once.
"""

from __future__ import annotations

import itertools
import random

from .rings import VerificationError
from .witt import WittRing, frobenius_fixed, verschiebung_trunc


class Frame:
    """A frame (S0, P, t1, tP, nu, act, sigma0, sigmadot) with reduction to R.

    An instance carries s0 (ring-like: el, zero, one, elements, size),
    r_ring (the quotient R = S0/t1(P)), p and p_elem (p in S0, built once
    in the constructor), and implements
    - the P-module: p_zero, p_add, p_neg, p_sub, p_is_zero, p_elements and
      its size p_size;
    - the structure maps t1: P -> S0, tP: P -> P, nu: P x P -> P,
      act: S0 x P -> P, sigma0: S0 -> S0 and sigmadot: P -> S0;
    - reduce: S0 -> R.

    This class writes the P-module and nu, act, sigmadot for P = S0 (the
    Witt and zip frames): nu is the product, act(s, x) = sigma0(s) x and
    sigmadot is the identity.  Every frame supplies t1, tP, sigma0 and
    reduce; the relative frame also overrides the P side, and the
    tautological frame, a zip frame, lists only P = 0, the zero of S0.

    Facts about the structure maps, for sums of products of graded
    elements (displays.GradedMatrix.__mul__):
    - t_is_zero: t1 and tP are the zero maps;
    - p_is_s0: P lies in S0 with the maps above, and tP(x) = p x; where
      it is False (the relative frame) a P entry is two dots.
    has_p_module is False only where P = 0 (the tautological frame).
    """

    kind = "abstract"
    t_is_zero = False
    p_is_s0 = True
    has_p_module = True

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self.s0 == other.s0
                                 and self.r_ring == other.r_ring)

    def __hash__(self):
        return hash((self.kind, self.s0, self.r_ring))

    # -- P = S0 ----------------------------------------------------------------

    def p_zero(self):
        return self.s0.zero()

    def p_add(self, x, y):
        return x + y

    def p_neg(self, x):
        return -x

    def p_sub(self, x, y):
        return x - y

    def p_is_zero(self, x):
        return x.is_zero()

    def p_elements(self, cap=10 ** 7):
        return self.s0.elements(cap)

    @property
    def p_size(self):
        return self.s0.size

    def nu(self, x, y):
        return x * y

    def act(self, s, x):
        return self.sigma0(s) * x

    def sigmadot(self, x):
        return x

    def __repr__(self):
        return f"<{self.kind} frame over {self.s0!r}>"


class WittFrame(Frame):
    """The truncated Witt frame: S0 = W_m(R), P = W_m(R) representing I_{m+1} via v."""

    kind = "witt"

    def __init__(self, ring, m):
        self.ring = ring
        self.m = m
        self.s0 = WittRing(ring, m)
        self.r_ring = ring
        self.p = ring.p
        self.p_elem = self.s0.from_int(self.p)

    def t1(self, x):
        return verschiebung_trunc(x)

    def tP(self, x):
        return self.p_elem * x

    def sigma0(self, s):
        return frobenius_fixed(s)

    def reduce(self, s):
        return s.comp(0)


class ZipFrame(Frame):
    """S0 = P = R with t = 0; the final frame for R."""

    kind = "zip"
    t_is_zero = True

    def __init__(self, ring):
        self.ring = ring
        self.s0 = ring
        self.r_ring = ring
        self.p = ring.p
        self.p_elem = ring.from_int(self.p)

    def t1(self, x):
        return self.ring.zero()

    def tP(self, x):
        return self.ring.zero()

    def sigma0(self, s):
        return s.frobenius()

    def reduce(self, s):
        return s


class RelativeFrame(Frame):
    """W_m(B/A) for a square-zero extension B -> A = B/J.

    P consists of pairs (a, x) with a in W_m(B) and x in J, representing
    v(a) + [x]; the product rule (v(a)+x)(v(b)+y) = v(ab) + xy collapses to
    (ab, 0) because J^2 = 0.  The pair presentation is exact at the desk
    settings used throughout (all shipped deformation runs use m = 2) and is
    validated by frame_axiom_check at construction scale.
    """

    kind = "relative"
    p_is_s0 = False

    def __init__(self, ext, m):
        if ext.B.p == 2:
            raise ValueError("relative frames require p >= 3")
        if m < 2:
            raise ValueError("relative frames require m >= 2 (m = 1 degenerates)")
        self.ext = ext
        self.m = m
        self.s0 = WittRing(ext.B, m)
        self.r_ring = ext.A
        self.p = ext.B.p
        self.p_elem = self.s0.from_int(self.p)

    def p_zero(self):
        return (self.s0.zero(), self.ext.B.zero())

    def p_add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def p_neg(self, x):
        return (-x[0], -x[1])

    def p_sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def p_is_zero(self, x):
        return x[0].is_zero() and x[1].is_zero()

    def p_elements(self, cap=10 ** 7):
        for a in self.s0.elements(cap):
            for x in self.ext.j_elements():
                yield (a, x)

    @property
    def p_size(self):
        return self.s0.size * self.ext.j_size

    def t1(self, x):
        a, j = x
        return verschiebung_trunc(a) + self.s0.teichmuller(j)

    def tP(self, x):
        a, j = x
        return (self.p_elem * a, j)

    def nu(self, x, y):
        return (x[0] * y[0], self.ext.B.zero())

    def act(self, s, x):
        a, j = x
        return (frobenius_fixed(s) * a, s.comp(0) * j)

    def sigma0(self, s):
        return frobenius_fixed(s)

    def sigmadot(self, x):
        return x[0]

    def reduce(self, s):
        return self.ext.proj(s.comp(0))


class TautologicalFrame(ZipFrame):
    """The zip frame of A with P = 0, the zero of S0, on which `Frame`'s
    P side holds: S0 = A, t = 0, and sigma0 is the Frobenius."""

    kind = "tautological"
    has_p_module = False

    def p_elements(self, cap=10 ** 7):
        yield self.ring.zero()

    p_size = 1


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

def _points(frame, budget):
    """(S0 listed, P listed, exhaustive): a check runs over every pair when
    |S0| |P| fits the budget, and samples these lists otherwise."""
    s0s, ps = list(frame.s0.elements()), list(frame.p_elements())
    return s0s, ps, len(s0s) * len(ps) <= budget


def _sample(seq, rng, count):
    if count >= len(seq):
        return seq
    return [seq[rng.randrange(len(seq))] for _ in range(count)]


def frame_axiom_check(frame, budget=20000, seed=0):
    """Verify the recovery axioms; exhaustive when |S0|*|P| fits the budget.

    Each sampled element's maps are computed once, as a row the loops read:
    (x, t1(x), tP(x), sigmadot(x)) on P and (s, sigma0(s)) on S0.  Returns
    a report dict with a failure witness for every broken identity.
    """
    rng = random.Random(seed)

    def draw(seq):
        return _sample(seq, rng, 200)

    failures = []
    s0_all, p_all, exhaustive = _points(frame, budget)
    if exhaustive:
        s0_sample, p_sample = s0_all, p_all
    else:
        s0_sample, p_sample = draw(s0_all), draw(p_all)
    checks = 0
    p_elem = frame.p_elem
    t1, tP, nu, act = frame.t1, frame.tP, frame.nu, frame.act
    sigma0, sigmadot = frame.sigma0, frame.sigmadot

    def s0_rows(ss):
        return ((s, sigma0(s)) for s in ss)

    def p_rows(xs):
        return ((x, t1(x), tP(x), sigmadot(x)) for x in xs)

    s_rows = list(s0_rows(s0_sample))
    # (ii) sigma0 is a Frobenius lift: sigma0(s) - s^p in p*S0
    for s, sig in s_rows:
        checks += 1
        if not frame.s0.is_p_multiple(sig - s ** frame.p):
            failures.append({"axiom": "frobenius-lift", "witness": repr(s)})
            break

    if frame.has_p_module:
        x_rows = list(p_rows(p_sample))
        # (iii) sigma0(t1(x)) = p*sigmadot(x) and sigmadot(tP(x)) = p*sigmadot(x)
        for x, t1x, tPx, sdx in x_rows:
            checks += 2
            p_sdx = p_elem * sdx
            if sigma0(t1x) != p_sdx:
                failures.append({"axiom": "sigma0-t1", "witness": repr(x)})
                break
            if sigmadot(tPx) != p_sdx:
                failures.append({"axiom": "sigmadot-tP", "witness": repr(x)})
                break
        # (i) linearity of t and Verjüngung compatibility
        pair_iter = (itertools.product(x_rows, [(y, sdy) for y, _, _, sdy in x_rows])
                     if exhaustive
                     else zip(p_rows(draw(p_all)),
                              ((y, sigmadot(y)) for y in draw(p_all))))
        for (x, t1x, tPx, sdx), (y, sdy) in pair_iter:
            checks += 3
            want = tP(nu(y, x))
            if act(t1x, y) != want:
                failures.append({"axiom": "t-linearity-act",
                                 "witness": (repr(x), repr(y))})
                break
            if nu(y, tPx) != want:
                failures.append({"axiom": "t-linearity-nu",
                                 "witness": (repr(x), repr(y))})
                break
            # (iv) multiplicativity of sigmadot on nu
            if sigmadot(nu(x, y)) != sdx * sdy:
                failures.append({"axiom": "sigmadot-nu",
                                 "witness": (repr(x), repr(y))})
                break
        # (iv) sigmadot(act(s,x)) = sigma0(s)*sigmadot(x)
        mixed_iter = (itertools.product(s_rows, x_rows) if exhaustive
                      else zip(s0_rows(draw(s0_all)), p_rows(draw(p_all))))
        for (s, sig), (x, t1x, tPx, sdx) in mixed_iter:
            checks += 3
            sx = act(s, x)
            if sigmadot(sx) != sig * sdx:
                failures.append({"axiom": "sigmadot-act",
                                 "witness": (repr(s), repr(x))})
                break
            # projection formulas: t commutes with the S0-action
            if t1(sx) != s * t1x:
                failures.append({"axiom": "t1-projection",
                                 "witness": (repr(s), repr(x))})
                break
            if tP(sx) != act(s, tPx):
                failures.append({"axiom": "tP-projection",
                                 "witness": (repr(s), repr(x))})
                break

    return {
        "passed": not failures,
        "failures": failures,
        "mode": "exhaustive" if exhaustive else "sampled",
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Frame maps to a Witt or zip frame; the canonical projection to the zip
# frame (the final object)
# ---------------------------------------------------------------------------

def _by_image(items, images):
    """{image: [items with that image]}, both in first-seen order."""
    groups = {}
    for item, image in zip(items, images):
        groups.setdefault(image, []).append(item)
    return groups


def _image_pairs(left, right):
    """(image a, image b, the pairs over them) for every pair of groups of
    `_by_image`."""
    for image_a, group_a in left.items():
        for image_b, group_b in right.items():
            yield image_a, image_b, itertools.product(group_a, group_b)


def check_frame_map(frame, target, f0, budget=20000, seed=0):
    """Whether f0: S0 -> S0' extends to a frame map frame -> target (sample
    or exhaustive).  The target's P is its S0 and its sigmadot is the
    identity (a Witt or a zip frame), so sigmadot' fP = f0 sigmadot forces
    fP = f0 . sigmadot.  The map must commute with sigma0, t1, tP, nu and
    act, f0 must be a ring map and fP additive.  Each binary condition
    takes the target's operation once per pair of images and compares it
    with the map of the frame's operation on every pair over those images.
    Each distinct S0 value is mapped once per call: f0 and fP read one dict
    from its coordinate tuple to its image."""
    sigmadot, nu, act = frame.sigmadot, frame.nu, frame.act
    images = {}

    def pi0(s):
        image = images.get(s.coeffs)
        if image is None:
            image = images[s.coeffs] = f0(s)
        return image

    def piP(x):
        return pi0(sigmadot(x))

    rng = random.Random(seed)
    s0_all, p_all, exhaustive = _points(frame, budget)
    s0s = s0_all if exhaustive else _sample(s0_all, rng, 100)
    xs = p_all if exhaustive else _sample(p_all, rng, 100)
    # each image once; a sampled check pairs everything with the first 10
    cut = None if exhaustive else 10
    img0 = [pi0(s) for s in s0s]
    by0, by0_cut = _by_image(s0s, img0), _by_image(s0s[:cut], img0[:cut])
    failures = []
    for s, pi_s in zip(s0s, img0):
        if pi0(frame.sigma0(s)) != target.sigma0(pi_s):
            failures.append(("sigma0", repr(s)))
    for pa, pb, pairs in _image_pairs(by0, by0_cut):
        want_sum, want_prod = pa + pb, pa * pb
        for a, b in pairs:
            if pi0(a + b) != want_sum or pi0(a * b) != want_prod:
                failures.append(("ring-hom", (repr(a), repr(b))))
    imgP = [piP(x) for x in xs]
    # additivity pairs each x with the next one, cyclically: one pass
    for x, px, y, py in zip(xs, imgP, xs[1:] + xs[:1], imgP[1:] + imgP[:1]):
        if pi0(frame.t1(x)) != target.t1(px):
            failures.append(("t1", repr(x)))
        if piP(frame.tP(x)) != target.tP(px):
            failures.append(("tP", repr(x)))
        if piP(frame.p_add(x, y)) != target.p_add(px, py):
            failures.append(("additive", (repr(x), repr(y))))
    byP, byP_cut = _by_image(xs, imgP), _by_image(xs[:cut], imgP[:cut])
    for px, py, pairs in _image_pairs(byP, byP_cut):
        want = target.nu(px, py)
        for x, y in pairs:
            if piP(nu(x, y)) != want:
                failures.append(("nu", (repr(x), repr(y))))
    for pi_s, px, pairs in _image_pairs(by0, byP_cut):
        want = target.act(pi_s, px)
        for s, x in pairs:
            if piP(act(s, x)) != want:
                failures.append(("act", (repr(s), repr(x))))
    return {"passed": not failures, "failures": failures,
            "mode": "exhaustive" if exhaustive else "sampled"}


def check_zip_projection(frame, budget=20000, seed=0):
    """The canonical projection, reduce: S0 -> R = S0/t1(P), is a frame map
    to the zip frame of R."""
    return check_frame_map(frame, ZipFrame(frame.r_ring), frame.reduce, budget, seed)


# ---------------------------------------------------------------------------
# Thickenings
# ---------------------------------------------------------------------------

class Thickening:
    """The 1-thickening W_m(B/A) -> W_m(A) with its sigma-dot-nilpotent kernel.

    K0 = W_m(J) in log coordinates, realized inside S~0 = W_m(B) as the
    J-supported Witt vectors; sigma-dot acts by the coordinate shift and is
    nilpotent of order m.  Truncation note: tau_1 is not bijective on the
    truncated kernel, so sigma-dot on K0 is primary data here (it agrees with
    sigma_1 composed with tau_1^{-1} before truncation).
    """

    def __init__(self, ext, m):
        self.ext = ext
        self.m = m
        self.source = RelativeFrame(ext, m)
        self.target = WittFrame(ext.A, m)
        self.nilpotency_index = m

    def eps0(self, s):
        """W_m(B) -> W_m(A), component-wise projection."""
        return self.target.s0.el([self.ext.proj(c) for c in s.comps])

    def lift0(self, s):
        """The monomial-basis section W_m(A) -> W_m(B) (component-wise)."""
        return self.source.s0.el([self.ext.section(c) for c in s.comps])

    def in_k0(self, s):
        return all(self.ext.in_kernel(c) for c in s.comps)

    def k0_elements(self):
        base = list(self.ext.j_elements())
        for combo in itertools.product(base, repeat=self.m):
            yield self.source.s0.el(list(combo))

    def sdotK(self, k):
        """The divided Frobenius on K0: shift of log coordinates."""
        if not self.in_k0(k):
            raise VerificationError(f"sdotK takes kernel elements only, not {k!r}")
        return self.source.s0.el(list(k.comps[1:]) + [self.ext.B.zero()])

    def check(self):
        """eps = (eps0, eps0 . sigmadot) is a frame map (`check_frame_map`,
        exhaustive at its default budget), and the kernel identities."""
        src = self.source
        failures = check_frame_map(src, self.target, self.eps0)["failures"]
        # kernel identities, exhaustive (K0 is tiny)
        p_elem = src.p_elem
        for k in self.k0_elements():
            if src.sigma0(k) != p_elem * self.sdotK(k):
                failures.append(("p*sdot=sigma0|K0", repr(k)))
            it = k
            for _ in range(self.nilpotency_index):
                it = self.sdotK(it)
            if not it.is_zero():
                failures.append(("sdot-nilpotent", repr(k)))
        return {"passed": not failures, "failures": failures}
