"""Displays over frames: graded matrices, the display group, and F-zips.

A display of type mu (weights, non-increasing) is an invertible matrix Phi
over S0; the display group acts on the right by Phi . A = tau(A)^-1 Phi
sigma(A) for a graded invertible matrix A.  The graded entry in slot (i, j)
lives in degree mu_j - mu_i: positive degrees carry a P-payload, degree <= -k
carries an S0-payload standing for s t^k.

`GradedElem.__mul__` is the one definition of a product of graded
elements.  A graded matrix product computes each entry as the sum of those
terms, planned once per triple of weights as dots: an S0-valued entry is
one `s0.dot`, and so is a P-valued entry where P lies in S0
(`Frame.p_is_s0`); over the relative frame, P = W_m(B) x J, it is a W_m(B)
dot and a B dot.  Terms through t vanish over a frame with t = 0
(`Frame.t_is_zero`) and are left out.

Over the zip frame a display is the same thing as an F-zip, and `to_fzip` /
`from_fzip` realize the translation concretely; F-zip isomorphism, F_p-linear
algebra on the space Hom(z1, z2) of filtered semilinear morphisms, is the
independent cross-check for orbit counts.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import linalg
from .rings import EnumerationTooLarge, RingMismatch, VerificationError


# ---------------------------------------------------------------------------
# Graded elements
# ---------------------------------------------------------------------------

class GradedElem:
    """An element of S_d: payload in P for d >= 1, in S0 for d <= 0."""

    __slots__ = ("frame", "degree", "payload")

    def __init__(self, frame, degree, payload):
        self.frame = frame
        self.degree = degree
        self.payload = payload

    @classmethod
    def zero(cls, frame, degree):
        return cls(frame, degree,
                   frame.p_zero() if degree >= 1 else frame.s0.zero())

    @classmethod
    def unit(cls, frame):
        return cls(frame, 0, frame.s0.one())

    def __eq__(self, other):
        return (isinstance(other, GradedElem) and self.degree == other.degree
                and self.payload == other.payload)

    def __hash__(self):
        return hash((self.degree, self.payload))

    def __repr__(self):
        return f"<deg {self.degree}: {self.payload!r}>"

    def is_zero(self):
        if self.degree >= 1:
            return self.frame.p_is_zero(self.payload)
        return self.payload.is_zero()

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in graded sum")
        if self.degree >= 1:
            return GradedElem(self.frame, self.degree,
                              self.frame.p_add(self.payload, other.payload))
        return GradedElem(self.frame, self.degree, self.payload + other.payload)

    def __neg__(self):
        if self.degree >= 1:
            return GradedElem(self.frame, self.degree, self.frame.p_neg(self.payload))
        return GradedElem(self.frame, self.degree, -self.payload)

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in graded difference")
        if self.degree >= 1:
            return GradedElem(self.frame, self.degree,
                              self.frame.p_sub(self.payload, other.payload))
        return GradedElem(self.frame, self.degree, self.payload - other.payload)

    def __mul__(self, other):
        fr = self.frame
        d1, d2 = self.degree, other.degree
        e = d1 + d2
        if d1 >= 1 and d2 >= 1:
            return GradedElem(fr, e, fr.nu(self.payload, other.payload))
        if d1 <= 0 and d2 <= 0:
            return GradedElem(fr, e, self.payload * other.payload)
        if d1 >= 1:  # commute so the S0 factor is on the left
            return other * self
        s, x = self.payload, other.payload
        if e >= 1:
            out = fr.act(s, x)
            for _ in range(-d1):
                out = fr.tP(out)
            return GradedElem(fr, e, out)
        # the t's outweigh the positive part; land in S0 via t1
        y = x
        for _ in range(d2 - 1):
            y = fr.tP(y)
        return GradedElem(fr, e, s * fr.t1(y))

    def sigma(self):
        """The degree-preserving Frobenius, landing in S0."""
        fr = self.frame
        if self.degree >= 1:
            return fr.sigmadot(self.payload)
        out = fr.sigma0(self.payload)
        for _ in range(-self.degree):
            out = fr.p_elem * out
        return out

    def tau(self):
        """Multiply by t until degree 0; the resulting S0 element."""
        fr = self.frame
        if self.degree <= 0:
            return self.payload
        y = self.payload
        for _ in range(self.degree - 1):
            y = fr.tP(y)
        return fr.t1(y)


# ---------------------------------------------------------------------------
# Graded matrices and the display group
# ---------------------------------------------------------------------------

class GradedMatrix:
    """Matrix with entry (i, j) of degree mu_col[j] - mu_row[i]; over a
    frame with P = 0 every entry of positive degree is zero."""

    def __init__(self, frame, mu_row, mu_col, entries):
        self.frame = frame
        self.mu_row = tuple(mu_row)
        self.mu_col = tuple(mu_col)
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                if e.degree != self.mu_col[j] - self.mu_row[i]:
                    raise ValueError("entry degree does not match weights")
        if not frame.has_p_module and any(e.degree >= 1 and not e.is_zero()
                                          for row in entries for e in row):
            raise ValueError("a positive-degree entry over a frame with P = 0 is not zero")
        self.entries = [list(row) for row in entries]

    @classmethod
    def _built(cls, frame, mu_row, mu_col, entries):
        """A matrix whose entry degrees hold by construction (products,
        sums, the identity, transposes): no re-check, `entries` is kept."""
        out = cls.__new__(cls)
        out.frame, out.mu_row, out.mu_col = frame, tuple(mu_row), tuple(mu_col)
        out.entries = entries
        return out

    @classmethod
    def identity(cls, frame, mu):
        n = len(mu)
        entries = [[GradedElem.unit(frame) if i == j
                    else GradedElem.zero(frame, mu[j] - mu[i])
                    for j in range(n)] for i in range(n)]
        return cls._built(frame, mu, mu, entries)

    @classmethod
    def from_payloads(cls, frame, mu, grid):
        n = len(mu)
        entries = [[GradedElem(frame, mu[j] - mu[i], grid[i][j])
                    for j in range(n)] for i in range(n)]
        return cls(frame, mu, mu, entries)

    def payload_grid(self):
        return [[e.payload for e in row] for row in self.entries]

    def __eq__(self, other):
        return (isinstance(other, GradedMatrix)
                and self.mu_row == other.mu_row and self.mu_col == other.mu_col
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.mu_row, self.mu_col,
                     tuple(tuple(row) for row in self.entries)))

    def __repr__(self):
        return f"<graded {len(self.entries)}x{len(self.mu_col)} matrix>"

    def __mul__(self, other):
        """The entrywise sums of `GradedElem.__mul__` terms, each entry
        computed as the dots that `_product_plan` lays out."""
        if self.mu_col != other.mu_row:
            raise ValueError("weight mismatch in graded product")
        fr = self.frame
        derived, plan = _product_plan(self.mu_row, self.mu_col, other.mu_col,
                                      fr.t_is_zero, fr.p_is_s0)
        ents = [e for row in self.entries for e in row]
        ents += [e for row in other.entries for e in row]
        vals = [e.payload for e in ents]
        vals += [part(ents[k]) for k, part in derived]
        dot, jdot = fr.s0.dot, None if fr.p_is_s0 else fr.ext.B.dot
        out = []
        for row_plan in plan:
            row = []
            for degree, get, m, n, o in row_plan:
                ops = get(vals) if get else ()
                payload = dot(ops[:m], ops[m:n])
                if o is not None:
                    payload = (payload, jdot(ops[n:o], ops[o:]))
                row.append(GradedElem(fr, degree, payload))
            out.append(row)
        return GradedMatrix._built(fr, self.mu_row, other.mu_col, out)

    def __add__(self, other):
        return GradedMatrix._built(self.frame, self.mu_row, self.mu_col,
                                   [[a + b for a, b in zip(ra, rb)]
                                    for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return GradedMatrix._built(self.frame, self.mu_row, self.mu_col,
                                   [[a - b for a, b in zip(ra, rb)]
                                    for ra, rb in zip(self.entries, other.entries)])

    def transpose(self):
        n, m = len(self.entries), len(self.mu_col)
        return GradedMatrix._built(self.frame,
                                   tuple(-w for w in self.mu_col),
                                   tuple(-w for w in self.mu_row),
                                   [[self.entries[i][j] for i in range(n)]
                                    for j in range(m)])

    def sigma(self):
        return [[e.sigma() for e in row] for row in self.entries]

    def tau(self):
        return [[e.tau() for e in row] for row in self.entries]


@functools.lru_cache(maxsize=1024)
def _product_plan(mu_row, mu_mid, mu_col, t_is_zero, p_is_s0):
    """How a graded product computes each entry, from the weights and the
    frame facts alone (`frames.Frame`).

    Operands are indexed into one list: the payloads of the left factor,
    then of the right one (row-major), then the `derived` values, each
    (k, f) for f(operand k), f one of sigma, tau, x_a, x_j, s_0 below.
    The term (i, k, j) follows `GradedElem.__mul__`; when the degrees have
    mixed signs, s is the factor of degree <= 0 and x the other:
    - degrees <= 0: the S0 product;
    - degrees >= 1: nu;
    - mixed, total >= 1: act(s, x), then -deg(s) times tP;
    - mixed, total <= 0: s * t1(tP^(deg(x) - 1) x) = s * tau(x).
    An S0 entry is one dot, and so is a P entry when p_is_s0, where
    nu(x, y) = x y and tP^r(act(s, x)) = sigma(s) x.  Otherwise P is the
    relative frame's W_m(B) x J, where nu(x, y) = (x_a y_a, 0) and
    tP^r(act(s, x)) = (sigma(s) x_a, s_0 x_j): a P entry is a W_m(B) dot
    and a B dot.  Terms through t1 or tP vanish when t_is_zero and are left
    out.  A plan entry is (degree, get, m, n, o): get picks the operands,
    the first dot takes ops[:m] and ops[m:n], the B dot ops[n:o] and
    ops[o:], and o is None where there is no B dot.
    """
    rows, inner, cols = len(mu_row), len(mu_mid), len(mu_col)
    right = rows * inner
    derived = {}
    # the parts (x_a, x_j) of a relative frame's P payload, and s_0 of s
    x_a, x_j, s_0 = ((lambda e: e.payload[0]), (lambda e: e.payload[1]),
                     (lambda e: e.payload.comp(0)))

    def derive(k, f):
        return right + inner * cols + derived.setdefault((k, f), len(derived))

    plan = []
    for i in range(rows):
        row_plan = []
        for j in range(cols):
            degree = mu_col[j] - mu_row[i]
            split = degree >= 1 and not p_is_s0
            terms, jterms = [], []
            for k in range(inner):
                a, b = i * inner + k, right + k * cols + j
                d1, d2 = mu_mid[k] - mu_row[i], mu_col[j] - mu_mid[k]
                if (d1 >= 1) == (d2 >= 1):
                    terms.append((derive(a, x_a), derive(b, x_a)) if split else (a, b))
                    continue
                s, x, ds = (a, b, d1) if d1 <= 0 else (b, a, d2)
                if t_is_zero and (ds < 0 or degree <= 0):
                    continue
                if degree <= 0:
                    terms.append((s, derive(x, GradedElem.tau)))
                    continue
                terms.append((derive(s, GradedElem.sigma), derive(x, x_a) if split else x))
                if split:
                    jterms.append((derive(s, s_0), derive(x, x_j)))
            ops = [t[0] for t in terms] + [t[1] for t in terms]
            ops += [t[0] for t in jterms] + [t[1] for t in jterms]
            m = len(terms)
            row_plan.append((degree, operator.itemgetter(*ops) if ops else None,
                             m, 2 * m, 2 * m + len(jterms) if split else None))
        plan.append(tuple(row_plan))
    return tuple(derived), tuple(plan)


def in_display_group(A):
    """Graded invertibility: tau(A) is invertible over the local ring S0."""
    return linalg.is_invertible(A.frame.s0, A.tau())


def group_elements(frame, mu, cap=10 ** 7):
    """All elements of the display group G(mu) over a small frame; the
    product of the slot sizes is compared with the cap before any slot is
    listed."""
    n = len(mu)
    positive = [mu[j] - mu[i] >= 1 for i in range(n) for j in range(n)]
    total = 1
    for d in positive:
        total *= frame.p_size if d else frame.s0.size
        if total > cap:
            raise EnumerationTooLarge("display group too large to enumerate")
    slots = [list(frame.p_elements(cap)) if d else list(frame.s0.elements(cap))
             for d in positive]
    for combo in itertools.product(*slots):
        grid = [[combo[i * n + j] for j in range(n)] for i in range(n)]
        A = GradedMatrix.from_payloads(frame, mu, grid)
        if in_display_group(A):
            yield A


# ---------------------------------------------------------------------------
# Displays
# ---------------------------------------------------------------------------

class Display:
    """A pair (mu, Phi) with mu non-increasing and Phi invertible over S0."""

    def __init__(self, frame, mu, phi, check=True):
        mu = tuple(mu)
        if list(mu) != sorted(mu, reverse=True):
            raise ValueError("weights must be non-increasing")
        self.frame = frame
        self.mu = mu
        self.phi = [list(row) for row in phi]
        if check:
            n = len(mu)
            if len(self.phi) != n or any(len(row) != n for row in self.phi):
                raise ValueError(f"structure matrix must be {n}x{n}")
            if not linalg.is_invertible(frame.s0, self.phi):
                raise ValueError("structure matrix is not invertible")

    @property
    def n(self):
        return len(self.mu)

    def __eq__(self, other):
        return (isinstance(other, Display) and self.frame == other.frame
                and self.mu == other.mu and linalg.mat_eq(self.phi, other.phi))

    def __hash__(self):
        return hash((self.mu, tuple(tuple(row) for row in self.phi)))

    def __repr__(self):
        return f"<display mu={self.mu} over {self.frame.kind}>"

    def act(self, A):
        """Right action Phi . A = tau(A)^-1 Phi sigma(A)."""
        if A.mu_row != self.mu or A.mu_col != self.mu:
            raise ValueError("group element has the wrong type")
        s0 = self.frame.s0
        tau_inv = linalg.mat_inverse(s0, A.tau())
        return Display(self.frame, self.mu,
                       linalg.mat_mul(s0, linalg.mat_mul(s0, tau_inv, self.phi),
                                      A.sigma()), check=False)

    def transports(self, A, other):
        """Whether self.act(A) == other.

        Phi sigma(A) == tau(A) Phi' is tested first: it needs no inverse and
        is equivalent to the action equation when tau(A) is invertible, as
        it is for every element of the display group.  A match is confirmed
        through `act`, which raises if tau(A) is singular.
        """
        if A.mu_row != self.mu or A.mu_col != self.mu:
            raise ValueError("group element has the wrong type")
        if not (isinstance(other, Display) and self.frame == other.frame
                and self.mu == other.mu):
            return False
        s0 = self.frame.s0
        if not linalg.mat_eq(linalg.mat_mul(s0, self.phi, A.sigma()),
                             linalg.mat_mul(s0, A.tau(), other.phi)):
            return False
        return self.act(A) == other

    def hodge_filtration(self):
        """E_k = span of the standard vectors with weight >= k, as index lists."""
        ks = range(min(self.mu), max(self.mu) + 2)
        return {k: [i for i, w in enumerate(self.mu) if w >= k] for k in ks}


def tensor(d1, d2):
    """Tensor product display; weights sorted non-increasing, stable in (i, j)."""
    if d1.frame != d2.frame:
        raise RingMismatch("displays over different frames")
    s0 = d1.frame.s0
    pairs = sorted(itertools.product(range(d1.n), range(d2.n)),
                   key=lambda ij: -(d1.mu[ij[0]] + d2.mu[ij[1]]))
    mu = tuple(d1.mu[i] + d2.mu[j] for i, j in pairs)
    phi = [[d1.phi[i][k] * d2.phi[j][l] for (k, l) in pairs]
           for (i, j) in pairs]
    return Display(d1.frame, mu, phi, check=False)


def dual(d):
    """Weights negated and reversed; Phi replaced by its inverse transpose."""
    inv = linalg.mat_inverse(d.frame.s0, d.phi)
    n = d.n
    mu = tuple(-d.mu[n - 1 - i] for i in range(n))
    phi = [[inv[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]
    return Display(d.frame, mu, phi, check=False)


def twist(d, k):
    """Tensor with the weight-k unit display: shift every weight by k."""
    return Display(d.frame, tuple(w + k for w in d.mu), d.phi, check=False)


def unit_display(frame, n=1, weight=0):
    return Display(frame, (weight,) * n, linalg.identity(frame.s0, n))


# ---------------------------------------------------------------------------
# F-zips (displays over the zip frame, in filtration form)
# ---------------------------------------------------------------------------

class FZip:
    """Descending C, ascending D, and semilinear gr-isomorphisms.

    `alpha[i]` is a list of (representative, image) pairs: the classes of the
    representatives span gr_C^i and the image classes span gr_D_i.
    """

    def __init__(self, ring, n, C, D, alpha):
        self.ring = ring
        self.n = n
        self.C = {i: [list(v) for v in cols] for i, cols in C.items()}
        self.D = {i: [list(v) for v in cols] for i, cols in D.items()}
        self.alpha = {i: [(list(r), list(v)) for r, v in pairs]
                      for i, pairs in alpha.items()}

    @property
    def weights(self):
        out = []
        for i, pairs in sorted(self.alpha.items(), reverse=True):
            out.extend([i] * len(pairs))
        return tuple(out)

    def __repr__(self):
        return f"<F-zip of rank {self.n}, weights {self.weights}>"


def to_fzip(d):
    """Display over the zip frame -> F-zip with standard C and Phi-column D."""
    if d.frame.kind != "zip":
        raise ValueError("to_fzip expects a display over a zip frame")
    R = d.frame.ring
    n = d.n
    lo, hi = min(d.mu), max(d.mu)
    unit = [[R.one() if i == j else R.zero() for i in range(n)] for j in range(n)]
    cols = [[d.phi[r][j] for r in range(n)] for j in range(n)]
    C = {i: [unit[j] for j in range(n) if d.mu[j] >= i] for i in range(lo, hi + 2)}
    D = {i: [cols[j] for j in range(n) if d.mu[j] <= i] for i in range(lo - 1, hi + 1)}
    alpha = {i: [(unit[j], cols[j]) for j in range(n) if d.mu[j] == i]
             for i in range(lo, hi + 1) if i in d.mu}
    return FZip(R, n, C, D, alpha)


def from_fzip(z, frame):
    """Reassemble a display over a zip frame from an F-zip with n independent
    representatives; inverse to `to_fzip` on the nose when the
    representatives are the standard vectors and Phi-columns."""
    if frame.kind != "zip":
        raise ValueError("from_fzip expects a zip frame")
    R = frame.ring
    n = z.n
    mu = z.weights
    reps, images = [], []
    for i in sorted(z.alpha, reverse=True):
        for r, v in z.alpha[i]:
            reps.append(r)
            images.append(v)
    if len(reps) != n:
        raise ValueError(f"alpha holds {len(reps)} representatives, not n = {n}")
    T = [[reps[j][i] for j in range(n)] for i in range(n)]
    M = [[images[j][i] for j in range(n)] for i in range(n)]
    T_inv = linalg.mat_inverse(R, T)
    return Display(frame, mu, linalg.mat_mul(R, T_inv, M), check=False)


# ---------------------------------------------------------------------------
# Isomorphism and orbit classification over zip frames
# ---------------------------------------------------------------------------

def all_displays(frame, n, mu, cap=10 ** 7):
    """Every display of the given type over a small frame (invertible Phi);
    |S0|^(n^2) is compared with the cap before S0 is listed."""
    if frame.s0.size ** (n * n) > cap:
        raise EnumerationTooLarge("display space too large to enumerate")
    base = list(frame.s0.elements(cap))
    for combo in itertools.product(base, repeat=n * n):
        phi = [[combo[i * n + j] for j in range(n)] for i in range(n)]
        if linalg.is_invertible(frame.s0, phi):
            yield Display(frame, mu, phi, check=False)


def orbit_search(points, make_group, act):
    """Orbits of a finite group acting on a stream of points, as sets.

    act(x, g) is the action.  The orbit of x is {act(x, g) for g in G}, one
    pass over the group (Holt, Eick, O'Brien, Handbook of Computational
    Group Theory, ch. 4).  make_group() lists G; it is called at the first
    point, so a cap check in the point stream fires before the group is
    enumerated.  An orbit that misses its own point or meets an earlier
    orbit means make_group() listed no group acting on the points, and
    raises.
    """
    group = None
    seen = set()
    orbits = []
    for x in points:
        if x in seen:
            continue
        if group is None:
            group = list(make_group())
        orbit = {act(x, g) for g in group}
        if x not in orbit or not orbit.isdisjoint(seen):
            raise VerificationError(f"the group elements do not form a group action: "
                                    f"the orbit of {x!r}")
        orbits.append(orbit)
        seen |= orbit
    return orbits


def classify_orbits(frame, mu, cap=10 ** 7):
    """Orbits of the display-group action; returns a list of orbits (sets)."""
    return orbit_search(all_displays(frame, len(mu), mu, cap),
                        lambda: group_elements(frame, mu, cap), Display.act)


def is_isomorphic_bruteforce(d1, d2, cap=10 ** 7):
    """Search the whole display group for an element carrying d1 to d2."""
    if d1.frame != d2.frame or d1.mu != d2.mu:
        return False
    for g in group_elements(d1.frame, d1.mu, cap):
        if d1.transports(g, d2):
            return True
    return False


def fzip_isomorphic(z1, z2, cap=10 ** 7):
    """F-zip isomorphism by F_p-linear algebra on Hom(z1, z2).

    A morphism g preserves C and D and commutes with the graded semilinear
    maps alpha.  Frobenius on R is F_p-linear, so every condition is
    F_p-linear in the F_p-coordinates of g: Hom(z1, z2) is an F_p-subspace,
    and z1 and z2 are isomorphic exactly when it holds an invertible g.
    `_fzip_hom` finds a basis with two `linalg.kernel_modp` calls, one for
    the filtrations and one for alpha; its p^dim elements are enumerated,
    and past `cap` that raises EnumerationTooLarge before any is.  An
    invertible element is confirmed by the full predicate
    `_is_fzip_morphism`, and a failed confirmation raises, so a wrong
    kernel can never invent an isomorphism.  Independent of the
    display-group action.
    """
    if z1.weights != z2.weights or z1.ring != z2.ring:
        return False
    R, n = z1.ring, z1.n
    spans = _fzip_spans(z1, z2)
    hom = _fzip_hom(z1, z2, spans)
    if R.p ** len(hom) > cap:
        raise EnumerationTooLarge(f"|Hom| = {R.p}^{len(hom)} exceeds cap {cap}")
    for coeffs in itertools.product(range(R.p), repeat=len(hom)):
        g = _fp_matrix(R, n, linalg.combine_modp(R.p, hom, coeffs, n * n * R.dim))
        if linalg.is_invertible(R, g):
            if not _is_fzip_morphism(z1, z2, g, spans):
                raise VerificationError(f"an element of the Hom kernel is no F-zip morphism: "
                                        f"g = {g!r}")
            return True
    return False


def _fp_matrix(R, n, vec):
    """The n x n matrix over R with the F_p-coordinates vec, entry by entry
    in row-major order."""
    k = R.dim
    return [[R.from_coords(vec[(i * n + j) * k:(i * n + j + 1) * k])
             for j in range(n)] for i in range(n)]


def _image(R, g, v):
    return [R.dot(row, v) for row in g]


def _fzip_spans(z1, z2):
    """z2's filtration steps, paired with z1's, and for each alpha step i
    D2_{i-1} as a span on F_p-coordinates and z2's alpha system at i
    (`_alpha_system`), both built once per pair of F-zips."""
    R, n = z1.ring, z1.n
    targets = [(F1, {i: linalg.ring_span(R, cols, n) for i, cols in F2.items()})
               for F1, F2 in ((z1.C, z2.C), (z1.D, z2.D))]
    steps = {i: (linalg.ring_span(R, z2.D.get(i - 1, []), n), _alpha_system(z2, i))
             for i in z1.alpha}
    return targets, steps


def _filtration_defect(R, g, targets):
    """g's images of the columns of z1's C and D, reduced by z2's steps, as
    one stream of F_p-coordinates: all zero exactly when g preserves both
    filtrations, and linear in g (`Span.reduce` is)."""
    return (x for F1, F2 in targets for i, cols in F1.items() for c in cols
            for x in F2[i].reduce(linalg.fp_coords(_image(R, g, c))))


def _alpha_defects(z1, z2, g, steps):
    """For each (r, v) in z1.alpha[i]: alpha2(gr g^(p)(r)) - g v reduced
    modulo D2_{i-1}, or None when g r has no class in gr_C^i of z2.  The
    class of g r mod C2^{i+1} determines alpha2 of its Frobenius twist."""
    R = z1.ring
    for i, pairs in z1.alpha.items():
        span, system = steps[i]
        for r, v in pairs:
            img2 = _alpha_apply(z2, i, [c.frobenius() for c in _image(R, g, r)], system)
            yield None if img2 is None else span.reduce(linalg.fp_coords(
                [x - y for x, y in zip(img2, _image(R, g, v))]))


def _is_fzip_morphism(z1, z2, g, spans):
    """Whether g preserves both filtrations and commutes with alpha."""
    targets, steps = spans
    return not any(_filtration_defect(z1.ring, g, targets)) and all(
        d is not None and not any(d) for d in _alpha_defects(z1, z2, g, steps))


def _fzip_hom(z1, z2, spans):
    """A basis of Hom(z1, z2) on F_p-coordinates of length n^2 dim R; basis
    vector e is the matrix E_ij b for b in R's F_p-basis.

    Stage 1: each basis matrix gives one column, its filtration defect; the
    kernel is the filtration-preserving subspace V.  Stage 2: each basis
    vector of V gives one column, its alpha defects; the kernel, in
    V-coordinates, is Hom.  `_alpha_apply` takes the rref solution with the
    free variables 0, which is linear in the right-hand side, and on V
    every g r lies in C2^i, so the solve exists.
    """
    R, n = z1.ring, z1.n
    p, width = R.p, n * n * R.dim
    targets, steps = spans
    units = ([int(a == b) for a in range(width)] for b in range(width))
    V = linalg.kernel_modp(p, [list(_filtration_defect(R, _fp_matrix(R, n, e), targets))
                               for e in units])
    cols = []
    for e in V:
        col = []
        for d in _alpha_defects(z1, z2, _fp_matrix(R, n, e), steps):
            if d is None:
                raise VerificationError(f"a filtration-preserving g leaves gr_C^i: g = {e}")
            col.extend(d)
        cols.append(col)
    return [linalg.combine_modp(p, V, x, width) for x in linalg.kernel_modp(p, cols)]


def _alpha_system(z, i):
    """(M, its F_p-columns): the columns of M are the Frobenius twists of
    z's representatives at alpha step i, then of C^{i+1}."""
    cols = [[c.frobenius() for c in v]
            for v in [r for r, _ in z.alpha[i]] + z.C.get(i + 1, [])]
    M = [[col[r] for col in cols] for r in range(z.n)]
    return M, linalg.fp_columns(z.ring, M)


def _alpha_apply(z, i, w_frob, system):
    """Image under alpha_i of the class of w (already Frobenius-twisted).

    Writes w^(p) as a combination of rep^(p) classes mod (C^{i+1})^(p) by
    one exact linear solve over R on `_alpha_system(z, i)`, then takes that
    combination of images.
    """
    R = z.ring
    pairs = z.alpha[i]
    M, cols = system
    coeffs = linalg.solve_local(R, M, w_frob, cols)
    if coeffs is None:
        return None
    out = [R.zero()] * z.n
    for c, (_, img) in zip(coeffs[: len(pairs)], pairs):
        out = [o + c * v for o, v in zip(out, img)]
    return out


def classify_fzips(frame, mu, cap=10 ** 7):
    """Independent orbit count: partition F-zips by raw isomorphism."""
    classes = []
    for d in all_displays(frame, len(mu), mu, cap):
        z = to_fzip(d)
        for rep in classes:
            if fzip_isomorphic(rep, z, cap):
                break
        else:
            classes.append(z)
    return classes
