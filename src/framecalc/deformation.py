"""Deformations of displays along square-zero thickenings.

Everything here exploits one fact: products of kernel entries vanish, so the
kernel of G(relative frame) -> G(target) is an elementary abelian group and
the right action of a kernel element on a display is affine-linear in its
F_p-coordinates.  Isomorphism questions therefore reduce to exact linear
algebra over F_p, and the classical descent operator theta is nilpotent,
which gives unique solvability of the lifting equations.

Two independent routes are kept side by side: the theta/descent iteration and
the direct linear solve; the tests play them against each other.

Kernel values add coordinatewise in their value coordinates (the Witt carry
of two lies in m^2 or J^2, which is 0), and a single-entry direction w E_ij
reaches one row and one column.  So the images of unit directions under the
linearized action, the orthogonality condition and conjugation by a
stabilizer are built from that row and column, term by term.

`base_change` is base change of displays along a frame morphism: its S0-map
on every entry of the structure matrix.  A lift along a thickening is base
change along `th.lift0`, a reduction along `th.eps0`, and a projection to the
zip frame of a residue field along a residue map.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from . import linalg
from .displays import (Display, GradedElem, GradedMatrix, group_elements,
                       orbit_search)
from .frames import WittFrame, ZipFrame
from .orthogonal import (OrthDisplay, exp_minus_orth, exp_plus_orth,
                         levi_element, orth_correction, orth_group_factors,
                         plain_gram, standard_J, verify_orth)
from .rings import VerificationError


# ---------------------------------------------------------------------------
# Mod-p linear algebra on int vectors
# ---------------------------------------------------------------------------

def _solve_modp(p, cols, rhs):
    """linalg.solve_modp for the kernel solves of this module, under the
    name that perfbench's tracer counts."""
    return linalg.solve_modp(p, cols, rhs)


# ---------------------------------------------------------------------------
# Base change of displays
# ---------------------------------------------------------------------------

def base_change(d, frame, f, cls=None):
    """d over frame through the S0-map f of a frame morphism, applied to
    every entry of d.phi; of class cls (d's own class by default)."""
    phi = [[f(e) for e in row] for row in d.phi]
    return (cls or type(d))(frame, d.mu, phi, check=False)


def lift_orth_display(th, d):
    """Section lift followed by the square-zero orthogonality correction.

    With E = U^t J U - J (entries in the kernel), U(I - J E / 2) preserves
    the form exactly because kernel products vanish.
    """
    s0 = th.source.s0
    U = base_change(d, th.source, th.lift0, Display).phi
    E = linalg.mat_sub(plain_gram(s0, U, U), standard_J(s0, d.n))
    phi = linalg.mat_mul(s0, U, orth_correction(s0, E))
    out = OrthDisplay(th.source, d.mu, phi, check=False)
    if not verify_orth(out):
        raise VerificationError(f"orthogonal correction failed: phi = {phi!r}")
    return out


# ---------------------------------------------------------------------------
# The descent operator theta and its conjugates
# ---------------------------------------------------------------------------

def _shift_witt(w):
    return w.wring.el(list(w.comps[1:]) + [w.wring.ring.zero()])


def theta(relframe, mu, Y):
    """The composite sigma after tau^-1 on the kernel group G(K0).

    Y = I + kappa with kappa entries in the kernel ideal.  Degree <= 0
    entries die (sigma0 kills the kernel, and extra p-factors only help);
    a degree >= 1 entry becomes the downward Witt-coordinate shift of
    itself: tau^-1 presents it as a pair (a, x) with tau = (x, a_0, ...),
    and sigma-dot of the pair is a.
    """
    n = len(mu)
    s0 = relframe.s0
    out = linalg.identity(s0, n)
    for i in range(n):
        for j in range(n):
            if mu[j] - mu[i] < 1:
                continue
            out[i][j] = _shift_witt(Y[i][j])
    return out


def conj_operator(relframe, mu, g, g_inv, Y):
    """U_g(Y) = g theta(Y) g^-1, on matrices over S0."""
    s0 = relframe.s0
    return linalg.mat_mul(s0, g, linalg.mat_mul(s0, theta(relframe, mu, Y), g_inv))


def solve_descent(relframe, mu, g, h):
    """The unique Y in G(K0) with U_g(Y)^-1 Y = h, via Y = ... U^2(h) U(h) h.

    Terminates because theta is nilpotent: each step shifts the Witt
    coordinates of every kernel entry down.  Uniqueness is rechecked by
    exact re-substitution.
    """
    s0 = relframe.s0
    g_inv = linalg.mat_inverse(s0, g)
    bound = relframe.m + 2
    I = linalg.identity(s0, len(mu))
    y = I
    term = h
    for _ in range(bound + 1):
        if linalg.mat_eq(term, I):
            break
        y = linalg.mat_mul(s0, term, y)
        term = conj_operator(relframe, mu, g, g_inv, term)
    else:
        raise VerificationError(f"descent iteration did not terminate in {bound + 1} "
                                f"steps: h = {h!r}")
    u_y = conj_operator(relframe, mu, g, g_inv, y)
    if not linalg.mat_eq(
            linalg.mat_mul(s0, linalg.mat_inverse(s0, u_y), y), h):
        raise VerificationError(f"descent solution failed exact re-substitution: y = {y!r}")
    return y


def tau_inverse_kernel(relframe, mu, Y):
    """The graded kernel element z with tau(z) = Y and sigma(z) = theta(Y).

    Degree <= 0 entries carry over as payloads; a degree >= 1 entry
    (w_0, w_1, ...) becomes the pair ((w_1, ..., 0), w_0), the canonical
    choice with vanishing top coordinate.
    """
    n = len(mu)
    I = linalg.identity(relframe.s0, n)
    out = GradedMatrix.identity(relframe, mu)
    for i in range(n):
        for j in range(n):
            d = mu[j] - mu[i]
            e = Y[i][j] - I[i][j]
            if e.is_zero():
                continue
            if d >= 1:
                pay = (_shift_witt(e), e.comp(0))
            else:
                pay = e
            out.entries[i][j] = out.entries[i][j] + GradedElem(relframe, d, pay)
    return out


def lift_uniqueness_witness(relframe, d1, d2):
    """The graded element z with d1.act(z) = d2, through the descent
    product, for two displays whose matrices differ by a kernel factor
    h = phi2 phi1^-1; verified by exact re-substitution."""
    s0 = relframe.s0
    h = linalg.mat_mul(s0, d2.phi, linalg.mat_inverse(s0, d1.phi))
    h_inv = linalg.mat_inverse(s0, h)
    y = solve_descent(relframe, d1.mu, d1.phi, h_inv)
    z = tau_inverse_kernel(relframe, d1.mu, y)
    if not linalg.mat_eq(d1.act(z).phi, d2.phi):
        raise VerificationError(f"descent witness failed exact verification: z = {z!r}")
    return z


# ---------------------------------------------------------------------------
# F_p-coordinates on kernel slots
# ---------------------------------------------------------------------------

class WittKernelCoords:
    """F_p-coordinates for I + kappa, kappa supported on kernel payloads, on
    a kernel subgroup of the display group of a frame with S0 = W_m(B).

    kind "jsupp" (a Witt frame of B): all coordinates supported on the
    kernel ideal J of a square-zero extension (the kernel of the reduction
    to W_m(A)).  kind "resfield" (a Witt frame of B): leading Witt
    coordinate in the maximal ideal, higher coordinates free (the kernel of
    the reduction to the zip frame of the residue field); needs a
    square-zero maximal ideal.  kind "zip" (the relative frame W_m(B/A)):
    first Witt coordinate in J, the rest free (the kernel of the projection
    to the zip frame of A); there a positive-degree payload is a pair
    (a, x), with one more coordinate per J-basis monomial for x.  The last
    two need m = 2, where kernel products vanish exactly.
    """

    def __init__(self, frame, mu, kind, ext=None):
        ring = frame.s0.ring
        if ring.field.f != 1:
            raise ValueError("coordinates require a prime residue field")
        if (kind == "zip") != (frame.kind == "relative"):
            raise ValueError(f"{kind} coordinates do not apply to a {frame.kind} frame")
        self.frame = frame
        self.mu = tuple(mu)
        self.kind = kind
        self.ext = ext
        self.p = frame.p
        m = frame.m
        if kind == "jsupp":
            if ext is None or ext.B != ring:
                raise ValueError("jsupp coordinates need the extension of the base ring")
            comp_monos = [list(ext.J_basis) for _ in range(m)]
        elif kind == "resfield":
            if m != 2:
                raise ValueError("resfield coordinates require m = 2")
            nilp = [mo for mo in ring.basis if any(mo)]
            for m1 in nilp:
                for m2 in nilp:
                    if not (ring.el({m1: 1}) * ring.el({m2: 1})).is_zero():
                        raise ValueError("maximal ideal is not square-zero")
            comp_monos = [nilp] + [list(ring.basis)] * (m - 1)
        elif kind == "zip":
            if m != 2:
                raise ValueError("zip-kernel coordinates require m = 2")
            comp_monos = [list(frame.ext.J_basis)] + [list(ring.basis)] * (m - 1)
        else:
            raise ValueError(kind)
        self.value_basis = [(c, mo) for c, monos in enumerate(comp_monos)
                            for mo in monos]
        # flat Witt index c * dim + i (component c, coordinate i) -> value
        self._value_pos = {c * ring.dim + ring.coord_index(mo): k
                           for k, (c, mo) in enumerate(self.value_basis)}
        # the Witt vector of each value coordinate's unit
        self.value_units = [self._witt_unit(c, mo) for c, mo in self.value_basis]
        n = len(self.mu)
        self.slots = []
        for i in range(n):
            for j in range(n):
                d = self.mu[j] - self.mu[i]
                payloads = self.value_units
                if kind == "zip" and d >= 1:
                    # P of the relative frame is pairs (a, x) with x in J
                    payloads = ([(w, ring.zero()) for w in payloads]
                                + [(frame.s0.zero(), ring.el({mo: 1}))
                                   for mo in frame.ext.J_basis])
                self.slots.append((i, j, d, payloads))
        self.offsets = []
        total = 0
        for _, _, _, payloads in self.slots:
            self.offsets.append(total)
            total += len(payloads)
        self.dim = total
        self._singles = None

    def _witt_unit(self, c, mo):
        ring = self.frame.s0.ring
        comps = [ring.zero()] * self.frame.m
        comps[c] = ring.el({mo: 1})
        return self.frame.s0.el(comps)

    def decode(self, vec):
        """Coordinates -> the group element I + kappa."""
        frame = self.frame
        out = GradedMatrix.identity(frame, self.mu)
        for s, (i, j, d, payloads) in enumerate(self.slots):
            off = self.offsets[s]
            acc = None
            for k, pay in enumerate(payloads):
                c = vec[off + k] % self.p
                if not c:
                    continue
                e = GradedElem(frame, d, pay)
                term = e
                for _ in range(c - 1):
                    term = term + e
                acc = term if acc is None else acc + term
            if acc is not None:
                out.entries[i][j] = out.entries[i][j] + acc
        return out

    def encode_value(self, e):
        """A kernel value of S0 -> its value coordinates."""
        v = [0] * len(self.value_basis)
        for i, c in enumerate(e.coeffs):
            if c:
                pos = self._value_pos.get(i)
                if pos is None:
                    raise ValueError("value outside the kernel space")
                v[pos] = c
        return v

    def encode_value_matrix(self, M):
        """Matrix over S0 with kernel entries -> flat coordinate vector."""
        return [c for row in M for e in row for c in self.encode_value(e)]

    def single_entries(self):
        """(i, j, sigma, tau) per global coordinate index: the slot of the
        one nonzero entry of that basis kappa, and the entry's sigma and tau
        in S0.  Built on first use and kept on the instance."""
        if self._singles is None:
            self._singles = []
            for i, j, d, payloads in self.slots:
                for pay in payloads:
                    e = GradedElem(self.frame, d, pay)
                    self._singles.append((i, j, e.sigma(), e.tau()))
        return self._singles


# ---------------------------------------------------------------------------
# The affine-linear isomorphism solver
# ---------------------------------------------------------------------------

def skew_basis(coords):
    """Basis of the orthogonality-kernel condition
    kappa_{n-1-i, j} + kappa_{n-1-j, i} = 0, as coordinate vectors
    (self-paired slots drop out)."""
    n = len(coords.mu)
    slot_of = {(i, j): s for s, (i, j, _, _) in enumerate(coords.slots)}
    vecs = []
    seen = set()
    for s, (i, j, d, payloads) in enumerate(coords.slots):
        partner = (n - 1 - j, n - 1 - i)
        if partner == (i, j):
            continue  # 2 kappa = 0 forces the slot to vanish
        key = tuple(sorted([(i, j), partner]))
        if key in seen:
            continue
        seen.add(key)
        s2 = slot_of[partner]
        for k in range(len(payloads)):
            v = [0] * coords.dim
            v[coords.offsets[s] + k] = 1
            v[coords.offsets[s2] + k] = coords.p - 1
            vecs.append(v)
    return vecs


def kernel_basis(coords, orth=False):
    """The coordinate vectors that span the kernel elements a search runs
    over: the skew basis for orthogonal displays, else the unit vectors."""
    if orth:
        return skew_basis(coords)
    return [[int(i == k) for i in range(coords.dim)] for k in range(coords.dim)]


def _add_values(coords, col, c, terms):
    """col += c times the value coordinates of the kernel value e in block b,
    for (b, e) in terms; col is a flat int list, not reduced mod p."""
    nv = len(coords.value_basis)
    for b, e in terms:
        for k, x in enumerate(coords.encode_value(e), b * nv):
            col[k] += c * x


def _linear_columns(coords, left_phi, right_phi, basis_vectors):
    """Columns of zeta -> left sigma(zeta) - tau(zeta) right, in value coords.

    A single-entry zeta in slot (i, j) with sigma s and tau t is rank one:
    its image is (column i of left) s in column j minus t (row j of right)
    in row i, 2n - 1 of the n^2 blocks.  Value coordinates are additive on
    kernel values, so each term is encoded alone and the column of a basis
    vector is the mod-p combination of its terms' encodings.
    """
    p = coords.p
    n = len(coords.mu)
    entries = coords.single_entries()
    cols = []
    for bv in basis_vectors:
        col = [0] * (n * n * len(coords.value_basis))
        for idx, c in enumerate(bv):
            if c % p:
                i, j, sig, tau = entries[idx]
                _add_values(coords, col, c, [(r * n + j, left_phi[r][i] * sig)
                                             for r in range(n)])
                _add_values(coords, col, -c, [(i * n + k, tau * right_phi[j][k])
                                              for k in range(n)])
        cols.append([x % p for x in col])
    return cols


def solve_identity_iso(coords, d1, d2, basis_vectors=None):
    """z = I + kappa with d1.act(z) == d2, or None; complete by linearity.

    basis_vectors restricts kappa to a subspace (e.g. the orthogonal one);
    each is a full coordinate vector.  Callers check d1.act(z) == d2.
    """
    if basis_vectors is None:
        basis_vectors = kernel_basis(coords)
    rhs_mat = linalg.mat_sub(d2.phi, d1.phi)
    try:
        rhs = coords.encode_value_matrix(rhs_mat)
    except ValueError:
        return None  # not in the same fiber of the projection
    cols = _linear_columns(coords, d1.phi, d2.phi, basis_vectors)
    sol = _solve_modp(coords.p, cols, rhs)
    if sol is None:
        return None
    return coords.decode(linalg.combine_modp(coords.p, basis_vectors, sol, coords.dim))


# ---------------------------------------------------------------------------
# Hodge filtration lifts
# ---------------------------------------------------------------------------

def hodge_lift_parameters(relframe, mu, orth=False):
    """The parameter grids of the lifts of the Hodge flag along J.

    GL: one J-value per strictly-positive slot.  Orthogonal (minuscule
    self-dual type): the isotropic line determines the flag, J^(n-2) values.
    """
    ext = relframe.ext
    js = list(ext.j_elements())
    n = len(mu)
    if orth:
        for combo in itertools.product(js, repeat=n - 2):
            yield list(combo)
    else:
        slots = [(i, j) for i in range(n) for j in range(n) if mu[j] - mu[i] >= 1]
        for combo in itertools.product(js, repeat=len(slots)):
            yield dict(zip(slots, combo))


def hodge_lift_matrix(relframe, mu, params, orth=False):
    """The graded unipotent I + Delta with payloads (0, delta); sigma of it
    is the identity, so acting by it deforms only through tau."""
    zero_w = relframe.s0.zero()
    if orth:
        pays = [(zero_w, x) for x in params]
        return exp_plus_orth(relframe, mu, pays)
    A = GradedMatrix.identity(relframe, mu)
    for (i, j), x in params.items():
        A.entries[i][j] = GradedElem(relframe, mu[j] - mu[i], (zero_w, x))
    return A


def _base_lift(th, d, orth):
    """d lifted over the relative frame: the orthogonal lift when orth, else
    the section lift."""
    if orth:
        return lift_orth_display(th, d)
    return base_change(d, th.source, th.lift0, Display)


def enumerate_hodge_deformations(th, d, orth=False):
    """All deformations of d along the thickening, one per Hodge lift,
    emitted as displays over the Witt frame of B.  sigma of each lift matrix
    is the identity, so the action deforms only through tau and the result
    still reduces to d."""
    return _hodge_deformations(_base_lift(th, d, orth), orth)


def _hodge_deformations(dhat, orth):
    """enumerate_hodge_deformations from the lift dhat of d."""
    relframe = dhat.frame
    out_frame = WittFrame(relframe.ext.B, relframe.m)
    out = []
    for params in hodge_lift_parameters(relframe, dhat.mu, orth=orth):
        y = dhat.act(hodge_lift_matrix(relframe, dhat.mu, params, orth=orth))
        out.append(type(y)(out_frame, y.mu, y.phi, check=False))
    return out


# ---------------------------------------------------------------------------
# Fiber classification (complete, by the coset argument)
# ---------------------------------------------------------------------------

def fiber_direction_basis(coords, orth_base=None):
    """Basis of the space of kernel matrices K with base + K in the fiber,
    as coordinate vectors of the "jsupp" coordinates coords of a Witt frame
    of B, whose S0 = W_m(B) holds the entries.

    Every kernel matrix is a direction of the plain fiber.  For the
    orthogonal fiber (orth_base = the lifted Phi), K is cut out by the
    linear condition K^t J Phi + Phi^t J K = 0 (the quadratic term vanishes
    on kernel entries).  For a unit direction K = w E_ij it is rank one:
    w (row i of J Phi) in row j plus w (column i of Phi^t J) in column j.
    """
    n = len(coords.mu)
    width = n * n * len(coords.value_basis)
    if orth_base is None:
        return [[int(k == i) for k in range(width)] for i in range(width)]
    s0 = coords.frame.s0
    I = linalg.identity(s0, n)
    j_phi, phi_j = plain_gram(s0, I, orth_base), plain_gram(s0, orth_base, I)
    cols = []
    for i, j, w in itertools.product(range(n), range(n), coords.value_units):
        col = [0] * width
        _add_values(coords, col, 1, [(j * n + k, w * j_phi[i][k]) for k in range(n)]
                    + [(r * n + j, phi_j[r][i] * w) for r in range(n)])
        cols.append(col)
    return linalg.kernel_modp(coords.p, cols)


def _conjugation_columns(coords, tau_inv, sig):
    """Columns of K -> tau_inv K sig on the unit directions K = w E_ij of
    coords: the outer product of column i of tau_inv and w (row j of sig)."""
    n = len(coords.mu)
    cols = []
    for i, j, w in itertools.product(range(n), range(n), coords.value_units):
        row = [w * x for x in sig[j]]
        cols.append(coords.encode_value_matrix([[t[i] * y for y in row]
                                                for t in tau_inv]))
    return cols


# ---------------------------------------------------------------------------
# The zip-level tower over a Witt frame
# ---------------------------------------------------------------------------

# At most this many zip levels are kept; each holds its group elements and
# the transporters queried on it.
_ZIP_LEVEL_CAP = 4


@functools.lru_cache(maxsize=_ZIP_LEVEL_CAP)
def _zip_level(zring, mu, orth):
    """The zip level shared by every LiftTower over (zring, mu, orth): the
    ZipFrame of zring, the display group over it in enumeration order
    (`orth_group_factors` order when orth), the parameters each lift is
    built from (the factors of g0 when orth, else g0 itself), and the
    transporter memo."""
    zf = ZipFrame(zring)
    if orth:
        params, elements = zip(*orth_group_factors(zf, mu))
    else:
        params = elements = tuple(group_elements(zf, mu))
    return zf, elements, params, {}


class LiftTower(Sequence):
    """The zip-level display group of a residue field with exact lifts to a
    Witt frame, built on first use.

    Entry k is (g0, ghat): g0 over the zip frame, in group enumeration
    order, and ghat its lift over the Witt frame, which build(params[k])
    makes from the Teichmueller lifts of the parameters of g0 (its entries,
    when params[k] is g0 itself) and the tower then keeps.  The zip level
    (frame, elements, params and the memoized transporter) is shared by
    every tower over the same (zip ring, mu, orth), through a cache of
    _ZIP_LEVEL_CAP levels, so towers over different Witt frames enumerate
    the group and answer a transporter query once between them.  A tower
    holds at most len() lifts of its own.
    """

    def __init__(self, level, build):
        self.frame, self._elements, self._params, self._transporters = level
        self._build = build
        self._lifts = {}

    def __len__(self):
        return len(self._elements)

    def __getitem__(self, k):
        if not -len(self) <= k < len(self):
            raise IndexError(k)
        k %= len(self)
        ghat = self._lifts.get(k)
        if ghat is None:
            ghat = self._lifts[k] = self._build(self._params[k])
        return self._elements[k], ghat

    def transporter(self, z1, z2):
        """The indices k with z1.act(g0_k) == z2, increasing."""
        key = (z1, z2)
        hit = self._transporters.get(key)
        if hit is None:
            hit = self._transporters[key] = [
                k for k, g0 in enumerate(self._elements) if z1.transports(g0, z2)]
        return hit


def witt_zip_lift_pairs(wframe, mu, zring, lift_scalar):
    """The whole zip-level display group over the zip frame of the residue
    field, with exact Teichmueller lifts over the Witt frame (a LiftTower
    on the shared zip level of (zring, mu))."""
    s0 = wframe.s0

    def build(g0):
        return GradedMatrix.from_payloads(
            wframe, mu, [[s0.teichmuller(lift_scalar(e)) for e in row]
                         for row in g0.payload_grid()])

    return LiftTower(_zip_level(zring, tuple(mu), False), build)


def witt_orth_zip_lift_pairs(wframe, mu, zring, lift_scalar):
    """Orthogonal analogue of witt_zip_lift_pairs: the orthogonal zip group
    in `orth_group_factors` order, shared per (zring, mu), with exact
    orthogonal lifts, each built from the factors of its g0 (Levi times
    lower times upper unipotent, Teichmueller parameters throughout)."""
    s0 = wframe.s0

    def teich(a):
        return s0.teichmuller(lift_scalar(a))

    def build(params):
        a, H, xm, xp = params
        l = levi_element(wframe, mu, teich(a), teich(a.invert()),
                         [[teich(h) for h in row] for row in H])
        lum = l * exp_minus_orth(wframe, mu, [teich(x) for x in xm])
        return lum * exp_plus_orth(wframe, mu, [teich(x) for x in xp])

    return LiftTower(_zip_level(zring, tuple(mu), True), build)


def _tower_search(tower, coords, d, z1, z2, target, orth):
    """Exact display-group elements g with d.act(g) == target, in tower
    order: for each transporter element g0 of the zip displays z1 -> z2,
    its lift ghat times the kernel element that the linear solver finds
    for d.act(ghat) -> target, if there is one."""
    basis_vectors = kernel_basis(coords, orth)
    for k in tower.transporter(z1, z2):
        _, ghat = tower[k]
        z = solve_identity_iso(coords, d.act(ghat), target, basis_vectors=basis_vectors)
        if z is None:
            continue
        g = ghat * z
        if not d.act(g) == target:
            raise VerificationError(f"linear solution failed exact verification: g = {g!r}")
        yield g


def is_isomorphic_witt(coords, tower, resmap, d1, d2, orth=False):
    """Decide isomorphism of two displays over a Witt frame W_2(B).

    Complete by the tower argument: the reduction of the display group to
    the zip frame of the residue field is surjective (Teichmueller lifts),
    its kernel is the "resfield" coordinate group, kernel products vanish,
    so the kernel part of any isomorphism is found by the linear solver.
    tower is a LiftTower; only the zip-level elements carrying the
    reduction of d1 to that of d2 (its memoized transporter) get lifted.
    """
    zf = tower.frame
    z1 = base_change(d1, zf, resmap, Display)
    z2 = base_change(d2, zf, resmap, Display)
    target = Display(d1.frame, d1.mu, d2.phi, check=False)
    found = _tower_search(tower, coords, d1, z1, z2, target, orth)
    return next(found, None) is not None


# ---------------------------------------------------------------------------
# Stabilizers and the complete fiber classification
# ---------------------------------------------------------------------------

def stabilizer_lifts(d, tower, coords_res, orth=False):
    """One exact display-group stabilizer element of d per zip-level
    component of the stabilizer.

    d lies over W_2(A); tower (a LiftTower) is over the zip frame of A's
    residue field, and coords_res are the "resfield" coordinates of the
    kernel, which need A's maximal ideal to square to zero.  The
    components are the transporter of the residue reduction z0 of d to
    itself in tower; only those elements get lifted.  A kernel element has
    first Witt coordinates in m_A, so after base change to B along a
    thickening with m_B J = 0 its entries multiply J-supported Witt vectors
    as the identity does: kernel components act trivially on J-supported
    perturbations, and one representative per component is enough.
    """
    z0 = base_change(d, tower.frame, d.frame.s0.to_residue, Display)
    target = Display(d.frame, d.mu, d.phi, check=False)
    return list(_tower_search(tower, coords_res, d, z0, z0, target, orth))


def classify_witt_fiber(th, d, orth=False):
    """Isomorphism classes of displays over W_m(B) reducing to d over
    W_m(A), matched against the Hodge-lift deformations.

    Complete in three exact steps.  (1) Every class has a representative
    whose matrix reduces entrywise to d.phi: an isomorphism of reductions
    pushes up through a Teichmueller lift.  (2) On that matrix fiber, based
    at the lift the Hodge deformations start from, the isomorphisms
    reducing to the identity act by translations by V = image of the
    linearized kernel action.  (3) The remaining identifications form the
    stabilizer of d, which acts linearly on the coset space; orbits of that
    finite action are the classes.

    The stabilizer comes from `stabilizer_lifts`, so the domain is m = 2,
    A's maximal ideal squaring to zero and m_B J = 0.  A thickening with
    m_B J != 0 is refused with a ValueError before anything is built; the
    "resfield" coordinates refuse the other two with a ValueError.
    """
    frame_a = th.target
    ext = th.source.ext
    B = ext.B
    if any(not B.in_ideal(tuple(a + b for a, b in zip(mo, jm)))
           for mo in B.basis if any(mo) for jm in ext.J_basis):
        raise ValueError("fiber classification needs m_B J = 0: "
                         "the maximal ideal of B must kill J")
    p = frame_a.p
    mu = d.mu
    frame_b = WittFrame(B, frame_a.m)
    dhat = _base_lift(th, d, orth)
    phi = dhat.phi
    coords = WittKernelCoords(frame_b, mu, "jsupp", ext=ext)
    # V = image of zeta -> Phi sigma(zeta) - tau(zeta) Phi; the same
    # subspace for every fiber member because kernel products vanish
    cols = _linear_columns(coords, phi, phi, kernel_basis(coords, orth))
    dir_vecs = fiber_direction_basis(coords, orth_base=phi if orth else None)
    width = len(mu) ** 2 * len(coords.value_basis)
    fiber = linalg.Span(p, dir_vecs, width)
    vspan = linalg.Span(p, cols, width)
    outside = next((c for c in cols if c not in fiber), None)
    if outside is not None:
        raise VerificationError(f"kernel action left the fiber: column {outside}")
    canon = vspan.reduce
    # coset labels: canon is a linear projection fixing its image, so the
    # reduced fiber directions span a complement of V in the fiber whose
    # vectors are their own labels
    comp = linalg.Span(p, [canon(v) for v in dir_vecs], width)
    labels = [canon(linalg.combine_modp(p, comp.rows, combo, width))
              for combo in itertools.product(range(p), repeat=comp.rank)]
    label_set = set(labels)
    if len(label_set) != len(labels):
        twice = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
        raise VerificationError(f"coset representatives collided: label {twice}")
    # Hodge deformations and their labels
    deform = _hodge_deformations(dhat, orth)
    hodge_labels = []
    for dd in deform:
        vec = coords.encode_value_matrix(linalg.mat_sub(dd.phi, phi))
        lab = canon(vec)
        if lab not in label_set:
            raise VerificationError(f"Hodge deformation left the fiber cosets: label {lab}")
        hodge_labels.append(lab)
    # stabilizer of d over A, one exact lift per zip-level component; the
    # zip level, over A's residue field, is shared with any other tower
    # over (that field, mu)
    lift_pairs = witt_orth_zip_lift_pairs if orth else witt_zip_lift_pairs
    A = frame_a.ring
    pairs_a = lift_pairs(frame_a, mu, A.residue_field, A.lift_residue)
    coords_res = WittKernelCoords(frame_a, mu, "resfield")
    stabs = stabilizer_lifts(d, pairs_a, coords_res, orth=orth)
    # induced linear maps on the J-supported value space
    maps = []
    for s in stabs:
        s_b = GradedMatrix.from_payloads(
            frame_b, mu, [[th.lift0(x) for x in row] for row in s.payload_grid()])
        mcols = _conjugation_columns(
            coords, linalg.mat_inverse(frame_b.s0, s_b.tau()), s_b.sigma())
        # sanity: conjugation preserves V
        if any(linalg.combine_modp(p, mcols, c, width) not in vspan for c in cols):
            raise VerificationError(f"stabilizer did not preserve the kernel image: s = {s!r}")
        maps.append(mcols)

    def act(lab, mcols):
        img = canon(linalg.combine_modp(p, mcols, lab, width))
        if img not in label_set:
            raise VerificationError(f"stabilizer left the fiber cosets: {lab} -> {img}")
        return img

    # orbits of the stabilizer action on the cosets
    orbits = orbit_search(labels, lambda: maps, act)
    orbit_of = {lab: k for k, orbit in enumerate(orbits) for lab in orbit}
    n_classes = len(orbits)
    hodge_orbits = [orbit_of[lab] for lab in hodge_labels]
    passed = (n_classes == len(deform)
              and len(set(hodge_orbits)) == len(deform))
    return {
        "passed": passed,
        "classes": n_classes,
        "hodge_lifts": len(deform),
        "fiber_dim": fiber.rank,
        "action_rank": vspan.rank,
        "cosets": len(labels),
        "stab_components": len(stabs),
        "deformations": deform,
    }


# ---------------------------------------------------------------------------
# K3-type deformations
# ---------------------------------------------------------------------------

def k3_deform(th, d):
    """The deformations of a K3-type orthogonal display along the thickening,
    one per isotropic Hodge-flag lift, as displays over the Witt frame of B;
    each is orthogonal and reduces back to the input."""
    out = enumerate_hodge_deformations(th, d, orth=True)
    for dd in out:
        if not verify_orth(dd):
            raise VerificationError(f"deformation lost orthogonality: phi = {dd.phi!r}")
        if not linalg.mat_eq(base_change(dd, th.target, th.eps0).phi, d.phi):
            raise VerificationError(
                f"deformation does not reduce to the input: phi = {dd.phi!r}")
    return out
