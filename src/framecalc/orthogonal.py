"""Split orthogonal structure on displays: graded Gram forms and O(psi).

The standard split form is the antidiagonal J; a weight type is self-dual
when mu_i + mu_{n-1-i} = 0.  The Gram form of a graded matrix has entry
(i, j) in degree mu_i + mu_j, and a group element is orthogonal when its
Gram form equals J.  Both tau and sigma turn the graded condition into the
plain matrix condition M^t J M = J over S0.

Also here: the plain Gram M^t J N and the correction I - J E / 2 that the
orthogonal lift of a display and the Newton step of Gram normalization
share, the big-cell decomposition g = q u (parabolic times unipotent,
u = I + sum X_b read off the clearing steps), minuscule exponentials for
the positive and negative unipotent parts (one builder, the negative one
filling the transposed places), and perturbative Gram normalization,
which reads every form value off `form_transform` C^t B C on the columns C
it works on and updates columns by one graded product each.
"""

from __future__ import annotations

import itertools

from . import linalg
from .displays import (Display, GradedElem, GradedMatrix, all_displays,
                       orbit_search)
from .rings import VerificationError


def standard_J(ring, n):
    return [[ring.one() if i + j == n - 1 else ring.zero() for j in range(n)]
            for i in range(n)]


def is_self_dual_type(mu):
    n = len(mu)
    return all(mu[i] + mu[n - 1 - i] == 0 for i in range(n))


def standard_gram(frame, mu):
    """The graded matrix of the split form J for a self-dual type."""
    n = len(mu)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            d = mu[i] + mu[j]
            if j == n - 1 - i:
                row.append(GradedElem(frame, 0, frame.s0.one()))
            else:
                row.append(GradedElem.zero(frame, d))
        entries.append(row)
    return GradedMatrix(frame, tuple(-w for w in mu), tuple(mu), entries)


def form_transform(B, A):
    """A^t B A: the Gram form in the basis given by the columns of A."""
    return A.transpose() * B * A


def plain_gram(ring, M, N):
    """M^t J N over a ring: the split form on the columns of M and N."""
    J = standard_J(ring, len(N))
    return linalg.mat_mul(ring, linalg.transpose(M), linalg.mat_mul(ring, J, N))


def is_orth_matrix(ring, M):
    """Plain condition M^t J M = J over a ring."""
    return linalg.mat_eq(plain_gram(ring, M, M), standard_J(ring, len(M)))


def orth_correction(ring, E):
    """I - J E / 2 over a ring, for the error E = G - J of a Gram matrix
    G = M^t B M: M (I - J E / 2) has Gram matrix J exactly where products
    of E's entries vanish (J is an involution), else it is a Newton step."""
    half_s = half(ring)
    corr = [[half_s * e for e in row]
            for row in linalg.mat_mul(ring, standard_J(ring, len(E)), E)]
    return linalg.mat_sub(linalg.identity(ring, len(E)), corr)


class OrthDisplay(Display):
    """A display whose structure matrix preserves the split form."""

    def __init__(self, frame, mu, phi, check=True):
        if not is_self_dual_type(mu):
            raise ValueError("weight type is not self-dual")
        super().__init__(frame, mu, phi, check=check)
        if check and not verify_orth(self):
            raise ValueError("structure matrix does not preserve the form")

    def act(self, A):
        d = super().act(A)
        return OrthDisplay(self.frame, d.mu, d.phi, check=False)


def verify_orth(d):
    return (is_self_dual_type(d.mu)
            and is_orth_matrix(d.frame.s0, d.phi)
            and linalg.is_invertible(d.frame.s0, d.phi))


# ---------------------------------------------------------------------------
# Big-cell decomposition g = q u
# ---------------------------------------------------------------------------

def _blocks(mu):
    """Index blocks of equal weight, in order (weights are non-increasing)."""
    blocks = []
    for i, w in enumerate(mu):
        if blocks and mu[blocks[-1][0]] == w:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def decompose(g):
    """Factor g = q u with u unipotent of positive degrees and q of degrees <= 0.

    Block row b, lowest weight first, is cleared left of its diagonal block
    by I - X_b, X_b in block row b and the columns left of block b.  For
    a <= b the columns of X_a miss the rows of X_b, so X_a X_b = 0 and
    u = (I + X_1) ... (I + X_B) = I + sum X_b.  Unique; exists exactly when
    the degree-0 diagonal blocks are invertible; q u == g checked each call.
    """
    frame = g.frame
    mu = g.mu_col
    s0 = frame.s0
    blocks = _blocks(mu)
    work = GradedMatrix(frame, mu, mu, g.entries)
    u = GradedMatrix.identity(frame, mu)
    for b in range(len(blocks) - 1, 0, -1):
        rows = blocks[b]
        left = [j for blk in blocks[:b] for j in blk]
        # diagonal block is degree 0: invert its payload matrix over S0
        D = [[work.entries[i][j].payload for j in rows] for i in rows]
        D_inv = linalg.mat_inverse(s0, D)
        # X = D^-1 * (block-row entries left of the diagonal), positive degrees
        w = [mu[i] for i in rows]
        X = (GradedMatrix(frame, w, w, [[GradedElem(frame, 0, x) for x in row]
                                        for row in D_inv])
             * GradedMatrix(frame, w, [mu[j] for j in left],
                            [[work.entries[k][j] for j in left] for k in rows]))
        changed = False
        for bi, i in enumerate(rows):
            for bj, j in enumerate(left):
                acc = X.entries[bi][bj]
                if not acc.is_zero():
                    changed = True
                u.entries[i][j] = acc
        if changed:
            # right-multiplying by I - X clears this block-row's left entries
            # and changes no other column: work[:, left] -= work[:, rows] X
            delta = GradedMatrix(frame, mu, w, [[row[k] for k in rows]
                                                for row in work.entries]) * X
            for row, drow in zip(work.entries, delta.entries):
                for j, d in zip(left, drow):
                    row[j] = row[j] - d
    q = work
    # sanity: q has no positive-degree entries, and q * u recomposes g
    for i in range(len(mu)):
        for j in range(len(mu)):
            if mu[j] - mu[i] >= 1 and not q.entries[i][j].is_zero():
                raise VerificationError(f"decomposition left a positive entry at ({i}, {j})")
    if not (q * u) == g:
        raise VerificationError(f"decomposition failed to recompose g = {g!r}")
    return q, u


# ---------------------------------------------------------------------------
# Minuscule unipotents
# ---------------------------------------------------------------------------

def half(s0):
    """1/2 in S0, for p odd: (order + 1) / 2 with order the additive order
    of 1, a power of p.  An integer, hence Frobenius-fixed."""
    order = s0.p
    while not s0.from_int(order).is_zero():
        order *= s0.p
    return s0.from_int((order + 1) // 2)


def _exp_orth(frame, mu, xs, at):
    """The orthogonal unipotent with column-0 entries xs (middle rows), each
    entry (r, c) put at at(r, c), in the degree of that place.

    The last row is forced to -xs reversed and the corner entry is -1/2
    times sum x_k x_{n-1-k}; the result lies in O by construction.
    """
    n = len(mu)
    if len(xs) != n - 2:
        raise ValueError("expected one payload per middle row")
    A = GradedMatrix.identity(frame, mu)

    def put(r, c, make):
        r, c = at(r, c)
        A.entries[r][c] = entry = make(mu[c] - mu[r])
        return entry

    col = [put(i, 0, lambda d: GradedElem(frame, d, x)) for i, x in enumerate(xs, 1)]
    for i, x in enumerate(xs, 1):
        put(n - 1, n - 1 - i, lambda d: -GradedElem(frame, d, x))
    put(n - 1, 0, lambda d: -(GradedElem(frame, 0, half(frame.s0)) * sum(
        (col[k] * col[n - 3 - k] for k in range(n - 2)), GradedElem.zero(frame, d))))
    return A


def exp_plus_orth(frame, mu, xs):
    """The positive orthogonal unipotent: column 0 / last row, degrees >= 1."""
    return _exp_orth(frame, mu, xs, lambda r, c: (r, c))


def exp_minus_orth(frame, mu, xs):
    """The transposed-type unipotent: row 0 / last column, degrees <= -1."""
    return _exp_orth(frame, mu, xs, lambda r, c: (c, r))


# ---------------------------------------------------------------------------
# Small orthogonal groups, exactly
# ---------------------------------------------------------------------------

def o2_elements(ring):
    """O of the split binary form over a finite local ring with 2 a unit:
    diag(a, a^-1) and antidiag(b, b^-1)."""
    for a in ring.elements():
        if not a.is_unit():
            continue
        inv = a.invert()
        yield [[a, ring.zero()], [ring.zero(), inv]]
        yield [[ring.zero(), a], [inv, ring.zero()]]


def levi_element(frame, mu, a, a_inv, H):
    """The degree-0 block-diagonal element diag(a, H, a_inv) of type mu,
    from its S0 payloads (H a 2x2 grid for the middle block)."""
    n = len(mu)
    grid = [[frame.s0.zero()] * n for _ in range(n)]
    grid[0][0] = a
    grid[n - 1][n - 1] = a_inv
    for i in range(2):
        for j in range(2):
            grid[1 + i][1 + j] = H[i][j]
    return GradedMatrix.from_payloads(frame, mu, grid)


def orth_group_factors(frame, mu):
    """All of the orthogonal display group for mu = (1, 0, 0, -1), as
    ((a, H, xm, xp), g) with g = l u- u+: the Levi factor diag(a, H, a^-1)
    (H in O_2), then exp_minus_orth(xm) and exp_plus_orth(xp) (built once).

    The factorization is unique; that is checked by deduplication on the
    payload coordinates of g, read as one integer in base p, so by value
    and not by hash, at the memory of one integer per element.
    """
    if tuple(mu) != (1, 0, 0, -1):
        raise ValueError("enumeration implemented for the K3 type only")
    s0 = frame.s0
    p_all = list(frame.p_elements())
    s_all = list(s0.elements())
    ups = [(xp, exp_plus_orth(frame, mu, list(xp)))
           for xp in itertools.product(p_all, repeat=2)]
    seen = set()
    for a in (u for u in s_all if u.is_unit()):
        for H in o2_elements(s0):
            l = levi_element(frame, mu, a, a.invert(), H)
            for xm in itertools.product(s_all, repeat=2):
                lum = l * exp_minus_orth(frame, mu, list(xm))
                for xp, up in ups:
                    g = lum * up
                    key = 0
                    for c in itertools.chain.from_iterable(
                            e.payload.coeffs for row in g.entries for e in row):
                        key = key * frame.p + c
                    if key in seen:
                        raise VerificationError(f"factorization is not unique: g = {g!r}")
                    seen.add(key)
                    yield (a, H, xm, xp), g


def orth_group_elements(frame, mu):
    """The elements g of `orth_group_factors`, in its order."""
    for _, g in orth_group_factors(frame, mu):
        yield g


# ---------------------------------------------------------------------------
# Gram normalization
# ---------------------------------------------------------------------------

class GramNotSplit(ValueError):
    pass


def normalize_gram(B):
    """A basis change A with A^t B A = J, for B a perturbation of J.

    Hyperbolic pairs are extracted from the outside in (isotropic vectors by
    nilpotent fixed-point iteration, using that 2 is a unit), the middle
    weight-0 block is centered by a Newton step; each iteration gives up
    after 64 steps, and everything is verified exactly at the end.

    Every form value read is an entry of `form_transform` on the columns
    worked on, and every update of columns is one graded product of those
    columns with a small graded matrix: both are bilinear, so each value is
    exactly the one a per-pair evaluation B(x, y) gives.
    """
    frame = B.frame
    mu = B.mu_col
    n = len(mu)
    if not is_self_dual_type(mu):
        raise GramNotSplit("weight type is not self-dual")
    half_g = GradedElem(frame, 0, half(frame.s0))
    one = GradedElem(frame, 0, frame.s0.one())
    A = GradedMatrix.identity(frame, mu)

    def columns(js):
        return GradedMatrix(frame, mu, [mu[j] for j in js],
                            [[row[j] for j in js] for row in A.entries])

    def gram(js):
        return form_transform(B, columns(js)).entries

    def recombine(src, dst, T):
        """Columns dst of A become (columns src of A) T."""
        for row, new in zip(A.entries, (columns(src) * T).entries):
            for j, e in zip(dst, new):
                row[j] = e

    t = 0
    while t < n - 1 - t and mu[t] > 0:
        pair = [t, n - 1 - t]
        weights = [mu[j] for j in pair]
        G = gram(pair)
        for _ in range(64):
            (cv, bvw), (_, cw) = G
            if not bvw.payload.is_unit():
                raise GramNotSplit("hyperbolic pairing is not a unit")
            # w <- w / b - (c_w / 2) v with c_w = B(w / b, w / b) = B(w, w) / b^2,
            # then v <- v - (c_v / 2) w with c_v = B(v, v): one product [v w] T
            b_inv = GradedElem(frame, 0, bvw.payload.invert())
            hw = half_g * cw * b_inv * b_inv
            hv = half_g * cv
            recombine(pair, pair, GradedMatrix(frame, weights, weights, [
                [one + hv * hw, -hw], [-(hv * b_inv), b_inv]]))
            G = gram(pair)
            if G[0][0].is_zero() and G[1][1].is_zero() and G[0][1] == one:
                break
        else:
            raise GramNotSplit("isotropic iteration did not converge")
        inner = list(range(t + 1, n - 1 - t))
        if inner:
            # u <- u - B(u, w) v - B(u, v) w for each inner column u: with
            # B(v, v) = 0, subtracting B(u, w) v first leaves B(u, v) as it is
            rows = gram(pair + inner)[2:]
            w_in = [mu[j] for j in inner]
            recombine(pair + inner, inner, GradedMatrix(
                frame, weights + w_in, w_in,
                [[-g[1] for g in rows], [-g[0] for g in rows]]
                + GradedMatrix.identity(frame, w_in).entries))
        t += 1
    mids = [j for j in range(n) if mu[j] == 0]
    if mids:
        s0 = frame.s0
        J0 = standard_J(s0, len(mids))
        for _ in range(64):
            C = linalg.mat_sub([[e.payload for e in row] for row in gram(mids)], J0)
            if all(e.is_zero() for row in C for e in row):
                break
            # T = I - J0 C / 2, a Newton step: quadratic convergence
            recombine(mids, mids, GradedMatrix.from_payloads(
                frame, [0] * len(mids), orth_correction(s0, C)))
        else:
            raise GramNotSplit("middle-block centering did not converge")
    if form_transform(B, A) != standard_gram(frame, mu):
        raise GramNotSplit("normalization failed exact verification")
    return A


# ---------------------------------------------------------------------------
# Orbit classification for orthogonal displays over a zip frame
# ---------------------------------------------------------------------------

def all_orth_displays(frame, mu, cap=10 ** 7):
    """Every orthogonal display of the given type over a small zip frame."""
    for d in all_displays(frame, len(mu), mu, cap):
        d = OrthDisplay(frame, mu, d.phi, check=False)
        if verify_orth(d):
            yield d


def classify_orth_orbits(frame, mu, cap=10 ** 7):
    """Orbits of the orthogonal display group; returns a list of orbits (sets)."""
    return orbit_search(all_orth_displays(frame, mu, cap),
                        lambda: orth_group_elements(frame, mu), OrthDisplay.act)
