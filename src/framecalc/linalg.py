"""Exact linear algebra over finite local rings and their residue fields.

Matrices are plain lists of lists of ring elements; "ring" means any object
with the small protocol used throughout the package (zero/one/from_int,
dot, to_residue/lift_residue, residue_field), which both ArtinRing and
WittRing provide.  `mat_mul` computes each entry as one `ring.dot` of a row
and a column: over an ArtinRing that is one accumulation on
F_p-coordinates, over a WittRing a fold through its memo.  There is one
elimination routine, `rref_modp`, on ints mod p, and
one reduced-basis object built on it, `Span`, whose `reduce` gives coset
labels and membership.  A system over an ArtinRing (a field is the one
without variables) is solved as F_p-linear algebra in the F_p-coordinates
of the unknowns, through one encoder (`fp_columns`), and every solution is
checked exactly; `ring_span` is the R-span of columns as a `Span` on those
coordinates.  Inversion over a local ring is residue inversion followed by
Newton correction on the nilpotent error, which converges in finitely many
steps and is verified exactly.  It is the package's one inversion: a unit of
an ArtinRing or a WittRing is inverted as the 1x1 matrix [[x]].
"""

from __future__ import annotations

# rings imports this module, so its names are read at use
from . import rings


class SingularMatrix(ValueError):
    pass


# ---------------------------------------------------------------------------
# Generic matrix helpers
# ---------------------------------------------------------------------------

def identity(ring, n):
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]


def zeros(ring, rows, cols):
    return [[ring.zero() for _ in range(cols)] for _ in range(rows)]


def mat_mul(ring, A, B):
    """A B, each entry one `ring.dot` of a row of A and a column of B."""
    cols = list(zip(*B))
    return [[ring.dot(row, col) for col in cols] for row in A]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_apply(f, A):
    return [[f(a) for a in row] for row in A]


# ---------------------------------------------------------------------------
# The elimination routine and the solves built on it
# ---------------------------------------------------------------------------
#
# `rref_modp` runs Gauss-Jordan elimination in place over the first ncols
# columns with one pivot rule: columns left to right, pivoting on the first
# row at or below the current rank whose entry is nonzero; a column without
# one is skipped.  It returns the pivot columns, so rows[:len(pivots)] are
# the pivot rows.  Every solution, inverse, echelon basis and coset label
# depends on that rule, so no other code searches for pivots.

def rref_modp(p, rows, ncols):
    """Reduced row echelon form over F_p of an int matrix, in place.

    Entries are first reduced into range(p); the nonzero ones are the units.
    """
    rows[:] = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        for piv in range(rank, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank] = [(inv * v) % p for v in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [(v - f * w) % p for v, w in zip(row, prow)]
        pivots.append(col)
    return pivots


def solve_modp(p, cols, rhs):
    """Coefficients x with sum x_j cols[j] = rhs mod p, or None."""
    ncols = len(cols)
    aug = [[col[i] for col in cols] + [b] for i, b in enumerate(rhs)]
    pivots = rref_modp(p, aug, ncols)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return x


def kernel_modp(p, cols):
    """A basis of the x with sum x_j cols[j] = 0 mod p: one vector per
    non-pivot column, read off the reduced rows."""
    n = len(cols)
    rows = [list(r) for r in zip(*cols)]
    pivots = rref_modp(p, rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[free] = 1
        for r, pv in enumerate(pivots):
            x[pv] = (-rows[r][free]) % p
        basis.append(x)
    return basis


def combine_modp(p, vecs, coeffs, width):
    """sum coeffs[j] vecs[j] mod p, a vector of the given width."""
    out = [0] * width
    for c, v in zip(coeffs, vecs):
        if c % p:
            out = [(o + c * x) % p for o, x in zip(out, v)]
    return out


class Span:
    """The F_p-span of int vectors of one width, held as the reduced rows
    and pivots of one `rref_modp` call.

    reduce(vec) clears vec at every pivot: a linear projection that is the
    same for all of a coset of the span, so it is the coset label, and it is
    zero exactly on the span (`vec in span`).
    """

    def __init__(self, p, vecs, width):
        self.p = p
        rows = [list(v) for v in vecs]
        self.pivots = rref_modp(p, rows, width)
        self.rows = rows[:len(self.pivots)]

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        p = self.p
        v = [x % p for x in vec]
        for piv, b in zip(self.pivots, self.rows):
            f = v[piv]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        return tuple(v)

    def __contains__(self, vec):
        return not any(self.reduce(vec))


def fp_coords(vec):
    """The F_p-coordinates of a vector over an ArtinRing, entry by entry."""
    return [c for x in vec for c in x.coeffs]


def fp_columns(ring, M):
    """The F_p-matrix of x -> M x over an ArtinRing, as columns.

    Unknown j times the F_p-basis member b is one column: the
    F_p-coordinates of column j of M times b, row by row.
    """
    k = ring.dim
    basis = [ring.from_coords([int(i == c) for i in range(k)]) for c in range(k)]
    return [fp_coords(row[j] * b for row in M)
            for j in range(len(M[0]) if M else 0) for b in basis]


def solve_local(ring, M, rhs, cols=None):
    """One exact solution of M x = rhs over a finite local ArtinRing, or None.

    F_p-linear in the F_p-coordinates of x, so it is complete over rings
    with nilpotents too; the solution is then checked exactly.  `cols`, when
    given, is `fp_columns(ring, M)`, encoded once for many right-hand sides.
    """
    k = ring.dim
    if cols is None:
        cols = fp_columns(ring, M)
    sol = solve_modp(ring.p, cols, fp_coords(rhs))
    if sol is None:
        return None
    x = [ring.from_coords(sol[j:j + k]) for j in range(0, len(sol), k)]
    for row, b in zip(M, rhs):
        if ring.dot(row, x) != b:
            raise rings.VerificationError(
                f"F_p-linear solution failed exact verification: x = {x!r}")
    return x


def ring_span(ring, cols, n):
    """The span of length-n columns over a finite local ArtinRing, as the
    `Span` of their F_p-multiples: v lies in it iff fp_coords(v) does."""
    M = [[c[r] for c in cols] for r in range(n)]
    return Span(ring.p, fp_columns(ring, M), n * ring.dim)


def field_inverse(field, M):
    """Inverse of a square matrix over a finite field (an ArtinRing without
    variables), or None if it is singular or not square."""
    n, k = len(M), field.dim
    cols = fp_columns(field, M)
    # the right-hand sides are the F_p-coordinates of the columns of I
    aug = [list(row) + [int(i == j * k) for j in range(n)]
           for i, row in enumerate(zip(*cols))]
    if len(cols) != n * k or len(rref_modp(field.p, aug, n * k)) < n * k:
        return None
    # full rank: the pivot rows are the coordinates of the inverse in order
    return [[field.from_coords([aug[r * k + c][n * k + j] for c in range(k)])
             for j in range(n)] for r in range(n)]


# ---------------------------------------------------------------------------
# Local-ring matrix inversion
# ---------------------------------------------------------------------------

def residue_matrix(ring, A):
    return [[ring.to_residue(a) for a in row] for row in A]


def is_invertible(ring, A):
    return field_inverse(ring.residue_field, residue_matrix(ring, A)) is not None


def mat_inverse(ring, A):
    """Exact inverse over a finite local ring (residue inverse + Newton)."""
    n = len(A)
    res_inv = field_inverse(ring.residue_field, residue_matrix(ring, A))
    if res_inv is None:
        raise SingularMatrix("matrix is singular over the residue field")
    X = mat_apply(ring.lift_residue, res_inv)
    I = identity(ring, n)
    for _ in range(64):
        AX = mat_mul(ring, A, X)
        if mat_eq(AX, I):
            return X
        # X <- X (2I - A X)
        X = mat_mul(ring, X, mat_sub(mat_add(I, I), AX))
    raise rings.VerificationError(  # pragma: no cover
        f"Newton iteration failed to converge: A = {A!r}")
