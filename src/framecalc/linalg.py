"""Exact linear algebra over finite local rings and their residue fields.

Matrices are plain lists of lists of ring elements; "ring" means any object
with the small protocol used throughout the package (zero/one/from_int,
to_residue/lift_residue, residue_field), which both ArtinRing and WittRing
provide.  The residue field is itself an ArtinRing, the one without
variables, so its elements are RingElems like any other and the field path
(`field_inverse`, `rref_units`) runs on them.  Inversion over a local ring
is residue inversion followed by Newton correction on the nilpotent error,
which converges in finitely many steps and is verified exactly.  Solving
over F_p works on ints mod p (`rref_modp`), such as the flat F_p-coordinates
of ring elements.
"""

from __future__ import annotations


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
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ring.zero()
            for k in range(inner):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


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
# The two elimination routines
# ---------------------------------------------------------------------------
#
# Both run Gauss-Jordan elimination in place over the first ncols columns
# with one pivot rule: columns left to right, pivoting on the first row at
# or below the current rank whose entry is a unit; a column without one is
# skipped.  Both return the pivot columns, so rows[:len(pivots)] are the
# pivot rows.  Every solution, echelon basis and coset label downstream
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


def rref_units(rows, ncols):
    """Reduced row echelon form with unit pivots over a field or a finite
    local ring, in place, on rows of elements with is_unit/invert/is_zero.

    Over a local ring a skipped column may still hold nonzero non-units, so
    a solution read off the result must be verified by the caller.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        for piv in range(rank, len(rows)):
            if rows[piv][col].is_unit():
                break
        else:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].invert()
        prow = rows[rank] = [inv * v for v in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and not f.is_zero():
                rows[r] = [v - f * w for v, w in zip(row, prow)]
        pivots.append(col)
    return pivots


def field_inverse(field, M):
    """Inverse of a matrix over a finite field (an ArtinRing without
    variables), or None if singular."""
    n = len(M)
    aug = [list(row) + [field.one() if i == j else field.zero()
                        for j in range(n)] for i, row in enumerate(M)]
    if len(rref_units(aug, n)) < n:
        return None
    return [row[n:] for row in aug]


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
    raise AssertionError("Newton iteration failed to converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# Summand utilities over local rings (for Hodge filtrations)
# ---------------------------------------------------------------------------

def span_contains(ring, cols, vec):
    """Whether vec lies in the span of cols (free-summand columns) over a local ring."""
    if not cols:
        return all(v.is_zero() for v in vec)
    k = len(cols)
    rows = [[c[r] for c in cols] + [v] for r, v in enumerate(vec)]
    if len(rref_units(rows, k)) < k:
        raise SingularMatrix("columns do not span a free summand")
    # every column has a unit pivot, so the rows below them are zero but
    # for the reduced vec
    return all(row[k].is_zero() for row in rows[k:])
