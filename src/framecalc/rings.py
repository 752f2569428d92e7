"""Finite fields F_q and finite local F_p-algebras presented as monomial quotients.

Every ring in this package has the shape

    R = F_q[x_1, ..., x_r] / I

where F_q = F_p[t]/(modulus) and I is a cofinite monomial ideal; F_q itself
is the ring with no variables, and it is the residue field of every ring
over it that is not a field (a field presented with variables, such as
F_q[e]/(e), is its own).  This is restrictive but covers everything we
compute with (F_p, F_q, dual numbers, small truncated polynomial rings).

An element is stored flat, as the tuple of its F_p-coordinates in the
F_p-basis (monomial, t^e): monomial-major in the lexicographic monomial
basis, then e = 0..f-1.  Only this module knows that order.  Each ring
builds one structure-constant table for products and one F_p-linear table
for Frobenius; enumerating coordinate tuples lexicographically fixes the
element order.  `ArtinRing.dot` is the one product formula: a sum of
products accumulates in one int list through the table, and x*y is its
one-pair case.  `ArtinRing.lift_mul` is the product of the flat lift
W(F_q)[x_1, ..., x_r]/I mod p^k, the same basis with the constants
reduced mod p^k; the Witt arithmetic works there.
"""

from __future__ import annotations

import itertools

from . import linalg


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _poly_mod(poly, divisor, p):
    """Remainder of poly by a monic divisor, coefficients mod p (lists, low degree first)."""
    rem = [c % p for c in poly]
    d = len(divisor) - 1
    while len(rem) > d:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - d
            for i in range(d + 1):
                rem[shift + i] = (rem[shift + i] - lead * divisor[i]) % p
        rem.pop()
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_is_zero(poly):
    return all(c == 0 for c in poly)


def _monic_polys(p, degree):
    """All monic polynomials of the given degree over F_p (low degree first)."""
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def _is_irreducible(modulus, p):
    """Exhaustive trial division; fine for the tiny degrees we use."""
    f = len(modulus) - 1
    if f < 1:
        return False
    for d in range(1, f // 2 + 1):
        for cand in _monic_polys(p, d):
            if _poly_is_zero(_poly_mod(modulus, cand, p)):
                return False
    return True


def _default_modulus(p, f):
    if f == 1:
        return [0, 1]
    for cand in _monic_polys(p, f):
        if _is_irreducible(cand, p):
            return cand
    raise ValueError("no irreducible polynomial found")  # pragma: no cover


class Field:
    """The parameters p, f, q = p^f and modulus of F_q = F_p[t]/(modulus),
    validated; its elements live in the ArtinRing without variables."""

    def __init__(self, p, f=1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = _default_modulus(p, f)
        modulus = [c % p for c in modulus]
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if f > 1 and not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible over F_p")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = tuple(modulus)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus))

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def __repr__(self):
        if self.f == 1:
            return f"F_{self.p}"
        return f"F_{self.q}"


# ---------------------------------------------------------------------------
# Monomial-quotient Artin local rings
# ---------------------------------------------------------------------------

def _divides(a, b):
    """Monomial a divides monomial b (exponent tuples)."""
    return all(x <= y for x, y in zip(a, b))


class RingMismatch(ValueError):
    pass


class NotAUnit(ValueError):
    pass


class VerificationError(AssertionError):
    """An exactness check failed; the message names the witness.  The CLI
    reports it as a failed verification (exit 1)."""


class EnumerationTooLarge(ValueError):
    pass


class ArtinRing:
    """R = F_q[vars]/(monomial ideal), finite and local.

    The ideal is given by a list of monomials (exponent tuples).  Cofiniteness
    requires a pure power of every variable among the generators; the monomial
    basis of R is computed once at construction and fixed in lexicographic
    order, so basis[0] is the monomial 1.
    """

    def __init__(self, field, variables=(), ideal_gens=()):
        self.field = field
        self.vars = tuple(variables)
        gens = []
        for g in ideal_gens:
            g = tuple(g)
            if len(g) != len(self.vars):
                raise ValueError("ideal generator arity mismatch")
            if sum(g) == 0:
                raise ValueError("1 may not lie in the ideal")
            gens.append(g)
        self.ideal_gens = tuple(sorted(set(gens)))
        caps = []
        for i in range(len(self.vars)):
            pure = [g[i] for g in self.ideal_gens
                    if g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i)]
            if not pure:
                raise ValueError(
                    f"ideal is not cofinite: no pure power of {self.vars[i]}")
            caps.append(min(pure))
        basis = []
        for expo in itertools.product(*[range(c) for c in caps]) if caps else [()]:
            if not self.in_ideal(expo):
                basis.append(expo)
        self.basis = tuple(sorted(basis))
        self.size = field.q ** len(self.basis)
        self.p = field.p
        self.dim = field.f * len(self.basis)
        self._f = field.f
        self._index = {m: k for k, m in enumerate(self.basis)}
        # the structure constants (see `_table`) and the p-th power of
        # F_p-basis member i, as sparse [(position, coefficient)]
        self._mul = self._table(self.p)
        self._frob = [self._basis_coords(tuple(self.p * a for a in m),
                                         self.p * e, self.p)
                      for m in self.basis for e in range(field.f)]
        # the tables of the flat lift mod p^k, built on first use
        self._lifted = {}
        # elements are never mutated, so the constants are built once
        self._zero = RingElem(self, (0,) * self.dim)
        self._one = RingElem(self, (1,) + (0,) * (self.dim - 1))
        # a field, presented with variables or not, is its own residue field
        self.residue_field = self if len(self.basis) == 1 else ArtinRing(field)

    def _basis_coords(self, mono, e, n):
        """Sparse coordinates of t^e * mono mod n: zero in the ideal, else
        t^e reduced by the modulus over Z/n at the position of mono."""
        if self.in_ideal(mono):
            return []
        rem = _poly_mod([0] * e + [1], list(self.field.modulus), n)
        return [(self.coord_index(mono, i), c) for i, c in enumerate(rem) if c]

    def _table(self, n):
        """(i, j, k, c) for every nonzero coefficient c mod n of member k in
        the product of F_p-basis members i and j.  With n = p^k this is the
        table of the flat lift W(F_q)[vars]/I mod p^k, which has the same
        basis: read over Z, the modulus is a monic lift of itself, and
        Z/p^k[t]/(modulus) is W_k(F_q)."""
        fp_basis = [(m, e) for m in self.basis for e in range(self._f)]
        return [(i, j, k, c)
                for i, (m1, e1) in enumerate(fp_basis)
                for j, (m2, e2) in enumerate(fp_basis)
                for k, c in self._basis_coords(
                    tuple(a + b for a, b in zip(m1, m2)), e1 + e2, n)]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ArtinRing)
            and self.field == other.field
            and self.vars == other.vars
            and self.ideal_gens == other.ideal_gens)

    def __hash__(self):
        return hash((self.field, self.vars, self.ideal_gens))

    def __repr__(self):
        if not self.vars:
            return repr(self.field)
        return f"{self.field}[{','.join(self.vars)}]/(monomial ideal, dim {len(self.basis)})"

    # -- coordinates and element construction ----------------------------------

    def coord_index(self, mono, e=0):
        """Position of the coordinate of t^e * mono in an element's coeffs."""
        return self._index[mono] * self._f + e

    def from_coords(self, coords):
        """The element with the given F_p-coordinates (reduced mod p)."""
        coords = tuple(c % self.p for c in coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        return RingElem(self, coords)

    def el(self, coeffs):
        """Build an element from an int or a {monomial: coefficient} map; a
        coefficient is an int or a list over t^0, t^1, ... (low degree
        first, reduced by the modulus when longer than f)."""
        if isinstance(coeffs, RingElem):
            if coeffs.ring != self:
                raise RingMismatch("ring mismatch")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = {self.basis[0]: coeffs}
        p, f = self.p, self._f
        out = [0] * self.dim
        for mono, c in coeffs.items():
            c = [c % p] if isinstance(c, int) else [v % p for v in c]
            if len(c) > f:
                c = _poly_mod(c, list(self.field.modulus), p)
            if not any(c):
                continue
            mono = tuple(mono)
            if mono not in self._index:
                raise ValueError(f"monomial {mono} not in the basis")
            for e, v in enumerate(c):
                out[self.coord_index(mono, e)] += v
        return RingElem(self, tuple(v % p for v in out))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return RingElem(self, (n % self.p,) + self._zero.coeffs[1:])

    def in_ideal(self, mono):
        return any(_divides(g, mono) for g in self.ideal_gens)

    def is_p_multiple(self, a):
        """Whether a lies in p*R: R has characteristic p, so only 0 does."""
        return a.is_zero()

    # -- residue field interface ---------------------------------------------

    def to_residue(self, a):
        return RingElem(self.residue_field, a.coeffs[:self._f])

    def lift_residue(self, c):
        res = self.residue_field
        if c.ring is not res and c.ring != res:
            raise RingMismatch("expected an element of the residue field")
        return RingElem(self, c.coeffs + self._zero.coeffs[self._f:])

    # -- products ---------------------------------------------------------------

    def dot(self, xs, ys):
        """sum x*y over the pairs of xs and ys, accumulated in one int list
        through the structure-constant table and reduced mod p once."""
        p = self.p
        # F_p, whose table is the one constant 1 * 1 = 1: skipping the table
        # walk takes about 14% off display-census job_s (see CHANGES.md)
        if self.dim == 1:
            acc = 0
            for x, y in zip(xs, ys):
                if (x.ring is not self or y.ring is not self) and not x.ring == y.ring == self:
                    raise RingMismatch(f"ring mismatch: {x.ring!r} and {y.ring!r} in {self!r}")
                acc += x.coeffs[0] * y.coeffs[0]
            return RingElem(self, (acc % p,))
        terms = self._mul
        out = [0] * self.dim
        for x, y in zip(xs, ys):
            if (x.ring is not self or y.ring is not self) and not x.ring == y.ring == self:
                raise RingMismatch(f"ring mismatch: {x.ring!r} and {y.ring!r} in {self!r}")
            a, b = x.coeffs, y.coeffs
            for i, j, k, c in terms:
                out[k] += a[i] * b[j] * c
        return RingElem(self, tuple([v % p for v in out]))

    def lift_mul(self, a, b, k):
        """The product in the flat lift W(F_q)[vars]/I mod p^k of two
        coordinate sequences (ints in the F_p-basis order), as a list of
        ints in [0, p^k).  The lifted table is built on the first call."""
        n = self.p ** k
        if self.dim == 1:
            return [a[0] * b[0] % n]
        table = self._lifted.get(k)
        if table is None:
            table = self._lifted[k] = self._table(n)
        out = [0] * self.dim
        for i, j, pos, c in table:
            out[pos] += a[i] * b[j] * c
        return [v % n for v in out]

    # -- enumeration ----------------------------------------------------------

    def elements(self, cap=10 ** 7):
        """Every element exactly once, deterministic lexicographic order."""
        if self.size > cap:
            raise EnumerationTooLarge(f"|R| = {self.size} exceeds cap {cap}")
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield RingElem(self, coeffs)


def _coeff_repr(cs):
    if len(cs) == 1:
        return str(cs[0])
    return "(" + "+".join(f"{c}t^{i}" if i else str(c)
                          for i, c in enumerate(cs) if c) + ")"


class RingElem:
    """Element of an ArtinRing: the tuple of its F_p-coordinates."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.coeffs == other.coeffs
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for m, cs in self.terms():
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.ring.vars, m) if e)
            parts.append(_coeff_repr(cs) + (f"*{mono}" if mono else ""))
        return " + ".join(parts) if parts else "0"

    def terms(self):
        """(monomial, coefficients over t^0..t^(f-1)) for every monomial
        with a nonzero coefficient, in basis order."""
        f = self.ring._f
        for k, m in enumerate(self.ring.basis):
            cs = self.coeffs[k * f:(k + 1) * f]
            if any(cs):
                yield m, cs

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise RingMismatch(f"ring mismatch: {ring!r} and {other.ring!r}")
        p = ring.p
        return RingElem(ring, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self):
        p = self.ring.p
        return RingElem(self.ring, tuple([-a % p for a in self.coeffs]))

    def __sub__(self, other):
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise RingMismatch(f"ring mismatch: {ring!r} and {other.ring!r}")
        p = ring.p
        return RingElem(ring, tuple([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    def __mul__(self, other):
        return self.ring.dot((self,), (other,))

    def __pow__(self, n):
        # base-p digits of n: x^n = prod_i (x^(p^i))^(d_i), and x -> x^p is
        # the cheap F_p-linear Frobenius
        p = self.ring.p
        result = None
        base = self
        while n:
            n, d = divmod(n, p)
            for _ in range(d):
                result = base if result is None else result * base
            if n:
                base = base.frobenius()
        return self.ring.one() if result is None else result

    def frobenius(self):
        """x -> x^p, F_p-linear in characteristic p: the sum of the
        coordinates times the p-th powers of the basis members."""
        ring = self.ring
        if ring.dim == 1:
            return self
        out = [0] * ring.dim
        for x, col in zip(self.coeffs, ring._frob):
            if x:
                for k, c in col:
                    out[k] += x * c
        return RingElem(ring, tuple([v % ring.p for v in out]))

    def is_unit(self):
        return any(self.coeffs[:self.ring._f])

    def invert(self):
        """The inverse of a unit, through `linalg.mat_inverse` of the 1x1
        matrix [[self]], which returns only an exactly checked inverse."""
        if not self.is_unit():
            raise NotAUnit(f"{self!r} is not a unit")
        return linalg.mat_inverse(self.ring, [[self]])[0][0]


# ---------------------------------------------------------------------------
# Square-zero extensions B -> A = B/J
# ---------------------------------------------------------------------------

class SquareZeroExtension:
    """A surjection of monomial quotients B -> A with kernel J, J^2 = 0.

    A is presented as B modulo finitely many extra monomials, so the
    projection just drops the coordinates on J-monomials and the canonical
    section (used by the deterministic lifting of displays) reinterprets an
    A-element as the B-element with the same monomial coefficients.
    """

    def __init__(self, B, extra_ideal_gens=()):
        self.B = B
        extra = [tuple(g) for g in extra_ideal_gens]
        self.A = ArtinRing(B.field, B.vars, list(B.ideal_gens) + extra) if extra else B
        self.J_basis = tuple(m for m in B.basis if m not in self.A._index)
        # J^2 = 0, checked exhaustively on basis monomial pairs
        for m1 in self.J_basis:
            for m2 in self.J_basis:
                m = tuple(a + b for a, b in zip(m1, m2))
                if not B.in_ideal(m):
                    raise ValueError("kernel does not square to zero")
        # B-coordinates of the A-monomials and of the J-monomials
        f = B.field.f
        self._a_pos = [B.coord_index(m, e) for m in self.A.basis for e in range(f)]
        self._j_pos = [B.coord_index(m, e) for m in self.J_basis for e in range(f)]

    def proj(self, b):
        """The projection B -> A (drop kernel monomials)."""
        if b.ring is not self.B and b.ring != self.B:
            raise RingMismatch("expected an element of B")
        return RingElem(self.A, tuple([b.coeffs[k] for k in self._a_pos]))

    def _place(self, positions, values):
        out = [0] * self.B.dim
        for k, v in zip(positions, values):
            out[k] = v
        return RingElem(self.B, tuple(out))

    def section(self, a):
        """The monomial-basis section A -> B (a ring-module splitting, not a ring map)."""
        if a.ring != self.A:
            raise RingMismatch("expected an element of A")
        return self._place(self._a_pos, a.coeffs)

    def in_kernel(self, b):
        return not any(b.coeffs[k] for k in self._a_pos)

    def j_elements(self):
        """All elements of J in deterministic order."""
        for combo in itertools.product(range(self.B.p), repeat=len(self._j_pos)):
            yield self._place(self._j_pos, combo)

    @property
    def j_size(self):
        return self.B.field.q ** len(self.J_basis)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def prime_field(p):
    return ArtinRing(Field(p))


def extension_field(p, f, modulus=None):
    return ArtinRing(Field(p, f, modulus))


def dual_numbers(p, var="e"):
    """F_p[e]/(e^2)."""
    return ArtinRing(Field(p), (var,), ((2,),))


def truncated_poly_ring(p, var, power):
    return ArtinRing(Field(p), (var,), ((power,),))


def dual_number_extension(p):
    """The square-zero extension F_p[e]/(e^2) -> F_p."""
    return SquareZeroExtension(dual_numbers(p), ((1,),))
