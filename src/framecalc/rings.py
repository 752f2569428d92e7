"""Finite fields F_q and finite local F_p-algebras presented as monomial quotients.

Every base ring in this package has the shape

    R = F_q[x_1, ..., x_r] / I

where F_q = F_p[t]/(modulus) and I is a cofinite monomial ideal.  This is
restrictive but covers everything we compute with (F_p, F_q, dual numbers,
small truncated polynomial rings), and it keeps canonical forms and
exhaustive enumeration trivial: elements are coefficient maps supported on
the finite monomial basis.
"""

from __future__ import annotations

import itertools


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
    """The finite field F_q with q = p^f, as F_p[t]/(modulus)."""

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

    def el(self, coeffs):
        """Build an element from an int or a coefficient list (low degree first)."""
        if isinstance(coeffs, FieldElem):
            if coeffs.field != self:
                raise ValueError("field mismatch")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.f:
            coeffs = _poly_mod(coeffs, list(self.modulus), self.p)
        coeffs = coeffs + [0] * (self.f - len(coeffs))
        return FieldElem(self, tuple(coeffs[:self.f]))

    def zero(self):
        return self.el(0)

    def one(self):
        return self.el(1)

    def gen(self):
        return self.el([0, 1]) if self.f > 1 else self.el(1)

    def elements(self):
        """All q elements in deterministic (lexicographic coefficient) order."""
        for coeffs in itertools.product(range(self.p), repeat=self.f):
            yield FieldElem(self, coeffs)


class FieldElem:
    """Element of F_q stored as a coefficient tuple in the power basis of t."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and self.coeffs == other.coeffs
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.field.f == 1:
            return str(self.coeffs[0])
        return "(" + "+".join(f"{c}t^{i}" if i else str(c)
                              for i, c in enumerate(self.coeffs) if c) + ")" if any(self.coeffs) else "0"

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if not self.field == other.field:  # cheaper than != on this hot path
            raise AssertionError("field mismatch")
        p = self.field.p
        return FieldElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not self.field == other.field:  # cheaper than != on this hot path
            raise AssertionError("field mismatch")
        p = self.field.p
        return FieldElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if not self.field == other.field:  # cheaper than != on this hot path
            raise AssertionError("field mismatch")
        p, f = self.field.p, self.field.f
        if f == 1:
            return FieldElem(self.field, (self.coeffs[0] * other.coeffs[0] % p,))
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        rem = _poly_mod(prod, list(self.field.modulus), p)
        rem = rem + [0] * (f - len(rem))
        return FieldElem(self.field, tuple(rem[:f]))

    def __pow__(self, n):
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self):
        """The p-th power; the identity on the prime field."""
        return self if self.field.f == 1 else self ** self.field.p

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        return self ** (self.field.q - 2)

    # the unit protocol of ring elements, for unit-pivot elimination

    def is_unit(self):
        return not self.is_zero()

    def invert(self):
        return self.inverse()


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


class EnumerationTooLarge(ValueError):
    pass


class ArtinRing:
    """R = F_q[vars]/(monomial ideal), finite and local.

    The ideal is given by a list of monomials (exponent tuples).  Cofiniteness
    requires a pure power of every variable among the generators; the monomial
    basis of R is computed once at construction and fixed in lexicographic
    order, which also fixes the global enumeration order of elements.
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
        self.caps = tuple(caps)
        basis = []
        for expo in itertools.product(*[range(c) for c in caps]) if caps else [()]:
            if not any(_divides(g, expo) for g in self.ideal_gens):
                basis.append(expo)
        self.basis = tuple(sorted(basis))
        self.size = self.field.q ** len(self.basis)
        self.p = field.p
        # products and p-th powers of basis monomials, None where the result
        # lies in the ideal; RingElem multiplication and Frobenius read these
        self._mono_mul = {}
        for m1 in self.basis:
            for m2 in self.basis:
                m = tuple(a + b for a, b in zip(m1, m2))
                self._mono_mul[m1, m2] = None if self.in_ideal(m) else m
        self._mono_frob = {}
        for m in self.basis:
            mp = tuple(self.p * a for a in m)
            self._mono_frob[m] = None if self.in_ideal(mp) else mp

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

    # -- element construction ------------------------------------------------

    def el(self, coeffs):
        """Build an element from an int, a field element, or a {monomial: coeff} map."""
        if isinstance(coeffs, RingElem):
            if coeffs.ring != self:
                raise RingMismatch("ring mismatch")
            return coeffs
        if isinstance(coeffs, (int, FieldElem)):
            c = self.field.el(coeffs) if isinstance(coeffs, int) else coeffs
            return self._make({self._one_mono(): c})
        out = {}
        for mono, c in coeffs.items():
            mono = tuple(mono)
            c = self.field.el(c) if not isinstance(c, FieldElem) else c
            if mono in out:
                c = out[mono] + c
            out[mono] = c
        return self._make(out)

    def _one_mono(self):
        return (0,) * len(self.vars)

    def _make(self, coeffs):
        clean = {m: c for m, c in coeffs.items() if not c.is_zero()}
        for m in clean:
            if m not in self._basis_set():
                raise ValueError(f"monomial {m} not in the basis")
        return RingElem(self, clean)

    def _basis_set(self):
        try:
            return self._bset
        except AttributeError:
            self._bset = frozenset(self.basis)
            return self._bset

    # elements are never mutated, so the constants are built once

    def zero(self):
        try:
            return self._zero
        except AttributeError:
            self._zero = self.el(0)
            return self._zero

    def one(self):
        try:
            return self._one
        except AttributeError:
            self._one = self.el(1)
            return self._one

    def from_int(self, n):
        return self.el(n)

    def gen(self, i=0):
        if not self.vars:
            raise ValueError("ring has no polynomial variables; use field_gen()")
        expo = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return self.el({expo: 1})

    def field_gen(self):
        """The residue-field generator t, embedded as a constant."""
        return self.el(self.field.gen())

    def in_ideal(self, mono):
        return any(_divides(g, mono) for g in self.ideal_gens)

    # -- residue field interface ---------------------------------------------

    @property
    def residue_field(self):
        return self.field

    def to_residue(self, a):
        return a.coeffs.get(self._one_mono(), self.field.zero())

    def lift_residue(self, c):
        return self.el(c)

    # -- enumeration ----------------------------------------------------------

    def elements(self, cap=10 ** 7):
        """Every element exactly once, deterministic lexicographic order."""
        if self.size > cap:
            raise EnumerationTooLarge(f"|R| = {self.size} exceeds cap {cap}")
        fld = list(self.field.elements())
        for combo in itertools.product(fld, repeat=len(self.basis)):
            yield RingElem(self, {m: c for m, c in zip(self.basis, combo)
                                  if not c.is_zero()})

    def units(self, cap=10 ** 7):
        for a in self.elements(cap):
            if a.is_unit():
                yield a


class RingElem:
    """Element of an ArtinRing: a canonical coefficient map on basis monomials."""

    __slots__ = ("ring", "coeffs", "_key")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs
        self._key = None

    def key(self):
        if self._key is None:
            self._key = tuple(sorted((m, c.coeffs) for m, c in self.coeffs.items()))
        return self._key

    def __eq__(self, other):
        # coefficient maps are canonical (no zero entries), so comparing the
        # maps is comparing keys
        return (isinstance(other, RingElem)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.ring.vars, m) if e)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if self.ring != other.ring:
            raise RingMismatch("ring mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return RingElem(self.ring, out)

    def __neg__(self):
        return RingElem(self.ring, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise RingMismatch("ring mismatch")
        table = ring._mono_mul
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = table[m1, m2]
                if m is None:
                    continue
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return RingElem(ring, out)

    def __pow__(self, n):
        # base-p digits of n: x^n = prod_i (x^(p^i))^(d_i), and x -> x^p is
        # the cheap additive Frobenius
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
        """x -> x^p, additive in characteristic p: (sum c_m x^m)^p = sum c_m^p x^(pm)."""
        table = self.ring._mono_frob
        out = {}
        for m, c in self.coeffs.items():
            mp = table[m]
            if mp is not None:
                out[mp] = c.frobenius()
        return RingElem(self.ring, out)

    def is_unit(self):
        return not self.ring.to_residue(self).is_zero()

    def invert(self):
        """Residue inverse times the geometric series on the nilpotent part."""
        if not self.is_unit():
            raise NotAUnit(f"{self!r} is not a unit")
        ring = self.ring
        u0 = ring.lift_residue(ring.to_residue(self).inverse())
        err = ring.one() - self * u0
        total = ring.one()
        term = ring.one()
        for _ in range(len(ring.basis) + 1):
            if err.is_zero():
                break
            term = term * err
            if term.is_zero():
                break
            total = total + term
        inv = u0 * total
        if self * inv != ring.one():
            raise AssertionError("unit inverse failed exact verification")
        return inv


# ---------------------------------------------------------------------------
# Square-zero extensions B -> A = B/J
# ---------------------------------------------------------------------------

class SquareZeroExtension:
    """A surjection of monomial quotients B -> A with kernel J, J^2 = 0.

    A is presented as B modulo finitely many extra monomials, so the
    projection just drops the coefficients on J-monomials and the canonical
    section (used by the deterministic lifting of displays) reinterprets an
    A-element as the B-element with the same coefficient map.
    """

    def __init__(self, B, extra_ideal_gens=()):
        self.B = B
        extra = [tuple(g) for g in extra_ideal_gens]
        self.A = ArtinRing(B.field, B.vars, list(B.ideal_gens) + extra) if extra else B
        self.J_basis = tuple(m for m in B.basis if m not in self.A._basis_set())
        # J^2 = 0, checked exhaustively on basis monomial pairs
        for m1 in self.J_basis:
            for m2 in self.J_basis:
                m = tuple(a + b for a, b in zip(m1, m2))
                if not B.in_ideal(m):
                    raise ValueError("kernel does not square to zero")

    def proj(self, b):
        """The projection B -> A (drop kernel monomials)."""
        if b.ring != self.B:
            raise RingMismatch("expected an element of B")
        return RingElem(self.A, {m: c for m, c in b.coeffs.items()
                                 if m not in self.J_basis})

    def section(self, a):
        """The monomial-basis section A -> B (a ring-module splitting, not a ring map)."""
        if a.ring != self.A:
            raise RingMismatch("expected an element of A")
        return RingElem(self.B, dict(a.coeffs))

    def in_kernel(self, b):
        return all(m in self.J_basis for m in b.coeffs)

    def j_elements(self):
        """All elements of J in deterministic order."""
        fld = list(self.B.field.elements())
        for combo in itertools.product(fld, repeat=len(self.J_basis)):
            yield RingElem(self.B, {m: c for m, c in zip(self.J_basis, combo)
                                    if not c.is_zero()})

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


def dual_number_extension(p, var="e"):
    """The square-zero extension F_p[e]/(e^2) -> F_p."""
    return SquareZeroExtension(dual_numbers(p, var), ((1,),))
