"""Truncated Witt vectors W_m(R) over monomial-quotient rings.

W_m stores components with indices 0..m-1.  Verschiebung raises the length,
Frobenius lowers it; the fixed-length Frobenius lift used by frames is the
component-wise p-power map (the universal correction terms vanish in
characteristic p, which the tests check against the ghost-derived
polynomials).

Sums and products run on ghost components.  R = F_q[x]/I has the flat lift
R~ = W(F_q)[x]/I with the same basis (`ArtinRing.lift_mul`); R~ has no
p-torsion, so its ghost map is injective, and W(R~) -> W(R) is onto.  So a
result's components 1..m-1 come from the ghost components of the operands'
coordinate lifts, added or multiplied in R~ mod p^m, by inverting the ghost
map with exact division; component 0 is R's own operation.  The result does
not depend on the lifts: a = b mod p gives a^(p^k) = b^(p^k) mod p^(k+1).
Only the Frobenius W_m -> W_{m-1} evaluates the universal polynomials of
`wittpoly`, which are otherwise the tests' second route.
"""

from __future__ import annotations

import itertools

from . import wittpoly
from .rings import EnumerationTooLarge, NotAUnit, RingElem, RingMismatch

# The operation memo of a small W_m(R) stops growing at this many entries,
# about 55 MiB at some 435 bytes an entry over W_2(F_3[e]/e^2); the largest
# benchmark workload fills 17,089 (add, mul and neg together).
MEMO_CAP = 1 << 17


class WittRing:
    """Arithmetic context for W_m(R): the ghost route on the flat lift, the
    Frobenius term lists and, for a small ring, the operation memo.

    Instances are interned on (ring, m) so the term lists and the
    small-ring operation tables are shared by every construction site.
    """

    _instances = {}

    def __new__(cls, ring, m):
        inst = cls._instances.get((ring, m))
        if inst is None:
            inst = super().__new__(cls)
            cls._instances[(ring, m)] = inst
        return inst

    def __init__(self, ring, m):
        if getattr(self, "_ready", False):
            return
        if m < 1:
            raise ValueError("length must be >= 1")
        self.ring = ring
        self.m = m
        self.p = ring.p
        self.size = ring.size ** m
        self._frob = [wittpoly.eval_terms(self.p, "frob", n) for n in range(max(m - 1, 0))]
        # memoize add, mul and neg when the ring is small enough that the
        # operation tables fit comfortably (enumeration-heavy workloads), up
        # to MEMO_CAP entries
        self._memo = {} if self.size <= 4096 else None
        # the lifted p-power rows of `_row`, one per element of R, up to
        # MEMO_CAP of them
        self._rows = {}
        self.residue_field = ring.residue_field
        # Witt vectors are never mutated, so the constants are built once
        self._zero = self.el([0] * m)
        self._one = self.el([1] + [0] * (m - 1))
        self._ready = True

    def __eq__(self, other):
        return self is other or (isinstance(other, WittRing)
                                 and self.ring == other.ring and self.m == other.m)

    def __hash__(self):
        return hash((self.ring, self.m))

    def __repr__(self):
        return f"W_{self.m}({self.ring!r})"

    # -- construction ---------------------------------------------------------

    def el(self, comps):
        comps = tuple(self.ring.el(c) for c in comps)
        if len(comps) != self.m:
            raise ValueError(f"expected {self.m} components")
        return WittVector(self, comps)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        # the additive order of 1 divides p^m since R is an F_p-algebra
        result = self.zero()
        one = self.one()
        for _ in range(n % (self.p ** self.m)):
            result = result + one
        return result

    def teichmuller(self, a):
        return self.el([a] + [0] * (self.m - 1))

    def elements(self, cap=10 ** 7):
        if self.size > cap:
            raise EnumerationTooLarge(f"|W_m(R)| = {self.size} exceeds cap {cap}")
        base = list(self.ring.elements(cap))
        for combo in itertools.product(base, repeat=self.m):
            yield WittVector(self, combo)

    # -- residue interface (W_m(R) is local with the same residue field) -------

    def to_residue(self, x):
        return self.ring.to_residue(x.comps[0])

    def lift_residue(self, c):
        return self.el([self.ring.lift_residue(c)] + [0] * (self.m - 1))

    # -- core arithmetic -------------------------------------------------------

    def add(self, x, y):
        if self._memo is not None:
            key = ("+",) + tuple([c.coeffs for c in x.comps + y.comps])
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        ghosts = [[a + b for a, b in zip(u, v)]
                  for u, v in zip(self._ghosts(x), self._ghosts(y))]
        out = self._from_ghosts(x.comps[0] + y.comps[0], ghosts)
        if self._memo is not None and len(self._memo) < MEMO_CAP:
            self._memo[key] = out
        return out

    def mul(self, x, y):
        if self._memo is not None:
            key = ("*",) + tuple([c.coeffs for c in x.comps + y.comps])
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        lift_mul, m = self.ring.lift_mul, self.m
        ghosts = [lift_mul(u, v, m)
                  for u, v in zip(self._ghosts(x), self._ghosts(y))]
        out = self._from_ghosts(x.comps[0] * y.comps[0], ghosts)
        if self._memo is not None and len(self._memo) < MEMO_CAP:
            self._memo[key] = out
        return out

    def dot(self, xs, ys):
        """sum x*y over the pairs of xs and ys, folded through `mul` and
        `add`, so through the operation memo."""
        acc = None
        for x, y in zip(xs, ys):
            if (x.wring is not self or y.wring is not self) and not x.wring == y.wring == self:
                raise RingMismatch("Witt ring mismatch")
            xy = self.mul(x, y)
            acc = xy if acc is None else self.add(acc, xy)
        return self._zero if acc is None else acc

    def neg(self, x):
        if self._memo is not None:
            key = ("-",) + tuple([c.coeffs for c in x.comps])
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        if self.p == 2:
            ghosts = [[-a for a in u] for u in self._ghosts(x)]
            out = self._from_ghosts(-x.comps[0], ghosts)
        else:
            # -1 = [-1] for odd p, and [a] x = (a x_0, a^p x_1, ...)
            out = WittVector(self, tuple([-c for c in x.comps]))
        if self._memo is not None and len(self._memo) < MEMO_CAP:
            self._memo[key] = out
        return out

    # -- the ghost route on the flat lift ----------------------------------------

    def _row(self, coeffs):
        """[x, x^p, ..., x^(p^(m-1))] mod p^m for the lift x of an element
        of R with the given coordinates, built once per element."""
        row = self._rows.get(coeffs)
        if row is None:
            lift_mul, m = self.ring.lift_mul, self.m
            row = [coeffs]
            for _ in range(m - 1):
                a = out = row[-1]
                for _ in range(self.p - 1):
                    out = lift_mul(out, a, m)
                row.append(out)
            if len(self._rows) < MEMO_CAP:
                self._rows[coeffs] = row
        return row

    def _weighted(self, powers, n):
        """sum_{i<=n} p^i powers[i][n-i] over the rows of powers, where
        powers[i][j] is the lift of component i to the power p^j."""
        out = [0] * self.ring.dim
        for i, row in enumerate(powers[:n + 1]):
            pi = self.p ** i
            out = [a + pi * b for a, b in zip(out, row[n - i])]
        return out

    def _ghosts(self, x):
        """w_1..w_{m-1} of x on the flat lift mod p^m, each component lifted
        by its coordinates: w_n = sum_{i<=n} p^i x_i^(p^(n-i))."""
        powers = [self._row(c.coeffs) for c in x.comps]
        return [self._weighted(powers, n) for n in range(1, self.m)]

    def _from_ghosts(self, c0, ghosts):
        """The Witt vector with component 0 c0 and ghost components
        ghosts[n-1] = w_n on the flat lift, by inverting the ghost map:
        c_n = (w_n - sum_{i<n} p^i c_i^(p^(n-i))) / p^n mod p.  The lift of
        each c_i is its coordinates; the division must be exact."""
        p, ring = self.p, self.ring
        comps = [c0]
        powers = [self._row(c0.coeffs)]
        for n, w in enumerate(ghosts, 1):
            q = p ** n
            num = [a - b for a, b in zip(w, self._weighted(powers, n))]
            if any(a % q for a in num):
                raise AssertionError("ghost inversion is not exact")
            c = RingElem(ring, tuple([a // q % p for a in num]))
            comps.append(c)
            powers.append(self._row(c.coeffs))
        return WittVector(self, tuple(comps))


class WittVector:
    """Element of W_m(R)."""

    __slots__ = ("wring", "comps")

    def __init__(self, wring, comps):
        self.wring = wring
        self.comps = comps

    def __eq__(self, other):
        return (isinstance(other, WittVector)
                and (self.wring is other.wring or self.wring == other.wring)
                and self.comps == other.comps)

    def __hash__(self):
        return hash(tuple([c.coeffs for c in self.comps]))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.comps) + ")"

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def _check(self, other):
        if self.wring is not other.wring and self.wring != other.wring:
            raise RingMismatch("Witt ring mismatch")

    def __add__(self, other):
        self._check(other)
        return self.wring.add(self, other)

    def __sub__(self, other):
        self._check(other)
        return self.wring.add(self, self.wring.neg(other))

    def __neg__(self):
        return self.wring.neg(self)

    def __mul__(self, other):
        self._check(other)
        return self.wring.mul(self, other)

    def __pow__(self, n):
        result = self.wring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- units ----------------------------------------------------------------

    def is_unit(self):
        return not self.wring.to_residue(self).is_zero()

    def invert(self):
        if not self.is_unit():
            raise NotAUnit(f"{self!r} is not a unit")
        wr = self.wring
        u0 = wr.lift_residue(wr.to_residue(self).invert())
        err = wr.one() - self * u0
        total = wr.one()
        term = wr.one()
        bound = wr.m * (len(wr.ring.basis) + 1)
        for _ in range(bound):
            if err.is_zero():
                break
            term = term * err
            if term.is_zero():
                break
            total = total + term
        inv = u0 * total
        if self * inv != wr.one():
            raise AssertionError("unit inverse failed exact verification")
        return inv


# ---------------------------------------------------------------------------
# Structure operations
# ---------------------------------------------------------------------------

class TruncationUnderflow(ValueError):
    pass


class NotInIdeal(ValueError):
    pass


def verschiebung(x):
    """(x_0,...,x_{m-1}) -> (0, x_0,...,x_{m-1}) in W_{m+1}(R)."""
    wr = WittRing(x.wring.ring, x.wring.m + 1)
    return wr.el((x.wring.ring.zero(),) + x.comps)


def verschiebung_trunc(x):
    """Verschiebung followed by truncation back to W_m: (0, x_0,...,x_{m-2})."""
    return x.wring.el((x.wring.ring.zero(),) + x.comps[:-1])


def witt_frobenius(x):
    """The ghost-shift Frobenius W_m -> W_{m-1}, from the universal polynomials."""
    wr = x.wring
    if wr.m < 2:
        raise TruncationUnderflow("Frobenius needs length >= 2")
    target = WittRing(wr.ring, wr.m - 1)
    comps = []
    for n in range(wr.m - 1):
        comps.append(wittpoly.eval_poly(wr._frob[n], x.comps[: n + 2], wr.ring))
    return target.el(comps)


def frobenius_fixed(x):
    """The fixed-length Frobenius lift: component-wise p-power (char p)."""
    return WittVector(x.wring, tuple(c.frobenius() for c in x.comps))


def teichmuller(a, m):
    return WittRing(a.ring, m).teichmuller(a)


def divided_frobenius(x):
    """sigma-dot on the image of v: (0, a_0,...,a_{m-2}) -> (a_0,...,a_{m-2})."""
    if not x.comps[0].is_zero():
        raise NotInIdeal("first component must vanish")
    if x.wring.m < 2:
        raise TruncationUnderflow("divided Frobenius needs length >= 2")
    target = WittRing(x.wring.ring, x.wring.m - 1)
    return target.el(x.comps[1:])


def truncate(x, m):
    if m > x.wring.m:
        raise ValueError("cannot truncate upward")
    return WittRing(x.wring.ring, m).el(x.comps[:m])


# ---------------------------------------------------------------------------
# Log coordinates on W_m(J) for a square-zero kernel J
# ---------------------------------------------------------------------------

class LogCoords:
    """An element of W_m(J), J^2 = 0, in logarithmic coordinates.

    With J^2 = 0 every addition cross-term vanishes and the divided ghost
    components are the coordinates themselves, so log is the identity on
    coordinates; addition is component-wise and sigma-dot is the shift.
    """

    __slots__ = ("ext", "m", "comps")

    def __init__(self, ext, m, comps):
        comps = tuple(comps)
        if len(comps) != m:
            raise ValueError("length mismatch")
        for c in comps:
            if not ext.in_kernel(c):
                raise ValueError("component not in J")
        self.ext = ext
        self.m = m
        self.comps = comps

    def __eq__(self, other):
        return (isinstance(other, LogCoords) and self.ext is other.ext
                and self.comps == other.comps)

    def __hash__(self):
        return hash(tuple([c.coeffs for c in self.comps]))

    def __add__(self, other):
        return LogCoords(self.ext, self.m,
                         [a + b for a, b in zip(self.comps, other.comps)])

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def embed(self):
        """The corresponding Witt vector in W_m(B) (component-wise inclusion)."""
        return WittRing(self.ext.B, self.m).el(self.comps)


def log_shift(x):
    """(j_0,...,j_{m-1}) -> (j_1,...,j_{m-1},0); nilpotent of order <= m."""
    zero = x.ext.B.zero()
    return LogCoords(x.ext, x.m, x.comps[1:] + (zero,))


def log_from_witt(ext, x):
    """Read off log coordinates from a J-supported Witt vector over B."""
    return LogCoords(ext, x.wring.m, x.comps)


def log_elements(ext, m):
    """All of W_m(J) in deterministic order."""
    base = list(ext.j_elements())
    for combo in itertools.product(base, repeat=m):
        yield LogCoords(ext, m, combo)
