"""Truncated Witt vectors W_m(R) over monomial-quotient rings.

W_m stores components with indices 0..m-1.  An element is stored flat, as
`rings` stores an element of R: one tuple `coeffs` of its components'
F_p-coordinates, component-major, so component n is coeffs[n*d:(n+1)*d] with
d = dim R.  Equality, hashing, enumeration, the memo keys and the structure
maps work on that tuple; `comps` is a read-only view of the components as
elements of R.  Verschiebung raises the length, Frobenius lowers it; the
fixed-length Frobenius lift used by frames is the component-wise p-power map
(the universal correction terms vanish in characteristic p, which the tests
check against the ghost-derived polynomials).

On a small ring one operation memo per W_m(R), keyed on the operands'
coordinate tuples, holds sums, products, negatives and the fixed-length
Frobenius, and the ghost vector of every operand that the ghost route has
met, so each element's ghost vector is computed once.  `add` and `mul` read
the memo inline and hand a miss to `_miss`, which picks the route below;
`_keep` makes every store into the memo or the lifted rows, under MEMO_CAP.

Sums and products run on ghost components.  R = F_q[x]/I has the flat lift
R~ = W(F_q)[x]/I with the same basis (`ArtinRing.lift_mul`); R~ has no
p-torsion, so its ghost map is injective, and W(R~) -> W(R) is onto.  So a
result's components 1..m-1 come from the ghost components of the operands'
coordinate lifts, added or multiplied in R~ mod p^m, by inverting the ghost
map with exact division; component 0 is R's own operation.  The result does
not depend on the lifts: a = b mod p gives a^(p^k) = b^(p^k) mod p^(k+1).

On a memoized W_m(R) with m >= 2 a miss whose operands have a nonzero top
component takes the top-component route instead.  With x' the operand x
with its top component x_t zeroed, x = x' + V^(m-1)[x_t], and in W_m

    x + V^(m-1)[a] = x with a added to its top component,
    x V^(m-1)[a] = V^(m-1)[x_0^(p^(m-1)) a]

(from x V(y) = V(F(x) y); Serre, Local Fields II 6), while the product of
two such terms vanishes.  So the result is that of (x', y'), read through
the same memo, plus x_t + y_t or x_t y_0^(p^(m-1)) + y_t x_0^(p^(m-1)) in
its top component: the ghost map is inverted once per pair of elements of
W_{m-1}(R), not once per pair of W_m(R).  A ring without a memo, and
operands whose top components are both zero, take the ghost route.
Only the Frobenius W_m -> W_{m-1} evaluates the universal polynomials of
`wittpoly`, which are otherwise the tests' second route.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import linalg, wittpoly
from .rings import (EnumerationTooLarge, NotAUnit, RingElem, RingMismatch,
                    VerificationError)

# The operation memo of a small W_m(R) stops growing at this many entries,
# about 29 MiB at some 230 bytes an entry over W_2(F_3[e]/e^2); the largest
# benchmark fill is about 18,200 on witt-kernel and 13,400 on frame-axioms
# (add, mul, neg, Frobenius and ghost vectors together, with the results
# of the operands whose top components are zeroed).
MEMO_CAP = 1 << 17


class WittRing:
    """Arithmetic context for W_m(R): the ghost route on the flat lift, the
    Frobenius term lists and, for a small ring, the operation memo of
    `add`, `mul`, `neg`, `frobenius_fixed` and `_ghosts` with the
    top-component route of `add` and `mul`.

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
        # the slice of each component in an element's coeffs, and the split
        # of coeffs into the tuple of component coordinates
        d = ring.dim
        self._cuts = tuple(slice(i, i + d) for i in range(0, m * d, d))
        self._split = operator.itemgetter(*self._cuts) if m > 1 else (lambda c: (c,))
        # memoize add, mul, neg, the fixed-length Frobenius and the ghost
        # vectors, keyed on the operands' coeffs, when the ring is small
        # enough that the operation tables fit comfortably (enumeration-heavy
        # workloads), up to MEMO_CAP entries
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
        """The Witt vector with the given components (anything `ring.el`
        takes)."""
        coeffs = []
        for c in comps:
            coeffs += self.ring.el(c).coeffs
        if len(coeffs) != self.m * self.ring.dim:
            raise ValueError(f"expected {self.m} components")
        return WittVector(self, tuple(coeffs))

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
        return self.el([a] + [self.ring.zero()] * (self.m - 1))

    def elements(self, cap=10 ** 7):
        if self.size > cap:
            raise EnumerationTooLarge(f"|W_m(R)| = {self.size} exceeds cap {cap}")
        # lexicographic in coeffs: the lexicographic order of the component
        # tuples, each component in the order of `ring.elements`
        for coeffs in itertools.product(range(self.p), repeat=self.m * self.ring.dim):
            yield WittVector(self, coeffs)

    @functools.cached_property
    def _frob_span(self):
        """Frob(R), the F_p-span of the p-th powers of R's F_p-basis."""
        ring = self.ring
        units = [ring.from_coords([int(i == k) for i in range(ring.dim)])
                 for k in range(ring.dim)]
        return linalg.Span(self.p, [u.frobenius().coeffs for u in units], ring.dim)

    def is_p_multiple(self, x):
        """Whether x lies in p*W_m(R).  p = V F on W(R) for an F_p-algebra R
        (Serre, Local Fields II 6), so p*(y0, y1, ...) = (0, y0^p, y1^p, ...):
        component 0 is zero and every later one lies in Frob(R)."""
        comps = self._split(x.coeffs)
        return not any(comps[0]) and all(c in self._frob_span for c in comps[1:])

    # -- residue interface (W_m(R) is local with the same residue field) -------

    def to_residue(self, x):
        return self.ring.to_residue(x.comp(0))

    def lift_residue(self, c):
        return self.teichmuller(self.ring.lift_residue(c))

    # -- core arithmetic -------------------------------------------------------

    def add(self, x, y):
        memo = self._memo
        if memo is not None:
            hit = memo.get(("+", x.coeffs, y.coeffs))
            if hit is not None:
                return hit
        return self._miss("+", x, y)

    def mul(self, x, y):
        memo = self._memo
        if memo is not None:
            hit = memo.get(("*", x.coeffs, y.coeffs))
            if hit is not None:
                return hit
        return self._miss("*", x, y)

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
        memo, p = self._memo, self.p
        if memo is not None:
            key = ("-", x.coeffs)
            hit = memo.get(key)
            if hit is not None:
                return hit
        if p == 2:
            ghosts = [[-a for a in u] for u in self._ghosts(x)]
            out = self._from_ghosts(-x.comp(0), ghosts)
        else:
            # -1 = [-1] for odd p, and [a] x = (a x_0, a^p x_1, ...)
            out = WittVector(self, tuple([-a % p for a in x.coeffs]))
        return out if memo is None else self._keep(memo, key, out)

    # -- the memo store and the miss path of `add` and `mul` --------------------

    def _keep(self, store, key, out):
        """out, stored under key in `_memo` or `_rows` while the store holds
        fewer than MEMO_CAP entries (a plain method: CPython specializes its
        lookup on an instance, not that of a staticmethod)."""
        if len(store) < MEMO_CAP:
            store[key] = out
        return out

    def _miss(self, op, x, y):
        """x + y or x y (op "+" or "*") missed by the memo, or on a ring
        without one: the top-component route on a memoized ring when it
        applies, else the ghost route; kept in the memo."""
        memo = self._memo
        out = None if memo is None else self._top_route(op, x, y)
        if out is None:
            gx, gy = self._ghosts(x), self._ghosts(y)
            if op == "+":
                ghosts = [[a + b for a, b in zip(u, v)] for u, v in zip(gx, gy)]
                out = self._from_ghosts(x.comp(0) + y.comp(0), ghosts)
            else:
                lift_mul, m = self.ring.lift_mul, self.m
                ghosts = [lift_mul(u, v, m) for u, v in zip(gx, gy)]
                out = self._from_ghosts(x.comp(0) * y.comp(0), ghosts)
        return out if memo is None else self._keep(memo, (op, x.coeffs, y.coeffs), out)

    def _top_route(self, op, x, y):
        """x + y or x y (op "+" or "*") on a memo miss, by the module
        docstring's top-component route: the result z of x' and y' (the
        operands with their top components x_t and y_t zeroed), read through
        the memo, with x_t + y_t or x_t y_0^(p^(m-1)) + y_t x_0^(p^(m-1))
        added to its top component; None when m = 1 or x_t = y_t = 0."""
        top = self._cuts[-1]
        xc, yc = x.coeffs, y.coeffs
        xt, yt = xc[top], yc[top]
        if self.m == 1 or not (any(xt) or any(yt)):
            return None
        n, pad = top.start, self.ring.zero().coeffs
        xl, yl = xc[:n] + pad, yc[:n] + pad
        z = self._memo.get((op, xl, yl))
        p = self.p
        if op == "+":
            if z is None:
                z = self.add(WittVector(self, xl), WittVector(self, yl))
            zc = z.coeffs
            return WittVector(self, zc[:n] + tuple([(a + b + c) % p for a, b, c in
                                                    zip(zc[top], xt, yt)]))
        if z is None:
            z = self.mul(WittVector(self, xl), WittVector(self, yl))
        # x_0^(p^(m-1)) and y_0^(p^(m-1)) on the lift; lift_mul(., ., 1) is mod p
        lift_mul, first = self.ring.lift_mul, self._cuts[0]
        x0, y0 = self._row(xc[first])[-1], self._row(yc[first])[-1]
        zc = z.coeffs
        return WittVector(self, zc[:n] + tuple([(a + b + c) % p for a, b, c in zip(
            zc[top], lift_mul(xt, y0, 1), lift_mul(yt, x0, 1))]))

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
            self._keep(self._rows, coeffs, row)
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
        by its coordinates: w_n = sum_{i<=n} p^i x_i^(p^(n-i)); a tuple,
        kept in the operation memo of a small ring."""
        memo = self._memo
        if memo is not None:
            key = ("w", x.coeffs)
            hit = memo.get(key)
            if hit is not None:
                return hit
        powers = [self._row(c) for c in self._split(x.coeffs)]
        out = tuple([self._weighted(powers, n) for n in range(1, self.m)])
        return out if memo is None else self._keep(memo, key, out)

    def _from_ghosts(self, c0, ghosts):
        """The Witt vector with component 0 c0 and ghost components
        ghosts[n-1] = w_n on the flat lift, by inverting the ghost map:
        c_n = (w_n - sum_{i<n} p^i c_i^(p^(n-i))) / p^n mod p.  The lift of
        each c_i is its coordinates; the division must be exact."""
        p = self.p
        coeffs = list(c0.coeffs)
        powers = [self._row(c0.coeffs)]
        for n, w in enumerate(ghosts, 1):
            q = p ** n
            num = [a - b for a, b in zip(w, self._weighted(powers, n))]
            if any(a % q for a in num):
                raise VerificationError(f"ghost inversion is not exact: w_{n} = {w} after "
                                        f"the coordinates {tuple(coeffs)}")
            c = tuple([a // q % p for a in num])
            coeffs += c
            powers.append(self._row(c))
        return WittVector(self, tuple(coeffs))


class WittVector:
    """Element of W_m(R): the flat tuple `coeffs` of its components'
    F_p-coordinates, component-major.  Build one through `WittRing.el`,
    `WittRing.elements` or arithmetic; only this module calls the class.

    `comps` and `comp` read components as elements of R.  The hash is that
    of the tuple of the components' coordinate tuples, so sets and dicts of
    Witt vectors keep the order they had when elements were stored as a
    tuple of ring elements.
    """

    __slots__ = ("wring", "coeffs")

    def __init__(self, wring, coeffs):
        self.wring = wring
        self.coeffs = coeffs

    @property
    def comps(self):
        """The components as elements of R, built on each read."""
        ring = self.wring.ring
        return tuple([RingElem(ring, c) for c in self.wring._split(self.coeffs)])

    def comp(self, n):
        """Component n as an element of R, without building the others."""
        return RingElem(self.wring.ring, self.coeffs[self.wring._cuts[n]])

    def __eq__(self, other):
        return (isinstance(other, WittVector) and self.coeffs == other.coeffs
                and (self.wring is other.wring or self.wring == other.wring))

    def __hash__(self):
        return hash(self.wring._split(self.coeffs))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.comps) + ")"

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        wr = self.wring
        if other.wring is not wr and other.wring != wr:
            raise RingMismatch("Witt ring mismatch")
        return wr.add(self, other)

    def __sub__(self, other):
        wr = self.wring
        if other.wring is not wr and other.wring != wr:
            raise RingMismatch("Witt ring mismatch")
        return wr.add(self, wr.neg(other))

    def __neg__(self):
        return self.wring.neg(self)

    def __mul__(self, other):
        wr = self.wring
        if other.wring is not wr and other.wring != wr:
            raise RingMismatch("Witt ring mismatch")
        return wr.mul(self, other)

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
        """The inverse of a unit, through `linalg.mat_inverse` of the 1x1
        matrix [[self]], which returns only an exactly checked inverse."""
        if not self.is_unit():
            raise NotAUnit(f"{self!r} is not a unit")
        return linalg.mat_inverse(self.wring, [[self]])[0][0]


# ---------------------------------------------------------------------------
# Structure operations
# ---------------------------------------------------------------------------

class TruncationUnderflow(ValueError):
    pass


class NotInIdeal(ValueError):
    pass


def verschiebung(x):
    """(x_0,...,x_{m-1}) -> (0, x_0,...,x_{m-1}) in W_{m+1}(R)."""
    ring = x.wring.ring
    return WittVector(WittRing(ring, x.wring.m + 1), ring.zero().coeffs + x.coeffs)


def verschiebung_trunc(x):
    """Verschiebung followed by truncation back to W_m: (0, x_0,...,x_{m-2})."""
    zero = x.wring.ring.zero().coeffs
    return WittVector(x.wring, zero + x.coeffs[:-len(zero)])


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
    """The fixed-length Frobenius lift: component-wise p-power (char p),
    through the operation memo of a small W_m(R)."""
    wr = x.wring
    memo = wr._memo
    if memo is not None:
        key = ("F", x.coeffs)
        hit = memo.get(key)
        if hit is not None:
            return hit
    coeffs = []
    for c in x.comps:
        coeffs += c.frobenius().coeffs
    out = WittVector(wr, tuple(coeffs))
    return out if memo is None else wr._keep(memo, key, out)


def teichmuller(a, m):
    return WittRing(a.ring, m).teichmuller(a)


def divided_frobenius(x):
    """sigma-dot on the image of v: (0, a_0,...,a_{m-2}) -> (a_0,...,a_{m-2})."""
    wr = x.wring
    d = wr.ring.dim
    if any(x.coeffs[:d]):
        raise NotInIdeal("first component must vanish")
    if wr.m < 2:
        raise TruncationUnderflow("divided Frobenius needs length >= 2")
    return WittVector(WittRing(wr.ring, wr.m - 1), x.coeffs[d:])
