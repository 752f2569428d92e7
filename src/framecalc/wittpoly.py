"""Universal polynomials for truncated p-typical Witt vectors.

The addition, multiplication, negation and Frobenius polynomials are produced
once over the integers by inverting the ghost map, with exact division by
p^n at every stage (integrality is the classical Witt construction).  The
identities w_n(S(X,Y)) = w_n(X) + w_n(Y) etc., checked exactly over Z, serve
as the single correctness oracle.  `witt` adds, multiplies and negates on the
ghost components of a flat lift instead, so these polynomials are the second,
independent route the tests compare it with; at run time only the Frobenius
evaluates them, through `eval_terms` (coefficients reduced mod p) and
`eval_poly`.

Derivation and oracle both run on `ZPoly`, a sparse polynomial over Z: a
dict from exponent tuple to nonzero int.  Everything at depth n lives in
Z[X_0..X_{n+1}, Y_0..Y_n]; `eval_terms` cuts each table down to the
variables its op reads.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .rings import VerificationError


class ZPoly(dict):
    """A polynomial over Z: {exponent tuple: nonzero int}, one tuple length
    per ring.  Supports +, -, * (also by an int) and ** (by an int >= 1)."""

    __slots__ = ()

    def __add__(self, other):
        out = ZPoly(self)
        for monom, c in other.items():
            c += out.get(monom, 0)
            if c:
                out[monom] = c
            else:
                del out[monom]
        return out

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return ZPoly({monom: c * other for monom, c in self.items()} if other else {})
        out = {}
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                monom = tuple(map(add, m1, m2))
                out[monom] = out.get(monom, 0) + c1 * c2
        return ZPoly({monom: c for monom, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e):
        if len(self) == 1:
            (monom, c), = self.items()
            return ZPoly({tuple(a * e for a in monom): c ** e})
        out, base = None, self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base


def _gens(n):
    """X_0..X_{n+1} and Y_0..Y_n, the generators of the depth-n ring."""
    width = 2 * n + 3
    gens = [ZPoly({tuple(int(i == j) for j in range(width)): 1})
            for i in range(width)]
    return gens[:n + 2], gens[n + 2:]


def ghost(p, comps, n):
    """w_n = sum_{i<=n} p^i * comps_i^(p^(n-i))."""
    return sum((p ** i * comps[i] ** (p ** (n - i)) for i in range(n + 1)), ZPoly())


def _invert_ghost(p, n, target, known):
    """Solve ghost(p, known + [S_n], n) == target for S_n, with exact division."""
    num = target - sum((p ** i * known[i] ** (p ** (n - i)) for i in range(n)), ZPoly())
    q = p ** n
    if any(c % q for c in num.values()):
        raise VerificationError(
            f"ghost inversion produced a non-integral coefficient in S_{n}")
    return ZPoly({monom: c // q for monom, c in num.items()})


@lru_cache(maxsize=None)
def _derive(p, op, n):
    """The polynomials of op at indices 0..n, in Z[X_0..X_{n+1}, Y_0..Y_n]."""
    X, Y = _gens(n)
    polys = []
    for k in range(n + 1):
        if op == "sum":
            target = ghost(p, X, k) + ghost(p, Y, k)
        elif op == "prod":
            target = ghost(p, X, k) * ghost(p, Y, k)
        elif op == "neg":
            target = ghost(p, X, k) * -1
        elif op == "frob":
            target = ghost(p, X, k + 1)
        else:
            raise ValueError(op)
        polys.append(_invert_ghost(p, k, target, polys))
    return tuple(polys)


def verify_ghost_identities(p, n):
    """The build-time oracle: the ghost identities, exactly over the integers."""
    X, Y = _gens(n)
    S, P, N, F = (_derive(p, op, n) for op in ("sum", "prod", "neg", "frob"))
    for k in range(n + 1):
        if ghost(p, S, k) - ghost(p, X, k) - ghost(p, Y, k):
            return False
        if ghost(p, P, k) - ghost(p, X, k) * ghost(p, Y, k):
            return False
        if ghost(p, N, k) + ghost(p, X, k):
            return False
        if ghost(p, F, k) - ghost(p, X, k + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# Evaluation form: coefficients reduced mod p, terms as exponent vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def eval_terms(p, op, n):
    """Mod-p term lists for op in {'sum','prod','neg','frob'} at index n.

    Variable order is X_0..X_k[, Y_0..Y_k] where k = n for sum/prod/neg and
    k = n + 1 for frob.  Terms come in descending lexicographic order.
    """
    keep = {"neg": n + 1, "frob": n + 2}.get(op)
    out = []
    for monom, c in sorted(_derive(p, op, n)[n].items(), reverse=True):
        c %= p
        if c:
            out.append((c, monom[:keep] if keep else monom[:n + 1] + monom[n + 2:]))
    return tuple(out)


def eval_poly(terms, args, ring):
    """Evaluate a mod-p term list at ring elements, memoizing powers."""
    powers = [{0: ring.one()} for _ in args]
    total = ring.zero()
    for c, monom in terms:
        term = ring.from_int(c)
        for i, e in enumerate(monom):
            if e:
                cache = powers[i]
                if e not in cache:
                    cache[e] = args[i] ** e
                term = term * cache[e]
        total = total + term
    return total
