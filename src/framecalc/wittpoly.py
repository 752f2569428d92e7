"""Universal polynomials for truncated p-typical Witt vectors.

The addition, multiplication, negation and Frobenius polynomials are produced
once over the integers by inverting the ghost map, with exact division by
p^n at every stage (integrality is the classical Witt construction).  The
symbolic identities w_n(S(X,Y)) = w_n(X) + w_n(Y) etc. serve as the single
correctness oracle; evaluation in characteristic p reduces the integer
coefficients mod p first.

Derivation and oracle both run on sympy's sparse polynomials over ZZ
(exact integer coefficients, no expression trees); the public *_polys
functions hand out the same polynomials as sympy expressions.
"""

from __future__ import annotations

from functools import lru_cache

import sympy
from sympy.polys.rings import ring as _poly_ring


def _xs(n):
    return [sympy.Symbol(f"X{i}") for i in range(n + 1)]


def _ys(n):
    return [sympy.Symbol(f"Y{i}") for i in range(n + 1)]


def ghost(p, comps, n):
    """w_n = sum_{i<=n} p^i * comps_i^(p^(n-i))."""
    return sum(p ** i * comps[i] ** (p ** (n - i)) for i in range(n + 1))


@lru_cache(maxsize=None)
def _zz_ring(nx, ny):
    """Z[X_0..X_{nx-1}, Y_0..Y_{ny-1}] with its generators split into X and Y."""
    R, *gens = _poly_ring(_xs(nx - 1) + _ys(ny - 1), sympy.ZZ)
    return R, gens[:nx], gens[nx:]


def _invert_ghost(p, n, target, known):
    """Solve ghost(p, known + [S_n], n) == target for S_n, with exact division."""
    num = target - sum((p ** i * known[i] ** (p ** (n - i)) for i in range(n)),
                       target.ring.zero)
    q = p ** n
    if any(c % q for c in num.values()):
        raise AssertionError("ghost inversion produced a non-integral coefficient")
    return num.quo_ground(q)


@lru_cache(maxsize=None)
def _derive(p, op, n):
    """The polynomials of op at indices 0..n, in the ring eval_terms reads.

    The ring is Z[X_0..X_k, Y_0..Y_k] for sum/prod, Z[X_0..X_k] for neg, with
    k = n, and Z[X_0..X_{n+1}] for frob.
    """
    if op in ("sum", "prod"):
        _, X, Y = _zz_ring(n + 1, n + 1)
    elif op == "neg":
        _, X, Y = _zz_ring(n + 1, 0)
    elif op == "frob":
        _, X, Y = _zz_ring(n + 2, 0)
    else:
        raise ValueError(op)
    polys = []
    for k in range(n + 1):
        if op == "sum":
            target = ghost(p, X, k) + ghost(p, Y, k)
        elif op == "prod":
            target = ghost(p, X, k) * ghost(p, Y, k)
        elif op == "neg":
            target = -ghost(p, X, k)
        else:
            target = ghost(p, X, k + 1)
        polys.append(_invert_ghost(p, k, target, polys))
    return tuple(polys)


def _as_exprs(polys):
    return tuple(f.as_expr() for f in polys)


@lru_cache(maxsize=None)
def sum_polys(p, n):
    """S_0..S_n with w_k(S) = w_k(X) + w_k(Y)."""
    return _as_exprs(_derive(p, "sum", n))


@lru_cache(maxsize=None)
def prod_polys(p, n):
    """P_0..P_n with w_k(P) = w_k(X) * w_k(Y)."""
    return _as_exprs(_derive(p, "prod", n))


@lru_cache(maxsize=None)
def neg_polys(p, n):
    """N_0..N_n with w_k(N) = -w_k(X)."""
    return _as_exprs(_derive(p, "neg", n))


@lru_cache(maxsize=None)
def frob_polys(p, n):
    """F_0..F_n in X_0..X_{n+1} with w_k(F(X)) = w_{k+1}(X)."""
    return _as_exprs(_derive(p, "frob", n))


def verify_ghost_identities(p, n):
    """The build-time oracle: symbolic ghost identities over the integers."""
    R, X, Y = _zz_ring(n + 2, n + 1)
    S, P, N, F = ([f.set_ring(R) for f in _derive(p, op, n)]
                  for op in ("sum", "prod", "neg", "frob"))
    for k in range(n + 1):
        if ghost(p, S, k) - ghost(p, X, k) - ghost(p, Y, k) != 0:
            return False
        if ghost(p, P, k) - ghost(p, X, k) * ghost(p, Y, k) != 0:
            return False
        if ghost(p, N, k) + ghost(p, X, k) != 0:
            return False
        if ghost(p, F, k) - ghost(p, X, k + 1) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Evaluation form: coefficients reduced mod p, terms as exponent vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def eval_terms(p, op, n):
    """Mod-p term lists for op in {'sum','prod','neg','frob'} at index n.

    Variable order is X_0..X_k[, Y_0..Y_k] where k = n for sum/prod/neg and
    k = n + 1 for frob.
    """
    out = []
    for monom, c in _derive(p, op, n)[n].terms():
        c = int(c) % p
        if c:
            out.append((c, tuple(monom)))
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
