"""The one elimination routine, `rref_modp`, and the solves built on it
(mod-p solve, rank and echelon; `solve_local`, `field_inverse` and
`span_contains` on F_p-coordinates), cross-checked against brute force."""

import itertools
import random

import pytest

from framecalc import linalg
from framecalc.deformation import _echelon, _rank_modp, _solve_modp
from framecalc.rings import (ArtinRing, Field, dual_numbers, extension_field,
                             prime_field, truncated_poly_ring)


def _mat_vec_modp(p, M, x):
    return tuple(sum(a * b for a, b in zip(row, x)) % p for row in M)


@pytest.mark.parametrize("p", [2, 3])
def test_modp_solve_rank_kernel_every_2x3_matrix(p):
    vectors = list(itertools.product(range(p), repeat=3))
    for entries in itertools.product(range(p), repeat=6):
        M = [list(entries[:3]), list(entries[3:])]
        cols = [list(c) for c in zip(*M)]
        image = {_mat_vec_modp(p, M, x) for x in vectors}
        kernel = {x for x in vectors if not any(_mat_vec_modp(p, M, x))}
        rank = next(r for r in range(3) if p ** r == len(image))
        assert _rank_modp(p, cols) == rank
        for rhs in itertools.product(range(p), repeat=2):
            x = _solve_modp(p, cols, list(rhs))
            if rhs in image:
                assert x is not None and _mat_vec_modp(p, M, x) == rhs
            else:
                assert x is None
        # kernel read off the reduced rows, as fiber_direction_basis does
        rows = [list(r) for r in M]
        pivots = linalg.rref_modp(p, rows, 3)
        assert len(pivots) == rank
        basis = []
        for fc in (c for c in range(3) if c not in pivots):
            v = [0] * 3
            v[fc] = 1
            for r, pv in enumerate(pivots):
                v[pv] = (-rows[r][fc]) % p
            basis.append(v)
        span = {tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p
                      for i in range(3))
                for cs in itertools.product(range(p), repeat=len(basis))}
        assert span == kernel
        # the echelon basis spans the row space and is reduced
        ech = _echelon(p, M)
        assert len(ech) == rank
        for k, (piv, b) in enumerate(ech):
            assert b[piv] == 1 and not any(b[:piv])
            assert all(other[piv] == 0 for j, (_, other) in enumerate(ech)
                       if j != k)


def _check_field_inverse_every_2x2(F):
    els = list(F.elements())
    for a, b, c, d in itertools.product(els, repeat=4):
        M = [[a, b], [c, d]]
        inv = linalg.field_inverse(F, M)
        det = a * d - b * c
        if det.is_zero():
            assert inv is None
        else:
            assert linalg.mat_mul(F, M, inv) == linalg.identity(F, 2)


def test_field_inverse_every_2x2_matrix_over_f3():
    _check_field_inverse_every_2x2(prime_field(3).residue_field)


@pytest.mark.parametrize("p", [2, 3], ids=["F4", "F9"])
def test_field_inverse_every_2x2_matrix_over_f_p_squared(p):
    # f = 2: each entry is two F_p-coordinates of the encoded system
    _check_field_inverse_every_2x2(extension_field(p, 2))


def test_field_inverse_rejects_non_square_matrices():
    F = prime_field(3)
    one, zero = F.one(), F.zero()
    assert linalg.field_inverse(F, [[one, zero, zero], [zero, one, zero]]) is None
    assert linalg.field_inverse(F, [[one, zero], [zero, one], [zero, zero]]) is None
    assert linalg.field_inverse(F, []) == []


def test_unit_pivot_solve_2x2_over_dual_numbers():
    # solve_local against brute force over F_3[e]/e^2, and F_2[x]/x^3
    def apply(M, x):
        return [M[i][0] * x[0] + M[i][1] * x[1] for i in range(2)]

    for ring in (dual_numbers(3), truncated_poly_ring(2, "x", 3)):
        els = list(ring.elements())
        non_units = [a for a in els if not a.is_unit()]
        rng = random.Random(0)
        for _ in range(200):
            # non-unit entries are the interesting ones: draw them half the time
            M = [[rng.choice(non_units if rng.random() < 0.5 else els)
                  for _ in range(2)] for _ in range(2)]
            x0 = [rng.choice(els) for _ in range(2)]
            rhs = (apply(M, x0) if rng.random() < 0.7
                   else [rng.choice(els) for _ in range(2)])
            sols = [list(x) for x in itertools.product(els, repeat=2)
                    if apply(M, list(x)) == rhs]
            x = linalg.solve_local(ring, M, rhs)
            assert (x is not None) == bool(sols)
            if x is not None:
                assert apply(M, x) == rhs
            if linalg.is_invertible(ring, M):
                # unit pivots in every column: the unique solution
                assert len(sols) == 1 and x == sols[0]


def test_local_solve_finds_solutions_without_unit_pivots():
    # M = e I has no unit entry, yet x = (1, 0) solves M x = (e, 0)
    R = dual_numbers(3)
    e, z = R.gen(), R.zero()
    M = [[e, z], [z, e]]
    x = linalg.solve_local(R, M, [e, z])
    assert x is not None
    assert [M[i][0] * x[0] + M[i][1] * x[1] for i in range(2)] == [e, z]
    assert linalg.solve_local(R, M, [R.one(), z]) is None


def test_solve_local_matches_brute_force_over_f4_dual_numbers():
    # F_4[x]/(x^2): f = 2 and a variable, so 4 F_p-coordinates per entry
    ring = ArtinRing(Field(2, 2), ("x",), ((2,),))
    els = list(ring.elements())
    rng = random.Random(1)
    found = 0
    for _ in range(150):
        M = [[rng.choice(els) for _ in range(2)] for _ in range(2)]
        image = {}
        for x in itertools.product(els, repeat=2):
            rhs = tuple(M[i][0] * x[0] + M[i][1] * x[1] for i in range(2))
            image.setdefault(rhs, list(x))
        rhs = (list(rng.choice(list(image))) if rng.random() < 0.7
               else [rng.choice(els) for _ in range(2)])
        x = linalg.solve_local(ring, M, rhs)
        assert (x is not None) == (tuple(rhs) in image)
        if x is not None:
            found += 1
            assert [M[i][0] * x[0] + M[i][1] * x[1] for i in range(2)] == rhs
    assert 0 < found < 150


def test_span_contains_matches_brute_force_over_dual_numbers():
    # every column, units or not, against the set of its multiples
    R = dual_numbers(3)
    els = list(R.elements())
    vecs = [list(v) for v in itertools.product(els, repeat=2)]
    for col in vecs:
        multiples = [[c * x for x in col] for c in els]
        for vec in vecs:
            assert linalg.span_contains(R, [col], vec) == (vec in multiples)
    # the empty span holds only the zero vector
    for vec in vecs:
        assert linalg.span_contains(R, [], vec) == all(v.is_zero() for v in vec)
