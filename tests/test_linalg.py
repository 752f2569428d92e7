"""The one elimination routine, `rref_modp`, and what is built on it (mod-p
solve and kernel, the reduced-basis `Span`; `solve_local`, `field_inverse`
and `ring_span` on F_p-coordinates), cross-checked against brute force."""

import itertools
import random

import pytest

from framecalc import linalg
from framecalc.deformation import _solve_modp
from framecalc.fixtures import rand_ring_elem
from framecalc.rings import (ArtinRing, Field, RingMismatch, VerificationError,
                             dual_numbers, extension_field, prime_field,
                             truncated_poly_ring)
from framecalc.witt import WittRing


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
        assert linalg.Span(p, cols, 2).rank == rank
        for rhs in itertools.product(range(p), repeat=2):
            x = _solve_modp(p, cols, list(rhs))
            if rhs in image:
                assert x is not None and _mat_vec_modp(p, M, x) == rhs
            else:
                assert x is None
        basis = linalg.kernel_modp(p, cols)
        assert len(basis) == 3 - rank
        span = {tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p
                      for i in range(3))
                for cs in itertools.product(range(p), repeat=len(basis))}
        assert span == kernel
        # the reduced basis of the row space is in echelon form and reduced
        rows = linalg.Span(p, M, 3)
        assert rows.rank == rank == len(rows.rows)
        for k, (piv, b) in enumerate(zip(rows.pivots, rows.rows)):
            assert b[piv] == 1 and not any(b[:piv])
            assert all(other[piv] == 0 for j, other in enumerate(rows.rows)
                       if j != k)


def test_span_reduce_labels_cosets_over_f3_cubed():
    # reduce(u) == reduce(v) exactly when u - v lies in the span, for the
    # span of every pair of vectors of F_3^3 (the empty span and lines too)
    p = 3
    space = list(itertools.product(range(p), repeat=3))
    for gens in itertools.combinations_with_replacement(space, 2):
        members = {tuple((a * x + b * y) % p for x, y in zip(*gens))
                   for a in range(p) for b in range(p)}
        span = linalg.Span(p, gens, 3)
        assert p ** span.rank == len(members)
        labels = {u: span.reduce(u) for u in space}
        for u in space:
            assert (u in span) == (u in members)
            for v in space:
                diff = tuple((a - b) % p for a, b in zip(u, v))
                assert (labels[u] == labels[v]) == (diff in members)


def test_combine_modp_matches_brute_force():
    p = 5
    vecs = [[1, 2, 3], [4, 0, 1]]
    for coeffs in itertools.product(range(-p, 2 * p), repeat=2):
        expected = [sum(c * v[i] for c, v in zip(coeffs, vecs)) % p
                    for i in range(3)]
        assert linalg.combine_modp(p, vecs, coeffs, 3) == expected
    assert linalg.combine_modp(p, [], [], 2) == [0, 0]


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
    e, z = R.el({(1,): 1}), R.zero()
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


def test_ring_span_membership_matches_brute_force_over_dual_numbers():
    # every column, units or not, against the set of its multiples
    R = dual_numbers(3)
    els = list(R.elements())
    vecs = [list(v) for v in itertools.product(els, repeat=2)]
    for col in vecs:
        span = linalg.ring_span(R, [col], 2)
        multiples = [[c * x for x in col] for c in els]
        for vec in vecs:
            assert (linalg.fp_coords(vec) in span) == (vec in multiples)
    # the empty span holds only the zero vector
    empty = linalg.ring_span(R, [], 2)
    for vec in vecs:
        assert (linalg.fp_coords(vec) in empty) == all(v.is_zero() for v in vec)


def _rand_elem(ring, rng):
    if isinstance(ring, WittRing):
        return ring.el([rand_ring_elem(ring.ring, rng) for _ in range(ring.m)])
    return rand_ring_elem(ring, rng)


@pytest.mark.parametrize("ring", [
    prime_field(3), dual_numbers(3), extension_field(3, 2),
    ArtinRing(Field(2, 2), ("x", "y"), ((2, 0), (1, 1), (0, 3))),
    WittRing(prime_field(3), 2), WittRing(dual_numbers(3), 2)], ids=repr)
def test_mat_mul_is_the_sum_of_ring_products(ring):
    rng = random.Random(8)
    for rows, inner, cols in [(4, 4, 4), (1, 4, 1), (4, 1, 4), (2, 3, 4)]:
        A = [[_rand_elem(ring, rng) for _ in range(inner)] for _ in range(rows)]
        B = [[_rand_elem(ring, rng) for _ in range(cols)] for _ in range(inner)]
        expected = [[sum((A[i][k] * B[k][j] for k in range(inner)), ring.zero())
                     for j in range(cols)] for i in range(rows)]
        assert linalg.mat_mul(ring, A, B) == expected
    assert ring.dot([], []) == ring.zero()


def test_mat_mul_rejects_entries_from_another_ring():
    F3, D3 = prime_field(3), dual_numbers(3)
    I3, I5 = linalg.identity(F3, 2), linalg.identity(prime_field(5), 2)
    mixed = [[F3.one(), D3.one()], [F3.zero(), F3.one()]]
    for ring, A, B in [(F3, I3, I5), (F3, I5, I5), (F3, mixed, I3),
                       (D3, linalg.identity(D3, 2), mixed)]:
        with pytest.raises(RingMismatch):
            linalg.mat_mul(ring, A, B)
    W2, W3 = WittRing(F3, 2), WittRing(F3, 3)
    with pytest.raises(RingMismatch):
        linalg.mat_mul(W2, linalg.identity(W2, 2), linalg.identity(W3, 2))


def test_solve_local_check_fires_on_a_shifted_solution(monkeypatch):
    R = dual_numbers(3)
    real = linalg.solve_modp
    monkeypatch.setattr(linalg, "solve_modp", lambda p, cols, rhs: [
        (x + 1) % p for x in real(p, cols, rhs)])
    with pytest.raises(VerificationError,
                       match="F_p-linear solution failed exact verification: x = "):
        linalg.solve_local(R, linalg.identity(R, 2), [R.one(), R.zero()])
