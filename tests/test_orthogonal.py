"""Split orthogonal structure: gram matrices, decomposition, normalization."""

import random

import pytest

from framecalc import linalg
from framecalc.rings import dual_number_extension, prime_field
from framecalc.frames import RelativeFrame, WittFrame, ZipFrame
from framecalc.displays import GradedMatrix
from framecalc.orthogonal import (GramNotSplit, OrthDisplay, decompose,
                                  exp_minus_orth, exp_plus_orth,
                                  form_transform, graded_inverse, gram,
                                  is_orth_matrix, is_self_dual_type,
                                  levi_element, normalize_gram, o2_elements,
                                  orth_group_elements, orth_group_factors,
                                  standard_J,
                                  standard_gram, unipotent_inverse,
                                  verify_orth)
from framecalc.fixtures import rand_gram_perturbation, rand_group_element


F3 = prime_field(3)
ZF3 = ZipFrame(F3)
WF3 = WittFrame(F3, 2)
K3MU = (1, 0, 0, -1)


def test_self_dual_types():
    assert is_self_dual_type((1, 0, 0, -1))
    assert is_self_dual_type((1, -1))
    assert is_self_dual_type((0, 0))
    assert not is_self_dual_type((1, 0))
    assert not is_self_dual_type((2, 0, 0, -1))


def test_standard_J_and_orth_matrix():
    J = standard_J(F3, 4)
    assert is_orth_matrix(F3, linalg.identity(F3, 4))
    # J itself preserves the form it defines
    assert is_orth_matrix(F3, J)


def test_decompose_recomposes_200_random():
    rng = random.Random(0)
    for _ in range(200):
        g = rand_group_element(WF3, (1, 0), rng)
        q, u = decompose(g)
        assert q * u == g
        # q has no positive entries; u is unipotent with unit diagonal
        for i in range(2):
            for j in range(2):
                if (1, 0)[j] - (1, 0)[i] >= 1:
                    assert q.entries[i][j].is_zero()
        I = GradedMatrix.identity(WF3, (1, 0))
        for i in range(2):
            assert u.entries[i][i].payload == I.entries[i][i].payload


def test_decompose_exhaustive_orth_zip_group():
    count = 0
    for g in orth_group_elements(ZF3, K3MU):
        q, u = decompose(g)
        assert q * u == g
        count += 1
    assert count == 648


def test_graded_inverse():
    rng = random.Random(3)
    I = GradedMatrix.identity(WF3, (1, 0))
    for _ in range(40):
        g = rand_group_element(WF3, (1, 0), rng)
        assert g * graded_inverse(g) == I
        assert graded_inverse(g) * g == I


def test_unipotent_inverse_roundtrip():
    rng = random.Random(4)
    for _ in range(20):
        g = rand_group_element(WF3, (1, 0), rng)
        _, u = decompose(g)
        assert unipotent_inverse(unipotent_inverse(u)) == u


def test_o2_and_levi_counts():
    assert sum(1 for _ in o2_elements(F3)) == 4
    # diag(a, H, a^-1): 2 units a times 4 elements H of O_2, all orthogonal
    levis = {levi_element(ZF3, K3MU, a, a.invert(), H)
             for a in F3.elements() if a.is_unit() for H in o2_elements(F3)}
    assert len(levis) == 8
    G0 = standard_gram(ZF3, K3MU)
    assert all(form_transform(G0, l) == G0 for l in levis)


def test_exp_plus_minus_are_orthogonal():
    # exponentials of the minuscule root spaces preserve the split form
    rel = RelativeFrame(dual_number_extension(3), 2)
    rng = random.Random(6)
    from framecalc.fixtures import rand_kernel_elem, rand_s0_elem
    G0 = standard_gram(rel, K3MU)
    for _ in range(10):
        xs = [(rand_s0_elem(rel, rng), rand_kernel_elem(rel.ext, rng))
              for _ in range(2)]
        up = exp_plus_orth(rel, K3MU, xs)
        assert form_transform(G0, up) == G0
        ys = [rand_s0_elem(rel, rng) for _ in range(2)]
        um = exp_minus_orth(rel, K3MU, ys)
        assert form_transform(G0, um) == G0


def test_factorization_uniqueness_is_checked_by_value(monkeypatch):
    # every element hashes alike; distinct elements still pass the
    # uniqueness check, which compares payload coordinates
    expected = list(orth_group_elements(ZF3, K3MU))
    monkeypatch.setattr(GradedMatrix, "__hash__", lambda self: 0)
    found = [g for _, g in orth_group_factors(ZF3, K3MU)]
    assert len(found) == 648 and found == expected


def test_orth_group_elements_reject_non_k3_type():
    with pytest.raises(ValueError):
        list(orth_group_elements(ZF3, (1, 0)))


@pytest.mark.parametrize("mu", [(1, -1), K3MU])
def test_normalize_gram_random_perturbations(mu):
    rel = RelativeFrame(dual_number_extension(3), 2)
    rng = random.Random(42)
    G0 = standard_gram(rel, mu)
    for _ in range(25):
        B = rand_gram_perturbation(rel, mu, rng)
        A = normalize_gram(B)
        assert form_transform(B, A) == G0


def test_normalize_gram_fixes_standard():
    rel = RelativeFrame(dual_number_extension(3), 2)
    G0 = standard_gram(rel, (1, -1))
    A = normalize_gram(G0)
    assert form_transform(G0, A) == G0


def test_normalize_gram_rejects_non_self_dual():
    rel = RelativeFrame(dual_number_extension(3), 2)
    with pytest.raises(GramNotSplit):
        normalize_gram(GradedMatrix.identity(rel, (1, 0)))


def test_verify_orth_on_group_orbit():
    J4 = standard_J(F3, 4)
    d = OrthDisplay(ZF3, K3MU, J4)
    assert verify_orth(d)
    for i, g in enumerate(orth_group_elements(ZF3, K3MU)):
        if i >= 40:
            break
        assert verify_orth(d.act(g))


def test_gram_of_group_element_is_standard():
    # membership in the orthogonal display group means the graded gram of
    # the element equals the standard one
    G0 = standard_gram(ZF3, K3MU)
    for i, g in enumerate(orth_group_elements(ZF3, K3MU)):
        if i >= 30:
            break
        assert form_transform(G0, g) == G0
