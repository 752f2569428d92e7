"""Split orthogonal structure: gram matrices, decomposition, normalization."""

import hashlib
import itertools
import json
import random
import sys

import pytest

from framecalc import linalg, orthogonal, serialize
from framecalc.rings import (VerificationError, dual_number_extension,
                             dual_numbers, extension_field, prime_field)
from framecalc.frames import RelativeFrame, WittFrame, ZipFrame
from framecalc.displays import GradedElem, GradedMatrix
from framecalc.orthogonal import (GramNotSplit, OrthDisplay, decompose,
                                  exp_minus_orth, exp_plus_orth,
                                  form_transform, is_orth_matrix,
                                  is_self_dual_type, levi_element,
                                  normalize_gram, o2_elements,
                                  orth_group_elements, orth_group_factors,
                                  standard_J, standard_gram, verify_orth)
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


def _decompose_through_u_inverse(g):
    """Reference route for `decompose`: q, and u^-1 as the product of the
    block-row clearing steps I - X_b."""
    frame, mu = g.frame, g.mu_col
    blocks = [list(grp) for _, grp in
              itertools.groupby(range(len(mu)), key=lambda i: mu[i])]
    work = g
    u_inv = GradedMatrix.identity(frame, mu)
    for b in range(len(blocks) - 1, 0, -1):
        rows = blocks[b]
        left = [j for blk in blocks[:b] for j in blk]
        D_inv = linalg.mat_inverse(
            frame.s0, [[work.entries[i][j].payload for j in rows] for i in rows])
        w = [mu[i] for i in rows]
        X = (GradedMatrix(frame, w, w, [[GradedElem(frame, 0, x) for x in row]
                                        for row in D_inv])
             * GradedMatrix(frame, w, [mu[j] for j in left],
                            [[work.entries[k][j] for j in left] for k in rows]))
        step = GradedMatrix.identity(frame, mu)
        for bi, i in enumerate(rows):
            for bj, j in enumerate(left):
                step.entries[i][j] = -X.entries[bi][bj]
        work = work * step
        u_inv = u_inv * step
    return work, u_inv


_DECOMPOSE_FRAMES = {
    "witt-F3": WittFrame(F3, 2),
    "relative": RelativeFrame(dual_number_extension(3), 2),
    "witt-F3[e]/e2": WittFrame(dual_numbers(3), 2),
    "zip-F9": ZipFrame(extension_field(3, 2)),
}


@pytest.mark.parametrize("mu", [K3MU, (2, 1, 0), (1, 1, 0, -1), (1, 0)])
@pytest.mark.parametrize("name", list(_DECOMPOSE_FRAMES))
def test_decompose_matches_the_neumann_route(name, mu):
    # u = I + sum X_b, written directly, is inverse to the product of the
    # clearing steps, and q is the same
    frame = _DECOMPOSE_FRAMES[name]
    I = GradedMatrix.identity(frame, mu)
    rng = random.Random(f"{name} {mu}")
    for _ in range(15):
        g = rand_group_element(frame, mu, rng)
        q, u = decompose(g)
        q_ref, u_inv = _decompose_through_u_inverse(g)
        assert q == q_ref and u * u_inv == I


def _fault_j_dots(monkeypatch, frame, hit):
    """Add a nonzero element of J to the n-th J-part dot of the relative
    frame's graded products (n from 0) wherever hit(n) holds; every other
    product over B is left as it is.  Returns the list of those dots."""
    B = frame.ext.B
    j = next(x for x in frame.ext.j_elements() if not x.is_zero())
    calls = []

    def dot(xs, ys):
        out = type(B).dot(B, xs, ys)
        if sys._getframe(1).f_code is not GradedMatrix.__mul__.__code__:
            return out
        calls.append(out)
        return out + j if hit(len(calls) - 1) else out

    monkeypatch.setattr(B, "dot", dot)
    return calls


def test_decompose_checks_fire_on_a_faulty_j_part_dot(monkeypatch):
    frame = _DECOMPOSE_FRAMES["relative"]
    g = rand_group_element(frame, K3MU, random.Random(0))
    clean = _fault_j_dots(monkeypatch, frame, lambda n: False)
    decompose(g)
    last = len(clean) - 1
    # every J-part dot off: the block-row clearing leaves a J-part behind
    _fault_j_dots(monkeypatch, frame, lambda n: True)
    with pytest.raises(VerificationError, match=r"decomposition left a positive entry at \(\d, \d\)"):
        decompose(g)
    # only the last one off, which is in q * u: q is clean, q * u is not g
    _fault_j_dots(monkeypatch, frame, lambda n: n == last)
    with pytest.raises(VerificationError, match="decomposition failed to recompose g = "):
        decompose(g)


def _count_products(monkeypatch):
    calls = [0]
    mul = GradedMatrix.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(GradedMatrix, "__mul__", counting)
    return calls


def test_decompose_takes_at_most_five_products(monkeypatch):
    # two block-row steps of two products each, then q u == g
    elements = list(orth_group_elements(ZF3, K3MU))
    calls = _count_products(monkeypatch)
    worst = 0
    for g in elements:
        calls[0] = 0
        decompose(g)
        worst = max(worst, calls[0])
    assert len(elements) == 648 and worst <= 5


@pytest.mark.parametrize("mu, products", [((1, -1), 7), (K3MU, 15)])
def test_normalize_gram_product_count(monkeypatch, mu, products):
    # each Gram is two products and each column update one: per hyperbolic
    # pair a Gram, an update and the convergence Gram; at rank 4 the
    # Gram-Schmidt Gram and update, and the middle block's Gram, Newton
    # update and Gram; then the final check, A^t B A == J
    rel = RelativeFrame(dual_number_extension(3), 2)
    rng = random.Random(42)
    grams = [rand_gram_perturbation(rel, mu, rng) for _ in range(25)]
    calls = _count_products(monkeypatch)
    counts = []
    for B in grams:
        calls[0] = 0
        normalize_gram(B)
        counts.append(calls[0])
    assert max(counts) <= products


def _form_value(B, x, y):
    """B(x, y) = x^t B y for a Gram form B (rows of weight -mu, columns of
    weight mu) and columns x, y (lists of graded entries), one pair at a time."""
    mu = B.mu_col
    X, Y = (GradedMatrix(B.frame, mu, (v[0].degree + mu[0],), [[e] for e in v])
            for v in (x, y))
    return (X.transpose() * B * Y).entries[0][0]


def _per_pair_gram(B, C):
    """`form_transform(B, C)`, entry by entry through `_form_value`."""
    cols = [[row[j] for row in C.entries] for j in range(len(C.mu_col))]
    return GradedMatrix(B.frame, [-w for w in C.mu_col], C.mu_col,
                        [[_form_value(B, x, y) for y in cols] for x in cols])


def test_form_transform_on_columns_is_the_per_pair_form_value():
    rel = RelativeFrame(dual_number_extension(3), 2)
    rng = random.Random(9)
    for mu in [(1, -1), K3MU]:
        for _ in range(10):
            B = rand_gram_perturbation(rel, mu, rng)
            A = rand_group_element(rel, mu, rng)
            for js in itertools.chain.from_iterable(
                    itertools.combinations(range(len(mu)), r) for r in (1, 2, len(mu))):
                C = GradedMatrix(rel, mu, [mu[j] for j in js],
                                 [[row[j] for j in js] for row in A.entries])
                assert form_transform(B, C) == _per_pair_gram(B, C)


@pytest.mark.parametrize("mu", [(1, -1), K3MU])
def test_normalize_gram_matches_the_per_pair_route(monkeypatch, mu):
    rel = RelativeFrame(dual_number_extension(3), 2)
    rng = random.Random(11)
    grams = [rand_gram_perturbation(rel, mu, rng) for _ in range(25)]
    found = [normalize_gram(B) for B in grams]
    monkeypatch.setattr(orthogonal, "form_transform", _per_pair_gram)
    assert [normalize_gram(B) for B in grams] == found


@pytest.mark.parametrize("mu, digest", [
    ((1, -1), "dbb28a228537f1abc0939f45e6119433774de5f7431c943e954a52df5990d6a5"),
    (K3MU, "4bfefc3d11c2e398bf9120aa417b931bef71851c1dbe32becd54954baf1d41cc"),
])
def test_normalize_gram_basis_changes_keep_their_digest(mu, digest):
    # the payload coordinates of the basis changes for 20 seeded grams,
    # recorded from the per-pair route that evaluated each B(x, y) alone
    rel = RelativeFrame(dual_number_extension(3), 2)
    rng = random.Random(5)
    h = hashlib.sha256()
    for _ in range(20):
        A = normalize_gram(rand_gram_perturbation(rel, mu, rng))
        h.update(json.dumps(serialize.graded_to_dict(A)).encode())
    assert h.hexdigest() == digest


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


EXP_FRAMES = [ZF3, WF3, RelativeFrame(dual_number_extension(3), 2),
              WittFrame(dual_numbers(5), 2)]


@pytest.mark.parametrize("mu", [(1, 0, -1), K3MU, (1, 0, 0, 0, -1)],
                         ids=["rank3", "rank4", "rank5"])
@pytest.mark.parametrize("frame", EXP_FRAMES, ids=lambda f: f.kind + "/" + repr(f.s0))
def test_exp_plus_minus_lie_in_o_and_fill_transposed_places(frame, mu):
    # both exponentials preserve the split form at every rank; the positive
    # one fills column 0 and the last row, the negative one their transposes
    rng = random.Random(11)
    p_all, s_all = list(frame.p_elements()), list(frame.s0.elements())
    G0 = standard_gram(frame, mu)
    n = len(mu)
    filled = {"+": set(), "-": set()}
    for _ in range(6):
        up = exp_plus_orth(frame, mu, [rng.choice(p_all) for _ in range(n - 2)])
        um = exp_minus_orth(frame, mu, [rng.choice(s_all) for _ in range(n - 2)])
        for op, A in (("+", up), ("-", um)):
            assert form_transform(G0, A) == G0
            filled[op] |= {(r, c) for r in range(n) for c in range(n)
                           if r != c and not A.entries[r][c].is_zero()}
    assert filled["+"] == {(r, c) for c, r in filled["-"]}
    assert filled["+"] == {(r, c) for r in range(n) for c in range(n)
                           if r > c and (c == 0 or r == n - 1)}


def test_factorization_uniqueness_is_checked_by_value(monkeypatch):
    # every element hashes alike; distinct elements still pass the
    # uniqueness check, which compares payload coordinates
    expected = list(orth_group_elements(ZF3, K3MU))
    monkeypatch.setattr(GradedMatrix, "__hash__", lambda self: 0)
    found = [g for _, g in orth_group_factors(ZF3, K3MU)]
    assert len(found) == 648 and found == expected


def test_orth_group_factors_build_each_upper_unipotent_once(monkeypatch):
    # |P|^2 = 9 upper unipotents over F_3, one per xp, against one per
    # element; the sequence of (params, payload coordinates) keeps its digest
    calls = []
    real = orthogonal.exp_plus_orth

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(orthogonal, "exp_plus_orth", counted)
    digest = hashlib.sha256()
    count = 0
    for (a, H, xm, xp), g in orth_group_factors(ZF3, K3MU):
        digest.update(json.dumps([
            a.coeffs, [[h.coeffs for h in row] for row in H],
            [x.coeffs for x in xm], [x.coeffs for x in xp],
            [e.payload.coeffs for row in g.entries for e in row]]).encode())
        count += 1
    assert count == 648
    assert len(calls) == 9
    assert digest.hexdigest() == (
        "020c0fcd6e8dfb8ef8cc1e758a1f733685535a9caf266749b3df21674fa76c6c")


def test_factorization_uniqueness_check_fires_on_a_faulty_unipotent(monkeypatch):
    # an upper unipotent that ignores its payloads repeats every element
    # of one Levi and lower-unipotent choice, which the check must catch
    real = orthogonal.exp_plus_orth
    zero = ZF3.p_zero()
    monkeypatch.setattr(orthogonal, "exp_plus_orth",
                        lambda frame, mu, xs: real(frame, mu, [zero] * len(xs)))
    with pytest.raises(VerificationError, match="factorization is not unique: g = "):
        list(orth_group_factors(ZF3, K3MU))


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
