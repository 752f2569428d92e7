"""JSON descriptor roundtrips for rings, frames, displays, and F-zips."""

import pytest

from framecalc import serialize
from framecalc.rings import (dual_number_extension, extension_field,
                             prime_field, truncated_poly_ring)
from framecalc.frames import (RelativeFrame, TautologicalFrame, WittFrame,
                              ZipFrame)
from framecalc.displays import Display, GradedMatrix, to_fzip
from framecalc.orthogonal import OrthDisplay, standard_gram, standard_J
from framecalc.fixtures import k3_fixture
from framecalc.serialize import SchemaError


def test_monomial_string_roundtrip():
    variables = ("x", "y")
    for expo in [(0, 0), (1, 0), (2, 3), (0, 1)]:
        s = serialize.mono_to_str(variables, expo)
        assert serialize.mono_from_str(variables, s) == expo
    assert serialize.mono_to_str(variables, (0, 0)) == "1"
    assert serialize.mono_from_str(variables, "x*y^3") == (1, 3)
    with pytest.raises(SchemaError):
        serialize.mono_from_str(variables, "z")


@pytest.mark.parametrize("ring", [prime_field(3), extension_field(3, 2),
                                  truncated_poly_ring(3, "x", 2)])
def test_ring_descriptor_roundtrip(ring):
    desc = serialize.ring_to_dict(ring)
    assert serialize.ring_from_dict(desc) == ring


def test_ring_descriptor_errors():
    with pytest.raises(SchemaError):
        serialize.ring_from_dict({"p": 4})
    with pytest.raises(SchemaError):
        serialize.ring_from_dict({"vars": ["x"]})
    with pytest.raises(SchemaError):
        serialize.ring_from_dict([1, 2])


def test_element_roundtrip_exhaustive():
    ring = truncated_poly_ring(3, "x", 2)
    for a in ring.elements():
        assert serialize.elem_from_dict(ring, serialize.elem_to_dict(a)) == a


def test_ext_descriptor_roundtrip():
    ext = dual_number_extension(3)
    desc = serialize.ext_to_dict(ext)
    back = serialize.ext_from_dict(desc)
    assert back.B == ext.B
    assert back.A == ext.A
    assert back.J_basis == ext.J_basis


@pytest.mark.parametrize("frame", [
    WittFrame(prime_field(3), 2),
    ZipFrame(extension_field(3, 2)),
    RelativeFrame(dual_number_extension(3), 2),
    TautologicalFrame(prime_field(3)),
], ids=["witt", "zip", "relative", "tautological"])
def test_frame_descriptor_roundtrip(frame):
    desc = serialize.frame_to_dict(frame)
    back = serialize.frame_from_dict(desc)
    assert back == frame
    assert hash(back) == hash(frame)


def test_display_roundtrip_zip_and_witt():
    F3 = prime_field(3)
    zf = ZipFrame(F3)
    d = Display(zf, (1, 0), [[F3.zero(), F3.one()], [F3.one(), F3.el(2)]])
    back = serialize.display_from_dict(serialize.display_to_dict(d))
    assert back == d
    _, dk3 = k3_fixture()
    back = serialize.display_from_dict(serialize.display_to_dict(dk3))
    assert isinstance(back, OrthDisplay)
    assert back == dk3


def test_display_descriptor_rejects_singular():
    F3 = prime_field(3)
    zf = ZipFrame(F3)
    desc = {
        "frame": serialize.frame_to_dict(zf),
        "mu": [1, 0],
        "phi": [[{}, {}], [{}, {}]],
    }
    with pytest.raises(SchemaError):
        serialize.display_from_dict(desc)


def test_fzip_roundtrip():
    F3 = prime_field(3)
    zf = ZipFrame(F3)
    d = Display(zf, (1, 0), [[F3.zero(), F3.one()], [F3.one(), F3.el(2)]])
    z = to_fzip(d)
    back = serialize.fzip_from_dict(serialize.fzip_to_dict(z))
    assert back.n == z.n
    assert back.weights == z.weights
    assert back.C == z.C
    assert back.D == z.D
    assert back.alpha == z.alpha


def test_graded_matrix_roundtrip():
    rel = RelativeFrame(dual_number_extension(3), 2)
    from framecalc.fixtures import rand_group_element
    import random
    g = rand_group_element(rel, (1, 0), random.Random(9))
    desc = serialize.graded_to_dict(g)
    assert "mu_row" not in desc  # a square matrix of the display group
    back = serialize.graded_from_dict(rel, desc)
    assert back == g


@pytest.mark.parametrize("frame", [
    ZipFrame(prime_field(3)), RelativeFrame(dual_number_extension(3), 2),
], ids=["zip", "relative"])
def test_gram_matrix_roundtrip(frame):
    # rows of weight -mu: entry (i, j) has degree mu[i] + mu[j]
    import random
    from framecalc.fixtures import rand_gram_perturbation
    mu = (1, 0, 0, -1)
    B = (rand_gram_perturbation(frame, mu, random.Random(5))
         if frame.kind == "relative" else standard_gram(frame, mu))
    desc = serialize.graded_to_dict(B)
    assert desc["mu_row"] == [-1, 0, 0, 1]
    back = serialize.graded_from_dict(frame, desc)
    assert back == B and back.mu_row == B.mu_row


def test_tautological_graded_matrix_roundtrip():
    # P = 0 is the zero of S0: the identity's positive-degree entries read
    # and write as that zero
    frame = TautologicalFrame(prime_field(3))
    mu = (1, 0, 0, -1)
    grid = [[1 if i == j else {} for j in range(4)] for i in range(4)]
    identity = GradedMatrix.identity(frame, mu)
    assert serialize.graded_from_dict(frame, {"mu": list(mu), "grid": grid}) == identity
    assert serialize.graded_from_dict(frame, serialize.graded_to_dict(identity)) == identity


def test_dumps_is_deterministic():
    _, d = k3_fixture()
    a = serialize.dumps(serialize.display_to_dict(d))
    b = serialize.dumps(serialize.display_to_dict(d))
    assert a == b
    assert a.endswith("\n")
