"""Shipped fixtures and seeded random generators used by the CLI and tests.

The two deformation fixtures are frozen: a rank-2 display with antidiagonal
structure matrix over W_2(F_3), whose fiber over the dual-number extension
splits into 3 classes, and a rank-4 orthogonal display (a product of split
reflections) whose fiber splits into 9.  Both matrices must stay bit-for-bit
stable because the classification counts in the acceptance suite depend on
their nilpotence type.
"""

from __future__ import annotations

from .rings import dual_number_extension, extension_field, prime_field, truncated_poly_ring
from .frames import (RelativeFrame, TautologicalFrame, Thickening, WittFrame,
                     ZipFrame)
from .displays import Display, GradedElem, GradedMatrix, in_display_group
from .orthogonal import OrthDisplay, standard_gram


def _deformation_fixture(cls, mu, grid):
    """(thickening, base display) over W_2(F_3) for the dual-number
    extension, its structure matrix given by the (a0, a1) components."""
    ext = dual_number_extension(3)
    th = Thickening(ext, 2)
    s0, R = th.target.s0, ext.A
    phi = [[s0.el([R.el(a0), R.el(a1)]) for a0, a1 in row] for row in grid]
    return th, cls(th.target, mu, phi)


def gl2_fixture():
    """(thickening, base display): rank 2, weights (1,0), over W_2(F_3)."""
    return _deformation_fixture(Display, (1, 0), [[(0, 0), (1, 0)],
                                                  [(1, 0), (0, 0)]])


def k3_fixture():
    """(thickening, base orthogonal display): rank 4, weights (1,0,0,-1)."""
    return _deformation_fixture(OrthDisplay, (1, 0, 0, -1),
                                [[(2, 1), (1, 0), (0, 2), (0, 2)],
                                 [(1, 1), (2, 1), (2, 1), (2, 0)],
                                 [(2, 2), (0, 2), (0, 2), (0, 0)],
                                 [(2, 0), (0, 2), (1, 1), (0, 2)]])


def fixture_frames():
    """The frames exercised by `frame check` when no spec file is given."""
    F3 = prime_field(3)
    return [
        WittFrame(F3, 2),
        ZipFrame(F3),
        ZipFrame(extension_field(3, 2)),
        ZipFrame(truncated_poly_ring(3, "x", 2)),
        RelativeFrame(dual_number_extension(3), 2),
        TautologicalFrame(F3),
    ]


# ---------------------------------------------------------------------------
# Seeded random elements
# ---------------------------------------------------------------------------

def rand_ring_elem(ring, rng):
    fld = ring.field
    return ring.el({m: [rng.randrange(fld.p) for _ in range(fld.f)]
                    for m in ring.basis})


def rand_kernel_elem(ext, rng):
    """Random element of the square-zero ideal J of B."""
    fld = ext.B.field
    return ext.B.el({m: [rng.randrange(fld.p) for _ in range(fld.f)]
                     for m in ext.J_basis})


def rand_s0_elem(frame, rng):
    s0 = frame.s0
    if hasattr(s0, "m"):  # a Witt ring
        return s0.el([rand_ring_elem(s0.ring, rng) for _ in range(s0.m)])
    return rand_ring_elem(s0, rng)


def rand_payload(frame, degree, rng):
    if degree <= 0:
        return rand_s0_elem(frame, rng)
    if frame.kind == "relative":
        return (rand_s0_elem(frame, rng), rand_kernel_elem(frame.ext, rng))
    if frame.kind == "witt":
        # P = W_m(R) stands for I via v, so any Witt vector is a payload;
        # this draw keeps component 0 zero (the seeded inputs rest on it)
        comps = [frame.s0.ring.zero()]
        comps += [rand_ring_elem(frame.s0.ring, rng) for _ in range(frame.m - 1)]
        return frame.s0.el(comps)
    if not frame.has_p_module:
        return frame.p_zero()
    return rand_s0_elem(frame, rng)


def rand_group_element(frame, mu, rng):
    """A random element of the display group G(mu), by rejection (at most
    200 draws)."""
    n = len(mu)
    for _ in range(200):
        grid = [[rand_payload(frame, mu[j] - mu[i], rng) for j in range(n)]
                for i in range(n)]
        A = GradedMatrix.from_payloads(frame, mu, grid)
        if in_display_group(A):
            return A
    raise RuntimeError("no invertible element found; weights degenerate?")


def rand_gram_perturbation(frame, mu, rng):
    """The standard split gram matrix plus a random symmetric kernel error.

    Only meaningful over a relative frame, where kernel entries square to
    zero so the perturbed form is still a unimodular split candidate.
    """
    B = standard_gram(frame, mu)
    n = len(mu)
    for i in range(n):
        for j in range(i, n):
            d = B.entries[i][j].degree
            if d >= 1:
                a = frame.s0.el([rand_kernel_elem(frame.ext, rng)
                                 for _ in range(frame.m)])
                pert = GradedElem(frame, d, (a, rand_kernel_elem(frame.ext, rng)))
            else:
                comps = [rand_kernel_elem(frame.ext, rng) for _ in range(frame.m)]
                pert = GradedElem(frame, d, frame.s0.el(comps))
            B.entries[i][j] = B.entries[i][j] + pert
            if j != i:
                B.entries[j][i] = B.entries[j][i] + pert
    return B
