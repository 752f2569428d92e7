"""Exact arithmetic for truncated Witt vectors, higher frames, displays,
display groups, and their deformation theory over finite local rings."""

from .rings import (ArtinRing, Field, SquareZeroExtension, dual_numbers,
                    dual_number_extension, extension_field, prime_field,
                    truncated_poly_ring)
from .witt import (WittRing, WittVector, divided_frobenius, teichmuller,
                   verschiebung, verschiebung_trunc, witt_frobenius)
from .frames import (RelativeFrame, TautologicalFrame, Thickening, WittFrame,
                     ZipFrame, check_frame_map, check_zip_projection,
                     frame_axiom_check)
from .displays import (Display, FZip, GradedElem, GradedMatrix,
                       classify_fzips, classify_orbits, dual, from_fzip,
                       group_elements, in_display_group,
                       is_isomorphic_bruteforce, tensor, to_fzip, twist)
from .orthogonal import (OrthDisplay, decompose, normalize_gram,
                         orth_group_elements, standard_gram, verify_orth)
from .deformation import (base_change, classify_witt_fiber,
                          enumerate_hodge_deformations, hodge_lift_parameters,
                          k3_deform, lift_orth_display,
                          lift_uniqueness_witness, solve_descent, theta)

__version__ = "0.1.0"
