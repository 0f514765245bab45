"""Exact quantum cohomology of the Grassmannian G(k, n) at q = 1.

Integer Schubert calculus in the l x k box, the diagram involution and
its ring identities, and the numerical spectrum of the complexified
ring on which the involution acts by complex conjugation.
"""

from .partitions import (GrassmannContext, bar_involution, c_shift, degree,
                         durfee, enumerate_box_partitions, format_partition,
                         format_subset, from_subset, parse_partition,
                         parse_subset, poincare_dual, to_subset, trim)
from .classical import (CohomClass, basis_class, class_from_parts,
                        classical_pieri, column_class, cup_product,
                        lr_coefficient, pairing, point_class, row_class,
                        unit_class, zero_class)
from .quantum import (DEFAULT_SEED, GWRecord, StructureTable, build_table,
                      c_apply, giambelli_expand, gw_invariant, gw_record,
                      quantum_pieri_invariant, quantum_pieri_product,
                      quantum_product)
# compiled before numpy loads, so the compile stays off the peak memory
from .spectrum import (DegenerateSpectrum, SpectralData, SpectralPoint,
                       evaluate, joint_eigenbasis, mult_matrix,
                       verify_certificate, verify_conjugation,
                       verify_positivity, verify_vanishing)
from .involution import (bar, verify_dual_product_identity,
                         verify_duality_identities,
                         verify_involution_factorization,
                         verify_product_automorphism)

__version__ = "0.1.0"
