"""Exact-arithmetic toolkit for degree-3 piecewise-linear maps on the
tropical projective line: classification, moduli, Hurwitz fibers,
compactification, and a ReLU-network bridge."""

from .plcore import (TropicalMap, TropicalPolynomial, RamificationProfile,
                     evaluate, validate, ramification, is_admissible,
                     apply_target_automorphism,
                     apply_source_automorphism, maps_equal,
                     tropical_polynomial_evaluate, tropicalize_rational)
from .types_enum import (SlopeSequence, CombinatorialType,
                         enumerate_types, canonical_type, registry_d3,
                         registry_sequence)
from .moduli import (ModuliPoint, AutGroup, StratumDescriptor,
                     WeightedTropicalCurve, InvalidDegeneration,
                     moduli_point, representative_map, automorphisms,
                     stratum, degenerate, weighted_curve, curve_automorphisms)
from .hurwitz import (QuotientedModuliPoint, BranchConfiguration,
                      HurwitzFiberElement, NonGenericConfiguration,
                      quotient_source, branch_configuration, fiber,
                      hurwitz_number)
from .compact import (CompactifiedPoint, BoundaryStratum, classify_stratum,
                      face_lattice)
from .relu import (ReLUNetwork, NetworkConversion, SymmetryReport,
                   network_to_map, map_to_network, symmetry_report)

__version__ = "0.1.0"
