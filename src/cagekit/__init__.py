"""Exact-arithmetic toolkit for cages of hyperplanes in projective space.

Construct and validate cages, certify which degree-d forms pass through
their distinguished node sets, inscribe complete intersections with a
prescribed tangent at one node, and read off the tangents forced everywhere
else.  All computation is exact, over the rationals or simple extensions.
"""

from .cage import (Cage, Node, NodeSelection, ValidationFailure,
                   ValidationReport, all_indices, axis_cage, canonical_point,
                   norm, random_cage, simplicial_indices,
                   supra_simplicial_indices)
from .demos import DEMO_NAMES, DemoSpec, build_demo, run_demo
from .errors import (CageKitError, CageValidationError, FieldMismatchError,
                     InvalidPointError, MustValidateError, NotInvertibleError,
                     ReducibleModulusError, SchemaError, ShapeError,
                     SingularNodeError)
from .field import FieldDescriptor, FieldElement
from .inscribe import (LambdaMatrix, TangentSubspace, chart_of,
                       inscribe_with_tangent, make_tangent,
                       node_differentials, propagate_tangents,
                       tangent_at_node, transport_tangent)
from .linalg import (Matrix, SubspaceBasis, in_span, invert, kernel_basis,
                     rank, solve, span_equal)
from .poly import (HomogPoly, LinearForm, monomial_basis,
                   product_of_linear_forms)
from .verify import (CheckResult, EvalMatrix, VerificationReport,
                     cayley_bacharach_check, cayley_bacharach_pair,
                     complete_intersection_span_check, evaluation_matrix,
                     fubini_slice_check, group_span, hilbert_function,
                     hilbert_table, independence_counterexample, run_suite,
                     smoothness_check, transversal_points,
                     verify_degree_minimality, verify_simplicial_rigidity,
                     verify_supra_interpolation)
from .viete import (Configuration, coefficient_cage, elementary_symmetric,
                    node_matches_roots, root_hyperplane, viete_image)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
