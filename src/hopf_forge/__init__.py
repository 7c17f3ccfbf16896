"""hopf-forge: exact verification of finite-dimensional Hopf algebras
presented by structure constants over cyclotomic fields Q(zeta_N).

Everything is computed in exact arithmetic (rationals and canonical
power-basis cyclotomic numbers); no floats, no numerical tolerance.
"""

from .cyclofield import (CycNumber, cyc, cyclotomic_poly, galois_conjugate,
                         lift_scalar, root_of_unity, scalar_from_json,
                         scalar_to_json)
from .errors import (AxiomFailure, BadParameters, BoundExceeded,
                     DegeneratePairing, DivisionByZero, EigenvalueNotInField,
                     FieldTooSmall, HopfForgeError, IndexEven, IndexOne,
                     InputError, IntegralSpaceNotOneDim, MalformedFile,
                     MalformedTensor, NoAntipode, NonSplitting, NotAGroup,
                     NotInvariant, NotInvertible, OffPatternBlock,
                     OrderMismatch, PreconditionFailed)
from .hopf import (AxiomChecklist, HopfPresentation, certified,
                   check_axioms, compute_antipode, dual, find_grouplikes,
                   is_grouplike, lift_order)
from .integrals import (IntegralPair, character_inverse,
                        distinguished_character, distinguished_grouplike,
                        dual_right_integral, integral_coproduct,
                        integral_pair, integral_subspace, is_cosemisimple,
                        is_semisimple, is_unimodular, left_integral,
                        radford_trace, trace_form, verify_s4_formula)
from .invariants import (CHECK_TAGS, AlternatingFormReport, CoradicalTraces,
                         EigenTable, IndexData, InvariantReport,
                         Lemma24Result, NormalForm, TraceCongruence,
                         alternating_form_check, build_report,
                         check_dim_symmetry, compute_index, coradical,
                         coradical_is_subcoalgebra, coradical_traces,
                         eigen_decomposition, h_plus_minus, lemma24_check,
                         normal_form, omega_for_index, projection_traces,
                         trace_s2p_report, x_exponent)
from .linalg import (Mat, Subspace, charpoly, eigenspace, inverse,
                     null_space, restrict_operator, roots_in_field, rref)
from .zoo import (build_cyclic_group_algebra, build_group_algebra,
                  build_taft, build_tensor, cyclic_table,
                  direct_product_table, sweedler)

__version__ = "1.0.0"
