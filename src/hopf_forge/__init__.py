"""hopf-forge: exact verification of finite-dimensional Hopf algebras
presented by structure constants over cyclotomic fields Q(zeta_N).

Everything is computed in exact arithmetic (rationals and canonical
power-basis cyclotomic numbers); no floats, no numerical tolerance.

The package binds the README's library tour, the calls the acceptance
tests make, every error class, the result and value types, the library
call behind each CLI command, and ``rref``.  Every other function is
public in its own module (``from hopf_forge.linalg import null_space``).
"""

from .cyclofield import CycNumber, cyc
from .errors import (AxiomFailure, BadParameters, BoundExceeded,
                     DegeneratePairing, DivisionByZero, EigenvalueNotInField,
                     FieldTooSmall, HopfForgeError, IndexEven, IndexOne,
                     InputError, IntegralSpaceNotOneDim, MalformedFile,
                     MalformedTensor, NoAntipode, NonSplitting, NotAGroup,
                     NotInvariant, NotInvertible, OffPatternBlock,
                     OrderMismatch, PreconditionFailed)
from .hopf import (AxiomChecklist, HopfPresentation, check_axioms, dual,
                   find_grouplikes, lift_order)
from .integrals import (IntegralPair, distinguished_grouplike, integral_pair,
                        radford_trace, verify_s4_formula)
from .invariants import (CHECK_TAGS, AlternatingFormReport, CoradicalTraces,
                         EigenTable, IndexData, InvariantReport,
                         Lemma24Result, NormalForm, TraceCongruence,
                         alternating_form_check, build_report, compute_index,
                         coradical, coradical_is_subcoalgebra,
                         coradical_traces, eigen_decomposition, h_plus_minus,
                         lemma24_check, normal_form, omega_for_index,
                         projection_traces, trace_s2p_report)
from .linalg import Mat, restrict_operator, rref
from .zoo import (build_cyclic_group_algebra, build_group_algebra,
                  build_taft, build_tensor, cyclic_table,
                  direct_product_table, sweedler)

__version__ = "1.0.0"
