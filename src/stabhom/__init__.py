"""stabhom: logical-operator image sets, descendant inequalities, bound audits."""

from .config import LIMITS, TOL
from .pauli import PauliString, multiply, to_matrix
from .states import (
    DensityOperator,
    StateVector,
    expectation,
    ghz_state,
    make_cq_state,
    make_pair_superposition,
    max_eigenvalue,
)
from .codespace import LogicalEncoding, image_set, lift_state, verify_homomorphism
from .dsl import Inequality, InequalityAST, Setting, assign_paulis, parse, pretty_print
from .bounds import (
    BoundReport,
    discord_condition_check,
    hybrid_bound,
    lhv_bound,
    lhv_bound_nonlinear,
    quantum_max,
    quantum_value,
    separable_bound,
)
from .descend import (
    DescendantResult,
    PlanEntry,
    SubstitutionPlan,
    enumerate_descendants,
    lift_coherence_witness,
    substitute,
)

__version__ = "0.1.0"
