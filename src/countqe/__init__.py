"""countqe: counting-quantifier elimination for linear integer arithmetic.

The library turns formulas of the form "the number of values of x satisfying
a semilinear membership condition equals y" into ordinary quantifier logic
over the remaining variables, and ships a bounded brute-force counting
oracle to verify every elimination.
"""

from .elim import (
    BoundClassification,
    ComponentPlan,
    ComponentReport,
    EliminationPlan,
    EliminationReport,
    EliminationResult,
    PermutationBranch,
    ResidueCase,
    build_permutation_branches,
    classify_bounds,
    eliminate,
    estimate_result_nodes,
    is_subtraction_free,
    normalize_for_nat,
    plan_component,
    plan_elimination,
    progression_count_formula,
    progression_count_formula_nat,
    residue_case_feasible,
)
from .errors import (
    ContractError,
    ConventionError,
    CountQEError,
    DegenerateInputError,
    DimensionError,
    ParameterError,
    SingularMatrixError,
    UnboundVariableError,
    UnsupportedPresentationError,
)
from .formula import (
    And,
    Cong,
    CountEq,
    CountResult,
    Eq,
    Exists,
    Forall,
    Formula,
    FreshNames,
    Le,
    Lt,
    Not,
    Or,
    Term,
    TRUE,
    FALSE,
    conj,
    constant,
    count_witnesses,
    disj,
    evaluate,
    free_vars,
    implies,
    node_count,
    simplify,
    variable,
)
from .linalg import (
    CramerSolution,
    IntMatrix,
    cramer_solve,
    determinant,
    find_full_rank_submatrix,
    positive_lcm,
    rank_over_rationals,
)
from .sets import (
    DomainTag,
    IntBox,
    LinearSetPresentation,
    SemilinearPresentation,
    check_disjoint_in_box,
    check_simple,
    membership,
)
from .textio import (
    ParseError,
    SourceSpan,
    parse_formula,
    parse_presentation,
    print_formula,
)
from .verify import (
    CheckOutcome,
    PinnedEvaluationError,
    TrialRecord,
    WitnessCount,
    count_set_witnesses,
    evaluate_pinned,
    run_check,
)

__version__ = "0.1.0"
