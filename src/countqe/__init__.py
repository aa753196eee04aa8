"""countqe: counting-quantifier elimination for linear integer arithmetic.

The library turns formulas of the form "the number of values of x satisfying
a semilinear membership condition equals y" into ordinary quantifier logic
over the remaining variables, and ships an exact counting oracle, which
counts the witnesses on each line in closed form, to verify every
elimination.
"""

from .elim import (
    BoundClassification,
    ComponentPlan,
    ComponentReport,
    EliminationPlan,
    EliminationReport,
    EliminationResult,
    classify_bounds,
    eliminate,
    estimate_result_nodes,
    is_subtraction_free,
    normalize_for_nat,
    plan_component,
    plan_elimination,
    progression_count_formula,
)
from .errors import (
    ContractError,
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
    run_check,
)

__version__ = "0.1.0"
