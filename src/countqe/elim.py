"""Elimination of the counting quantifier over semilinear presentations.

Given a disjoint union of simple linear sets and a designated counted
coordinate (always the last), this module constructs an ordinary
quantifier-logic formula over the remaining coordinates plus one count
variable that holds exactly when the count variable equals the number of
values the counted coordinate can take inside the set.

The construction works per component.  When some full-rank row subsystem of
the period matrix avoids the counted row, the counted coordinate is a
function of the others and the witness count is 0 or 1.  Otherwise the
component reduces to a square core: Cramer data expresses the period
coefficients as integer linear forms over the coordinates divided by the
determinant's absolute value D, integrality becomes a finite split over
residue classes modulo D (only D^(p-1) of the D^p classes are feasible, and
:func:`feasible_residue_cases` solves for them, one congruence per row
merged by the Chinese remainder theorem, instead of testing every class),
nonnegativity becomes interval bounds on the counted
coordinate, and the number of lattice points of a residue class inside an
interval is definable once the interval endpoints are case-split by their
own residues.  Components combine by summing per-component count variables.

Over the naturals the same integer body is built, and :func:`normalize_for_nat`
makes every atom subtraction-free.  No clamp at 0 is needed: each counted
value is a point of the component, whose base and periods are nonnegative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd, lcm
from typing import Callable, Optional, Sequence

from . import formula as fm
from .errors import (
    ContractError,
    ConventionError,
    ParameterError,
    UnsupportedPresentationError,
)
from .formula import (
    Cong,
    Eq,
    Exists,
    Formula,
    FreshNames,
    Le,
    Lt,
    Term,
    conj,
    constant,
    disj,
    negate,
    variable,
)
from .linalg import (
    CramerSolution,
    IntMatrix,
    cramer_solve,
    find_full_rank_submatrix,
    greedy_row_basis,
    positive_lcm,
    solve_unique,
)
from .sets import (
    DomainTag,
    LinearSetPresentation,
    SemilinearPresentation,
    check_simple,
    coordinate_names,
    membership_formula,
)
from .textio import is_identifier


# --- counting points of a residue class in an interval ----------------------


def count_in_progression(lo: int, hi: int, residue: int, modulus: int) -> int:
    """Number of integers t in [lo, hi] with t = residue (mod modulus)."""
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    if hi < lo:
        return 0
    r = residue % modulus
    return (hi - r) // modulus - (lo - 1 - r) // modulus


def _progression_case_constants(step: int, target: int):
    """Endpoint-residue corrections for the closed-form progression count.

    For lo = i (mod step) and hi = j (mod step) the count of
    t = target (mod step) in a nonempty [lo, hi] satisfies
    ``step * count = hi - lo + c(i, j)``; this yields c for each (i, j).
    """
    for i in range(step):
        start_floor = 0 if i > target else -1  # floor((i - 1 - target) / step)
        for j in range(step):
            end_floor = 0 if j >= target else -1  # floor((j - target) / step)
            yield i, j, i - j + step * (end_floor - start_floor)


def progression_count_formula(
    coeff: int,
    residue: int,
    modulus: int,
    lo: Term,
    hi: Term,
    count_var: str,
) -> Formula:
    """Formula binding ``count_var`` to a scaled progression count.

    True at an assignment exactly when the count variable equals the number
    of integers x with ``lo <= coeff*x <= hi`` and ``x = residue (mod
    modulus)``.  Scaling by ``coeff`` turns the condition into counting
    ``t = coeff*residue (mod coeff*modulus)`` inside [lo, hi], and the
    floor-division closed form becomes one linear equation per residue case
    of the endpoints.
    """
    if coeff < 1 or modulus < 1:
        raise ParameterError("coefficient and modulus must be positive")
    if not 0 <= residue < modulus:
        raise ParameterError("residue out of range")
    step = coeff * modulus
    target = (coeff * residue) % step
    u = variable(count_var)
    empty = conj([Lt(hi, lo), Eq(u, constant(0))])
    if step == 1:
        full = conj([Le(lo, hi), Eq(u, hi - lo + 1)])
        return disj([empty, full])
    by_lo_residue = []
    cases: dict[int, list[Formula]] = {}
    for i, j, c in _progression_case_constants(step, target):
        cases.setdefault(i, []).append(
            conj([Cong(hi, j, step), Eq(step * u, hi - lo + c)])
        )
    for i in sorted(cases):
        by_lo_residue.append(conj([Cong(lo, i, step), disj(cases[i])]))
    return disj([empty, conj([Le(lo, hi), disj(by_lo_residue)])])


def progression_count_formula_nat(
    coeff: int,
    residue: int,
    modulus: int,
    low_bound: Term,
    low_shift: Term,
    high_shift: Term,
    high_bound: Term,
    count_var: str,
) -> Formula:
    """Subtraction-free counterpart over the naturals.

    Binds ``count_var`` to the number of x in N with
    ``low_bound <= coeff*x + low_shift``, ``high_shift + coeff*x <=
    high_bound`` and ``x = residue (mod modulus)``.  The four endpoint terms
    must be subtraction-free; every emitted atom is too.  It normalises the
    integer count on [max(0, low_bound - low_shift), high_bound - high_shift].
    The eliminator does not call it; it normalises its whole integer body.
    """
    high = high_bound - high_shift
    from_zero = progression_count_formula(coeff, residue, modulus, Term(0), high, count_var)
    shifted = progression_count_formula(
        coeff, residue, modulus, low_bound - low_shift, high, count_var
    )
    return normalize_for_nat(
        disj(
            [
                conj([Le(low_bound, low_shift), from_zero]),
                conj([Lt(low_shift, low_bound), shifted]),
            ]
        )
    )


# --- classification of the Cramer rows ---------------------------------------


@dataclass(frozen=True)
class BoundClassification:
    """Partition of the Cramer rows by the sign of the counted coefficient.

    Rows whose counted-coordinate coefficient is negative yield upper bounds
    on ``multiplier * counted``, positive coefficients yield lower bounds,
    and zero coefficients contribute plain sign conditions.  ``scale`` maps
    a bounding row to the factor stretching its row form onto the common
    multiplier.  Row indices are 0-based.
    """

    multiplier: int
    row_terms: tuple[Term, ...]
    scale: dict
    upper_rows: tuple[int, ...]
    lower_rows: tuple[int, ...]
    sign_rows: tuple[int, ...]

    def bound_term(self, row: int) -> Term:
        return self.scale[row] * self.row_terms[row]


def classify_bounds(
    solution: CramerSolution, free_names: Sequence[str]
) -> BoundClassification:
    """Classify each solved coefficient row as an upper/lower/sign condition.

    ``free_names`` are the variable names of all but the last (counted)
    coordinate of the core system, in row order.
    """
    p = solution.size
    if len(free_names) != p - 1:
        raise ParameterError("free name list must cover all but the counted column")
    counted_col = [solution.matrix[i][p - 1] for i in range(p)]
    assert any(counted_col), "counted column of an invertible core cannot vanish"
    multiplier = positive_lcm(counted_col)
    row_terms = []
    scale = {}
    upper, lower, sign = [], [], []
    for i in range(p):
        coeffs = {
            free_names[j]: solution.matrix[i][j]
            for j in range(p - 1)
            if solution.matrix[i][j]
        }
        row_terms.append(Term(solution.offset[i], coeffs))
        lam = counted_col[i]
        if lam == 0:
            sign.append(i)
            continue
        eta = -(multiplier // lam)  # exact: multiplier is an lcm of the column
        scale[i] = eta
        if eta > 0:
            upper.append(i)
        else:
            lower.append(i)
    return BoundClassification(
        multiplier=multiplier,
        row_terms=tuple(row_terms),
        scale=scale,
        upper_rows=tuple(upper),
        lower_rows=tuple(lower),
        sign_rows=tuple(sign),
    )


# --- residue cases ------------------------------------------------------------


@dataclass(frozen=True)
class ResidueCase:
    """A residue assignment: one class per free coordinate plus one for the
    counted coordinate, all modulo the core determinant."""

    free_residues: tuple[int, ...]
    counted_residue: int


def build_residue_cases(denom: int, size: int) -> list[ResidueCase]:
    """All residue cases for a core of ``size`` coordinates, lexicographically.

    The eliminator does not build this list: it is the reference that
    :func:`feasible_residue_cases` is tested against (filtered by
    :func:`residue_case_feasible`).
    """
    if denom < 1 or size < 1:
        raise ParameterError("denominator and size must be positive")
    return [
        ResidueCase(free_residues=f, counted_residue=a)
        for f in itertools.product(range(denom), repeat=size - 1)
        for a in range(denom)
    ]


def residue_case_feasible(solution: CramerSolution, case: ResidueCase) -> bool:
    """True when every solved coefficient is integral on this residue class."""
    p = solution.size
    if len(case.free_residues) != p - 1:
        raise ParameterError("residue case does not match system size")
    d = solution.denom
    point = list(case.free_residues) + [case.counted_residue]
    return all(num % d == 0 for num in solution.numerators(point))


def _congruence_coset(coeff: int, rhs: int, modulus: int):
    """The solutions of ``coeff*k = rhs (mod modulus)`` as ``(k0, step)``,
    the coset k0 + step*Z with 0 <= k0 < step; None when there are none."""
    g = gcd(coeff, modulus)
    if rhs % g:
        return None
    step = modulus // g
    return rhs // g * pow(coeff // g, -1, step) % step, step


def feasible_residue_cases(solution: CramerSolution) -> list[ResidueCase]:
    """The residue cases on which every solved coefficient is integral.

    Row i's numerator at free residues f and counted residue a is
    ``N_i(f, 0) + lam_i*a``, with lam the counted column of the Cramer
    matrix, so each row restricts a to a coset modulo ``denom /
    gcd(lam_i, denom)`` or rules f out.  The rows' congruences are merged
    one by one (the generalised Chinese remainder theorem) into one coset
    r + step*Z, and the cases are a = r, r + step, ... below ``denom``.
    Since ``denom*Z^p`` lies in the period lattice, exactly ``denom**(p-1)``
    of the ``denom**p`` cases come out, in the order of
    :func:`build_residue_cases`.
    """
    d = solution.denom
    p = solution.size
    rows = [(row[: p - 1], row[p - 1], g) for row, g in zip(solution.matrix, solution.offset)]
    cases = []
    for f in itertools.product(range(d), repeat=p - 1):
        r, step = 0, 1
        for free_part, lam, offset in rows:
            # a = r + step*k makes row i integral when
            # lam*step*k = -N_i(f, r) (mod d).
            numerator = sum(c * v for c, v in zip(free_part, f)) + offset + lam * r
            shift = _congruence_coset(lam * step, -numerator, d)
            if shift is None:
                break
            r, step = r + step * shift[0], step * shift[1]
        else:
            cases.extend(ResidueCase(free_residues=f, counted_residue=a) for a in range(r, d, step))
    return cases


# --- permutation branches -----------------------------------------------------


@dataclass(frozen=True)
class PermutationBranch:
    """One ordering of the upper and lower bound families.

    The guard pins the order of the bound values (ties broken by row index,
    so the guards of all branches partition every valuation); under it the
    first entries carry the tightest bounds.
    """

    upper_order: tuple[int, ...]
    lower_order: tuple[int, ...]
    guard: Formula
    tightest_upper: Term
    tightest_lower: Term
    count_var: str


def _chain_atom(earlier: Term, later: Term, tie_ok: bool) -> Formula:
    # "earlier < later, ties broken by index" collapses to <= when the index
    # order already agrees.
    return Le(earlier, later) if tie_ok else Lt(earlier, later)


def build_permutation_branches(
    classification: BoundClassification,
    namer: Optional[Callable[[], str]] = None,
) -> list[PermutationBranch]:
    """All orderings of the bound families with tie-broken strict chains.

    Upper bounds are chained increasingly from the tightest, lower bounds
    decreasingly from the tightest.  Requires both families nonempty; the
    empty cases are handled by convention in the eliminator.
    """
    bc = classification
    if not bc.upper_rows or not bc.lower_rows:
        raise ConventionError("bound classification with an empty family")
    if namer is None:
        counter = itertools.count(1)
        namer = lambda: f"u{next(counter)}"
    branches = []
    for sigma in itertools.permutations(sorted(bc.upper_rows)):
        upper_chain = [
            _chain_atom(bc.bound_term(a), bc.bound_term(b), tie_ok=a < b)
            for a, b in zip(sigma, sigma[1:])
        ]
        for tau in itertools.permutations(sorted(bc.lower_rows)):
            lower_chain = [
                _chain_atom(bc.bound_term(b), bc.bound_term(a), tie_ok=b < a)
                for a, b in zip(tau, tau[1:])
            ]
            branches.append(
                PermutationBranch(
                    upper_order=sigma,
                    lower_order=tau,
                    guard=conj(upper_chain + lower_chain),
                    tightest_upper=bc.bound_term(sigma[0]),
                    tightest_lower=bc.bound_term(tau[0]),
                    count_var=namer(),
                )
            )
    return branches


# --- subtraction-free normalisation -------------------------------------------


def _nat_atom(atom: Formula) -> Formula:
    if isinstance(atom, Cong):
        m = atom.modulus
        fixed = Term(atom.term.constant % m, {n: c % m for n, c in atom.term.coeffs.items()})
        return Cong(fixed, atom.residue, m)
    diff = atom.lhs - atom.rhs
    return type(atom)(diff.positive_part(), diff.negative_part())


def normalize_for_nat(f: Formula) -> Formula:
    """Rewrite a quantifier-free formula so every atom is subtraction-free.

    Each comparison moves its negative contributions to the other side, and
    congruence terms take their coefficients modulo the modulus; the result
    is equivalent over the naturals (and over the integers).
    """
    nodes = fm.traverse(f)[0]
    if any(g.binds for g in nodes):
        raise ParameterError("normalisation applies to quantifier-free formulas only")
    done = {}  # id(node) -> its rewrite; descendants come first in reverse
    for g in reversed(nodes):
        if g.terms:
            done[id(g)] = _nat_atom(g)
        else:
            done[id(g)] = g.rebuild([done[id(c)] for c in g.children])
    return done[id(f)]


def is_subtraction_free(f: Formula) -> bool:
    """Structural check: every atom has nonnegative coefficients/constants."""
    return all(
        t.constant >= 0 and all(c >= 0 for c in t.coeffs.values())
        for g in fm.traverse(f)[0]
        for t in g.terms
    )


# --- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentReport:
    """Trace of one component's elimination.  Row and coefficient indices
    are reported 1-based.  A single-witness component has no square core,
    so the core fields keep their defaults."""

    index: int
    case: str  # "single-witness" or "interval-count"
    count_var: str
    nodes: int
    denom: Optional[int] = None
    multiplier: Optional[int] = None
    selected_rows: tuple[int, ...] = ()
    dropped_rows: tuple[int, ...] = ()
    upper_rows: tuple[int, ...] = ()
    lower_rows: tuple[int, ...] = ()
    sign_rows: tuple[int, ...] = ()
    residue_cases: int = 0
    feasible_cases: int = 0
    branches: int = 0


@dataclass(frozen=True)
class EliminationReport:
    count_var: str
    components: tuple[ComponentReport, ...]
    nodes: int


@dataclass(frozen=True)
class EliminationResult:
    formula: Formula
    count_var: str
    report: EliminationReport


# --- the eliminator -------------------------------------------------------------


def _close(prefix: Sequence[str], body: Formula) -> Formula:
    for var in reversed(prefix):
        body = Exists(var, body)
    return body


def _case_single(
    presentation: LinearSetPresentation,
    count_var: str,
    names: Sequence[str],
) -> tuple[list, Formula]:
    """Counted coordinate determined by the others: witness count is 0 or 1."""
    member = membership_formula(presentation, names)
    witness = Exists(names[-1], member)
    y = variable(count_var)
    body = disj(
        [
            conj([witness, Eq(y, constant(1))]),
            conj([negate(witness), Eq(y, constant(0))]),
        ]
    )
    return [], body


def _dropped_row_relation(
    matrix: IntMatrix,
    base: Sequence[int],
    names: Sequence[str],
    selected: Sequence[int],
    dropped: int,
) -> Formula:
    """Exact linear relation forcing a dropped coordinate.

    The dropped row of the period matrix is a rational combination of the
    selected rows, so the dropped coordinate satisfies the same combination
    of the selected coordinates (after shifting by the base); clearing
    denominators gives an integer equation.
    """
    system = [[matrix.row(s)[t] for s in selected] for t in range(matrix.cols)]
    rhs = list(matrix.row(dropped))
    combo = solve_unique(system, rhs)
    assert combo is not None, "dropped row must lie in the selected row span"
    den = lcm(1, *(c.denominator for c in combo))
    weights = [int(c * den) for c in combo]
    lhs = den * variable(names[dropped])
    rhs_const = den * base[dropped] - sum(
        w * base[s] for w, s in zip(weights, selected)
    )
    rhs_term = Term(rhs_const)
    for w, s in zip(weights, selected):
        rhs_term = rhs_term + w * variable(names[s])
    return Eq(lhs, rhs_term)


def _plan_core(presentation: LinearSetPresentation, names: Sequence[str]):
    """The square core of a component, or None when it is single-witness.

    A component is single-witness when it has no periods or some full-rank
    row subsystem avoids the counted (last) row.  Otherwise the core is the
    least row basis of the other rows plus the counted row.  Returns the
    core's free rows and the dropped rows (0-based), its Cramer data and its
    bound classification, with free coordinates named from ``names``.
    """
    matrix = presentation.period_matrix()
    n = presentation.dimension
    if matrix is None or find_full_rank_submatrix(matrix, forbidden_row=n - 1) is not None:
        return None
    free_rows = greedy_row_basis(matrix, n - 1)
    assert len(free_rows) == matrix.cols - 1, "core reduction expects row rank p-1"
    core_rows = free_rows + [n - 1]
    solution = cramer_solve(
        matrix.select_rows(core_rows), [presentation.base[i] for i in core_rows]
    )
    bounds = classify_bounds(solution, [names[i] for i in free_rows])
    dropped = [j for j in range(n - 1) if j not in free_rows]
    return free_rows, dropped, solution, bounds


def _case_interval(
    presentation: LinearSetPresentation,
    count_var: str,
    names: Sequence[str],
    fresh: FreshNames,
    core: tuple,
) -> tuple[list, Formula, dict]:
    """The square-core construction for a component whose every full-rank
    row subsystem uses the counted row."""
    free_rows, dropped, solution, bc = core
    matrix = presentation.period_matrix()
    n, p = matrix.rows, matrix.cols
    nat = presentation.domain is DomainTag.N
    relations = conj(
        [_dropped_row_relation(matrix, presentation.base, names, free_rows, j) for j in dropped]
    )
    denom = solution.denom
    free_names = [names[i] for i in free_rows]
    if nat:
        # Nonnegative periods make an all-nonpositive counted column of the
        # inverse impossible, so lower bounds always exist over the naturals.
        assert bc.lower_rows, "natural-domain core without lower bounds"

    feasible = feasible_residue_cases(solution)
    # Soundness check on the enumerator: denom**(p-1) integrality tests
    # instead of the denom**p a filter over all cases would make.
    assert len(feasible) == denom ** (p - 1), "feasible residue cases miscounted"
    assert all(residue_case_feasible(solution, case) for case in feasible), (
        "enumerated residue case is not integral"
    )
    convention = not bc.upper_rows or not bc.lower_rows
    sign_atoms = [Le(constant(0), bc.row_terms[i]) for i in bc.sign_rows]

    prefix: list[str] = []
    case_vars: list[str] = []
    case_formulas: list[Formula] = []
    branch_count = 0
    for case in feasible:
        congruences: list[Formula] = []
        if denom > 1:
            congruences = [
                Cong(variable(name), r, denom)
                for name, r in zip(free_names, case.free_residues)
            ]
        case_count = fresh.fresh("c")
        case_vars.append(case_count)
        if convention:
            # One bound family is empty: wherever this case's guard holds the
            # witness set is infinite, so no count value may satisfy it; where
            # the guard fails the case is empty and contributes zero.
            guard = conj(congruences + sign_atoms)
            case_formulas.append(conj([negate(guard), Eq(variable(case_count), constant(0))]))
            prefix.append(case_count)
            continue
        branches = build_permutation_branches(bc, namer=lambda: fresh.fresh("u"))
        branch_count = len(branches)
        branch_parts = []
        branch_sum = Term(0)
        for branch in branches:
            guard = conj(congruences + sign_atoms + [branch.guard])
            delta = progression_count_formula(
                bc.multiplier,
                case.counted_residue,
                denom,
                branch.tightest_lower,
                branch.tightest_upper,
                branch.count_var,
            )
            branch_parts.append(
                disj(
                    [
                        conj([guard, delta]),
                        conj([negate(guard), Eq(variable(branch.count_var), constant(0))]),
                    ]
                )
            )
            prefix.append(branch.count_var)
            branch_sum = branch_sum + variable(branch.count_var)
        case_formulas.append(
            conj(branch_parts + [Eq(branch_sum, variable(case_count))])
        )
        prefix.append(case_count)

    total = Term(0)
    for cv in case_vars:
        total = total + variable(cv)
    nonneg = [Le(constant(0), variable(v)) for v in prefix]
    body = conj(nonneg + case_formulas + [Eq(total, variable(count_var))])
    if not isinstance(relations, fm.TrueF):
        body = disj(
            [
                conj([relations, body]),
                conj([negate(relations), Eq(variable(count_var), constant(0))]),
            ]
        )
    if nat:
        # Each counted value is a point of the component, so >= 0: no clamp.
        body = normalize_for_nat(body)
    trace = {
        "case": "interval-count",
        "denom": denom,
        "multiplier": bc.multiplier,
        "selected_rows": tuple(i + 1 for i in free_rows + [n - 1]),
        "dropped_rows": tuple(i + 1 for i in dropped),
        "upper_rows": tuple(i + 1 for i in bc.upper_rows),
        "lower_rows": tuple(i + 1 for i in bc.lower_rows),
        "sign_rows": tuple(i + 1 for i in bc.sign_rows),
        "residue_cases": denom**p,
        "feasible_cases": len(feasible),
        "branches": branch_count,
    }
    return prefix, body, trace


def _component_parts(
    presentation: LinearSetPresentation,
    count_var: str,
    names: Sequence[str],
    fresh: FreshNames,
    index: int,
) -> tuple[list, Formula, ComponentReport]:
    core = _plan_core(presentation, names)
    if core is None:
        prefix, body = _case_single(presentation, count_var, names)
        trace = {"case": "single-witness"}
    else:
        prefix, body, trace = _case_interval(presentation, count_var, names, fresh, core)
    report = ComponentReport(
        index=index,
        count_var=count_var,
        nodes=fm.node_count(body) + len(prefix),
        **trace,
    )
    return prefix, body, report


def _checked_names(presentation, count_var: str, domain, var_names) -> list[str]:
    """The coordinate names, once the arguments both entries share are valid."""
    if not is_identifier(count_var):
        raise ContractError(f"count variable {count_var!r} is not an identifier")
    if domain is not None and fm.as_domain(domain) is not presentation.domain:
        raise ContractError(
            f"domain {fm.as_domain(domain).value} does not match presentation domain "
            f"{presentation.domain.value}"
        )
    names = (
        list(var_names) if var_names is not None else coordinate_names(presentation.dimension)
    )
    if len(names) != presentation.dimension:
        raise ContractError("variable name list does not match dimension")
    if count_var in names:
        raise ContractError("count variable clashes with a coordinate name")
    return names


def _single_result(
    component: LinearSetPresentation, count_var: str, names: Sequence[str], fresh: FreshNames
) -> EliminationResult:
    prefix, body, report = _component_parts(component, count_var, names, fresh, index=1)
    return EliminationResult(
        formula=_close(prefix, body),
        count_var=count_var,
        # node_count(Exists v . g) = 1 + node_count(g): the component's count
        # already covers the closed formula.
        report=EliminationReport(count_var=count_var, components=(report,), nodes=report.nodes),
    )


def eliminate_simple(
    presentation: LinearSetPresentation,
    count_var: str,
    domain: Optional[DomainTag] = None,
    var_names: Optional[Sequence[str]] = None,
    fresh: Optional[FreshNames] = None,
) -> EliminationResult:
    """Eliminate the counting quantifier over one simple component.

    The counted coordinate is the last one; the result formula's free
    variables are the remaining coordinate names plus ``count_var``, and it
    holds exactly when the count variable equals the number of values of the
    counted coordinate placing the point in the set (with the convention
    that an infinite witness set satisfies no count value).
    """
    names = _checked_names(presentation, count_var, domain, var_names)
    if not check_simple(presentation):
        raise UnsupportedPresentationError(
            "elimination requires simple components (independent periods)"
        )
    if fresh is None:
        fresh = FreshNames(set(names) | {count_var})
    return _single_result(presentation, count_var, names, fresh)


def eliminate(
    presentation: SemilinearPresentation,
    count_var: str,
    domain: Optional[DomainTag] = None,
    var_names: Optional[Sequence[str]] = None,
) -> EliminationResult:
    """Eliminate the counting quantifier over a disjoint simple union.

    Every component gets its own fresh count variable holding its exact
    witness count; the result asserts the component counts sum to
    ``count_var``.  Disjointness is the caller's asserted precondition: on
    overlapping inputs the sum over-counts shared witnesses.
    """
    presentation.require_asserted()
    names = _checked_names(presentation, count_var, domain, var_names)
    fresh = FreshNames(set(names) | {count_var})
    if len(presentation.components) == 1:
        return _single_result(presentation.components[0], count_var, names, fresh)
    prefix: list[str] = []
    bodies: list[Formula] = []
    reports = []
    component_sum = Term(0)
    for idx, component in enumerate(presentation.components, start=1):
        part_count = fresh.fresh("y")
        comp_prefix, comp_body, comp_report = _component_parts(
            component, part_count, names, fresh, index=idx
        )
        prefix.extend(comp_prefix)
        prefix.append(part_count)
        bodies.append(conj([Le(constant(0), variable(part_count)), comp_body]))
        component_sum = component_sum + variable(part_count)
        reports.append(comp_report)
    body = conj(bodies + [Eq(component_sum, variable(count_var))])
    formula = _close(prefix, body)
    return EliminationResult(
        formula=formula,
        count_var=count_var,
        report=EliminationReport(
            count_var=count_var,
            components=tuple(reports),
            nodes=fm.node_count(formula),
        ),
    )


def estimate_result_nodes(presentation: SemilinearPresentation) -> int:
    """Cheap estimate of the size of the eliminated formula.

    Used by the command-line interface to warn before a blow-up.  A
    single-witness component and the multi-component wrapper are counted
    exactly.  A core with an empty bound family costs one guard per
    feasible residue case (``denom**(p-1)`` of them), which bounds its size
    from above.  A two-sided core counts all ``denom**p`` residue cases,
    each with every permutation branch and progression formula; that is a
    heuristic, not a bound.
    """
    total = 0
    conjunctions = 0  # component bodies that merge into the wrapper's conjunction
    for component in presentation.components:
        if not check_simple(component):
            raise UnsupportedPresentationError(
                "elimination requires simple components (independent periods)"
            )
        n = component.dimension
        p = component.num_periods
        core = _plan_core(component, coordinate_names(n))
        if core is None:
            # E x_n . membership_formula, asserted and negated: p binders,
            # p atoms "0 <= z", n equations reading x_j and the nonzero
            # period entries, one And when there are two or more atoms; then
            # the disjunction around it (8 nodes).
            nonzero = sum(1 for period in component.periods for v in period if v)
            member = 3 * p + (n + p >= 2) + 2 * n + nonzero
            total += 2 * (1 + member) + 8
            continue
        _, dropped, solution, bc = core
        conjunctions += not dropped
        if not bc.upper_rows or not bc.lower_rows:
            # Per case: its binder, nonnegativity, the negated guard (at most
            # p-1 congruences and the sign atoms), "= 0" and its summand.  The
            # dropped-row relations appear twice, asserted and negated.
            guard_nodes = 1 + 2 * (p - 1) + p * len(bc.sign_rows)
            relation_nodes = 2 * len(dropped) * (p + 1) + 7 if dropped else 0
            total += solution.denom ** (p - 1) * (7 + guard_nodes) + relation_nodes + 12
            continue
        step = bc.multiplier * solution.denom
        branches = factorial(len(bc.upper_rows)) * factorial(len(bc.lower_rows))
        delta_nodes = 8 * step * step + 6 * step + 16
        guard_nodes = 4 * p + 8
        total += solution.denom**p * (branches * (delta_nodes + guard_nodes) + 12)
    k = len(presentation.components)
    if k > 1:
        # k count binders, "0 <= y_i" for each, "y_1 + ... + y_k = y" and the
        # conjunction of it all, into which a conjunctive body merges.
        total += 4 * k + 3 - conjunctions
    return total
