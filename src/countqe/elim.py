"""Elimination of the counting quantifier over semilinear presentations.

Given a disjoint union of simple linear sets and a designated counted
coordinate (always the last), this module constructs an ordinary
quantifier-logic formula over the remaining coordinates plus one count
variable that holds exactly when the count variable equals the number of
values the counted coordinate can take inside the set.

The construction works per component, from the Cramer data of selected rows
S: the period coefficients are integer linear forms N_i over the coordinates
of S divided by the determinant's absolute value D, and each other
non-counted row j reads ``D*x_j = D*b_j + sum_i P_ji*N_i`` (b the base, P the
period matrix; :func:`_row_equations`).  When some full-rank S avoids the
counted row, the counted coordinate is a function of the others and the
witness count is 0 or 1, with no binder: 1 exactly where every ``0 <= N_i``,
every ``N_i = 0 (mod D)`` and every row equation hold (without periods,
``x_j = b_j``).  Otherwise the component reduces to a square core, S the
least row basis of the other rows plus the counted row.  Nonnegativity
becomes interval bounds on the counted coordinate t, and integrality the
congruences N_i = 0 (mod D).
For fixed free coordinates these congruences leave t no value or one coset
of D'Z, where D' = lcm_i D/gcd(D, lam_i) and lam is the counted column (the
paper's split into residue classes modulo D, merged by the Chinese remainder
theorem).  So each permutation branch with tightest bounds ``lo <= m*t <=
hi`` binds a first witness t0, the coset's one member in ``lo <= m*t0 < lo +
m*D'``, and counts the members t0, t0 + D', ... with ``m*t <= hi`` by one
floor quotient pinned by a pair of order atoms
(:func:`progression_count_formula`).  Where the branch guard fails, or no
value fills the window, the branch count is 0.  The branch counts sum
straight into the component's count.  A core with an empty bound family has
no count where its sign atoms hold and the congruences have a solution, and
count 0 elsewhere.  Components combine by summing per-component count
variables.

Each component is planned once (:func:`plan_component`: its case, core, Cramer
data, bound families and size estimate), then built from that plan.
:func:`eliminate`, :func:`estimate_result_nodes` and
:func:`countqe.verify.run_check` accept the :class:`EliminationPlan` of
:func:`plan_elimination` wherever they accept a presentation.

Over the naturals the same integer body is built, and :func:`normalize_for_nat`
makes each quantifier-free piece subtraction-free before it is bound.  No
clamp at 0 is needed: each counted value is a point of the component, whose
base and periods are nonnegative, so a first witness below 0 (which no
natural binder reaches) means the counted range is empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Optional, Sequence, Union

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
    cramer_solve,
    find_full_rank_submatrix,
    greedy_row_basis,
    positive_lcm,
)
from .linalg import solve_unique  # noqa: F401 -- unused; perfbench/layers.py patches this name
from .sets import (
    DomainTag,
    LinearSetPresentation,
    SemilinearPresentation,
    check_simple,
    coordinate_names,
)
from .textio import is_identifier


# --- progression counts --------------------------------------------------------


def count_in_progression(lo: int, hi: int, residue: int, modulus: int) -> int:
    """Number of integers t in [lo, hi] with t = residue (mod modulus)."""
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    if hi < lo:
        return 0
    r = residue % modulus
    return (hi - r) // modulus - (lo - 1 - r) // modulus


def progression_count_formula(first: Term, hi: Term, step: int, count_var: str) -> Formula:
    """Formula binding ``count_var`` to the number of terms of the progression
    ``first, first + step, ...`` that are at most ``hi``.

    The count is 0 when ``hi < first`` and ``floor((hi - first)/step) + 1``
    otherwise, which the floor pair ``step*u <= hi - first + step`` and ``hi -
    first < step*u`` pins (one equation when ``step`` is 1).  No binder.
    """
    if step < 1:
        raise ParameterError("progression step must be positive")
    u = variable(count_var)
    gap = hi - first
    pin = [Eq(u, gap + 1)] if step == 1 else [Le(step * u, gap + step), Lt(gap, step * u)]
    return disj([conj([Lt(hi, first), Eq(u, constant(0))]), conj([Le(first, hi)] + pin)])


def progression_count_formula_nat(first: Term, hi: Term, step: int, count_var: str) -> Formula:
    """:func:`progression_count_formula` with every atom subtraction-free,
    equivalent over the naturals.  The eliminator does not call it: it
    normalises each quantifier-free piece of its body."""
    return normalize_for_nat(progression_count_formula(first, hi, step, count_var))


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


def residue_case_feasible(solution: CramerSolution, case: ResidueCase) -> bool:
    """True when every solved coefficient is integral on this residue class.

    The eliminator does not enumerate residue cases; this is the reference
    that the congruences of :func:`_congruence_rows` are tested against.
    """
    p = solution.size
    if len(case.free_residues) != p - 1:
        raise ParameterError("residue case does not match system size")
    d = solution.denom
    point = list(case.free_residues) + [case.counted_residue]
    return all(num % d == 0 for num in solution.numerators(point))


def _congruence_rows(solution: CramerSolution) -> list[tuple]:
    """The distinct integrality conditions ``N_i = 0 (mod D)`` of the Cramer
    rows, as (coefficients reduced mod D, residue of the constant part).

    A row whose coefficients all vanish mod D holds everywhere (its constant
    is 0 mod D, since every N_i vanishes at the base) and is left out; so is
    every row when D is 1.
    """
    d = solution.denom
    rows = {}
    for row, offset in zip(solution.matrix, solution.offset):
        coeffs = tuple(c % d for c in row)
        assert any(coeffs) or offset % d == 0, "a constant row must vanish mod D"
        if any(coeffs):
            rows[coeffs, -offset % d] = None
    return list(rows)


def _congruences(rows: Sequence[tuple], denom: int, names: Sequence[str], last: Term) -> list:
    """The atoms of :func:`_congruence_rows`: ``names`` read the columns but
    the last, which reads ``last`` (of a core, the counted value)."""
    return [
        Cong(Term(0, dict(zip(names, coeffs))) + coeffs[-1] * last, residue, denom)
        for coeffs, residue in rows
    ]


def _row_equations(
    component: LinearSetPresentation,
    rows: Sequence[int],
    solution: CramerSolution,
    names: Sequence[str],
) -> list:
    """The equation of each non-counted row j outside ``rows``.

    Row j reads ``x_j = b_j + sum_i P_ji*z_i``, and the Cramer data of
    ``rows`` gives ``D*z_i = N_i``; so ``D*x_j = D*b_j + sum_i P_ji*N_i``,
    here divided by the gcd of its coefficients.  It holds on the component
    and, where every N_i is a multiple of D, forces x_j.  The counted
    coordinate cancels: row j lies in the span of the selected non-counted
    rows.
    """
    n, d = component.dimension, solution.denom
    equations = []
    for j in range(n - 1):
        if j in rows:
            continue
        entries = [period[j] for period in component.periods]
        weights = [
            sum(e * row[k] for e, row in zip(entries, solution.matrix)) for k in range(len(rows))
        ]
        assert n - 1 not in rows or weights[rows.index(n - 1)] == 0, "the counted coordinate must cancel"
        offset = d * component.base[j] + sum(e * g for e, g in zip(entries, solution.offset))
        g = gcd(d, *weights)
        rhs = Term(offset // g, {names[r]: w // g for r, w in zip(rows, weights)})
        equations.append(Eq(d // g * variable(names[j]), rhs))
    return equations


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
    are reported 1-based.  A single-witness component reports its
    determinant and its selected and dropped rows (a component without
    periods none of them); it has no square core, so the other core fields
    keep their defaults."""

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
    coset_period: Optional[int] = None
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


# --- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentPlan:
    """How one component is eliminated, decided before anything is built.

    ``solution`` is the Cramer data of the selected ``rows`` (all 0-based):
    a single-witness component's p rows that avoid the counted (last) row
    (no rows and D = 1 without periods), or an interval core's least row
    basis of the other rows followed by the counted row.  The other
    non-counted rows are dropped, and ``relations`` are their row equations
    (:func:`_row_equations`).  ``congruences`` are the distinct integrality
    conditions of the Cramer rows (see :func:`_congruence_rows`).  A
    single-witness component has no ``bounds``.  For an interval core, the
    congruences' solutions in the counted value form one coset of
    ``coset_period``, and ``branches`` counts the permutation branches (0
    when a bound family is empty).  ``conjunctive`` tells whether the
    component's body is a conjunction, which a union's conjunction absorbs.
    """

    component: LinearSetPresentation
    case: str  # "single-witness" or "interval-count"
    estimated_nodes: int
    rows: tuple[int, ...]
    dropped_rows: tuple[int, ...]
    solution: CramerSolution
    relations: tuple[Formula, ...]
    congruences: tuple
    bounds: Optional[BoundClassification] = None
    coset_period: int = 1
    branches: int = 0
    conjunctive: bool = False

    def report(self, index: int, count_var: str, nodes: int) -> ComponentReport:
        """The report of this component, built with ``nodes`` nodes."""
        one_based = lambda rows: tuple(i + 1 for i in rows)
        fields = {}
        if self.rows:
            fields.update(
                denom=self.solution.denom,
                selected_rows=one_based(self.rows),
                dropped_rows=one_based(self.dropped_rows),
            )
        if self.bounds is not None:
            bc = self.bounds
            fields.update(
                multiplier=bc.multiplier,
                upper_rows=one_based(bc.upper_rows),
                lower_rows=one_based(bc.lower_rows),
                sign_rows=one_based(bc.sign_rows),
                coset_period=self.coset_period,
                branches=self.branches,
            )
        return ComponentReport(index=index, case=self.case, count_var=count_var, nodes=nodes, **fields)


def _atom_nodes(*terms: Term) -> int:
    """Size of an atom over ``terms``: one node plus one per coefficient."""
    return 1 + sum(len(t.coeffs) for t in terms)


def _conj_nodes(atom_nodes: Sequence[int]) -> int:
    """Size of the conjunction of one or more atoms of these sizes."""
    return sum(atom_nodes) + (len(atom_nodes) >= 2)


def _numerators(solution: CramerSolution, names: Sequence[str]) -> list[Term]:
    """The Cramer numerators N_i as terms, the columns read by ``names``."""
    return [
        Term(offset, dict(zip(names, row))) for row, offset in zip(solution.matrix, solution.offset)
    ]


def plan_component(component: LinearSetPresentation, names: Sequence[str]) -> ComponentPlan:
    """Decide how ``component`` is eliminated, its coordinates named ``names``.

    A component is single-witness when it has no periods or some full-rank
    row subsystem avoids the counted (last) row; its rows are the least such
    subsystem.  Otherwise its core is the least row basis of the other rows
    plus the counted row, planned with the core's Cramer data, bound
    classification and congruences.

    The estimate counts the output atom by atom from the row terms, in
    closed form: nothing in it grows with D.  It is exact over Z and, for a
    single-witness component, over N too; over N an interval core's
    estimate is an upper bound (normalising a guard atom can merge its two
    sides).
    """
    if not check_simple(component):
        raise UnsupportedPresentationError(
            "elimination requires simple components (independent periods)"
        )
    matrix = component.period_matrix()
    n = component.dimension
    rows = () if matrix is None else find_full_rank_submatrix(matrix, forbidden_row=n - 1)
    single = rows is not None
    if not single:
        free_rows = greedy_row_basis(matrix, n - 1)
        assert len(free_rows) == matrix.cols - 1, "core reduction expects row rank p-1"
        rows = tuple(free_rows) + (n - 1,)
    base = [component.base[i] for i in rows]
    solution = cramer_solve(matrix.select_rows(rows), base) if rows else CramerSolution(1, (), ())
    relations = tuple(_row_equations(component, rows, solution, names))
    dropped = tuple(j for j in range(n - 1) if j not in rows)
    congruences = tuple(_congruence_rows(solution))
    congs = [1 + sum(1 for c in coeffs if c) for coeffs, _ in congruences]
    rels = [_atom_nodes(*r.terms) for r in relations]
    if single:
        # "(M & y = 1) | (!M & y = 0)", M the conjunction of the sign atoms,
        # the congruences and the relations, which the first And flattens;
        # "y = 1" when M is empty.
        signs = [_atom_nodes(t) for t in _numerators(solution, [names[i] for i in rows])]
        member = signs + congs + rels
        estimate = sum(member) + _conj_nodes(member) + 8 if member else 2
        return ComponentPlan(
            component, "single-witness", estimate, rows, dropped, solution, relations, congruences
        )
    bc = classify_bounds(solution, [names[i] for i in rows[:-1]])
    denom = solution.denom
    period = lcm(*(denom // gcd(denom, coeffs[-1]) for coeffs, _ in congruences))
    signs = [_atom_nodes(bc.row_terms[i]) for i in bc.sign_rows]
    branches = 0
    if not bc.upper_rows or not bc.lower_rows:
        # "!(signs & E t . 0 <= t & t < D' & congruences) & 0 = y", without
        # the binder when D' is 1; false when nothing is negated.
        negated = signs + (congs if period == 1 else [6 + sum(congs)])
        estimate = 4 + _conj_nodes(negated) if negated else 1
        conjunctive = True
    else:
        step, bound = bc.multiplier * period, bc.bound_term
        estimate = 0
        for sigma in itertools.permutations(bc.upper_rows):
            for tau in itertools.permutations(bc.lower_rows):
                pairs = [*zip(sigma, sigma[1:]), *zip(tau, tau[1:])]
                guard = signs + [_atom_nodes(bound(a), bound(b)) for a, b in pairs]
                # "lo <= m*t & m*t < lo + m*D'" and the congruences
                window = 4 + 2 * len(bound(tau[0]).coeffs) + sum(congs)
                hi = len(bound(sigma[0]).coeffs)
                count = 12 + 3 * hi if step == 1 else 15 + 4 * hi
                # "(guard & window(t0) & count) | ((!guard | !E t1 . window(t1)) & u = 0)"
                missing = (2 + _conj_nodes(guard) if guard else 0) + 3 + window
                estimate += sum(guard) + window + count + 5 + missing
                branches += 1
        # One branch counts into the component's count and binds t0 only;
        # several bind u and t0 each and add "u_1 + ... = y" to their
        # conjunction.
        estimate += 1 if branches == 1 else 3 * branches + 3
        conjunctive = branches > 1
    if rels and estimate == 1:
        # A false body leaves "!relations & y = 0".
        estimate, conjunctive = _conj_nodes(rels) + 4, True
    elif rels:
        # "(relations & body) | (!relations & y = 0)"
        estimate += sum(rels) + _conj_nodes(rels) + 6 - conjunctive
        conjunctive = False
    return ComponentPlan(
        component, "interval-count", estimate, rows, dropped, solution, relations, congruences,
        bc, period, branches, conjunctive,
    )


@dataclass(frozen=True)
class EliminationPlan:
    """The component plans of a presentation whose coordinates are named
    ``names``, the counted one last."""

    presentation: SemilinearPresentation
    names: tuple[str, ...]
    components: tuple[ComponentPlan, ...]


def plan_elimination(
    presentation: Union[SemilinearPresentation, EliminationPlan],
    var_names: Optional[Sequence[str]] = None,
) -> EliminationPlan:
    """Plan every component; a plan is returned unchanged.

    The coordinates are named ``var_names``, by default x1..xn.  Raises
    :class:`UnsupportedPresentationError` when a component's periods are
    dependent.
    """
    if isinstance(presentation, EliminationPlan):
        if var_names is not None and tuple(var_names) != presentation.names:
            raise ContractError("variable name list does not match the plan's")
        return presentation
    if var_names is None:
        var_names = coordinate_names(presentation.dimension)
    names = tuple(var_names)
    if len(names) != presentation.dimension:
        raise ContractError("variable name list does not match dimension")
    return EliminationPlan(
        presentation, names, tuple(plan_component(c, names) for c in presentation.components)
    )


# --- the eliminator -------------------------------------------------------------


def _close(prefix: Sequence[str], body: Formula) -> Formula:
    for var in reversed(prefix):
        body = Exists(var, body)
    return body


def _case_single(plan: ComponentPlan, count_var: str, names: Sequence[str]) -> Formula:
    """Counted coordinate determined by the others: witness count is 0 or 1.

    The count is 1 exactly where the membership conditions M of the selected
    rows hold: ``0 <= N_i``, ``N_i = 0 (mod D)`` and the row equations of the
    other non-counted rows.  No binder.
    """
    piece = normalize_for_nat if plan.component.domain is DomainTag.N else lambda f: f
    selected = [names[i] for i in plan.rows]
    signs = [Le(constant(0), t) for t in _numerators(plan.solution, selected)]
    congruences = []
    if plan.congruences:  # D > 1, so some rows are selected
        congruences = _congruences(plan.congruences, plan.solution.denom, selected[:-1], variable(selected[-1]))
    member = piece(conj(signs + congruences + list(plan.relations)))
    y = variable(count_var)
    return disj([conj([member, Eq(y, constant(1))]), conj([negate(member), Eq(y, constant(0))])])


def _case_interval(
    plan: ComponentPlan,
    count_var: str,
    names: Sequence[str],
    fresh: FreshNames,
) -> tuple[list, Formula]:
    """The square-core construction for a component whose every full-rank
    row subsystem uses the counted row: its binders and its body.

    A two-sided core binds per branch its first witness ``t0`` and, when
    there are several branches, its count ``u`` with ``sum u = count_var``;
    each branch's zero case reads ``!E t1`` over the same window.  A
    one-sided core adds no binder to the prefix: its body is ``!(signs & E
    t . 0 <= t < D' & congruences) & 0 = count_var``.
    """
    presentation, solution, bc = plan.component, plan.solution, plan.bounds
    piece = normalize_for_nat if presentation.domain is DomainTag.N else lambda f: f
    relations = piece(conj(plan.relations))
    free_names = [names[i] for i in plan.rows[:-1]]
    if presentation.domain is DomainTag.N:
        # Nonnegative periods make an all-nonpositive counted column of the
        # inverse impossible, so lower bounds always exist over the naturals.
        assert bc.lower_rows, "natural-domain core without lower bounds"
    period = plan.coset_period

    def congruences(witness: Term) -> list:
        return _congruences(plan.congruences, solution.denom, free_names, witness)

    def window(witness: str, lo: Term, scale: int) -> Formula:
        # The congruences' coset has one member in it, or none.
        t = variable(witness)
        return piece(conj([Le(lo, scale * t), Lt(scale * t, lo + scale * period)] + congruences(t)))

    def has_witness(lo: Term, scale: int) -> Formula:
        t = fresh.fresh("t")
        return Exists(t, window(t, lo, scale))

    signs = [Le(constant(0), bc.row_terms[i]) for i in bc.sign_rows]
    y = variable(count_var)
    prefix: list[str] = []
    if not bc.upper_rows or not bc.lower_rows:
        # One bound family is empty: wherever the sign atoms hold and the
        # congruences have a solution the witness set is infinite, so no
        # count value may satisfy it; elsewhere it is empty.
        # When D' is 1 no congruence reads the counted value: no binder.
        solvable = conj(congruences(constant(0))) if period == 1 else has_witness(constant(0), 1)
        body = conj([negate(conj([piece(conj(signs)), solvable])), Eq(constant(0), y)])
    else:
        m = bc.multiplier
        namer = (lambda: count_var) if plan.branches == 1 else (lambda: fresh.fresh("u"))
        parts, branches = [], build_permutation_branches(bc, namer=namer)
        for branch in branches:
            t0, u = fresh.fresh("t"), branch.count_var
            guard = piece(conj(signs + [branch.guard]))
            lo, hi = branch.tightest_lower, branch.tightest_upper
            count = piece(progression_count_formula(m * variable(t0), hi, m * period, u))
            found = conj([guard, window(t0, lo, m), count])
            missing = disj([negate(guard), negate(has_witness(lo, m))])
            parts.append(disj([found, conj([missing, Eq(variable(u), constant(0))])]))
            prefix += [t0] if plan.branches == 1 else [t0, u]
        if plan.branches > 1:
            parts.append(Eq(Term(0, {b.count_var: 1 for b in branches}), y))
        body = conj(parts)
    if not isinstance(relations, fm.TrueF):
        body = disj([conj([relations, body]), conj([negate(relations), Eq(y, constant(0))])])
    return prefix, body


def eliminate(
    presentation: Union[SemilinearPresentation, EliminationPlan],
    count_var: str,
    var_names: Optional[Sequence[str]] = None,
) -> EliminationResult:
    """Eliminate the counting quantifier over a disjoint simple union, given
    as a presentation or as its :class:`EliminationPlan`.

    The counted coordinate is the last one; the result holds exactly when
    ``count_var`` equals the number of values of the counted coordinate
    placing the point in the set (no count value satisfies it when that set
    is infinite).  Each of several components gets a fresh count variable,
    and these sum to ``count_var``.  Disjointness is the caller's asserted
    precondition: on overlapping inputs the sum over-counts shared witnesses.
    """
    plan = plan_elimination(presentation, var_names)
    # Planning checked every component's simplicity; only the flags are left.
    if not (plan.presentation.asserted_disjoint and plan.presentation.asserted_simple):
        raise ContractError("presentation must be asserted disjoint and simple for elimination")
    names = plan.names
    if not is_identifier(count_var):
        raise ContractError(f"count variable {count_var!r} is not an identifier")
    if count_var in names:
        raise ContractError("count variable clashes with a coordinate name")
    fresh = FreshNames(set(names) | {count_var})
    single = len(plan.components) == 1
    prefix: list[str] = []
    bodies: list[Formula] = []
    reports = []
    for index, comp_plan in enumerate(plan.components, start=1):
        part_count = count_var if single else fresh.fresh("y")
        if comp_plan.bounds is None:
            comp_prefix, body = [], _case_single(comp_plan, part_count, names)
        else:
            comp_prefix, body = _case_interval(comp_plan, part_count, names, fresh)
        reports.append(comp_plan.report(index, part_count, fm.node_count(body) + len(comp_prefix)))
        prefix.extend(comp_prefix)
        if not single:
            prefix.append(part_count)
            body = conj([Le(constant(0), variable(part_count)), body])
        bodies.append(body)
    if single:
        # node_count(Exists v . g) = 1 + node_count(g): the component's count
        # already covers the closed formula.
        formula, nodes = _close(prefix, bodies[0]), reports[0].nodes
    else:
        component_sum = Term(0, {report.count_var: 1 for report in reports})
        formula = _close(prefix, conj(bodies + [Eq(component_sum, variable(count_var))]))
        nodes = fm.node_count(formula)
    return EliminationResult(
        formula=formula,
        count_var=count_var,
        report=EliminationReport(count_var=count_var, components=tuple(reports), nodes=nodes),
    )


def estimate_result_nodes(presentation: Union[SemilinearPresentation, EliminationPlan]) -> int:
    """The size of the eliminated formula, predicted from the plan.

    Used by the command-line interface to warn before a blow-up; it sums the
    components' planned estimates (see :func:`plan_component`), and accepts
    a plan in place of the presentation.  It never reads below the output.
    The multi-component wrapper is counted exactly.
    """
    plan = plan_elimination(presentation)
    total = sum(c.estimated_nodes for c in plan.components)
    k = len(plan.components)
    if k == 1:
        return total
    if any(c.estimated_nodes == 1 for c in plan.components):
        # A one-node component body is false, and so is the conjunction of
        # them all: k count binders over false.
        return k + 1
    # k count binders, "0 <= y_i" for each, "y_1 + ... + y_k = y" and the
    # conjunction of it all, into which a conjunctive body merges.
    return total + 4 * k + 3 - sum(c.conjunctive for c in plan.components)
