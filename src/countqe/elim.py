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
For fixed free coordinates these congruences, ``lam_i*t = c_i (mod D)`` with
lam the counted column, leave t no value or one coset of D'Z, where D' =
lcm_i D/gcd(D, lam_i) (the paper's split into residue classes modulo D,
merged by the Chinese remainder theorem).  Whether they leave a coset at all
is itself a congruence condition on the free coordinates (the generalised
Chinese remainder theorem, Ore 1952; :func:`_solvability`), so no binder asks
it.  A core with bounds ``l_i <= m*t <= h_j`` binds a first witness t0, the
coset's one member in ``max_i l_i <= m*t0 < max_i l_i + m*D'``
(:func:`_first_witness_window`), and counts the members t0, t0 + D', ... up
to ``min_j h_j`` by the least of the floor quotients, each pinned by a pair
of order atoms (:func:`progression_count_formula`).  The maximum and minimum
are atoms over the bound terms, not binders: a bound term can be negative at
natural points.  Where a sign atom fails, or the congruences have no
solution, the count is 0.  A core with an empty bound family has no count
where its sign atoms hold and the congruences have a solution, and count 0
elsewhere.
Components combine by summing per-component count variables.

Each component is planned once (:func:`plan_component`: its case, core, Cramer
data and bound families), and :func:`plan_elimination` builds the formula
from the plans at once: the :class:`EliminationPlan` holds the result, and
its size is the node count of what was built.  :func:`eliminate`,
:func:`estimate_result_nodes` and :func:`countqe.verify.run_check` accept
the plan wherever they accept a presentation, and read that result.

Over the naturals the same integer body is built, and :func:`normalize_for_nat`
makes each component's body subtraction-free before it is bound.  No
clamp at 0 is needed: each counted value is a point of the component, whose
base and periods are nonnegative, so a first witness below 0 (which no
natural binder reaches) means the counted range is empty.  That is exactly
where some upper term is negative, so over N the zero case of a two-sided
core also holds there (:func:`_negative_upper_terms`).  Every order atom is
divided by the gcd of its coefficients as it is built (:func:`_divided`);
that keeps its integer solutions and its node count, and it commutes with
the normalisation, since no atom reads a name on both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import is_
from typing import Optional, Sequence, Union

from . import formula as fm
from .errors import ContractError, ParameterError, UnsupportedPresentationError
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
from .sets import (
    DomainTag,
    LinearSetPresentation,
    SemilinearPresentation,
    check_simple,
    coordinate_names,
)
from .textio import is_identifier

# perfbench/layers.py still patches these names; they leave with those patches.
solve_unique = residue_case_feasible = build_permutation_branches = progression_count_formula_nat = None


# --- progression counts --------------------------------------------------------


def _divided(atom: Formula) -> Formula:
    """An order atom divided by the gcd of its coefficients, each side
    keeping its names and the constant moved to the side where it is
    nonnegative: ``L + a <= R + b`` becomes ``L/g <= R/g + floor((b - a)/g)``,
    and ``<`` rounds up instead.  It has the same integer solutions and node
    count; normalised over N, it is the normalised atom so divided."""
    lhs, rhs = atom.lhs, atom.rhs
    g = gcd(*lhs.coeffs.values(), *rhs.coeffs.values())
    if g < 2:
        return atom
    gap = rhs.constant - lhs.constant
    k = gap // g if type(atom) is Le else -(-gap // g)
    left = Term(max(-k, 0), {n: c // g for n, c in lhs.coeffs.items()})
    right = Term(max(k, 0), {n: c // g for n, c in rhs.coeffs.items()})
    return type(atom)(left, right)


def progression_count_formula(
    first: Term, his: Sequence[Term], step: int, count_var: str
) -> Formula:
    """Formula binding ``count_var`` to the number of terms of the progression
    ``first, first + step, ...`` that are at most every term of ``his``.

    The count is 0 when some ``hi < first``, else the least ``floor((hi -
    first)/step) + 1``: at most each (``step*u <= hi - first + step``, left
    out for one term) and equal to one, which the floor pair ``step*u <= hi -
    first + step`` and ``hi - first < step*u`` pins (one equation when
    ``step`` is 1).  No binder; each order atom is :func:`_divided`.
    """
    if step < 1 or not his:
        raise ParameterError("a progression count needs a positive step and an upper term")
    u = variable(count_var)
    gaps = [hi - first for hi in his]
    at_most = [_divided(Le(step * u, g + step)) for g in gaps]
    pins = [
        Eq(u, g + 1) if step == 1 else conj([le, _divided(Lt(g, step * u))]) for g, le in zip(gaps, at_most)
    ]
    return disj([
        conj([disj([_divided(Lt(hi, first)) for hi in his]), Eq(u, constant(0))]),
        conj([_divided(Le(first, hi)) for hi in his] + (at_most if len(his) > 1 else []) + [disj(pins)]),
    ])


def _first_witness_window(
    lows: Sequence[Term], first: Term, width: int, congruences: list
) -> Formula:
    """``max(lows) <= first < max(lows) + width`` and the ``congruences``:
    ``lo <= first`` for each lower term, and for one of them the window ``lo
    <= first < lo + width`` with the congruences, which the evaluator decides
    by one window step (one lower term gives its window alone).  Where the
    congruences leave ``first`` one coset of period ``width``, at most one
    value satisfies it.  Each order atom is :func:`_divided`."""
    above = [_divided(Le(lo, first)) for lo in lows]
    windows = [conj([le, _divided(Lt(first, lo + width))] + congruences) for lo, le in zip(lows, above)]
    if len(windows) == 1:
        return windows[0]
    return conj(above + [disj(windows)])


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


# --- congruences ---------------------------------------------------------------


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


def _coset_conditions(rows: Sequence[tuple], denom: int) -> list[tuple]:
    """The congruences ``sum_i w_i*c_i = 0 (mod modulus)``, as (weights by
    row index, modulus), that hold exactly where the rows of
    :func:`_congruence_rows`, read as ``lam_i*t = c_i (mod D)``, have a common
    solution t (the generalised Chinese remainder theorem, Ore 1952).

    With ``g_i = gcd(lam_i, D)``, ``M_i = D/g_i`` and ``u_i`` the inverse of
    ``lam_i/g_i`` mod ``M_i``, row i is solvable iff ``g_i | c_i``, and then
    ``t = (c_i/g_i)*u_i (mod M_i)``.  Two such cosets meet iff they agree mod
    ``G = gcd(M_i, M_j)``; multiplied by ``g_i*g_j``, that is ``g_j*u_i*c_i -
    g_i*u_j*c_j = 0 (mod g_i*g_j*G)``, needed only when G > 1.  Pairwise
    agreement suffices for the whole system.
    """
    solved = []
    for coeffs, _ in rows:
        g = gcd(coeffs[-1], denom)
        solved.append((g, denom // g, pow(coeffs[-1] // g, -1, denom // g)))
    conditions = [({i: 1}, g) for i, (g, _, _) in enumerate(solved)]
    for (i, (gi, mi, ui)), (j, (gj, mj, uj)) in itertools.combinations(enumerate(solved), 2):
        common = gcd(mi, mj)
        if common > 1:
            conditions.append(({i: gj * ui, j: -gi * uj}, gi * gj * common))
    return conditions


def _solvability(rows: Sequence[tuple], denom: int, names: Sequence[str]) -> list:
    """The atoms of :func:`_coset_conditions` over the free coordinates named
    ``names`` (the rows' columns but the last), each divided by the gcd of
    its coefficients, residue and modulus, without repeats.  A congruence
    whose coefficients all vanish is left out when it holds, and makes the
    whole condition ``[FALSE]`` when it fails."""
    atoms = {}
    for weights, modulus in _coset_conditions(rows, denom):
        # c_i = residue_i - coeffs_i . x, so the condition reads
        # (sum_i w_i*coeffs_i) . x = sum_i w_i*residue_i (mod modulus).
        coeffs = [sum(w * rows[i][0][k] for i, w in weights.items()) % modulus for k in range(len(names))]
        residue = sum(w * rows[i][1] for i, w in weights.items()) % modulus
        g = gcd(modulus, residue, *coeffs)
        term = Term(0, {name: c // g for name, c in zip(names, coeffs)})
        if not term.coeffs:
            if residue:
                return [fm.FALSE]
            continue
        atoms[Cong(term, residue // g, modulus // g)] = None
    return list(atoms)


def _negative_upper_terms(highs: Sequence[Term]) -> list:
    """Over N, ``h < 0`` for each upper term h that reads a name.

    Where a two-sided core's sign atoms hold and its congruences are
    solvable, the window's coset member is below 0 exactly where one of
    these holds: every witness is a natural point of the component, so a
    negative member is no witness and lies above some upper term; and a
    negative upper term leaves no natural witness.  A constant upper term is
    at least 0, since the base point is a witness.
    """
    return [_divided(Lt(h, constant(0))) for h in highs if h.coeffs]


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


# --- subtraction-free normalisation -------------------------------------------


def _nat_atom(atom: Formula) -> Formula:
    """The subtraction-free rewrite of an atom; the atom itself when it is
    its own rewrite."""
    if isinstance(atom, Cong):
        m, term = atom.modulus, atom.term
        if all(0 <= c < m for c in (term.constant, *term.coeffs.values())):
            return atom
        fixed = Term(term.constant % m, {n: c % m for n, c in term.coeffs.items()})
        return Cong(fixed, atom.residue, m)
    lhs, rhs = atom.lhs, atom.rhs
    positive = all(c > 0 for t in (lhs, rhs) for c in t.coeffs.values())
    if positive and min(lhs.constant, rhs.constant) == 0 and lhs.coeffs.keys().isdisjoint(rhs.coeffs):
        return atom
    diff = lhs - rhs
    return type(atom)(diff.positive_part(), diff.negative_part())


def normalize_for_nat(f: Formula) -> Formula:
    """Rewrite a formula so every atom is subtraction-free.

    Each comparison moves its negative contributions to the other side, and
    congruence terms take their coefficients modulo the modulus; each atom
    is equivalent to its rewrite over the naturals (and over the integers),
    so the formula is too, binders and all.  An atom that is its own rewrite,
    and a node all of whose children come back as they are, come back as
    they are.
    """
    nodes = fm.traverse(f)[0]
    done = {}  # id(node) -> its rewrite; descendants come first in reverse
    for g in reversed(nodes):
        if id(g) in done:  # a shared subtree is rewritten once
            continue
        if g.terms:
            done[id(g)] = _nat_atom(g)
        else:
            kids = [done[id(c)] for c in g.children]
            done[id(g)] = g if all(map(is_, kids, g.children)) else g.rebuild(kids)
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
    ``coset_period`` exactly where the atoms ``solvable`` hold
    (:func:`_solvability`).
    """

    component: LinearSetPresentation
    case: str  # "single-witness" or "interval-count"
    rows: tuple[int, ...]
    dropped_rows: tuple[int, ...]
    solution: CramerSolution
    relations: tuple[Formula, ...]
    congruences: tuple
    bounds: Optional[BoundClassification] = None
    coset_period: int = 1
    solvable: tuple = ()

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
            )
        return ComponentReport(index=index, case=self.case, count_var=count_var, nodes=nodes, **fields)


def plan_component(component: LinearSetPresentation, names: Sequence[str]) -> ComponentPlan:
    """Decide how ``component`` is eliminated, its coordinates named ``names``.

    A component is single-witness when it has no periods or some full-rank
    row subsystem avoids the counted (last) row; its rows are the least such
    subsystem.  Otherwise its core is the least row basis of the other rows
    plus the counted row, planned with the core's Cramer data, bound
    classification and congruences.
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
    if single:
        return ComponentPlan(component, "single-witness", rows, dropped, solution, relations, congruences)
    free_names = [names[i] for i in rows[:-1]]
    denom = solution.denom
    period = lcm(*(denom // gcd(denom, coeffs[-1]) for coeffs, _ in congruences))
    solvable = tuple(_solvability(congruences, denom, free_names))
    assert fm.FALSE not in solvable, "the base point solves the congruences"
    return ComponentPlan(
        component, "interval-count", rows, dropped, solution, relations, congruences,
        classify_bounds(solution, free_names), period, solvable,
    )


@dataclass(frozen=True)
class EliminationPlan:
    """The component plans of a presentation whose coordinates are named
    ``names``, the counted one last, and the ``result`` built from them."""

    presentation: SemilinearPresentation
    names: tuple[str, ...]
    components: tuple[ComponentPlan, ...]
    result: EliminationResult


def plan_elimination(
    presentation: Union[SemilinearPresentation, EliminationPlan],
    var_names: Optional[Sequence[str]] = None,
    count_var: Optional[str] = None,
) -> EliminationPlan:
    """Plan every component and build the formula from the plans; a plan is
    returned unchanged.

    The coordinates are named ``var_names``, by default x1..xn, and the count
    variable ``count_var``, by default ``y`` (given a plan, ``None`` takes
    the plan's own names).  Raises :class:`UnsupportedPresentationError`
    when a component's periods are dependent, and :class:`ContractError`
    when the presentation is not asserted disjoint and simple, when the
    count variable is no identifier or clashes with a coordinate name, and
    when given names differ from a plan's.
    """
    if isinstance(presentation, EliminationPlan):
        if var_names is not None and tuple(var_names) != presentation.names:
            raise ContractError("variable name list does not match the plan's")
        made_for = presentation.result.count_var
        if count_var is not None and count_var != made_for:
            raise ContractError(f"count variable {count_var!r} does not match the plan's {made_for!r}")
        return presentation
    if var_names is None:
        var_names = coordinate_names(presentation.dimension)
    names = tuple(var_names)
    if len(names) != presentation.dimension:
        raise ContractError("variable name list does not match dimension")
    if count_var is None:
        count_var = "y"
    components = tuple(plan_component(c, names) for c in presentation.components)
    # Planning checked every component's simplicity; only the flags are left.
    if not (presentation.asserted_disjoint and presentation.asserted_simple):
        raise ContractError("presentation must be asserted disjoint and simple for elimination")
    if not is_identifier(count_var):
        raise ContractError(f"count variable {count_var!r} is not an identifier")
    if count_var in names:
        raise ContractError("count variable clashes with a coordinate name")
    return EliminationPlan(
        presentation, names, components, _build(components, names, count_var)
    )


# --- the eliminator -------------------------------------------------------------


def _close(prefix: Sequence[str], body: Formula) -> Formula:
    for var in reversed(prefix):
        body = Exists(var, body)
    return body


def _numerators(solution: CramerSolution, names: Sequence[str]) -> list[Term]:
    """The Cramer numerators N_i as terms, the columns read by ``names``."""
    return [
        Term(offset, dict(zip(names, row))) for row, offset in zip(solution.matrix, solution.offset)
    ]


def _case_single(plan: ComponentPlan, count_var: str, names: Sequence[str]) -> Formula:
    """Counted coordinate determined by the others: witness count is 0 or 1.

    The count is 1 exactly where the membership conditions M of the selected
    rows hold: ``0 <= N_i``, ``N_i = 0 (mod D)`` and the row equations of the
    other non-counted rows.  No binder.
    """
    selected = [names[i] for i in plan.rows]
    signs = [_divided(Le(constant(0), t)) for t in _numerators(plan.solution, selected)]
    congruences = []
    if plan.congruences:  # D > 1, so some rows are selected
        congruences = _congruences(plan.congruences, plan.solution.denom, selected[:-1], variable(selected[-1]))
    member = conj(signs + congruences + list(plan.relations))
    y = variable(count_var)
    return disj([conj([member, Eq(y, constant(1))]), conj([negate(member), Eq(y, constant(0))])])


def _case_interval(
    plan: ComponentPlan, count_var: str, names: Sequence[str], fresh: FreshNames
) -> tuple[list, Formula]:
    """The square-core construction for a component whose every full-rank
    row subsystem uses the counted row: its binders and its body.

    A two-sided core binds its first witness t0: ``E t0 . (signs & W(t0) &
    C) | (Z & count_var = 0)``, W the window of its lower terms
    (:func:`_first_witness_window`), C the count up to its upper terms
    (:func:`progression_count_formula`) and the zero case Z the disjunction
    of ``!signs``, ``!S`` (S the quantifier-free solvability condition of
    the congruences, :func:`_solvability`) and, over N,
    :func:`_negative_upper_terms`.  Where Z has no disjunct (over Z, without
    sign atoms and with congruences that always have a solution) the body is
    ``signs & W(t0) & C``.  A one-sided core adds no binder to the prefix:
    its body is ``!(signs & S) & 0 = count_var``.
    """
    presentation, solution, bc = plan.component, plan.solution, plan.bounds
    nat = presentation.domain is DomainTag.N
    relations = conj(plan.relations)
    free_names = [names[i] for i in plan.rows[:-1]]
    if nat:
        # Nonnegative periods make an all-nonpositive counted column of the
        # inverse impossible, so lower bounds always exist over the naturals.
        assert bc.lower_rows, "natural-domain core without lower bounds"
    signs = conj([_divided(Le(constant(0), bc.row_terms[i])) for i in bc.sign_rows])
    solvable = conj(plan.solvable)
    y = variable(count_var)
    if not bc.upper_rows or not bc.lower_rows:
        # One bound family is empty: wherever the sign atoms hold and the
        # congruences have a solution the witness set is infinite, so no
        # count value may satisfy it; elsewhere it is empty.
        prefix, body = [], conj([negate(conj([signs, solvable])), Eq(constant(0), y)])
    else:
        m = bc.multiplier
        lows = [bc.bound_term(i) for i in bc.lower_rows]
        highs = [bc.bound_term(j) for j in bc.upper_rows]
        t0 = fresh.fresh("t")
        t = variable(t0)
        congruences = _congruences(plan.congruences, solution.denom, free_names, t)
        window = _first_witness_window(lows, m * t, m * plan.coset_period, congruences)
        count = progression_count_formula(m * t, highs, m * plan.coset_period, count_var)
        found = conj([signs, window, count])
        zero = [negate(signs), negate(solvable)]
        if nat:
            zero += _negative_upper_terms(highs)
        prefix, body = [t0], disj([found, conj([disj(zero), Eq(y, constant(0))])])
    if not isinstance(relations, fm.TrueF):
        body = disj([conj([relations, body]), conj([negate(relations), Eq(y, constant(0))])])
    return prefix, body


def _build(components: Sequence[ComponentPlan], names: Sequence[str], count_var: str) -> EliminationResult:
    """The formula of the planned ``components`` (see :func:`eliminate`),
    with its report: each component's size is the node count of its body
    closed by its binders, and the total that of the formula."""
    fresh = FreshNames(set(names) | {count_var})
    single = len(components) == 1
    prefix: list[str] = []
    bodies: list[Formula] = []
    reports = []
    for index, comp_plan in enumerate(components, start=1):
        part_count = count_var if single else fresh.fresh("y")
        if comp_plan.bounds is None:
            comp_prefix, body = [], _case_single(comp_plan, part_count, names)
        else:
            comp_prefix, body = _case_interval(comp_plan, part_count, names, fresh)
        if comp_plan.component.domain is DomainTag.N:
            body = normalize_for_nat(body)
        closed = _close(comp_prefix, body)
        reports.append(comp_plan.report(index, part_count, fm.node_count(closed)))
        prefix.extend(comp_prefix)
        if not single:
            prefix.append(part_count)
            body = conj([Le(constant(0), variable(part_count)), body])
        bodies.append(body)
    if single:
        # The one component, closed, is the formula: its count is the total.
        formula, nodes = closed, reports[0].nodes
    else:
        component_sum = Term(0, {report.count_var: 1 for report in reports})
        formula = _close(prefix, conj(bodies + [Eq(component_sum, variable(count_var))]))
        nodes = fm.node_count(formula)
    return EliminationResult(
        formula=formula,
        count_var=count_var,
        report=EliminationReport(count_var=count_var, components=tuple(reports), nodes=nodes),
    )


def eliminate(
    presentation: Union[SemilinearPresentation, EliminationPlan],
    count_var: str,
    var_names: Optional[Sequence[str]] = None,
) -> EliminationResult:
    """Eliminate the counting quantifier over a disjoint simple union, given
    as a presentation or as its :class:`EliminationPlan` (whose built result
    is returned; a plan made for another count variable is refused).

    The counted coordinate is the last one; the result holds exactly when
    ``count_var`` equals the number of values of the counted coordinate
    placing the point in the set (no count value satisfies it when that set
    is infinite).  Each of several components gets a fresh count variable,
    and these sum to ``count_var``.  Disjointness is the caller's asserted
    precondition: on overlapping inputs the sum over-counts shared witnesses.
    """
    return plan_elimination(presentation, var_names, count_var).result


def estimate_result_nodes(presentation: Union[SemilinearPresentation, EliminationPlan]) -> int:
    """The size of the eliminated formula: the
    :func:`countqe.formula.node_count` of the formula that planning built
    (for the count variable ``y`` when given a presentation).

    The command-line interface reads it to refuse an input over its node
    budget before printing or checking anything.
    """
    return plan_elimination(presentation).result.report.nodes
