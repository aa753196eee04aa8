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
to ``min_j h_j``.  Over Z, a core with one lower term ``l = m*L + c`` whose
congruences, read at ``t = L + k``, no longer depend on the free
coordinates has the first witness ``L + k`` for one constant k: no binder,
window or congruence atom is written for it (:func:`_first_witness_term`).
With ``g_j = h_j - m*t0`` and ``s = m*D'``, the count c
is at least 0, above some ``g_j < s*c``, and 0 or at most every ``s*c <= g_j
+ s``, so that the strict and the at-most atom of one upper term, a floor
pair, pin it (:func:`progression_count_formula`).  The maximum and minimum
are atoms over the bound terms, not binders: a bound term can be negative at
natural points.  Where a row equation or a sign atom fails, or the
congruences have no solution, the count is 0.  A core with an empty bound
family has no count where its row equations and sign atoms hold and the
congruences have a solution, and count 0 elsewhere.
Components combine by summing their counts.  A component whose count is one
constant wherever it is finite (a one-sided core, 0; a point in dimension
1, 1; :func:`_constant_count`) adds its guard, where that count is finite,
and its constant to an offset.  Single-witness components whose membership
conditions M_i exclude each other, told apart by one equation or
congruence with different right-hand sides (:func:`_exclusive_groups`),
share one 0/1 count: ``(M_1 | ... | M_g) & c = 1 | !M_1 & ... & !M_g & c =
0``.  Each other group or component but the last binds a part count, and
the last is built with the count term ``y - offset - (the other parts)``,
made once, so no equation sums the parts; without such components the
formula is the guards and ``y = offset``.  Each body sets its count to 0,
to 1 or to a progression count that states ``0 <= y_i`` itself, so no other
``0 <= y_i`` stands beside it.

Atoms that the atoms beside them imply are left out: a core's row
equations stand once in its count case and their negation once in its zero
case; a progression count states ``0 <= c`` once, and not at all over N
where c is one name; the window's congruences stand once beside its
disjunction of upper ends; an integrality row that is k times another row
mod D, residue included, is dropped (:func:`_congruence_rows`).  A negated
order atom is the flipped atom (:func:`countqe.formula.negate`), and a
constant body gets no binders.

Before planning, residue splits are coalesced (:func:`_coalesce`): k
components with the same periods but one, q, k a prime dividing every entry
of q, and bases ``b + j*(q/k)`` for j < k, are the one simple linear set
``(b, periods with q/k for q)``, and are eliminated as it.  The merged set
stands at the place of its least input, with that input's period order, and
merging repeats, so a split modulo a composite number merges prime by prime.
Its count is the sum of the inputs' counts, so the formula means the same;
a union where nothing merges is built as before.  The plan keeps the input
presentation, which the check's oracle reads.

Each component is planned once (:func:`plan_component`: its case, core, Cramer
data and bound families), and :func:`plan_elimination` builds the formula
from the plans at once: the :class:`EliminationPlan` holds the result, and
its size is the node count of what was built.  :func:`eliminate`,
:func:`estimate_result_nodes` and :func:`countqe.verify.run_check` accept
the plan wherever they accept a presentation, and read that result.

Every comparison atom is built in one normal form, over Z and over N
alike (:func:`_atom`): divided by the gcd of its coefficients, each name on
the side of its positive coefficient and the constant on the side where it
is nonnegative.  Congruences are built with coefficients in ``[0, m)``.  So
no atom prints a subtraction, and each means the same over both domains.
Over the naturals the same body is built.  No clamp at 0 is needed: each
counted value is a point of the component, whose base and periods are
nonnegative, so a first witness below 0 (which no natural binder reaches)
means the counted range is empty.  That is exactly where some upper term is
negative, so over N the zero case of a two-sided core also holds there
(:func:`_negative_upper_terms`).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
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
    congruence_coset,
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
from .values import Value, set_field

# perfbench/layers.py still patches these names; they leave with those patches.
solve_unique = residue_case_feasible = build_permutation_branches = progression_count_formula_nat = None


# --- progression counts --------------------------------------------------------


def _atom(kind: type, lhs: Term, rhs: Term) -> Formula:
    """The atom ``lhs kind rhs`` (``Le``, ``Lt`` or ``Eq``) in normal form.

    ``diff = lhs - rhs`` is divided by the gcd g of its coefficients: ``diff
    <= 0`` rounds the bound ``-constant/g`` down, ``diff < 0`` rounds it up,
    and ``diff = 0`` divides exactly.  Each name then stands on the side of
    its positive coefficient and the constant on the side where it is
    nonnegative.  The atom has the same integer solutions, no more nodes, no
    subtraction and no name on both sides, and it is its own normal form.
    """
    diff = lhs - rhs
    g = gcd(*diff.coeffs.values())
    if g > 1:
        c = diff.constant
        assert kind is not Eq or c % g == 0, "an equation's constant must divide exactly"
        diff = Term(-(-c // g) if kind is Le else c // g, {n: v // g for n, v in diff.coeffs.items()})
    return kind(diff.positive_part(), diff.negative_part())


def progression_count_formula(
    first: Term, his: Sequence[Term], step: int, count: Term, domain: DomainTag = DomainTag.Z
) -> Formula:
    """Formula setting the term ``count`` to the number of terms of the
    progression ``first, first + step, ...`` that are at most every term of
    ``his``.

    With ``g_j = hi_j - first`` and ``q_j = floor(g_j/step) + 1``, the least
    integer with ``g_j < step*q_j``, the count is ``max(0, min_j q_j)``.  It
    is written ``0 <= u & (|_j g_j < step*u) & (u = 0 | &_j step*u <= g_j +
    step)``: u is at least that maximum exactly when it is at least 0 and
    some ``g_j < step*u``, and at most it exactly when ``u = 0`` or u is at
    most every ``q_j``.  A strict atom and the at-most atom of the same
    term, a floor pair, pin u.  Over N (``domain``) a count term without a
    negative coefficient or constant, one name, is at least 0 already, and
    ``0 <= u`` is left out.  No binder, and no atom compares ``first`` with
    an upper term; each atom is built in normal form (:func:`_atom`).
    """
    if step < 1 or not his:
        raise ParameterError("a progression count needs a positive step and an upper term")
    u = count
    gaps = [hi - first for hi in his]
    nonnegative = [] if domain is DomainTag.N and u == u.positive_part() else [_atom(Le, constant(0), u)]
    return conj(nonnegative + [
        disj([_atom(Lt, g, step * u) for g in gaps]),
        disj([_atom(Eq, u, constant(0)), conj([_atom(Le, step * u, g + step) for g in gaps])]),
    ])


def _first_witness_window(
    lows: Sequence[Term], first: Term, width: int, congruences: list
) -> Formula:
    """``max(lows) <= first < max(lows) + width`` and the ``congruences``:
    ``lo <= first`` for each lower term, ``first < lo + width`` for one of
    them (a disjunction over several), and the congruences once.  The
    evaluator splits on the disjunction and decides each branch by one
    window step.  Where the congruences leave ``first`` one coset of period
    ``width``, at most one value satisfies it.  Each order atom is built in
    normal form (:func:`_atom`)."""
    above = [_atom(Le, lo, first) for lo in lows]
    below = [_atom(Lt, first, lo + width) for lo in lows]
    return conj(above + [disj(below)] + congruences)


# --- classification of the Cramer rows ---------------------------------------


class BoundClassification(Value):
    """Partition of the Cramer rows by the sign of the counted coefficient.

    Rows whose counted-coordinate coefficient is negative yield upper bounds
    on ``multiplier * counted``, positive coefficients yield lower bounds,
    and zero coefficients contribute plain sign conditions.  ``scale`` maps
    a bounding row to the factor stretching its row form onto the common
    multiplier.  Row indices are 0-based.
    """

    __slots__ = ("multiplier", "row_terms", "scale", "upper_rows", "lower_rows", "sign_rows")

    def __init__(
        self,
        multiplier: int,
        row_terms: tuple[Term, ...],
        scale: dict,
        upper_rows: tuple[int, ...],
        lower_rows: tuple[int, ...],
        sign_rows: tuple[int, ...],
    ):
        set_field(self, "multiplier", multiplier)
        set_field(self, "row_terms", row_terms)
        set_field(self, "scale", scale)
        set_field(self, "upper_rows", upper_rows)
        set_field(self, "lower_rows", lower_rows)
        set_field(self, "sign_rows", sign_rows)

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


def _multiple_of(row: tuple, other: tuple, denom: int) -> bool:
    """Whether ``row`` is k times ``other`` mod ``denom``, residue included,
    for some integer k.  Each entry confines k to one coset
    (:func:`countqe.linalg.congruence_coset`), and these are merged by the
    Chinese remainder theorem; no loop runs over ``denom``."""
    start, step = 0, 1  # k = start (mod step)
    for b, a in zip((*row[0], row[1]), (*other[0], other[1])):
        coset = congruence_coset(a * step, b - a * start, denom)
        if coset is None:
            return False
        start, step = start + step * coset[0], step * coset[1]
    return True


def _without_multiples(rows: Sequence[tuple], denom: int) -> list[tuple]:
    """``rows`` (coefficients, residue), read as congruences mod ``denom``,
    without each row that is a multiple of another kept row
    (:func:`_multiple_of`): a row that a kept row implies is left out, and
    a new row drops the kept rows it implies.  The kept rows have the same
    common solutions as ``rows``."""
    kept: list[tuple] = []
    for row in rows:
        if not any(_multiple_of(row, other, denom) for other in kept):
            kept = [other for other in kept if not _multiple_of(other, row, denom)] + [row]
    return kept


def _congruence_rows(solution: CramerSolution) -> list[tuple]:
    """The integrality conditions ``N_i = 0 (mod D)`` of the Cramer rows, as
    (coefficients reduced mod D, residue of the constant part), none of
    them a multiple of another (:func:`_without_multiples`).

    A row whose coefficients all vanish mod D holds everywhere (its constant
    is 0 mod D, since every N_i vanishes at the base) and is left out; so is
    every row when D is 1.  Leaving out a row that another row implies keeps
    the rows' common solutions, so the coset period (an lcm over the rows)
    and the solvability condition stay the same.
    """
    d = solution.denom
    rows = []
    for row, offset in zip(solution.matrix, solution.offset):
        coeffs = tuple(c % d for c in row)
        assert any(coeffs) or offset % d == 0, "a constant row must vanish mod D"
        if any(coeffs):
            rows.append((coeffs, -offset % d))
    return _without_multiples(rows, d)


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
    """Over N, ``h < 0`` for each upper term h with a negative coefficient or
    constant.

    Where a two-sided core's sign atoms hold and its congruences are
    solvable, the window's coset member is below 0 exactly where some upper
    term is: every witness is a natural point of the component, so a
    negative member is no witness and lies above some upper term; and a
    negative upper term leaves no natural witness.  A term without a
    negative coefficient or constant is at least 0 at every natural point,
    so its atom never holds and is left out.  (A constant upper term is one
    of them: the base point is a witness.)
    """
    return [
        _atom(Lt, h, constant(0)) for h in highs if h.constant < 0 or any(c < 0 for c in h.coeffs.values())
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
    built in normal form (:func:`_atom`).  It holds on the component
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
        rhs = Term(offset, {names[r]: w for r, w in zip(rows, weights)})
        equations.append(_atom(Eq, d * variable(names[j]), rhs))
    return equations


# --- reports -------------------------------------------------------------------


class ComponentReport(Value):
    """Trace of one component's elimination.  Row and coefficient indices
    are reported 1-based.  A single-witness component reports its
    determinant and its selected and dropped rows (a component without
    periods none of them); it has no square core, so the other core fields
    keep their defaults.  The members of a group of single-witness
    components that share one count (see :func:`_build`) each name that
    count and report the node count of the group's body.  The inputs of a
    coalesced component (:func:`_coalesce`) each report it, with their
    indices in ``merged``; ``merged`` is empty for an input that stands
    alone."""

    __slots__ = (
        "index", "case", "count_var", "nodes", "denom", "multiplier", "selected_rows",
        "dropped_rows", "upper_rows", "lower_rows", "sign_rows", "coset_period", "merged",
    )

    def __init__(
        self,
        index: int,
        case: str,  # "single-witness" or "interval-count"
        count_var: Optional[str],  # None for a component of constant count
        nodes: int,
        denom: Optional[int] = None,
        multiplier: Optional[int] = None,
        selected_rows: tuple[int, ...] = (),
        dropped_rows: tuple[int, ...] = (),
        upper_rows: tuple[int, ...] = (),
        lower_rows: tuple[int, ...] = (),
        sign_rows: tuple[int, ...] = (),
        coset_period: Optional[int] = None,
        merged: tuple[int, ...] = (),
    ):
        set_field(self, "index", index)
        set_field(self, "case", case)
        set_field(self, "count_var", count_var)
        set_field(self, "nodes", nodes)
        set_field(self, "denom", denom)
        set_field(self, "multiplier", multiplier)
        set_field(self, "selected_rows", selected_rows)
        set_field(self, "dropped_rows", dropped_rows)
        set_field(self, "upper_rows", upper_rows)
        set_field(self, "lower_rows", lower_rows)
        set_field(self, "sign_rows", sign_rows)
        set_field(self, "coset_period", coset_period)
        set_field(self, "merged", merged)


class EliminationReport(Value):
    """The reports of the input components and the formula's node count."""

    __slots__ = ("count_var", "components", "nodes")

    def __init__(self, count_var: str, components: tuple[ComponentReport, ...], nodes: int):
        set_field(self, "count_var", count_var)
        set_field(self, "components", components)
        set_field(self, "nodes", nodes)


class EliminationResult(Value):
    """The eliminated formula, its count variable and its report."""

    __slots__ = ("formula", "count_var", "report")

    def __init__(self, formula: Formula, count_var: str, report: EliminationReport):
        set_field(self, "formula", formula)
        set_field(self, "count_var", count_var)
        set_field(self, "report", report)


# --- plans ---------------------------------------------------------------------


class ComponentPlan(Value):
    """How one component is eliminated, decided before anything is built.

    ``solution`` is the Cramer data of the selected ``rows`` (all 0-based):
    a single-witness component's p rows that avoid the counted (last) row
    (no rows and D = 1 without periods), or an interval core's least row
    basis of the other rows followed by the counted row.  The other
    non-counted rows are dropped, and ``relations`` are their row equations
    (:func:`_row_equations`).  ``congruences`` are the integrality conditions
    of the Cramer rows, none a multiple of another (see
    :func:`_congruence_rows`).  A
    single-witness component has no ``bounds``.  For an interval core, the
    congruences' solutions in the counted value form one coset of
    ``coset_period`` exactly where the atoms ``solvable`` hold
    (:func:`_solvability`).
    """

    __slots__ = (
        "component", "case", "rows", "dropped_rows", "solution",
        "relations", "congruences", "bounds", "coset_period", "solvable",
    )

    def __init__(
        self,
        component: LinearSetPresentation,
        case: str,  # "single-witness" or "interval-count"
        rows: tuple[int, ...],
        dropped_rows: tuple[int, ...],
        solution: CramerSolution,
        relations: tuple[Formula, ...],
        congruences: tuple,
        bounds: Optional[BoundClassification] = None,
        coset_period: int = 1,
        solvable: tuple = (),
    ):
        set_field(self, "component", component)
        set_field(self, "case", case)
        set_field(self, "rows", rows)
        set_field(self, "dropped_rows", dropped_rows)
        set_field(self, "solution", solution)
        set_field(self, "relations", relations)
        set_field(self, "congruences", congruences)
        set_field(self, "bounds", bounds)
        set_field(self, "coset_period", coset_period)
        set_field(self, "solvable", solvable)

    def report(self, inputs: Sequence[int], count_var: Optional[str], nodes: int) -> list[ComponentReport]:
        """The reports of this component, built with ``nodes`` nodes, one by
        each of the input components ``inputs`` that it stands for."""
        one_based = lambda rows: tuple(i + 1 for i in rows)
        fields = {"merged": one_based(inputs)} if len(inputs) > 1 else {}
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
        return [
            ComponentReport(index=i + 1, case=self.case, count_var=count_var, nodes=nodes, **fields) for i in inputs
        ]


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


def _prime_factors(g: int, limit: int) -> list[int]:
    """The primes up to ``limit`` that divide ``g``, by trial division; none
    for ``g = 0``."""
    primes, d = [], 2
    while d <= limit and g > 1:
        if g % d == 0:
            primes.append(d)
            while g % d == 0:
                g //= d
        d += 1
    return primes


def _chain(bases: dict, b: tuple, step: tuple, k: int) -> Optional[list]:
    """The bases ``b + j*step``, j < k, where ``b`` starts a chain of them in
    ``bases`` (base -> the components there): ``b - step`` is no base, and
    each of them is the base of one component.  Else None."""
    if tuple(x - s for x, s in zip(b, step)) in bases:
        return None
    chain = [tuple(x + j * s for x, s in zip(b, step)) for j in range(k)]
    return chain if all(len(bases.get(c, ())) == 1 for c in chain) else None


def _coalesce(components: Sequence[LinearSetPresentation]) -> list[tuple[LinearSetPresentation, tuple[int, ...]]]:
    """``components`` with each residue split merged (see the module
    docstring), as pairs of a component and the 0-based indices of the
    inputs it stands for, in the order of their least index.

    The k classes ``(b + j*(q/k), [q] + R)`` are ``(b, [q/k] + R)``: a
    coefficient n of q/k is ``(n mod k)*(q/k) + (n div k)*q``, and no other
    way, since the periods are independent.  A dict maps each key (the
    sorted periods; a presentation has one domain) to its bases.  For each
    period q of a key, only the primes k up to the key's number of bases
    that divide q are tried, and a chain starts only at a base b without
    ``b - q/k`` (:func:`_chain`): no pair of components is compared.  A key
    that gains or loses a component is searched again, until nothing
    merges.  A base that occurs twice under one key is never merged.
    """
    units = {i: (comp, (i,)) for i, comp in enumerate(components)}
    keys: dict = {}  # sorted periods -> base -> the least indices of its units
    pending: dict = {}  # the keys to search, in order

    def add(index: int) -> None:
        comp = units[index][0]
        key = tuple(sorted(comp.periods))
        keys.setdefault(key, {}).setdefault(comp.base, []).append(index)
        pending[key] = None

    for index in units:
        add(index)
    while pending:
        key = next(iter(pending))
        del pending[key]
        bases = keys[key]
        for q in key:
            for k in _prime_factors(gcd(*q), len(bases)):
                step = tuple(v // k for v in q)
                for b in list(bases):
                    chain = _chain(bases, b, step, k)
                    if chain is None:
                        continue
                    members = [bases.pop(c)[0] for c in chain]
                    least = min(members)
                    comp = units[least][0]
                    periods = list(comp.periods)
                    periods[periods.index(q)] = step
                    inputs = tuple(sorted(i for member in members for i in units.pop(member)[1]))
                    units[least] = (LinearSetPresentation(b, tuple(periods), comp.domain), inputs)
                    add(least)
                    pending[key] = None  # a base it took may have barred a chain here
    return [units[index] for index in sorted(units)]


class EliminationPlan(Value):
    """The component plans of a presentation whose coordinates are named
    ``names``, the counted one last, and the ``result`` built from them.
    The plans are those of the coalesced components (:func:`_coalesce`); the
    report has one line by each input component."""

    __slots__ = ("presentation", "names", "components", "result")

    def __init__(
        self,
        presentation: SemilinearPresentation,
        names: tuple[str, ...],
        components: tuple[ComponentPlan, ...],
        result: EliminationResult,
    ):
        set_field(self, "presentation", presentation)
        set_field(self, "names", names)
        set_field(self, "components", components)
        set_field(self, "result", result)


def plan_elimination(
    presentation: Union[SemilinearPresentation, EliminationPlan],
    var_names: Optional[Sequence[str]] = None,
    count_var: Optional[str] = None,
) -> EliminationPlan:
    """Coalesce the residue splits (:func:`_coalesce`), plan every component
    and build the formula from the plans; a plan is returned unchanged.

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
    coalesced = _coalesce(presentation.components)
    components = tuple(plan_component(c, names) for c, _ in coalesced)
    # Planning checked every component's simplicity; only the flags are left.
    if not (presentation.asserted_disjoint and presentation.asserted_simple):
        raise ContractError("presentation must be asserted disjoint and simple for elimination")
    if not is_identifier(count_var):
        raise ContractError(f"count variable {count_var!r} is not an identifier")
    if count_var in names:
        raise ContractError("count variable clashes with a coordinate name")
    inputs = [indices for _, indices in coalesced]
    return EliminationPlan(presentation, names, components, _build(components, inputs, names, count_var))


# --- the eliminator -------------------------------------------------------------


def _close(prefix: Sequence[str], body: Formula) -> Formula:
    """``body`` under the binders ``prefix``, outermost first; a body that is
    a constant reads none of them, and stays as it is."""
    if type(body) in (fm.TrueF, fm.FalseF):
        return body
    for var in reversed(prefix):
        body = Exists(var, body)
    return body


def _numerators(solution: CramerSolution, names: Sequence[str]) -> list[Term]:
    """The Cramer numerators N_i as terms, the columns read by ``names``."""
    return [
        Term(offset, dict(zip(names, row))) for row, offset in zip(solution.matrix, solution.offset)
    ]


def _member(plan: ComponentPlan, names: Sequence[str]) -> Formula:
    """The membership conditions M of a single-witness component, where its
    counted coordinate is determined by the others: ``0 <= N_i``, ``N_i = 0
    (mod D)`` of the selected rows and the row equations of the other
    non-counted rows."""
    selected = [names[i] for i in plan.rows]
    signs = [_atom(Le, constant(0), t) for t in _numerators(plan.solution, selected)]
    congruences = []
    if plan.congruences:  # D > 1, so some rows are selected
        congruences = _congruences(plan.congruences, plan.solution.denom, selected[:-1], variable(selected[-1]))
    return conj(signs + congruences + list(plan.relations))


def _case_single(members: Sequence[Formula], count: Term) -> Formula:
    """Single-witness components whose membership conditions ``members``
    (:func:`_member`) exclude each other, counted by one term: ``count`` is 1
    exactly where some M_i holds, ``(M_1 | ... | M_g) & count = 1 | !M_1 &
    ... & !M_g & count = 0``.  No binder."""
    return disj([
        conj([disj(members), _atom(Eq, count, constant(1))]),
        conj([negate(m) for m in members] + [_atom(Eq, count, constant(0))]),
    ])


def _labels(member: Formula) -> dict:
    """The labels of the equations and congruences of a membership
    condition: each ``f = v`` gives v under the key ``(f, None)``, each ``f
    = r (mod q)`` gives r under ``(f, q)``.  An equation's form is divided
    by its gcd already (:func:`_atom`); a congruence is divided by the gcd
    of its coefficients, residue and modulus, and reduced mod q.  Of f and
    -f the lesser is taken, its label negated with it, so that two atoms
    with one key and different labels have no common solution."""
    labels = {}
    for atom in member.parts if type(member) is fm.And else (member,):
        if type(atom) is Eq:
            diff = atom.lhs - atom.rhs
            q, form, value = None, diff.coeffs, -diff.constant
        elif type(atom) is Cong:
            g = gcd(atom.modulus, atom.residue, *atom.term.coeffs.values())
            q, value = atom.modulus // g, atom.residue // g
            form = {n: c // g % q for n, c in atom.term.coeffs.items() if c // g % q}
        else:
            continue
        neg = (lambda v: -v) if q is None else (lambda v: -v % q)
        items = sorted(form.items())
        flipped = [(n, neg(c)) for n, c in items]
        if flipped < items:
            items, value = flipped, neg(value)
        if items:
            labels[(tuple(items), q)] = value
    return labels


def _exclusive_groups(members: dict) -> list[list[int]]:
    """The single-witness components, ``members`` mapping each index to its
    membership condition, in groups whose conditions exclude each other, in
    the order of their first index.  A dict maps a key of :func:`_labels` to
    the one group it founded; a component joins the group of the first key
    it has whose label there is not yet taken, and founds a group under its
    first key that no group holds otherwise.  No pair of conditions is
    compared."""
    groups: list[list[int]] = []
    by_key: dict = {}  # key -> (the group, the labels taken there)
    for index, member in members.items():
        labels = _labels(member)
        for key, label in labels.items():
            held = by_key.get(key)
            if held is not None and label not in held[1]:
                held[0].append(index)
                held[1].add(label)
                break
        else:
            group = [index]
            groups.append(group)
            key = next((key for key in labels if key not in by_key), None)
            if key is not None:
                by_key[key] = (group, {labels[key]})
    return groups


def _signs(bc: BoundClassification) -> Formula:
    """The sign atoms ``0 <= N_i`` of a core's rows without a counted
    coefficient."""
    return conj([_atom(Le, constant(0), bc.row_terms[i]) for i in bc.sign_rows])


def _constant_count(plan: ComponentPlan) -> Optional[int]:
    """The count of a component that is one constant wherever it is finite,
    else None: 0 for a one-sided core (its witness set is empty or
    infinite), and 1 for a component without periods in dimension 1 (its
    one point)."""
    if plan.bounds is not None:
        return None if plan.bounds.upper_rows and plan.bounds.lower_rows else 0
    if not plan.component.periods and plan.component.dimension == 1:
        return 1
    return None


def _guard(plan: ComponentPlan) -> Formula:
    """Where the count of a component of :func:`_constant_count` is finite:
    for a one-sided core ``!(R & signs & S)``, R the equations of the
    dropped rows (:func:`_row_equations`) and S the quantifier-free
    solvability condition of the congruences (:func:`_solvability`), since
    wherever R and the sign atoms hold and the congruences have a solution
    the witness set is infinite and no count value may satisfy it; for a
    point, true."""
    if plan.bounds is None:
        return fm.TRUE
    return negate(conj([conj(plan.relations), _signs(plan.bounds), conj(plan.solvable)]))


def _case_interval(
    plan: ComponentPlan, count: Term, names: Sequence[str], fresh: FreshNames
) -> tuple[list, Formula]:
    """The square-core construction for a two-sided core (both bound
    families nonempty), counted by the term ``count``: its binders and its
    body.

    With R the equations of the dropped rows (:func:`_row_equations`), it
    binds its first witness t0: ``E t0 . (R & signs & W(t0) & C) | (Z &
    count = 0)``, W the window of its lower terms
    (:func:`_first_witness_window`), C the count up to its upper terms
    (:func:`progression_count_formula`, given the component's domain) and
    the zero case Z the disjunction of ``!R``, ``!signs``, ``!S`` (S the
    quantifier-free solvability condition of the congruences,
    :func:`_solvability`) and, over N, :func:`_negative_upper_terms`.
    Where Z has no disjunct (over Z, without dropped rows or sign atoms and
    with congruences that always have a solution) the body is ``signs &
    W(t0) & C``.  So R stands once in each case.  Where the first witness
    is a term tau of the free coordinates (:func:`_first_witness_term`), W
    and S hold identically: the body is ``R & signs & C(m*tau) | Z & count
    = 0``, without a binder.
    """
    solution, bc = plan.solution, plan.bounds
    assert bc.upper_rows and bc.lower_rows, "a one-sided core has a constant count"
    free_names = [names[i] for i in plan.rows[:-1]]
    relations, signs = conj(plan.relations), _signs(bc)
    m = bc.multiplier
    highs = [bc.bound_term(j) for j in bc.upper_rows]
    t = _first_witness_term(plan, free_names)
    if t is None:
        binders = [fresh.fresh("t")]
        t = variable(binders[0])
        congruences = _congruences(plan.congruences, solution.denom, free_names, t)
        lows = [bc.bound_term(i) for i in bc.lower_rows]
        window = _first_witness_window(lows, m * t, m * plan.coset_period, congruences)
    else:
        binders, window = [], fm.TRUE
    progression = progression_count_formula(m * t, highs, m * plan.coset_period, count, plan.component.domain)
    found = conj([relations, signs, window, progression])
    zero = [negate(relations), negate(signs), negate(conj(plan.solvable))]
    if plan.component.domain is DomainTag.N:
        zero += _negative_upper_terms(highs)
    return binders, disj([found, conj([disj(zero), _atom(Eq, count, constant(0))])])


def _first_witness_term(plan: ComponentPlan, free_names: Sequence[str]) -> Optional[Term]:
    """The first witness of a two-sided core over Z as a term of the free
    coordinates ``free_names``, or None where it is not one.

    It is one when the core has one lower term ``lo = m*L + c`` (m the
    multiplier, L a term without constant) and every congruence row, read
    at ``t = L + k``, has its name coefficients vanish mod D.  The rows then
    read ``lam_i*k = r_i (mod D)`` and fix k mod D' (the coset period), by
    the Chinese remainder theorem; the solvability condition holds
    everywhere.  So the window's one member is ``L + k`` for the one such k
    with ``c <= m*k < c + m*D'``.  Over N the binder stays, since it ranges
    over the naturals.
    """
    bc = plan.bounds
    if plan.component.domain is not DomainTag.Z or len(bc.lower_rows) != 1:
        return None
    m, lo = bc.multiplier, bc.bound_term(bc.lower_rows[0])
    if any(c % m for c in lo.coeffs.values()):
        return None
    shift = {n: c // m for n, c in lo.coeffs.items()}
    d = plan.solution.denom
    start, step = 0, 1  # k = start (mod step)
    for coeffs, residue in plan.congruences:
        lam = coeffs[-1]
        if any((a + lam * shift.get(n, 0)) % d for n, a in zip(free_names, coeffs)):
            return None
        coset = congruence_coset(lam * step, residue - lam * start, d)
        assert coset is not None, "the base point solves the congruences"
        start, step = start + step * coset[0], step * coset[1]
    assert step == plan.coset_period, "the rows fix k mod the coset period"
    least = -(-lo.constant // m)
    return Term(least + (start - least) % step, shift)


def _build(
    components: Sequence[ComponentPlan], inputs: Sequence[tuple[int, ...]], names: Sequence[str], count_var: str
) -> EliminationResult:
    """The formula of the planned ``components`` (see :func:`eliminate`),
    with its report, one line by each input component (``inputs`` those of
    each plan): each component's size is the node count of its body closed
    by its binders, and the total that of the formula.

    A component of constant count (:func:`_constant_count`) gets no part
    count: its :func:`_guard` joins the conjunction and its constant an
    offset.  Single-witness components whose membership conditions exclude
    each other (:func:`_exclusive_groups`) share one 0/1 count, built at the
    place of the group's first member (:func:`_case_single`).  Every other
    group and two-sided core but the last binds a part count, which its body
    sets to a natural number, and the last is built with the count term
    ``count_var - offset - (the other parts)``, made once from one
    coefficient map, so no equation sums the parts.  Where no component has
    a count, the formula is ``guards & count_var = offset``.  A component's
    report names its part count, ``count_var`` for the last, and none for a
    constant one; the members of a group each name the group's count and
    report the node count of the group's body; the inputs of a coalesced
    component each report it (:meth:`ComponentPlan.report`).
    """
    fresh = FreshNames(set(names) | {count_var})
    constants = [_constant_count(comp_plan) for comp_plan in components]
    offset = sum(k for k in constants if k is not None)
    members = {
        index: _member(comp_plan, names)
        for index, comp_plan in enumerate(components)
        if constants[index] is None and comp_plan.bounds is None
    }
    # Each unit with a count, keyed by its first component: a group, or a two-sided core.
    units = {group[0]: group for group in _exclusive_groups(members)}
    units.update({i: [i] for i, plan in enumerate(components) if constants[i] is None and plan.bounds is not None})
    last = max(units, default=None)
    parts: list[str] = []
    prefix: list[str] = []
    bodies: list[Formula] = []
    reports = []
    for index, comp_plan in enumerate(components):
        comp_prefix: list[str] = []
        group = units.get(index, [index])
        if constants[index] is not None:
            part_count, body = None, _guard(comp_plan)
        elif index not in units:
            continue  # built with its group
        else:
            if index == last:
                part_count = count_var
                count = Term(-offset, {count_var: 1, **{part: -1 for part in parts}})
            else:
                part_count = fresh.fresh("y")
                count = variable(part_count)
                parts.append(part_count)
            if comp_plan.bounds is None:
                body = _case_single([members[i] for i in group], count)
            else:
                comp_prefix, body = _case_interval(comp_plan, count, names, fresh)
        nodes = fm.node_count(_close(comp_prefix, body))
        for i in group:
            reports += components[i].report(inputs[i], part_count, nodes)
        prefix.extend(comp_prefix)
        if part_count not in (None, count_var):
            prefix.append(part_count)
        bodies.append(body)
    if last is None:
        bodies.append(_atom(Eq, variable(count_var), constant(offset)))
    formula = _close(prefix, conj(bodies))
    return EliminationResult(
        formula=formula,
        count_var=count_var,
        report=EliminationReport(
            count_var=count_var,
            components=tuple(sorted(reports, key=lambda r: r.index)),
            nodes=fm.node_count(formula),
        ),
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
    is infinite).  The components' counts sum to ``count_var`` (see
    :func:`_build`).  Disjointness is the caller's asserted precondition:
    on overlapping inputs the sum over-counts shared witnesses.
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
