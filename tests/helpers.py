"""Shared generators for randomised and acceptance tests, and references
that the tests compare the package against."""

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Mapping, Optional, Sequence

from countqe import elim
from countqe.elim import estimate_result_nodes
from countqe.errors import DegenerateInputError, DimensionError, ParameterError
from countqe.formula import (
    And,
    Cong,
    CountEq,
    Eq,
    Exists,
    FALSE,
    FalseF,
    Forall,
    Formula,
    Le,
    Lt,
    Not,
    Or,
    TRUE,
    Term,
    TrueF,
    conj,
    disj,
    negate,
    traverse,
)
from countqe.linalg import CramerSolution, IntMatrix, rank_over_rationals
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation

AST_NAMES = ["x", "y", "z1", "w_2", "E"]


def is_subtraction_free(f: Formula) -> bool:
    """Structural check: every atom has nonnegative coefficients and
    constants, so it prints without a subtraction."""
    return all(
        t.constant >= 0 and all(c >= 0 for c in t.coeffs.values())
        for g in traverse(f)[0]
        for t in g.terms
    )


def first_witness_is_a_term(plan) -> bool:
    """Whether a two-sided core, planned with the default names, binds no
    first witness: over Z, with one lower term lo whose coefficients the
    multiplier m divides, and at t = lo/m (its constant left out) every
    Cramer row's coefficient of each free name a multiple of D."""
    bounds = plan.bounds
    if plan.component.domain is not DomainTag.Z or len(bounds.lower_rows) != 1:
        return False
    m, lo = bounds.multiplier, bounds.bound_term(bounds.lower_rows[0])
    if any(c % m for c in lo.coeffs.values()):
        return False
    free = [f"x{i + 1}" for i in plan.rows[:-1]]
    return all(
        (row[j] + row[-1] * (lo.coeffs.get(name, 0) // m)) % plan.solution.denom == 0
        for row in plan.solution.matrix
        for j, name in enumerate(free)
    )


def print_presentation(presentation: SemilinearPresentation) -> str:
    """Render a presentation in the syntax of
    :func:`countqe.textio.parse_presentation`, which reads it back."""
    lines = [
        f"domain {presentation.domain.value}",
        f"dim {presentation.dimension}",
    ]
    if presentation.asserted_disjoint:
        lines.append("disjoint")
    if presentation.asserted_simple:
        lines.append("simple")
    for comp in presentation.components:
        lines.append("component")
        lines.append("base " + " ".join(str(v) for v in comp.base))
        for period in comp.periods:
            lines.append("period " + " ".join(str(v) for v in period))
    return "\n".join(lines) + "\n"


def count_in_progression(lo: int, hi: int, residue: int, modulus: int) -> int:
    """Number of integers t in [lo, hi] with t = residue (mod modulus): the
    closed form that progression count formulas are checked against."""
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    if hi < lo:
        return 0
    r = residue % modulus
    return (hi - r) // modulus - (lo - 1 - r) // modulus


def members_in(progression, lo: int, hi: int) -> list[int]:
    """The members of a :class:`countqe.sets.Progression` (or None) in
    ``lo..hi``, ascending."""
    if progression is None:
        return []
    first = lo if progression.lo is None else max(lo, progression.lo)
    last = hi if progression.hi is None else min(hi, progression.hi)
    first += (progression.start - first) % progression.step
    return list(range(first, last + 1, progression.step))


def check_progression_on_line(tester, prefix: list, lo: int, hi: int):
    """Check ``tester.progression_on_line(prefix)`` against
    ``tester.contains``: its members in ``lo..hi`` are the points found
    there, each finite end is a member, and an open side has a member
    ``10**6`` steps past the window.  Returns the progression."""
    found = tester.progression_on_line(prefix)
    expected = [v for v in range(lo, hi + 1) if tester.contains(prefix + [v])]
    assert members_in(found, lo, hi) == expected, (tester.presentation, prefix, found)
    if found is None:
        return None
    far = 10**6 * found.step
    ends = [
        lo - far - (lo - found.start) % found.step if found.lo is None else found.lo,
        hi + far + (found.start - hi) % found.step if found.hi is None else found.hi,
    ]
    assert all(tester.contains(prefix + [v]) for v in ends), (tester.presentation, prefix, found)
    return found


def random_term(rng: random.Random, names=AST_NAMES) -> Term:
    coeffs = {}
    for name in rng.sample(names, rng.randint(0, min(3, len(names)))):
        coeffs[name] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Term(rng.randint(-9, 9), coeffs)


def random_atom(rng: random.Random, names=AST_NAMES):
    kind = rng.randrange(4)
    if kind == 3:
        modulus = rng.randint(1, 7)
        return Cong(random_term(rng, names), rng.randrange(modulus), modulus)
    ctor = (Le, Lt, Eq)[kind]
    return ctor(random_term(rng, names), random_term(rng, names))


def random_ast(rng: random.Random, depth: int, names=AST_NAMES):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return TRUE
        if roll < 0.1:
            return FALSE
        return random_atom(rng, names)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_ast(rng, depth - 1, names))
    if kind == 1:
        return And(
            tuple(random_ast(rng, depth - 1, names) for _ in range(rng.randint(2, 3)))
        )
    if kind == 2:
        return Or(
            tuple(random_ast(rng, depth - 1, names) for _ in range(rng.randint(2, 3)))
        )
    if kind == 3:
        return Exists(rng.choice(names), random_ast(rng, depth - 1, names))
    if kind == 4:
        return Forall(rng.choice(names), random_ast(rng, depth - 1, names))
    counted, count = rng.sample(names, 2)
    return CountEq(counted, count, random_ast(rng, depth - 1, names))


def random_simple_component(
    rng: random.Random,
    dimension: int,
    num_periods: int,
    domain: DomainTag,
    split_coordinate=None,
    residue=0,
    modulus=2,
) -> LinearSetPresentation:
    """A random simple component; optionally pins one coordinate's residue.

    With ``split_coordinate`` set, every period is a multiple of
    ``modulus`` there and the base is ``residue`` modulo it, so components
    with distinct residues are disjoint by construction.
    """
    lo_entry = 0 if domain is DomainTag.N else -3
    lo_base = 0 if domain is DomainTag.N else -5
    while True:
        periods = []
        for _ in range(num_periods):
            vec = [rng.randint(lo_entry, 3) for _ in range(dimension)]
            if split_coordinate is not None:
                vec[split_coordinate] = rng.choice(
                    [0, modulus] if domain is DomainTag.N else [-modulus, 0, modulus]
                )
            periods.append(tuple(vec))
        base = [rng.randint(lo_base, 5) for _ in range(dimension)]
        if split_coordinate is not None:
            # Over N upwards, so the base stays natural; over Z downwards.
            if domain is DomainTag.N:
                base[split_coordinate] += (residue - base[split_coordinate]) % modulus
            else:
                base[split_coordinate] -= (base[split_coordinate] - residue) % modulus
        candidate = LinearSetPresentation(
            base=tuple(base), periods=tuple(periods), domain=domain
        )
        if num_periods == 0:
            return candidate
        matrix = IntMatrix.from_columns(periods)
        if rank_over_rationals(matrix) == num_periods:
            return candidate


def random_disjoint_presentation(
    rng: random.Random,
    domain: DomainTag,
    max_dimension: int = 3,
    node_budget: int = 60_000,
) -> SemilinearPresentation:
    """Random disjoint simple presentation within an output-size budget.

    Two-component presentations split on the parity of one coordinate, which
    keeps them disjoint without any search.  Candidates whose estimated
    eliminated formula exceeds the node budget are resampled, mirroring the
    command-line driver's node-budget guard.
    """
    while True:
        dimension = rng.randint(1, max_dimension)
        two = dimension >= 1 and rng.random() < 0.4
        components = []
        if two:
            coord = rng.randrange(dimension)
            for parity in (0, 1):
                components.append(
                    random_simple_component(
                        rng,
                        dimension,
                        rng.randint(0, dimension),
                        domain,
                        split_coordinate=coord,
                        residue=parity,
                    )
                )
        else:
            components.append(
                random_simple_component(
                    rng, dimension, rng.randint(0, dimension), domain
                )
            )
        candidate = SemilinearPresentation(
            components=tuple(components),
            asserted_disjoint=True,
            asserted_simple=True,
        )
        if estimate_result_nodes(candidate) <= node_budget:
            return candidate


# Which components of a split union have a constant count: first, in the
# middle, last, all of them and none, in unions of three and four.
SPLIT_PATTERNS = (
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (True, True, True),
    (False, True, True, False),
    (True, False, False, True),
    (True, True, True, True),
    (False, False, False),
)


def random_split_union(
    rng: random.Random,
    domain: DomainTag,
    constant: Sequence[bool],
    max_dimension: int = 3,
    node_budget: int = 20_000,
) -> SemilinearPresentation:
    """A random disjoint union of ``len(constant)`` simple components, split
    on the residue of one coordinate modulo their number: component i is i
    modulo it there (:func:`random_simple_component`).  Component i has a
    count that is one constant wherever it is finite (a one-sided core, or
    in dimension 1 a point) exactly where ``constant[i]`` holds; each is
    drawn until it does.  Only a union of constant counts can have
    dimension 1, and there its components are points.  Unions whose
    eliminated formula exceeds the node budget are resampled.
    """
    modulus = len(constant)
    while True:
        dimension = rng.randint(1 if all(constant) else 2, max_dimension)
        coordinate = rng.randrange(dimension)
        names = tuple(f"x{i + 1}" for i in range(dimension))
        components = []
        for residue, wanted in enumerate(constant):
            while True:
                periods = 0 if dimension == 1 else rng.randint(0, dimension)
                component = random_simple_component(
                    rng, dimension, periods, domain, split_coordinate=coordinate, residue=residue, modulus=modulus
                )
                if (elim._constant_count(elim.plan_component(component, names)) is not None) == wanted:
                    components.append(component)
                    break
        candidate = SemilinearPresentation(
            components=tuple(components), asserted_disjoint=True, asserted_simple=True
        )
        if estimate_result_nodes(candidate) <= node_budget:
            return candidate


def plan_reports(plan) -> list:
    """Each component plan of ``plan`` with the report of its least input:
    the inputs of a coalesced component all report that component."""
    reports = [r for r in plan.result.report.components if r.merged[:1] in ((), (r.index,))]
    return list(zip(plan.components, reports, strict=True))


def residue_classes(base, periods, k, which=0, domain=DomainTag.Z) -> list[LinearSetPresentation]:
    """The k residue classes of ``(base, periods)`` modulo k in the period
    ``periods[which]`` = p: the components ``(base + j*p, periods with k*p
    for p)``, j < k, in that order."""
    p = periods[which]
    split = tuple(tuple(k * v for v in q) if i == which else q for i, q in enumerate(periods))
    return [
        LinearSetPresentation(tuple(b + j * v for b, v in zip(base, p)), split, domain) for j in range(k)
    ]


def random_presentation(rng: random.Random, max_dimension: int = 4) -> SemilinearPresentation:
    """Arbitrary (not necessarily simple or disjoint) presentation, for
    syntax roundtrips."""
    domain = rng.choice([DomainTag.Z, DomainTag.N])
    dimension = rng.randint(1, max_dimension)
    lo = 0 if domain is DomainTag.N else -9
    components = []
    for _ in range(rng.randint(1, 3)):
        periods = tuple(
            tuple(rng.randint(lo, 9) for _ in range(dimension))
            for _ in range(rng.randint(0, 4))
        )
        base = tuple(rng.randint(lo, 9) for _ in range(dimension))
        components.append(
            LinearSetPresentation(base=base, periods=periods, domain=domain)
        )
    return SemilinearPresentation(
        components=tuple(components),
        asserted_disjoint=rng.random() < 0.5,
        asserted_simple=rng.random() < 0.5,
    )


# --- references the tests compare the package against ----------------------


@dataclass(frozen=True)
class ResidueCase:
    """A residue assignment: one class per free coordinate plus one for the
    counted coordinate, all modulo the core determinant."""

    free_residues: tuple[int, ...]
    counted_residue: int


def residue_case_feasible(solution: CramerSolution, case: ResidueCase) -> bool:
    """True when every solved coefficient is integral on this residue class.

    The reference that the congruences of
    :func:`countqe.elim._congruence_rows` are tested against.
    """
    p = solution.size
    if len(case.free_residues) != p - 1:
        raise ParameterError("residue case does not match system size")
    d = solution.denom
    point = list(case.free_residues) + [case.counted_residue]
    return all(num % d == 0 for num in solution.numerators(point))


def solve_unique(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """Solve ``rows * c = rhs`` exactly when the solution is unique.

    Sparse Gauss elimination over the rationals.  Each row is held as a map
    from column to nonzero coefficient.  Every step pivots on an active row
    with the fewest nonzeros (ties: lowest row index), in its column shared
    by the fewest active rows (ties: lowest column), and updates only the
    active rows containing that column; back-substitution then reads the
    pivot rows in reverse order.  A row with a single unknown therefore pins
    it at once, so the nearly diagonal blocks of eliminated formulas cost
    time linear in their nonzeros.  All arithmetic is exact.

    Three outcomes:

    * the unique solution, as a tuple of :class:`~fractions.Fraction`;
    * None if the system is inconsistent (some combination of rows reads
      ``0 = b`` with ``b != 0``), even when it is also rank deficient;
    * :class:`DegenerateInputError` if it is consistent but underdetermined.
    """
    if not rows:
        raise DimensionError("empty system")
    width = len(rows[0])
    coeffs: list[dict[int, Fraction]] = []
    consts: list[Fraction] = []
    holders: dict[int, set[int]] = {}  # column -> active rows containing it
    for i, (row, b) in enumerate(zip(rows, rhs)):
        entries = {j: Fraction(row[j]) for j in compress(range(width), row)}
        coeffs.append(entries)
        consts.append(Fraction(b))
        for j in entries:
            holders.setdefault(j, set()).add(i)
    heap = [(len(entries), i) for i, entries in enumerate(coeffs)]
    heapify(heap)
    active = set(range(len(coeffs)))
    order: list[tuple[int, int]] = []  # (pivot row, pivot column)
    while heap:
        size, i = heappop(heap)
        if i not in active or size != len(coeffs[i]):
            continue  # stale entry: the row was pivoted or has changed
        active.discard(i)
        pivot_row = coeffs[i]
        if not pivot_row:
            if consts[i]:
                return None
            continue
        col = min(pivot_row, key=lambda j: (len(holders[j]), j))
        for j in pivot_row:
            holders[j].discard(i)
        inv = 1 / pivot_row[col]
        for k in list(holders[col]):
            target = coeffs[k]
            factor = target[col] * inv
            for j, v in pivot_row.items():
                value = target.get(j, 0) - factor * v
                if value:
                    if j not in target:
                        holders[j].add(k)
                    target[j] = value
                else:
                    del target[j]
                    holders[j].discard(k)
            consts[k] -= factor * consts[i]
            heappush(heap, (len(target), k))
        order.append((i, col))
    if len(order) < width:
        raise DegenerateInputError("system is underdetermined")
    solution = [Fraction(0)] * width
    for i, col in reversed(order):
        pivot_row = coeffs[i]
        total = consts[i]
        for j, v in pivot_row.items():
            if j != col:
                total -= v * solution[j]
        solution[col] = total / pivot_row[col]
    return tuple(solution)


_UNARY = (Not, Exists, Forall, CountEq)


def simplify(f: Formula, assignment: Mapping[str, int]) -> Formula:
    """Fold a partial assignment into the formula.

    Variables present in the assignment are replaced by their values; atoms
    that become ground are decided, and connectives collapse accordingly.
    Bound variables shadow the assignment, mirroring
    :func:`countqe.formula.evaluate`.  The result is logically equivalent
    to the original under any extension of the assignment (bounded
    semantics included, since no quantifier structure is touched).
    """

    def fold_term(t: Term, shadowed: frozenset) -> Term:
        if not t.coeffs:
            return t
        const = t.constant
        coeffs = {}
        for name, c in t.coeffs.items():
            if name in assignment and name not in shadowed:
                const += c * assignment[name]
            else:
                coeffs[name] = c
        return Term(const, coeffs)

    def walk(g: Formula, shadowed: frozenset) -> Formula:
        tg = type(g)
        if tg in (TrueF, FalseF):
            return g
        if tg in (Le, Lt, Eq):
            lhs, rhs = fold_term(g.lhs, shadowed), fold_term(g.rhs, shadowed)
            if lhs.is_constant() and rhs.is_constant():
                a, b = lhs.constant, rhs.constant
                verdict = a <= b if tg is Le else a < b if tg is Lt else a == b
                return TRUE if verdict else FALSE
            return tg(lhs, rhs)
        if tg is Cong:
            t = fold_term(g.term, shadowed)
            if t.is_constant():
                return TRUE if t.constant % g.modulus == g.residue else FALSE
            return Cong(t, g.residue, g.modulus)
        if tg is And:
            return conj([walk(p, shadowed) for p in g.parts])
        if tg is Or:
            return disj([walk(p, shadowed) for p in g.parts])
        if isinstance(g, _UNARY):
            # A run of unary heads is collected in a loop and rebuilt inside
            # out, so a binder chain of any depth costs one Python frame.
            heads = []
            names = []
            while isinstance(g, _UNARY):
                heads.append(g)
                names.extend(g.binds)
                g = g.body
            body = walk(g, shadowed.union(names))
            for h in reversed(heads):
                th = type(h)
                if th is Not:
                    body = negate(body)
                elif th is CountEq:
                    body = CountEq(h.counted_var, h.count_var, body)
                elif not isinstance(body, (TrueF, FalseF)):
                    body = th(h.var, body)
            return body
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, frozenset())
