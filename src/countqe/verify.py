"""Cross-checking eliminated formulas against brute-force witness counts.

Two independent routes meet here.  The oracle route enumerates candidate
values of the counted coordinate over a window sized from the presentation's
own bound structure and tests each point by exact set membership, flagging
the count unstable when witnesses crowd a truncating window edge.  The
formula route evaluates the eliminated formula at candidate count values;
since every auxiliary count variable the eliminator binds is pinned by an
equation over already-known values, a small solving evaluator decides the
formula without scanning quantifier ranges.

The trial runner drives both routes over seeded random assignments and
reports agreement; the command-line ``check`` command and the acceptance
suite are thin wrappers around it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import formula as fm
from .elim import EliminationResult, eliminate
from .errors import CountQEError, UnboundVariableError
from .formula import (
    And,
    CountEq,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
)
from .linalg import solve_unique
from .sets import (
    DomainTag,
    LinearSetPresentation,
    MembershipTester,
    SemilinearPresentation,
    coordinate_names,
)
from .errors import DegenerateInputError


class PinnedEvaluationError(CountQEError):
    """The solving evaluator met a shape it cannot decide exactly."""


# --- solving evaluator --------------------------------------------------------


def _candidate_values(var: str, f: Formula, env: Mapping[str, int]) -> set:
    """Values of ``var`` that some equation of ``f`` outside a binder of
    ``var`` forces, given the other variables' values in ``env``."""
    out = set()
    for g, scope in zip(*fm.traverse(f)):
        if not isinstance(g, Eq) or (var not in g.lhs.coeffs and var not in g.rhs.coeffs):
            continue
        combined = g.lhs - g.rhs
        c = combined.coeffs.get(var)
        others = [name for name in combined.coeffs if name != var]
        if c and all(name in env for name in others) and var not in fm.bound_names(scope):
            total = combined.constant + sum(combined.coeffs[n] * env[n] for n in others)
            if total % c == 0:
                out.add(-(total // c))
    return out


def _atoms_only(f: Formula) -> Optional[list]:
    """The atom list when the formula is a conjunction of atoms, else None."""
    parts = f.parts if isinstance(f, And) else (f,)
    return None if any(p.children for p in parts) else list(parts)


def _solve_linear_block(
    chain: Sequence[str], atoms: Sequence[Formula], env: dict, domain
) -> bool:
    occurring = {name for atom in atoms for t in atom.terms for name in t.coeffs}
    unknowns = [v for v in chain if v not in env and v in occurring]
    # Chain variables absent from every atom are unconstrained; zero works
    # in either domain.
    env = {**env, **{v: 0 for v in chain if v not in env and v not in occurring}}
    if not unknowns:
        return all(fm.evaluate_atom(atom, env) for atom in atoms)
    index = {name: i for i, name in enumerate(unknowns)}
    rows = []
    rhs = []
    for atom in atoms:
        if not isinstance(atom, Eq):
            continue
        combined = atom.lhs - atom.rhs
        row = [0] * len(unknowns)
        total = combined.constant
        for name, coef in combined.coeffs.items():
            if name in env:
                total += coef * env[name]
            elif name in index:
                row[index[name]] = coef
            else:
                raise UnboundVariableError(f"no value for variable {name!r}")
        rows.append(row)
        rhs.append(-total)
    if not rows:
        raise PinnedEvaluationError("existential block without equations")
    try:
        solution = solve_unique(rows, rhs)
    except DegenerateInputError as exc:
        raise PinnedEvaluationError("existential block is underdetermined") from exc
    if solution is None:
        return False
    values = {}
    for name, value in zip(unknowns, solution):
        if value.denominator != 1:
            return False
        concrete = int(value)
        if domain is DomainTag.N and concrete < 0:
            return False
        values[name] = concrete
    extended = {**env, **values}
    return all(fm.evaluate_atom(atom, extended) for atom in atoms)


def _vacuous_binders(f: Formula) -> set:
    """The ids of the ``Exists`` nodes of ``f`` whose variable is not free
    in their body, from one traversal: every name an atom reads is resolved
    to the scope of its innermost binder, and a binder no name resolves to
    is vacuous."""
    nodes, scopes = fm.traverse(f)
    used = set()
    last, owners = (), {}
    for g, scope in zip(nodes, scopes):
        names = [name for t in g.terms for name in t.coeffs]
        names.extend(g.refs)
        if not names:
            continue
        if scope is not last:
            last, owners, inner = scope, {}, scope
            while inner is not None:
                for name in inner[0]:
                    owners.setdefault(name, id(inner))
                inner = inner[1]
        used.update(owners[name] for name in names if name in owners)
    # traverse lists a node with children directly before its last child,
    # whose scope is the one the node opens
    return {
        id(g) for k, g in enumerate(nodes) if type(g) is Exists and id(scopes[k + 1]) not in used
    }


def evaluate_pinned(
    f: Formula,
    assignment: Mapping[str, int],
    domain: DomainTag | str = DomainTag.Z,
    vacuous: Optional[set] = None,
) -> bool:
    """Exact evaluation for formulas whose bound variables are pinned.

    Every existential variable must be determined by equations over outer
    variables (as in eliminated formulas), or sit in a prefix over a plain
    conjunction of atoms with a unique rational solution (as in membership
    formulas).  Unsupported shapes raise :class:`PinnedEvaluationError`
    rather than guessing.  ``vacuous`` is ``_vacuous_binders(f)``, passed
    by callers that evaluate one formula many times.
    """
    if vacuous is None:
        vacuous = _vacuous_binders(f)
    env = dict(assignment)
    return _eval_pinned(f, env, fm.as_domain(domain), vacuous)


def _eval_pinned(f: Formula, env: dict, domain, vacuous: set) -> bool:
    tf = type(f)
    if not f.children:
        return fm.evaluate_atom(f, env)
    if tf is And:
        return all(_eval_pinned(p, env, domain, vacuous) for p in f.parts)
    if tf is Or:
        return any(_eval_pinned(p, env, domain, vacuous) for p in f.parts)
    if tf is Not:
        return not _eval_pinned(f.body, env, domain, vacuous)
    if tf is Exists:
        if id(f) in vacuous:
            return _eval_pinned(f.body, env, domain, vacuous)
        chain = [f.var]
        inner = f.body
        while isinstance(inner, Exists):
            chain.append(inner.var)
            inner = inner.body
        atoms = _atoms_only(inner)
        if atoms is not None and any(v not in env for v in chain):
            return _solve_linear_block(chain, atoms, env, domain)
        candidates = _candidate_values(f.var, f.body, env)
        candidates.add(0)
        for value in sorted(candidates):
            if domain is DomainTag.N and value < 0:
                continue
            env[f.var] = value
            if _eval_pinned(f.body, env, domain, vacuous):
                del env[f.var]
                return True
        env.pop(f.var, None)
        return False
    if tf is Forall or tf is CountEq:
        raise PinnedEvaluationError(f"unsupported quantifier in pinned evaluation: {tf.__name__}")
    raise TypeError(f"not a formula: {f!r}")


def formula_count_values(
    result: EliminationResult,
    assignment: Mapping[str, int],
    candidates: Sequence[int],
    domain: DomainTag | str = DomainTag.Z,
) -> list[int]:
    """The candidate count values satisfying the eliminated formula.

    Folds the assignment into the formula once, then decides each candidate
    with the solving evaluator.
    """
    domain = fm.as_domain(domain)
    residual = fm.simplify(result.formula, assignment)
    vacuous = _vacuous_binders(residual)
    hits = []
    for k in candidates:
        if domain is DomainTag.N and k < 0:
            continue
        if evaluate_pinned(residual, {result.count_var: k}, domain, vacuous):
            hits.append(k)
    return hits


# --- witness-count oracle -------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass
class _ComponentProfile:
    tester: MembershipTester
    empty: bool
    lo: Optional[int]  # None: unbounded below
    hi: Optional[int]  # None: unbounded above


def _component_profile(
    comp: LinearSetPresentation, tester: MembershipTester, values: Sequence[int]
) -> _ComponentProfile:
    """Bounds on where this component's witnesses can live for fixed free
    coordinates, from nonnegativity of the solved coefficients."""
    n = comp.dimension
    counted = n - 1
    if tester.cramer is None:
        matches = tuple(values) == comp.base[:-1]
        v = comp.base[-1]
        return _ComponentProfile(tester, not matches, v if matches else None, v if matches else None)
    if counted not in tester.selection:
        point = [values[i] for i in tester.selection]
        nums = tester.cramer.numerators(point)
        d = tester.cramer.denom
        if any(num % d != 0 or num < 0 for num in nums):
            return _ComponentProfile(tester, True, None, None)
        coeffs = [num // d for num in nums]
        forced = comp.base[counted] + sum(
            period[counted] * c for period, c in zip(comp.periods, coeffs)
        )
        return _ComponentProfile(tester, False, forced, forced)
    d = tester.cramer.denom
    pos = tester.selection.index(counted)
    lo: Optional[int] = None
    hi: Optional[int] = None
    for row, gamma in zip(tester.cramer.matrix, tester.cramer.offset):
        lam = row[pos]
        part = gamma
        for k, sel in enumerate(tester.selection):
            if sel == counted:
                continue
            part += row[k] * values[sel]
        if lam == 0:
            if part < 0 or part % d != 0:
                return _ComponentProfile(tester, True, None, None)
        elif lam > 0:
            bound = _ceil_div(-part, lam)
            lo = bound if lo is None else max(lo, bound)
        else:
            bound = part // (-lam)
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return _ComponentProfile(tester, True, None, None)
    return _ComponentProfile(tester, False, lo, hi)


@dataclass(frozen=True)
class WitnessCount:
    """Oracle verdict for one assignment."""

    count: int
    stable: bool
    overlap: bool
    window: tuple[int, int]
    per_component: tuple[int, ...]


def count_set_witnesses(
    presentation: SemilinearPresentation,
    assignment: Mapping[str, int],
    var_names: Optional[Sequence[str]] = None,
    testers: Optional[Sequence[MembershipTester]] = None,
) -> WitnessCount:
    """Count the values of the last coordinate placing a point in the union.

    Enumerates a window derived from each component's bound structure and
    tests membership point by point; the margin-based stability flag turns
    false when witnesses reach the window edges, which happens exactly when
    some component is unbounded in the counted direction.
    """
    n = presentation.dimension
    names = list(var_names) if var_names is not None else coordinate_names(n)
    values = [assignment[name] for name in names[:-1]]
    if testers is None:
        testers = [MembershipTester(c) for c in presentation.components]
    profiles = [
        _component_profile(comp, tester, values)
        for comp, tester in zip(presentation.components, testers)
    ]
    nat = presentation.domain is DomainTag.N
    margin = 2 * (
        max(
            (t.cramer.denom for t in testers if t.cramer is not None),
            default=1,
        )
        + 1
    )
    finite = [b for p in profiles if not p.empty for b in (p.lo, p.hi) if b is not None]
    live = [p for p in profiles if not p.empty]
    if not live:
        return WitnessCount(0, True, False, (0, 0), (0,) * len(profiles))
    anchor_lo = min(finite) if finite else 0
    anchor_hi = max(finite) if finite else 0
    low_infinite = any(p.lo is None for p in live)
    high_infinite = any(p.hi is None for p in live)
    lo = anchor_lo - (3 * margin if low_infinite else 2 * margin)
    hi = anchor_hi + (3 * margin if high_infinite else 2 * margin)
    lower_truncates = True
    if nat and lo <= 0:
        lo = 0
        lower_truncates = False
    if hi < lo:
        hi = lo
    per_component = []
    union: set = set()
    point = values + [0]
    for profile in profiles:
        if profile.empty:
            per_component.append(0)
            continue
        mine = 0
        for v in range(lo, hi + 1):
            point[-1] = v
            if profile.tester.contains(point):
                mine += 1
                union.add(v)
        per_component.append(mine)
    stable = True
    for v in union:
        if hi - v < margin or (lower_truncates and v - lo < margin):
            stable = False
            break
    overlap = sum(per_component) != len(union)
    return WitnessCount(
        count=len(union),
        stable=stable,
        overlap=overlap,
        window=(lo, hi),
        per_component=tuple(per_component),
    )


# --- trial harness ----------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    index: int
    assignment: dict
    oracle: WitnessCount
    tested: tuple[int, ...]
    satisfied: tuple[int, ...]
    verdict: str  # ok | mismatch | unstable-ok | unstable-bad | overlap


@dataclass
class CheckOutcome:
    records: list
    mismatches: int
    overlaps: int
    unstable: int
    unstable_bad: int

    def ok(self, strict: bool = False) -> bool:
        if self.mismatches or self.overlaps:
            return False
        return not (strict and self.unstable_bad)


def random_assignment(
    rng: random.Random, names: Sequence[str], radius: int, domain: DomainTag
) -> dict:
    lo = 0 if domain is DomainTag.N else -radius
    return {name: rng.randint(lo, radius) for name in names}


def tested_counts(rng: random.Random, oracle_count: int) -> tuple[int, ...]:
    base = {oracle_count, oracle_count + 1, oracle_count + 2, 0, 1, 2, 3}
    if oracle_count > 0:
        base.add(oracle_count - 1)
    for _ in range(5):
        base.add(rng.randint(0, oracle_count + 12))
    return tuple(sorted(base))


def run_check(
    presentation: SemilinearPresentation,
    count_var: str = "y",
    trials: int = 100,
    box_radius: int = 100,
    seed: int = 0,
    result: Optional[EliminationResult] = None,
    var_names: Optional[Sequence[str]] = None,
) -> CheckOutcome:
    """Compare the eliminated formula against the witness oracle.

    Runs seeded random assignments; at stable oracle points the formula must
    hold at the oracle count and nowhere else among the tested values, at
    unstable points it must hold nowhere.  Overlapping components detected
    on a tested slice are recorded as contract violations.
    """
    names = (
        list(var_names)
        if var_names is not None
        else coordinate_names(presentation.dimension)
    )
    if result is None:
        result = eliminate(presentation, count_var, var_names=names)
    domain = presentation.domain
    testers = [MembershipTester(c) for c in presentation.components]
    rng = random.Random(seed)
    records = []
    mismatches = overlaps = unstable = unstable_bad = 0
    for index in range(trials):
        assignment = random_assignment(rng, names[:-1], box_radius, domain)
        oracle = count_set_witnesses(presentation, assignment, names, testers)
        tested = tested_counts(rng, oracle.count)
        satisfied = tuple(
            formula_count_values(result, assignment, tested, domain)
        )
        if oracle.overlap:
            verdict = "overlap"
            overlaps += 1
        elif oracle.stable:
            verdict = "ok" if satisfied == (oracle.count,) else "mismatch"
            if verdict == "mismatch":
                mismatches += 1
        else:
            unstable += 1
            verdict = "unstable-ok" if not satisfied else "unstable-bad"
            if verdict == "unstable-bad":
                unstable_bad += 1
        records.append(
            TrialRecord(
                index=index,
                assignment=assignment,
                oracle=oracle,
                tested=tested,
                satisfied=satisfied,
                verdict=verdict,
            )
        )
    return CheckOutcome(
        records=records,
        mismatches=mismatches,
        overlaps=overlaps,
        unstable=unstable,
        unstable_bad=unstable_bad,
    )
