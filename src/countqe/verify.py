"""Cross-checking eliminated formulas against exact witness counts.

Two independent routes meet here.  The oracle route fixes the free
coordinates and counts the values of the counted one that land in the set.
Along that line the membership conditions of a component are affine in the
counted value, so its members form one arithmetic progression on an
interval (:meth:`MembershipTester.progression_on_line`, which merges their
congruences by the Chinese remainder theorem).  A bounded progression is
counted by its length, and components overlap when their progressions meet.
A progression open on one side is an infinite witness set, which satisfies
no count (Schweikardt 2005), so the count is flagged unstable.  Nothing is
scanned: the cost grows neither with the periods nor with the distance
between components.  The formula route reads the count off the eliminated
formula with a :class:`PinnedProgram`, compiled once per formula: every
existential variable the eliminator binds, and the count itself, is pinned
by the atoms of its chain, so no quantifier range is ever scanned.

Compiling reads the free names of every node into an int bitmask.  The
first time an existential chain is evaluated, the conjuncts of its body are
planned into steps of three kinds, tracking which chain names are still
undefined:

* *check* a conjunct once it reads no undefined name;
* *bind* a name from atoms that read no other undefined name: an equation
  gives its value by exact division, and a *window*, order atoms that bound
  it on both sides, the one integer of their range in the coset its
  congruence atoms leave, merged by the Chinese remainder theorem.  No
  value (a non-integral quotient, an empty window, or a negative value over
  N) makes the branch false.  A *floor pair* ``s*u <= X + s`` and ``X <
  s*u`` pins ``u = floor(X/s) + 1``, a first witness ``L <= m*t < L +
  m*D'`` the one member of a coset of period D', or none;
* *split* on a disjunction that reads an undefined name: each disjunct is
  planned, together with the conjuncts left beside the disjunction, when
  it is first reached.

Checks and equations come first.  Next comes a window whose atoms prove
that it leaves at most one value: a lower and an upper atom whose
difference is constant bound the name to at most as many integers as the
period of its coset (both windows above do), so a two-sided core ``W(t0) &
C``, C the count disjunction, takes t0 from W.  Then a split, and only then
any other window; a chain that no step applies to is stuck, and a chain
name that no conjunct reads is never undefined.  A plan depends on its
chain alone, so it is kept for every later call.

A check passes or fails, and a bind step gives at most one value, so the
one explicit stack of a run holds only splits: a failed branch resumes at
the next disjunct of the latest split, and neither long chains nor nested
splits cost recursion.  Binder values are restored when a chain's
evaluation ends, and a memo that lives for one evaluation call keys each
chain's verdict by the values of the names it reads.

:meth:`PinnedProgram.evaluate` decides the formula at an assignment.
:meth:`PinnedProgram.count_values` reads the count off it instead.  The
eliminator defines the count branch by branch (``y = 0``, ``y = 1``, a floor
pair, ``y = y1 + ... + yk``), so the formula is closed by ``E y`` and planned
as one chain, with y one more name that the chain binds.  That plan runs
trying every branch: a successful one holds at the value it bound y to, or
at every value when it never bound y.  At each split y gets back the value
it had there, so no branch reads a value bound by an earlier one, and the
run stops once every tested count is found.  A formula that does not read
the count free is decided once.  Where the run raises (y bounded on one
side only, say), each tested count is decided by ``evaluate`` instead.

:class:`PinnedEvaluationError` is raised when evaluation reaches a stuck
step (such as equations that each read several undefined names, or a name
that order atoms bound on one side only), a window that leaves more than one
integer, or a ``Forall`` or ``CountEq``.

The trial runner drives both routes over seeded random assignments and
reports agreement; the command-line ``check`` command and the acceptance
suite are thin wrappers around it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Union

from . import formula as fm
from .elim import EliminationPlan, plan_elimination
from .errors import CountQEError, ParameterError, UnboundVariableError
from .formula import (
    And,
    Cong,
    CountEq,
    Eq,
    Exists,
    Forall,
    Formula,
    Le,
    Lt,
    Not,
    Or,
    Term,
)
from .linalg import congruence_coset
from .sets import DomainTag, MembershipTester, Progression, SemilinearPresentation, coordinate_names

# perfbench/layers.py still patches these names; they leave with those patches.
eliminate = solve_unique = evaluate_pinned = None


class PinnedEvaluationError(CountQEError):
    """The pinned evaluator met a shape it cannot decide exactly."""


# --- pinned evaluation ----------------------------------------------------------

_CHECK, _BIND, _SPLIT, _STUCK = range(4)
_UNSET = object()


def _restore(env: dict, name: str, value) -> None:
    if value is _UNSET:
        env.pop(name, None)
    else:
        env[name] = value


class PinnedProgram:
    """A formula compiled once for repeated exact evaluation.

    Construction reads every node's free names into an int bitmask (one bit
    per name, keyed by the node's id).  The plan of each existential chain,
    and of the formula closed by a count name, is built the first time it is
    run and kept; the memo of chain verdicts lives for one call of
    :meth:`evaluate` or :meth:`count_values`.
    """

    def __init__(self, formula: Formula, domain: DomainTag | str = DomainTag.Z):
        self.formula = formula
        self._nat = fm.as_domain(domain) is DomainTag.N
        self._bits: dict[str, int] = {}
        self._by_bit: list[str] = []
        self._masks: dict[int, int] = {}
        self._mask_names: dict[int, tuple] = {}
        # Keyed by id, each entry holds its node, so no other node takes that id.
        self._pins: dict = {}  # (id(atom), name) -> (atom, (coefficient, rest of the term))
        self._plans: dict = {}  # id(chain head) -> (steps, names it writes)
        self._heads: dict = {}  # count name -> E count . formula
        self._memo: dict = {}
        bits, bit, masks = self._bits, self._bit, self._masks
        for g in reversed(fm.traverse(formula)[0]):  # children before parents
            m = 0
            children = g.children
            if children:
                for c in children:
                    m |= masks[id(c)]
                for name in g.binds:
                    m &= ~bits.get(name, 0)
                for name in g.refs:
                    m |= bit(name)
            else:
                for t in g.terms:
                    for name in t.coeffs:
                        m |= bits.get(name) or bit(name)
            masks[id(g)] = m

    def _bit(self, name: str) -> int:
        b = self._bits.get(name)
        if b is None:
            b = self._bits[name] = 1 << len(self._by_bit)
            self._by_bit.append(name)
        return b

    def _names(self, mask: int) -> tuple:
        names = self._mask_names.get(mask)
        if names is None:
            by_bit = self._by_bit
            names = tuple(by_bit[i] for i in range(mask.bit_length()) if mask >> i & 1)
            self._mask_names[mask] = names
        return names

    def free_names(self, node: Formula) -> frozenset:
        """The names ``node`` (a node of the formula) reads free."""
        return frozenset(self._names(self._masks[id(node)]))

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        """Whether the formula holds at ``assignment``."""
        self._memo = {}
        return self._sat(self.formula, dict(assignment))

    def count_values(
        self, assignment: Mapping[str, int], count_var: str, candidates: Sequence[int]
    ) -> list[int]:
        """The candidates for ``count_var`` at which the formula holds, in
        their order and with their repeats; over N a negative one never
        holds.  They are read off one run of the formula closed by ``E
        count_var`` that tries every branch; where that run raises, each is
        decided by :meth:`evaluate` (see the module docstring)."""
        wanted = {k for k in candidates if k >= 0 or not self._nat}
        env = dict(assignment)
        env.pop(count_var, None)
        if not wanted or not self._masks[id(self.formula)] & self._bits.get(count_var, 0):
            missing = set() if wanted and self.evaluate(env) else wanted
        else:
            head = self._heads.get(count_var)
            if head is None:
                head = self._heads[count_var] = Exists(count_var, self.formula)
                self._masks[id(head)] = self._masks[id(self.formula)] & ~self._bits[count_var]
            missing, self._memo = set(wanted), {}
            try:
                self._run(self._chain_plan(head)[0], env, count_var, missing)
            except PinnedEvaluationError:
                missing = {k for k in wanted if not self.evaluate({**env, count_var: k})}
        return [k for k in candidates if k in wanted and k not in missing]

    # evaluation

    def _sat(self, f: Formula, env: dict) -> bool:
        """Whether ``f`` holds at ``env``."""
        tf = type(f)
        if tf is And:
            for p in f.parts:
                if not self._sat(p, env):
                    return False
            return True
        if tf is Or:
            for p in f.parts:
                if self._sat(p, env):
                    return True
            return False
        if tf is Not:
            negated = False
            while type(f) is Not:
                negated = not negated
                f = f.body
            return self._sat(f, env) != negated
        if tf is Exists:
            return self._exists(f, env)
        if not f.children:
            return fm.evaluate_atom(f, env)
        if tf is Forall or tf is CountEq:
            raise PinnedEvaluationError(f"unsupported quantifier in pinned evaluation: {tf.__name__}")
        raise TypeError(f"not a formula: {f!r}")

    def _exists(self, f: Exists, env: dict) -> bool:
        """Whether a chain holds; the memo keys its verdict by the values of
        the names it reads."""
        try:
            key = (id(f), *[env[name] for name in self._names(self._masks[id(f)])])
        except KeyError as exc:
            raise UnboundVariableError(f"no value for variable {exc.args[0]!r}") from None
        verdict = self._memo.get(key)
        if verdict is None:
            steps, written = self._chain_plan(f)
            saved = [(name, env.get(name, _UNSET)) for name in written]
            verdict = self._memo[key] = self._run(steps, env)
            for name, value in saved:
                _restore(env, name, value)
        return verdict

    def _run(self, steps: list, env: dict, count: Optional[str] = None, missing: Optional[set] = None) -> bool:
        """Whether some branch of a plan succeeds.  A split leaves a
        backtracking point on one explicit stack, so nested splits do not
        recurse.  Given the ``count`` name and the set of its ``missing``
        values, every branch is tried instead: a successful one removes the
        value it bound the count to from ``missing``, or every value when it
        left the count unbound, and the run stops once none is missing."""
        i = 0
        stack = []  # (the disjuncts' plans of a split, the count's value there)
        while True:
            if i < len(steps):
                step = steps[i]
                kind = step[0]
                if kind == _CHECK:
                    holds = self._sat(step[1], env)
                elif kind == _BIND:
                    value = self._window(step[2], step[1], env)
                    holds = value is not None
                    if holds:
                        env[step[1]] = value
                elif kind == _SPLIT:
                    stack.append((self._branches(step), env.get(count, _UNSET)))
                    holds = False
                else:
                    raise PinnedEvaluationError(step[1])
                if holds:
                    i += 1
                    continue
            elif count is None:
                return True
            else:
                value = env.get(count, _UNSET)
                if value is _UNSET:
                    missing.clear()
                else:
                    missing.discard(value)
                if not missing:
                    return True
            while stack:
                branches, value = stack[-1]
                steps = next(branches, None)
                if steps is not None:
                    i = 0
                    _restore(env, count, value)  # without a count, a no-op
                    break
                stack.pop()
            else:
                return False

    def _window(self, atoms: list, name: str, env: dict) -> Optional[int]:
        """The value of ``name`` that ``atoms`` leave, or None: the one
        member of the :class:`Progression` that the order atoms bound on
        both sides (an equation bounds it twice, so it divides exactly) in
        the coset of the congruence atoms, over N only a nonnegative one.
        Raises when the window holds more than one value."""
        lows, highs = [], []
        start, step = 0, 1  # name = start (mod step)
        for p in atoms:
            # coef*name + rest <= 0 (< 0, that is <= -1), = 0, or = residue (mod modulus)
            coef, rest = self._pin(p, name)
            tp = type(p)
            if tp is Cong:
                # start + step*k solves it when coef*step*k = rhs (mod modulus)
                rhs = p.residue - rest.evaluate(env) - coef * start
                coset = congruence_coset(coef * step, rhs, p.modulus)
                if coset is None:
                    return None
                start, step = start + step * coset[0], step * coset[1]
                continue
            bound = -rest.evaluate(env) - (tp is Lt)
            # An equation is coef*name <= bound and -coef*name <= -bound.
            for c, b in ((coef, bound), (-coef, -bound)) if tp is Eq else ((coef, bound),):
                if c > 0:
                    highs.append(b // c)
                else:
                    lows.append(-(b // -c))
        found = Progression.of(lows, highs, start, step)
        if found is None:
            return None
        if found.lo != found.hi:
            raise PinnedEvaluationError(f"the window leaves {name!r} more than one value")
        return found.lo if found.lo >= 0 or not self._nat else None

    def _pin(self, atom: Formula, name: str) -> tuple:
        """``atom`` (a comparison or congruence) solved for ``name``: its
        coefficient and the rest of the term ``lhs - rhs`` (of a congruence,
        its term)."""
        key = (id(atom), name)
        entry = self._pins.get(key)
        if entry is None:
            combined = atom.term if type(atom) is Cong else atom.lhs - atom.rhs
            rest = {other: c for other, c in combined.coeffs.items() if other != name}
            coef = combined.coeffs.get(name)  # None when the name cancels out
            entry = self._pins[key] = (atom, None if coef is None else (coef, Term(combined.constant, rest)))
        return entry[1]

    def _branches(self, step: tuple):
        """The plans of a split's disjuncts; a disjunct is planned, together
        with the conjuncts left beside the disjunction, when first reached."""
        _, disjuncts, rest, undefined, plans = step
        for k, d in enumerate(disjuncts):
            if plans[k] is None:
                parts = list(d.parts) if type(d) is And else [d]
                plans[k] = self._plan(parts + rest, undefined)
            yield plans[k]

    # planning

    def _chain_plan(self, head: Exists) -> tuple:
        """The steps of a chain and the chain names its body reads, planned
        when first asked for."""
        plan = self._plans.get(id(head))
        if plan is None:
            chain = 0
            body = head
            while type(body) is Exists:
                chain |= self._bits.get(body.var, 0)
                body = body.body
            parts = list(body.parts) if type(body) is And else [body]
            undefined = self._masks[id(body)] & chain
            plan = self._plans[id(head)] = (self._plan(parts, undefined), self._names(undefined))
        return plan

    def _plan(self, parts: list, undefined: int) -> list:
        """Steps deciding the conjunction of ``parts`` whose ``undefined``
        names are bound by the chain being planned: checks and equations
        first, then a window whose atoms prove it leaves at most one value,
        then a split on a disjunction, then any other window; else the plan
        is stuck."""
        masks = self._masks
        steps: list = []
        pending = parts
        while pending:
            rest = []
            for g in pending:
                m = masks[id(g)] & undefined
                if not m:
                    steps.append((_CHECK, g))
                    continue
                if not m & (m - 1) and type(g) is Eq:
                    name = self._by_bit[m.bit_length() - 1]
                    if self._pin(g, name) is not None:
                        steps.append((_BIND, name, [g]))
                        undefined &= ~m
                        continue
                rest.append(g)
            progress = len(rest) < len(pending)
            pending = rest
            if progress:
                continue
            window, single = self._window_step(pending, undefined)
            split = None if single else next((g for g in pending if type(g) is Or), None)
            if split is not None:
                others = [g for g in pending if g is not split]
                steps.append((_SPLIT, split.parts, others, undefined, [None] * len(split.parts)))
                break
            if window is None:
                names = ", ".join(self._names(undefined))
                steps.append((_STUCK, f"no step pins the existential variables {names}"))
                break
            steps.append(window)
            pending = [g for g in pending if all(g is not w for w in window[2])]
            undefined &= ~self._bits[window[1]]
        return steps

    def _window_step(self, pending: list, undefined: int) -> tuple:
        """A bind step for a name that the order atoms among ``pending``
        reading no other undefined name bound on both sides, taking those
        atoms and the congruences on that name alone, and whether its atoms
        prove it at most one value: the first such window, else the first
        window, else None."""
        masks, sides = self._masks, {}
        for g in pending:
            m = masks[id(g)] & undefined
            if type(g) in (Le, Lt) and m and not m & (m - 1):
                pin = self._pin(g, self._by_bit[m.bit_length() - 1])
                sides.setdefault(m, set()).add(pin and pin[0] > 0)
        first = None
        for bit, signs in sides.items():
            if signs >= {True, False}:
                name = self._by_bit[bit.bit_length() - 1]
                atoms = [
                    g for g in pending
                    if type(g) in (Le, Lt, Cong) and masks[id(g)] & undefined == bit and self._pin(g, name)
                ]
                window = (_BIND, name, atoms)
                if self._at_most_one(atoms, name):
                    return window, True
                first = first or window
        return first, False

    def _at_most_one(self, atoms: list, name: str) -> bool:
        """Whether the window of ``atoms`` leaves ``name`` at most one value
        whatever the other names are: some lower and upper atom, ``a*u + r
        <= 0`` (a < 0) and ``b*u + s <= 0`` (b > 0, a strict atom's rest one
        more), bound u to a range of constant width ``(a*s - b*r)/(-a*b)``,
        holding at most ``floor(width) + 1`` integers, and that many are at
        most the period of the coset its congruences leave."""
        period, lows, highs = 1, [], []
        for p in atoms:
            coef, rest = self._pin(p, name)
            if type(p) is Cong:
                period = lcm(period, p.modulus // gcd(coef, p.modulus))
            else:
                (highs if coef > 0 else lows).append((coef, rest + (type(p) is Lt)))
        for a, r in lows:
            for b, s in highs:
                width = a * s - b * r
                if not width.coeffs and width.constant // (-a * b) + 1 <= period:
                    return True
        return False


# --- witness-count oracle -------------------------------------------------------


@dataclass(frozen=True)
class WitnessCount:
    """Oracle verdict for one assignment.

    ``count`` is the number of distinct members of the components bounded
    along the counted line, and ``per_component`` each one's members (0 for
    a component unbounded along the line).  ``stable`` is false exactly when
    some component is unbounded along it: the true count is infinite, and
    no count value holds.  ``overlap`` is true when two components share a
    member anywhere on the line.  ``window`` is the least range holding
    every finite end of the progressions, ``(0, 0)`` when none meets it.
    """

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
    """Count the values of the last coordinate placing a point in the union,
    in closed form from each component's progression on the line; a
    component unbounded along it makes the count unstable (see
    :class:`WitnessCount`)."""
    names = list(var_names) if var_names is not None else coordinate_names(presentation.dimension)
    values = [assignment[name] for name in names[:-1]]
    if testers is None:
        testers = [MembershipTester(c) for c in presentation.components]
    lines = [t.progression_on_line(values) for t in testers]
    live = [p for p in lines if p is not None]
    bounded = [p for p in live if p.bounded]
    ends = [end for p in live for end in (p.lo, p.hi) if end is not None]
    return WitnessCount(
        _union_size(bounded),
        len(bounded) == len(live),
        any(a.meet(b) is not None for a, b in combinations(live, 2)),
        (min(ends, default=0), max(ends, default=0)),
        tuple(p.size() if p is not None and p.bounded else 0 for p in lines),
    )


def _union_size(progressions: Sequence) -> int:
    """The number of distinct members of bounded progressions, by inclusion-
    exclusion: each distinct intersection keeps the signed count of the
    subsets of progressions meeting in it, so identical or nested
    progressions add no new terms."""
    signed: dict = {}
    for p in progressions:
        added = {p: 1}
        for q, c in signed.items():
            if (common := q.meet(p)) is not None:
                added[common] = added.get(common, 0) - c
        for q, c in added.items():
            signed[q] = signed.get(q, 0) + c
    return sum(c * q.size() for q, c in signed.items())


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
    """The records of a check; the tallies count their verdicts."""

    records: list

    def _tally(self, *verdicts: str) -> int:
        return sum(r.verdict in verdicts for r in self.records)

    @property
    def mismatches(self) -> int:
        return self._tally("mismatch")

    @property
    def overlaps(self) -> int:
        return self._tally("overlap")

    @property
    def unstable(self) -> int:
        return self._tally("unstable-ok", "unstable-bad")

    @property
    def unstable_bad(self) -> int:
        return self._tally("unstable-bad")

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
    presentation: Union[SemilinearPresentation, EliminationPlan],
    count_var: str = "y",
    trials: int = 100,
    box_radius: int = 100,
    seed: int = 0,
    var_names: Optional[Sequence[str]] = None,
) -> CheckOutcome:
    """Compare the eliminated formula against the witness oracle.

    Runs seeded random assignments; at stable oracle points the formula must
    hold at the oracle count and nowhere else among the tested values, at
    unstable points it must hold nowhere.  Overlapping components detected
    on a tested slice are recorded as contract violations.  The presentation
    may be given as its elimination plan, made for ``count_var``, which is
    then neither planned nor built again.
    """
    if trials < 0:
        raise ParameterError(f"trial count must be nonnegative, got {trials}")
    if box_radius < 0:
        raise ParameterError(f"box radius must be nonnegative, got {box_radius}")
    plan = plan_elimination(presentation, var_names, count_var)
    result, presentation, names = plan.result, plan.presentation, plan.names
    domain = presentation.domain
    testers = [MembershipTester(c) for c in presentation.components]
    program = PinnedProgram(result.formula, domain)
    rng = random.Random(seed)
    records = []
    for index in range(trials):
        assignment = random_assignment(rng, names[:-1], box_radius, domain)
        oracle = count_set_witnesses(presentation, assignment, names, testers)
        tested = tested_counts(rng, oracle.count)
        satisfied = tuple(program.count_values(assignment, result.count_var, tested))
        if oracle.overlap:
            verdict = "overlap"
        elif oracle.stable:
            verdict = "ok" if satisfied == (oracle.count,) else "mismatch"
        else:
            verdict = "unstable-bad" if satisfied else "unstable-ok"
        records.append(TrialRecord(index, assignment, oracle, tested, satisfied, verdict))
    return CheckOutcome(records)
