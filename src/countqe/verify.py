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
between components.  The formula route decides the eliminated formula at
the tested count values with a :class:`PinnedProgram`, compiled once per
formula: every existential variable the eliminator binds is pinned by the
atoms of its chain, so no quantifier range is ever scanned.

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

Checks and equations come first, but while a disjunction reads an undefined
name, an equation that reads the count binds nothing: a union's part counts
then come from their own disjunctions, and the equation summing them into
the count is checked once they are known.  Next comes a window whose atoms
prove that it leaves at most one value: a lower and an upper atom whose
difference is constant bound the name to at most as many integers as the
period of its coset (both windows above do), so a two-sided core ``W(t0) &
C``, C the count disjunction, takes t0 from W.  Then a split, and only then
any other window; a chain that no step applies to is stuck, and a chain
name that no conjunct reads is never undefined.  A deferred equation only
waits behind splits, so the deferral changes the cost of an evaluation,
never its answer, and a plan is kept whatever count a later call asks for.

Every node is decided over a set of candidates for the count variable:
:meth:`PinnedProgram.count_values` decides all the tested counts of a trial
in one evaluation, and :meth:`PinnedProgram.evaluate` is the same walk with
no count and one candidate.  A node that does not read the count holds at
all of its candidates or at none; ``And``, ``Or`` and ``Not`` combine
candidate subsets, and an atom that reads the count is solved for it once
and tested at each candidate by integer arithmetic.  In a chain, a check
narrows the candidate set, a bind step binds each value with the
candidates it holds for (computed once unless its atoms read the count; then
at each candidate, and candidates that bind the same value share one), and a
split tries each disjunct with the candidates no earlier one satisfied.
Bind steps with several values and splits leave backtracking points on one
explicit stack, so neither long chains nor nested splits cost recursion.
Binder values are restored when a chain's evaluation ends.  A memo that
lives for one evaluation call keys each chain's verdict by the values of
the names it reads (and, for one that reads the count, by its candidate
set), so a chain that does not read the count is decided once per trial.

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
from .elim import eliminate  # noqa: F401 -- unused; perfbench/layers.py patches this name
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
from .linalg import solve_unique  # noqa: F401 -- unused; perfbench/layers.py patches this name
from .sets import DomainTag, MembershipTester, Progression, SemilinearPresentation, coordinate_names


class PinnedEvaluationError(CountQEError):
    """The pinned evaluator met a shape it cannot decide exactly."""


# --- pinned evaluation ----------------------------------------------------------

_CHECK, _BIND, _SPLIT, _STUCK = range(4)
_UNSET = object()
_NONE = frozenset()
_ONE = frozenset((0,))  # the candidates of an evaluation that reads no count


class PinnedProgram:
    """A formula compiled once for repeated exact evaluation.

    Construction reads every node's free names into an int bitmask (one bit
    per name, keyed by the node's id).  The plan of each existential chain
    is built the first time the chain is evaluated and kept; the memo of
    chain verdicts lives for one call of :meth:`evaluate` or
    :meth:`count_values`.
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
        self._memo: dict = {}
        self._count, self._y = None, 0  # the count variable and its bit (0: none is read)
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
        """Whether the formula holds at ``assignment``: one candidate, no count."""
        return bool(self._decide(assignment, None, _ONE))

    def count_values(
        self, assignment: Mapping[str, int], count_var: str, candidates: Sequence[int]
    ) -> list[int]:
        """The candidates for ``count_var`` at which the formula holds, in
        their order and with their repeats; over N a negative one never
        holds.  One evaluation decides them all: ``count_var`` ranges over
        the set of candidates, and a part that does not read it is decided
        once."""
        cands = frozenset(k for k in candidates if k >= 0 or not self._nat)
        hits = self._decide(assignment, count_var, cands)
        return [k for k in candidates if k in hits]

    # evaluation

    def _decide(self, assignment: Mapping[str, int], count: Optional[str], cands: frozenset) -> frozenset:
        """The candidates among ``cands`` for ``count`` (None: the formula
        reads no count) at which the formula holds."""
        self._memo, self._count, self._y = {}, count, self._bits.get(count, 0)
        env = dict(assignment)
        env.pop(count, None)
        return self._sat(self.formula, env, cands) if cands else _NONE

    def _sat(self, f: Formula, env: dict, cands: frozenset) -> frozenset:
        """The count's candidates among ``cands`` (never empty) at which
        ``f`` holds.  A node that does not read the count holds at all of
        them or at none; an atom that reads it is tested at each candidate."""
        tf = type(f)
        if tf is And:
            for p in f.parts:
                cands = self._sat(p, env, cands)
                if not cands:
                    break
            return cands
        if tf is Or:
            hits, rest = _NONE, cands
            for p in f.parts:
                got = self._sat(p, env, rest)
                if len(got) == len(rest):
                    return cands
                if got:
                    hits |= got
                    rest = cands - hits
            return hits
        if tf is Not:
            negated = False
            while type(f) is Not:
                negated = not negated
                f = f.body
            hits = self._sat(f, env, cands)
            return (cands - hits if hits else cands) if negated else hits
        if tf is Exists:
            return self._exists(f, env, cands)
        if not f.children:
            if self._masks[id(f)] & self._y:
                return self._atom_hits(f, env, cands)
            return cands if fm.evaluate_atom(f, env) else _NONE
        if tf is Forall or tf is CountEq:
            raise PinnedEvaluationError(f"unsupported quantifier in pinned evaluation: {tf.__name__}")
        raise TypeError(f"not a formula: {f!r}")

    def _atom_hits(self, atom: Formula, env: dict, cands: frozenset) -> frozenset:
        """The candidates at which an atom that reads the count holds: the
        atom is solved for the count once, its rest evaluated once and each
        candidate tested by integer arithmetic."""
        count = self._count
        pin = self._pin(atom, count)
        if pin is None:  # the count cancels out
            env[count] = next(iter(cands))
            holds = fm.evaluate_atom(atom, env)
            del env[count]
            return cands if holds else _NONE
        coef, rest = pin
        r = rest.evaluate(env)
        ta = type(atom)
        if ta is Le:
            return frozenset([k for k in cands if coef * k + r <= 0])
        if ta is Lt:
            return frozenset([k for k in cands if coef * k + r < 0])
        if ta is Eq:
            return frozenset([k for k in cands if coef * k + r == 0])
        modulus, residue = atom.modulus, atom.residue
        return frozenset([k for k in cands if (coef * k + r) % modulus == residue])

    def _exists(self, f: Exists, env: dict, cands: frozenset) -> frozenset:
        """The candidates among ``cands`` at which a chain holds.  The memo
        keys its verdict by the values of the names it reads and, when it
        reads the count, by ``cands``."""
        y = self._y
        mask = self._masks[id(f)]
        reads = mask & y
        try:
            key = (id(f), cands if reads else None, *[env[name] for name in self._names(mask & ~y)])
        except KeyError as exc:
            raise UnboundVariableError(f"no value for variable {exc.args[0]!r}") from None
        verdict = self._memo.get(key)
        if verdict is None:
            if not reads:
                self._y = 0  # the chain reads no count; a name it binds is its own
            plan = self._plans.get(id(f))
            if plan is None:
                plan = self._plans[id(f)] = self._chain_plan(f)
            steps, written = plan
            saved = [(name, env.get(name, _UNSET)) for name in written]
            verdict = self._memo[key] = self._run(steps, env, cands if reads else _ONE)
            self._y = y
            for name, value in saved:
                if value is _UNSET:
                    env.pop(name, None)
                else:
                    env[name] = value
        return verdict if reads else (cands if verdict else _NONE)

    def _run(self, steps: list, env: dict, cands: frozenset) -> frozenset:
        """The candidates among ``cands`` at which a plan succeeds.  A bind
        step with several values (each with the candidates it holds for) and
        a split leave a backtracking point on one explicit stack, so neither
        recurses; a later branch tries only the candidates that no earlier
        one found."""
        total, found = len(cands), _NONE
        i = 0
        # (name, steps, index after the step, iterator over (value, candidates)),
        # where a split has no name and its values are its disjuncts' plans
        stack = []
        while True:
            if i < len(steps):
                step = steps[i]
                kind = step[0]
                if kind == _CHECK:
                    cands = self._sat(step[1], env, cands)
                elif kind == _BIND:
                    pairs = self._bind(step, env, cands)
                    cands = _NONE
                    if pairs:
                        env[step[1]], cands = pairs[0]
                        if len(pairs) > 1:
                            stack.append((step[1], steps, i + 1, iter(pairs[1:])))
                elif kind == _SPLIT:
                    stack.append((None, None, 0, self._branches(step, cands)))
                    cands = _NONE
                else:
                    raise PinnedEvaluationError(step[1])
                if cands:
                    i += 1
                    continue
            else:
                found |= cands
            if len(found) == total:
                return found
            while stack:
                name, resume, j, others = stack[-1]
                for value, cands in others:
                    cands -= found
                    if cands:
                        break
                else:
                    stack.pop()
                    continue
                if name is None:
                    steps, i = value, 0
                else:
                    env[name] = value
                    steps, i = resume, j
                break
            else:
                return found

    def _bind(self, step: tuple, env: dict, cands: frozenset) -> list:
        """The values a bind step gives its name, in increasing order, each
        with the candidates at which it is bound; over N only the
        nonnegative ones.  The step's atoms are solved once for all of
        ``cands`` when they do not read the count, else at each candidate in
        turn."""
        _, name, atoms, mask = step
        if not mask & self._y:
            pinned = dict.fromkeys(self._window(atoms, name, env), cands)
        else:
            count, by_value = self._count, {}
            for k in cands:
                env[count] = k
                for value in self._window(atoms, name, env):
                    by_value.setdefault(value, []).append(k)
            del env[count]
            pinned = {value: frozenset(ks) for value, ks in by_value.items()}
        return sorted(item for item in pinned.items() if item[0] >= 0 or not self._nat)

    def _window(self, atoms: list, name: str, env: dict) -> list:
        """The value of ``name`` that ``atoms`` leave, or none: the one
        member of the :class:`Progression` that the order atoms bound on
        both sides (an equation bounds it twice, so it divides exactly) in
        the coset of the congruence atoms.  Raises when the window holds
        more than one value."""
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
                    return []
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
        if found is not None and found.lo != found.hi:
            raise PinnedEvaluationError(f"the window leaves {name!r} more than one value")
        return [] if found is None else [found.lo]

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

    def _branches(self, step: tuple, cands: frozenset):
        """The plans of a split's disjuncts, each with the candidates the
        split was reached with; a disjunct is planned, together with the
        conjuncts left beside the disjunction, when first reached."""
        _, disjuncts, rest, undefined, plans = step
        for k, d in enumerate(disjuncts):
            if plans[k] is None:
                parts = list(d.parts) if type(d) is And else [d]
                plans[k] = self._plan(parts + rest, undefined)
            yield plans[k], cands

    # planning

    def _chain_plan(self, head: Exists) -> tuple:
        chain = 0
        body = head
        while type(body) is Exists:
            chain |= self._bits.get(body.var, 0)
            body = body.body
        mask = self._masks[id(body)]
        parts = list(body.parts) if type(body) is And else [body]
        undefined = mask & chain
        return self._plan(parts, undefined), self._names(undefined)

    def _plan(self, parts: list, undefined: int) -> list:
        """Steps deciding the conjunction of ``parts`` whose ``undefined``
        names are bound by the chain being planned.  Checks and equations
        come first, but while a disjunction reads an undefined name, an
        equation that reads the count binds nothing.  When neither applies,
        a window whose atoms prove it leaves at most one value, then a split
        on a disjunction, then any other window; else the plan is stuck."""
        masks, y = self._masks, self._y
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
                    deferred = masks[id(g)] & y and any(type(p) is Or and masks[id(p)] & undefined for p in pending)
                    if self._pin(g, name) is not None and not deferred:
                        steps.append((_BIND, name, [g], masks[id(g)]))
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
                mask = 0
                for g in atoms:
                    mask |= masks[id(g)]
                window = (_BIND, name, atoms, mask)
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


def evaluate_pinned(
    f: Formula, assignment: Mapping[str, int], domain: DomainTag | str = DomainTag.Z
) -> bool:
    """Exact evaluation for formulas whose bound variables are pinned.

    Every existential variable must be defined by the atoms of its chain
    (see the module docstring).  Unsupported shapes raise
    :class:`PinnedEvaluationError` rather than guessing.
    """
    return PinnedProgram(f, domain).evaluate(assignment)


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
    exclusion over the nonempty intersections: k^2 meets if none meet."""
    total, todo = 0, [(i, p, 1) for i, p in enumerate(progressions)]
    while todo:
        i, p, sign = todo.pop()
        total += sign * p.size()
        todo += [(j, q, -sign) for j in range(i + 1, len(progressions)) if (q := p.meet(progressions[j]))]
    return total


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
