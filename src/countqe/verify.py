"""Cross-checking eliminated formulas against brute-force witness counts.

Two independent routes meet here.  The oracle route enumerates candidate
values of the counted coordinate over a window sized from the presentation's
own bound structure and tests each point by exact set membership, flagging
the count unstable when witnesses crowd a truncating window edge.  The
formula route decides the eliminated formula at candidate count values with
a :class:`PinnedProgram`, compiled once per formula: every existential
variable the eliminator binds is pinned by the atoms of its chain, so no
quantifier range is ever scanned.

Compiling reads the free names of every node into an int bitmask.  The
first time an existential chain is evaluated, the conjuncts of its body are
planned, tracking which chain names are still undefined:

* *check* a conjunct once it reads no undefined name;
* *define* a name from an equation with exactly one undefined name, by
  exact division (a non-integral value, or a negative one over N, makes
  the branch false);
* *choose* a name from a compound conjunct that reads no other undefined
  name, trying the values that satisfy that conjunct alone (a disjunct
  that does not mention the name offers 0), once no check or definition
  applies.  Within the conjunct, a conjunction offers the value an equation
  pins, else the value its window leaves (below), else the values of a
  disjunction;
* *window* a name that the order atoms reading no other undefined name
  bound on both sides, once no choice applies: its value is the one integer
  of that range in the coset its congruence atoms leave, merged by the
  Chinese remainder theorem.  A *floor pair* ``s*u <= X + s`` and ``X <
  s*u`` pins ``u = floor(X/s) + 1``, a first witness ``L <= m*t < L + m*D'``
  the one member of a coset of period D', or none;
* *split* on a disjunction that reads several undefined names, planning
  each disjunct together with the remaining conjuncts when first reached.

A chain name that no conjunct reads never becomes an unknown, and a choice
with one candidate continues in the loop, so a long chain costs no
recursion.  Binder values are restored when a chain's evaluation ends.  A
memo that lives for one evaluation call holds each chain's verdict and each
candidate list, keyed by the values of the names they read, so the parts of
a formula that do not read the count variable are decided once per trial,
not once per tested count.

:class:`PinnedEvaluationError` is raised when evaluation reaches a chain
whose remaining conjuncts no step applies to (such as equations that each
read several undefined names), a window that leaves more than one integer, a
conjunction with no equation or disjunction mentioning its name whose order
atoms bound it on one side only, or a ``Forall`` or ``CountEq``.

The trial runner drives both routes over seeded random assignments and
reports agreement; the command-line ``check`` command and the acceptance
suite are thin wrappers around it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Mapping, Optional, Sequence, Union

from . import formula as fm
from .elim import EliminationPlan, EliminationResult, eliminate, plan_elimination
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
from .linalg import solve_unique  # noqa: F401 -- unused; perfbench/layers.py patches this name
from .sets import (
    DomainTag,
    LinearSetPresentation,
    MembershipTester,
    SemilinearPresentation,
    coordinate_names,
)


class PinnedEvaluationError(CountQEError):
    """The pinned evaluator met a shape it cannot decide exactly."""


# --- pinned evaluation ----------------------------------------------------------

_CHECK, _DEFINE, _CHOOSE, _WINDOW, _SPLIT, _STUCK = range(6)
_UNSET = object()


def _congruence_coset(coeff: int, rhs: int, modulus: int):
    """The solutions of ``coeff*k = rhs (mod modulus)`` as ``(k0, step)``,
    the coset k0 + step*Z with 0 <= k0 < step; None when there are none."""
    g = gcd(coeff, modulus)
    if rhs % g:
        return None
    step = modulus // g
    return rhs // g * pow(coeff // g, -1, step) % step, step


class PinnedProgram:
    """A formula compiled once for repeated exact evaluation.

    Construction reads every node's free names into an int bitmask (one bit
    per name, keyed by the node's id).  The plan of each existential chain
    is built the first time the chain is evaluated and kept; the memo of
    verdicts and candidate lists lives for one call of :meth:`evaluate` or
    :meth:`count_values`.
    """

    def __init__(self, formula: Formula, domain: DomainTag | str = DomainTag.Z):
        self.formula = formula
        self._nat = fm.as_domain(domain) is DomainTag.N
        self._bits: dict[str, int] = {}
        self._by_bit: list[str] = []
        self._masks: dict[int, int] = {}
        self._mask_names: dict[int, tuple] = {}
        self._pins: dict = {}  # (id(atom), name) -> (coefficient, rest of the term)
        self._plans: dict = {}  # id(chain head) -> (steps, names it writes, key names)
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
        self._memo = {}
        return self._eval(self.formula, dict(assignment))

    def count_values(
        self, assignment: Mapping[str, int], count_var: str, candidates: Sequence[int]
    ) -> list[int]:
        """The candidates for ``count_var`` at which the formula holds, under
        one memo: parts that do not read the count are decided once."""
        self._memo = {}
        env = dict(assignment)
        hits = []
        for k in candidates:
            if self._nat and k < 0:
                continue
            env[count_var] = k
            if self._eval(self.formula, env):
                hits.append(k)
        return hits

    # evaluation

    def _eval(self, f: Formula, env: dict) -> bool:
        tf = type(f)
        if tf is And:
            for p in f.parts:
                if not self._eval(p, env):
                    return False
            return True
        if tf is Or:
            for p in f.parts:
                if self._eval(p, env):
                    return True
            return False
        if tf is Not:
            negated = False
            while type(f) is Not:
                negated = not negated
                f = f.body
            return self._eval(f, env) is not negated
        if tf is Exists:
            return self._exists(f, env)
        if not f.children:
            return fm.evaluate_atom(f, env)
        if tf is Forall or tf is CountEq:
            raise PinnedEvaluationError(f"unsupported quantifier in pinned evaluation: {tf.__name__}")
        raise TypeError(f"not a formula: {f!r}")

    def _key(self, head: tuple, names: tuple, env: dict) -> tuple:
        try:
            return head + tuple([env[name] for name in names])
        except KeyError as exc:
            raise UnboundVariableError(f"no value for variable {exc.args[0]!r}") from None

    def _exists(self, f: Exists, env: dict) -> bool:
        plan = self._plans.get(id(f))
        if plan is None:
            plan = self._plans[id(f)] = self._chain_plan(f)
        steps, written, key_names = plan
        key = self._key((id(f),), key_names, env)
        verdict = self._memo.get(key)
        if verdict is None:
            saved = [(name, env.get(name, _UNSET)) for name in written]
            verdict = self._memo[key] = self._run(steps, env)
            for name, value in saved:
                if value is _UNSET:
                    env.pop(name, None)
                else:
                    env[name] = value
        return verdict

    def _run(self, steps: list, env: dict) -> bool:
        """Execute a plan; a choice with several candidates leaves a
        backtracking point on an explicit stack."""
        nat = self._nat
        i, n = 0, len(steps)
        choices = []  # (step index, name, iterator over the other candidates)
        while i < n:
            step = steps[i]
            kind = step[0]
            if kind == _CHECK:
                ok = self._eval(step[1], env)
            elif kind == _DEFINE:
                _, name, coef, rest = step
                total = rest.evaluate(env)
                ok = total % coef == 0
                if ok:
                    value = env[name] = -(total // coef)
                    ok = value >= 0 or not nat
            elif kind == _CHOOSE:
                values = self._choices(step, env)
                ok = bool(values)
                if ok:
                    env[step[1]] = values[0]
                    if len(values) > 1:
                        choices.append((i, step[1], iter(values[1:])))
            elif kind == _WINDOW:
                values = self._window(step[2], step[1], env)
                ok = bool(values) and (values[0] >= 0 or not nat)
                if ok:
                    env[step[1]] = values[0]
            elif kind == _SPLIT:
                if self._split(step, env):
                    return True
                ok = False
            else:
                raise PinnedEvaluationError(step[1])
            if ok:
                i += 1
                continue
            while choices:
                j, name, others = choices[-1]
                value = next(others, None)
                if value is not None:
                    env[name] = value
                    i = j + 1
                    break
                choices.pop()
            else:
                return False
        return True

    def _choices(self, step: tuple, env: dict) -> list:
        _, name, g, key_names = step
        key = self._key((id(g), name), key_names, env)
        values = self._memo.get(key)
        if values is None:
            found = self._candidates(g, name, self._bits[name], env)
            values = sorted(v for v in found if v >= 0 or not self._nat)
            self._memo[key] = values
        return values

    def _candidates(self, g: Formula, name: str, bit: int, env: dict) -> set:
        """The values of ``name`` that satisfy ``g`` alone, the other names
        fixed by ``env``; a disjunct that does not mention the name stands
        for any value, and contributes 0.  A conjunction takes its values
        from an equation, else its window, else a disjunction."""
        if not self._masks[id(g)] & bit:
            return {0} if self._eval(g, env) else set()
        tg = type(g)
        if tg is Eq:
            value = self._pinned_value(g, name, env)
            return set() if value is None else {value}
        if tg is Or:
            out = set()
            for d in g.parts:
                out |= self._candidates(d, name, bit, env)
            return out
        if tg is And:
            mentioning = []
            for p in g.parts:
                if self._masks[id(p)] & bit:
                    mentioning.append(p)
                elif not self._eval(p, env):
                    return set()
            pin = next((p for p in mentioning if type(p) is Eq), None)
            if pin is not None:
                values = self._candidates(pin, name, bit, env)
            else:
                values = self._window(mentioning, name, env)
                if values is None:
                    pin = next((p for p in mentioning if type(p) is Or), None)
                    if pin is None:
                        raise PinnedEvaluationError(f"no equation, window or disjunction pins {name!r}")
                    values = self._candidates(pin, name, bit, env)
            out = set()
            for value in values:
                env[name] = value
                if all(self._eval(p, env) for p in mentioning if p is not pin):
                    out.add(value)
            return out
        raise PinnedEvaluationError(f"no equation pins {name!r} in {tg.__name__}")

    def _window(self, parts: list, name: str, env: dict) -> Optional[list]:
        """The value of ``name`` that the order atoms among ``parts`` leave in
        the coset of its congruence atoms among them, or none; None when the
        order atoms do not bound it on both sides.  Raises when the window
        holds more than one value."""
        lo = hi = None
        start, step = 0, 1  # name = start (mod step)
        for p in parts:
            tp = type(p)
            if tp is not Le and tp is not Lt and tp is not Cong:
                continue
            pin = self._pin(p, name)
            if pin is None:
                continue
            # coef*name + rest <= 0 (< 0, that is <= -1), or = residue (mod modulus)
            coef, rest = pin
            if tp is Cong:
                if step:
                    # start + step*k solves it when coef*step*k = rhs (mod modulus)
                    rhs = p.residue - rest.evaluate(env) - coef * start
                    coset = _congruence_coset(coef * step, rhs, p.modulus)
                    start, step = (start + step * coset[0], step * coset[1]) if coset else (0, 0)
                continue
            bound = -rest.evaluate(env) - (tp is Lt)
            if coef > 0:
                top = bound // coef
                hi = top if hi is None else min(hi, top)
            else:
                bottom = -(bound // -coef)
                lo = bottom if lo is None else max(lo, bottom)
        if lo is None or hi is None:
            return None
        if not step:  # the congruences have no common solution
            return []
        value = lo + (start - lo) % step
        if value + step <= hi:
            raise PinnedEvaluationError(f"the window leaves {name!r} more than one value")
        return [value] if value <= hi else []

    def _pin(self, atom: Formula, name: str) -> tuple:
        """``atom`` (a comparison or congruence) solved for ``name``: its
        coefficient and the rest of the term ``lhs - rhs`` (of a congruence,
        its term)."""
        key = (id(atom), name)
        if key not in self._pins:
            combined = atom.term if type(atom) is Cong else atom.lhs - atom.rhs
            rest = {other: c for other, c in combined.coeffs.items() if other != name}
            coef = combined.coeffs.get(name)  # None when the name cancels out
            self._pins[key] = None if coef is None else (coef, Term(combined.constant, rest))
        return self._pins[key]

    def _pinned_value(self, eq: Eq, name: str, env: dict) -> Optional[int]:
        pin = self._pin(eq, name)
        if pin is None:
            raise PinnedEvaluationError(f"{name!r} cancels out of an equation")
        coef, rest = pin
        total = rest.evaluate(env)
        return None if total % coef else -(total // coef)

    def _split(self, step: tuple, env: dict) -> bool:
        _, disjuncts, rest, undefined, plans = step
        for k, d in enumerate(disjuncts):
            if plans[k] is None:
                parts = list(d.parts) if type(d) is And else [d]
                plans[k] = self._plan(parts + rest, undefined)
            if self._run(plans[k], env):
                return True
        return False

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
        return (
            self._plan(parts, undefined),
            self._names(undefined),
            self._names(self._masks[id(head)]),
        )

    def _plan(self, parts: list, undefined: int) -> list:
        """Steps deciding the conjunction of ``parts`` whose ``undefined``
        names are bound by the chain being planned.  Checks and definitions
        come first; choices are taken only when neither applies, and a
        window only when no choice does."""
        masks = self._masks
        steps: list = []
        pending = parts
        choosing = False
        while pending:
            rest = []
            for g in pending:
                m = masks[id(g)] & undefined
                if not m:
                    steps.append((_CHECK, g))
                    continue
                if not m & (m - 1):
                    name = self._by_bit[m.bit_length() - 1]
                    pin = self._pin(g, name) if type(g) is Eq else None
                    if pin is not None:
                        steps.append((_DEFINE, name) + pin)
                        undefined &= ~m
                        continue
                    if choosing and g.children:
                        steps.append((_CHOOSE, name, g, self._names(masks[id(g)] & ~m)))
                        undefined &= ~m
                        continue
                rest.append(g)
            progress = len(rest) < len(pending)
            pending = rest
            if progress or not choosing:
                choosing = not progress
                continue
            window = self._window_step(pending, undefined)
            if window is not None:
                steps.append(window)
                pending = [g for g in pending if all(g is not w for w in window[2])]
                undefined &= ~self._bits[window[1]]
                choosing = False
                continue
            split = next((g for g in pending if type(g) is Or), None)
            if split is None:
                names = ", ".join(self._names(undefined))
                steps.append((_STUCK, f"no step pins the existential variables {names}"))
            else:
                others = [g for g in pending if g is not split]
                steps.append((_SPLIT, split.parts, others, undefined, [None] * len(split.parts)))
            break
        return steps

    def _window_step(self, pending: list, undefined: int) -> Optional[tuple]:
        """A window step for the first name that the order atoms among
        ``pending`` reading no other undefined name bound on both sides,
        taking those atoms and the congruences on that name alone."""
        masks, sides = self._masks, {}
        for g in pending:
            m = masks[id(g)] & undefined
            if type(g) in (Le, Lt) and m and not m & (m - 1):
                pin = self._pin(g, self._by_bit[m.bit_length() - 1])
                sides.setdefault(m, set()).add(pin and pin[0] > 0)
        bit = next((m for m, signs in sides.items() if signs >= {True, False}), None)
        if bit is None:
            return None
        atoms = [g for g in pending if type(g) in (Le, Lt, Cong) and masks[id(g)] & undefined == bit]
        return (_WINDOW, self._by_bit[bit.bit_length() - 1], atoms)


def evaluate_pinned(
    f: Formula, assignment: Mapping[str, int], domain: DomainTag | str = DomainTag.Z
) -> bool:
    """Exact evaluation for formulas whose bound variables are pinned.

    Every existential variable must be defined by the atoms of its chain
    (see the module docstring).  Unsupported shapes raise
    :class:`PinnedEvaluationError` rather than guessing.
    """
    return PinnedProgram(f, domain).evaluate(assignment)


def formula_count_values(
    result: EliminationResult,
    assignment: Mapping[str, int],
    candidates: Sequence[int],
    domain: DomainTag | str = DomainTag.Z,
) -> list[int]:
    """The candidate count values satisfying the eliminated formula."""
    program = PinnedProgram(result.formula, domain)
    return program.count_values(assignment, result.count_var, candidates)


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
    presentation: Union[SemilinearPresentation, EliminationPlan],
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
    on a tested slice are recorded as contract violations.  The presentation
    may be given as its elimination plan, which is then not planned again.
    """
    if trials < 0:
        raise ParameterError(f"trial count must be nonnegative, got {trials}")
    if box_radius < 0:
        raise ParameterError(f"box radius must be nonnegative, got {box_radius}")
    plan = plan_elimination(presentation, var_names)
    if result is None:
        result = eliminate(plan, count_var)
    presentation, names = plan.presentation, plan.names
    domain = presentation.domain
    testers = [MembershipTester(c) for c in presentation.components]
    program = PinnedProgram(result.formula, domain)
    rng = random.Random(seed)
    records = []
    mismatches = overlaps = unstable = unstable_bad = 0
    for index in range(trials):
        assignment = random_assignment(rng, names[:-1], box_radius, domain)
        oracle = count_set_witnesses(presentation, assignment, names, testers)
        tested = tested_counts(rng, oracle.count)
        satisfied = tuple(program.count_values(assignment, result.count_var, tested))
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
