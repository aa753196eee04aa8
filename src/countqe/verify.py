"""Cross-checking eliminated formulas against brute-force witness counts.

Two independent routes meet here.  The oracle route enumerates candidate
values of the counted coordinate over a window sized from the presentation's
own bound structure and tests each point by exact set membership, flagging
the count unstable when witnesses crowd a truncating window edge.  For fixed
free coordinates the membership conditions of a component (its Cramer
numerators and leftover rows) are affine in the counted value, so each point
is tested with O(p) integer operations on their values and steps
(:meth:`MembershipTester.members_on_line`); nothing is counted in closed
form.  The formula route decides the eliminated formula at the tested count
values with a :class:`PinnedProgram`, compiled once per formula: every
existential variable the eliminator binds is pinned by the atoms of its
chain, so no quantifier range is ever scanned.

Compiling reads the free names of every node into an int bitmask.  The
first time an existential chain is evaluated, the conjuncts of its body are
planned, tracking which chain names are still undefined:

* *check* a conjunct once it reads no undefined name;
* *define* a name from an equation with exactly one undefined name, by
  exact division (a non-integral value, or a negative one over N, makes
  the branch false).  While a disjunction reads an undefined name, an
  equation that reads the count defines nothing: a union's part counts
  then come from their own disjunctions, and the equation summing them
  into the count is checked once they are known;
* *window* a name that the order atoms reading no other undefined name
  bound on both sides: its value is the one integer of that range in the
  coset its congruence atoms leave, merged by the Chinese remainder
  theorem.  A *floor pair* ``s*u <= X + s`` and ``X < s*u`` pins ``u =
  floor(X/s) + 1``, a first witness ``L <= m*t < L + m*D'`` the one member
  of a coset of period D', or none.  Once no check or definition applies, a
  window is taken first if its atoms alone prove that it leaves at most one
  value: a lower and an upper atom whose difference is constant bound the
  name to at most as many integers as the period of the coset its
  congruences leave (both windows above do).  So a two-sided core without
  a zero case, whose chain body is ``W(t0) & C`` with the count C a
  disjunction, takes t0 from its window W.  Any other window is taken only
  when no split applies;
* *split* on a disjunction that reads an undefined name: each disjunct is
  planned, together with the conjuncts left beside the disjunction, when
  it is first reached.

A chain whose remaining conjuncts no step applies to is stuck.  A deferred
definition only waits behind splits, which apply while it waits, so the
deferral changes the cost of an evaluation, never its answer; a plan made
for one count, or for none, is kept whatever count a later call asks for.

:meth:`PinnedProgram.count_values` decides all the tested counts of a trial
in one evaluation: the count variable ranges over the set of candidates.
A node that does not read it is decided once, as a boolean; ``And``, ``Or``
and ``Not`` combine candidate subsets, and an atom that reads it is solved
for the count once (its coefficient and the value of the rest) and tested
at each candidate by integer arithmetic.  A chain runs its plan once: a
check narrows the candidate set, a define or window step binds each of its
values together with the candidates it holds for, and a split tries each
disjunct with the candidates that no earlier disjunct satisfied.  A bound
value is computed once unless the step's equation or window reads the
count; then it is computed at each candidate, and candidates that bind the
same value share one branch.  Deciding a formula for one assignment
(:meth:`PinnedProgram.evaluate`) is the same plan run with one candidate.

A chain name that no conjunct reads never becomes an unknown.  A step with
several values and a split each leave a backtracking point on one explicit
stack, so neither a long chain nor nested splits cost recursion; a later
branch tries only the candidates that no earlier one satisfied.  Binder
values are restored when a chain's evaluation ends.  A memo that lives for
one evaluation call holds each chain's verdict, keyed by the values of the
names it reads (and, for one that reads the count, by its candidate set),
so a chain that does not read the count is decided once per trial.

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
from math import gcd, lcm
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

_CHECK, _DEFINE, _WINDOW, _SPLIT, _STUCK = range(5)
_UNSET = object()
_NONE = frozenset()
_ONE = frozenset((0,))  # the candidates of an evaluation that reads no count


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
        self._memo, self._count, self._y = {}, None, 0
        return self._eval(self.formula, dict(assignment))

    def count_values(
        self, assignment: Mapping[str, int], count_var: str, candidates: Sequence[int]
    ) -> list[int]:
        """The candidates for ``count_var`` at which the formula holds, in
        their order and with their repeats; over N a negative one never
        holds.  One evaluation decides them all: ``count_var`` ranges over
        the set of candidates, and a part that does not read it is decided
        once."""
        self._memo, self._count, self._y = {}, count_var, self._bits.get(count_var, 0)
        env = dict(assignment)
        env.pop(count_var, None)
        cands = frozenset(k for k in candidates if k >= 0 or not self._nat)
        hits = self._sat(self.formula, env, cands) if cands else _NONE
        return [k for k in candidates if k in hits]

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

    def _sat(self, f: Formula, env: dict, cands: frozenset) -> frozenset:
        """The count's candidates among ``cands`` at which ``f`` holds.  A
        node that does not read the count is decided once, by :meth:`_eval`;
        an atom that reads it is tested at each candidate."""
        if self._masks[id(f)] & self._y:
            tf = type(f)
            if tf is And:
                for p in f.parts:
                    cands = self._sat(p, env, cands)
                    if not cands:
                        break
                return cands
            if tf is Or:
                hits = _NONE
                for p in f.parts:
                    hits |= self._sat(p, env, cands - hits)
                    if len(hits) == len(cands):
                        break
                return hits
            if tf is Not:
                negated = False
                while type(f) is Not:
                    negated = not negated
                    f = f.body
                hits = self._sat(f, env, cands)
                return cands - hits if negated else hits
            if tf is Exists:
                return self._exists(f, env, cands)
            if not f.children:
                return self._atom_hits(f, env, cands)
        return cands if self._eval(f, env) else _NONE

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

    def _key(self, head: tuple, names: tuple, env: dict, cands: Optional[frozenset] = None) -> tuple:
        """A memo key: ``head`` and the values of ``names``, where the count's
        candidates ``cands``, when given, stand for the count's value."""
        try:
            if cands is None:
                return head + tuple([env[name] for name in names])
            count = self._count
            return head + tuple([env[name] for name in names if name != count]) + (cands,)
        except KeyError as exc:
            raise UnboundVariableError(f"no value for variable {exc.args[0]!r}") from None

    def _exists(self, f: Exists, env: dict, cands: Optional[frozenset] = None):
        """A chain's verdict; with ``cands`` (the chain reads the count), the
        candidates among them at which it holds."""
        key = self._key((id(f),), self._names(self._masks[id(f)]), env, cands)
        verdict = self._memo.get(key)
        if verdict is None:
            y = self._y
            if cands is None:
                self._y = 0  # the chain reads no count; a name it binds is its own
            plan = self._plans.get(id(f))
            if plan is None:
                plan = self._plans[id(f)] = self._chain_plan(f)
            steps, written = plan
            saved = [(name, env.get(name, _UNSET)) for name in written]
            if cands is None:
                verdict = bool(self._run(steps, env, _ONE))
            else:
                verdict = self._run(steps, env, cands)
            self._memo[key] = verdict
            self._y = y
            for name, value in saved:
                if value is _UNSET:
                    env.pop(name, None)
                else:
                    env[name] = value
        return verdict

    def _run(self, steps: list, env: dict, cands: frozenset) -> frozenset:
        """The candidates among ``cands`` at which a plan succeeds.  A step
        binding several values (each with the candidates it holds for) and a
        split leave a backtracking point on one explicit stack, so neither
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
                elif kind == _SPLIT:
                    stack.append((None, None, 0, self._branches(step, cands)))
                    cands = _NONE
                elif kind == _STUCK:
                    raise PinnedEvaluationError(step[1])
                else:
                    pairs = self._bind(step, env, cands)
                    cands = _NONE
                    if pairs:
                        env[step[1]], cands = pairs[0]
                        if len(pairs) > 1:
                            stack.append((step[1], steps, i + 1, iter(pairs[1:])))
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
        """The values a define or window step binds, in increasing order,
        each with the candidates at which it is bound; over N only the
        nonnegative ones.  The step's source (an equation, or a window's
        atoms and the names they read) is solved once for all of ``cands``
        when it does not read the count, else at each candidate in turn."""
        _, name, source = step
        mask = source[1] if type(source) is tuple else self._masks[id(source)]
        if not mask & self._y:
            pinned = dict.fromkeys(self._values(source, name, env), cands)
        else:
            count, by_value = self._count, {}
            for k in cands:
                env[count] = k
                for value in self._values(source, name, env):
                    by_value.setdefault(value, []).append(k)
            del env[count]
            pinned = {value: frozenset(ks) for value, ks in by_value.items()}
        return sorted(item for item in pinned.items() if item[0] >= 0 or not self._nat)

    def _values(self, source, name: str, env: dict) -> list:
        if type(source) is tuple:
            return self._window(source[0], name, env)
        coef, rest = self._pin(source, name)
        total = rest.evaluate(env)
        return [] if total % coef else [-(total // coef)]

    def _window(self, atoms: list, name: str, env: dict) -> list:
        """The value of ``name`` that the order atoms among ``atoms``, which
        bound it on both sides, leave in the coset of its congruence atoms
        among them, or none.  Raises when the window holds more than one
        value."""
        lo = hi = None
        start, step = 0, 1  # name = start (mod step)
        for p in atoms:
            # coef*name + rest <= 0 (< 0, that is <= -1), or = residue (mod modulus)
            coef, rest = self._pin(p, name)
            tp = type(p)
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
        names are bound by the chain being planned.  Checks and definitions
        come first, but while a disjunction reads an undefined name, an
        equation that reads the count defines nothing.  When neither
        applies, a window whose atoms prove it leaves at most one value,
        then a split on a disjunction, then any other window; else the plan
        is stuck."""
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
                        steps.append((_DEFINE, name, g))
                        undefined &= ~m
                        continue
                rest.append(g)
            progress = len(rest) < len(pending)
            pending = rest
            if progress:
                continue
            window = self._window_step(pending, undefined, single=True)
            if window is None:
                split = next((g for g in pending if type(g) is Or), None)
                if split is not None:
                    others = [g for g in pending if g is not split]
                    steps.append((_SPLIT, split.parts, others, undefined, [None] * len(split.parts)))
                    break
                window = self._window_step(pending, undefined)
            if window is None:
                names = ", ".join(self._names(undefined))
                steps.append((_STUCK, f"no step pins the existential variables {names}"))
                break
            steps.append(window)
            pending = [g for g in pending if all(g is not w for w in window[2][0])]
            undefined &= ~self._bits[window[1]]
        return steps

    def _window_step(self, pending: list, undefined: int, single: bool = False) -> Optional[tuple]:
        """A window step for the first name that the order atoms among
        ``pending`` reading no other undefined name bound on both sides,
        taking those atoms and the congruences on that name alone, with the
        names they read; with ``single``, the first whose atoms prove it at
        most one value."""
        masks, sides = self._masks, {}
        for g in pending:
            m = masks[id(g)] & undefined
            if type(g) in (Le, Lt) and m and not m & (m - 1):
                pin = self._pin(g, self._by_bit[m.bit_length() - 1])
                sides.setdefault(m, set()).add(pin and pin[0] > 0)
        for bit, signs in sides.items():
            if signs >= {True, False}:
                name = self._by_bit[bit.bit_length() - 1]
                atoms = [
                    g for g in pending
                    if type(g) in (Le, Lt, Cong) and masks[id(g)] & undefined == bit and self._pin(g, name)
                ]
                if not single or self._at_most_one(atoms, name):
                    mask = 0
                    for g in atoms:
                        mask |= masks[id(g)]
                    return (_WINDOW, name, (atoms, mask))
        return None

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
    numerators, residuals = tester.line(values)
    d = tester.denom
    lo: Optional[int] = None
    hi: Optional[int] = None
    for num, step in numerators:
        if step == 0:
            if num < 0 or num % d != 0:
                return _ComponentProfile(tester, True, None, None)
        elif step > 0:
            bound = _ceil_div(-num, step)
            lo = bound if lo is None else max(lo, bound)
        else:
            bound = num // (-step)
            hi = bound if hi is None else min(hi, bound)
    if comp.dimension - 1 in tester.rest_rows:
        # The counted coordinate is a leftover row, whose residual steps by
        # -denom: the solved coefficients force its value.  No numerator
        # reads it, so every other leftover row's residual is constant along
        # the line, and one that is not 0 leaves the component empty there.
        if any(res for res, _ in residuals[:-1]):
            return _ComponentProfile(tester, True, None, None)
        forced = residuals[-1][0] // d
        return _ComponentProfile(tester, False, forced, forced)
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
    tests every point of it for membership in each component that can meet
    the line, by that component's affine Cramer numerators and leftover
    rows; the margin-based stability flag turns false when witnesses reach
    the window edges, which happens exactly when some component is unbounded
    in the counted direction.
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
    for profile in profiles:
        if profile.empty:
            per_component.append(0)
            continue
        members = profile.tester.members_on_line(values, lo, hi)
        per_component.append(len(members))
        union.update(members)
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
    may be given as its elimination plan, made for ``count_var``, which is
    then neither planned nor built again.
    """
    if trials < 0:
        raise ParameterError(f"trial count must be nonnegative, got {trials}")
    if box_radius < 0:
        raise ParameterError(f"box radius must be nonnegative, got {box_radius}")
    plan = plan_elimination(presentation, var_names, count_var)
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
