"""Formula AST for linear integer arithmetic with a counting quantifier.

Terms are integer-linear expressions; atoms compare two terms or constrain a
term to a residue class.  On top of the usual first-order connectives and
quantifiers the AST has one extra binder, :class:`CountEq`, written
``C x = y . body``: it holds when the number of values of ``x`` satisfying
``body`` equals the value of ``y``.

Evaluation is deliberately a bounded brute force: ordinary quantifiers range
over a finite window and the counting quantifier is answered by
:func:`count_witnesses`, which enumerates the window and reports a stability
flag when witnesses crowd the window edges.  That makes the evaluator an
independent desk-scale oracle for the elimination engine rather than a
decision procedure.

Every node class answers a small traversal protocol: ``children`` (direct
subformulas), ``terms`` (an atom's operands), ``binds`` (names bound over
the children), ``refs`` (names read outside its terms: a counting
quantifier's count variable) and ``rebuild`` (the node over new children).
:func:`traverse` lists a tree's nodes by a loop over an explicit stack, so
the walkers built on it (:func:`free_vars`, :func:`node_count`,
:func:`max_abs_coefficient`, :func:`contains_counting`) work at any binder
depth.  Hand dispatch on the node type stays only in the evaluators, where
each type does something different.

Nodes are immutable values (:class:`countqe.values.Value`): each class
lists its fields in ``__slots__`` and sets them once in ``__init__``, where
the operands are normalised and checked; assigning a field raises
``AttributeError``, and two nodes are equal when they have the same type
and equal fields (``Le(a, b) != Lt(a, b)``).  Terms are not values: their
arithmetic builds many of them, so they keep plain slots that no method
assigns after construction.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Union

from .errors import ParameterError, UnboundVariableError
from .values import Value, set_field

# perfbench/layers.py still patches this name; it leaves with that patch.
simplify = None


class DomainTag(Enum):
    """The ambient structure: integers (Z) or naturals (N)."""

    Z = "Z"
    N = "N"


def as_domain(domain) -> DomainTag:
    """The tag for ``domain``, given as a tag or as its value ``"Z"``/``"N"``."""
    try:
        return DomainTag(domain)
    except ValueError:
        raise ParameterError(f"unknown domain {domain!r}") from None


class Term:
    """Integer-linear expression: a constant plus variables with coefficients.

    Immutable by convention: the two slots are set in ``__init__`` and no
    method assigns them later (arithmetic returns a new term), which keeps
    construction cheap on the hot path.  Zero coefficients are never
    stored, so two terms are equal, and hash equal, exactly when their
    constants and coefficient maps are equal.
    """

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant: int = 0, coeffs: Optional[Mapping[str, int]] = None):
        self.constant = int(constant)
        clean = {}
        if coeffs:
            for name, c in coeffs.items():
                if not name:
                    raise ParameterError("empty variable name in term")
                if c:
                    clean[name] = int(c)
        self.coeffs = clean

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.constant == other.constant
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.constant, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"Term({self.constant!r}, {self.coeffs!r})"

    def __add__(self, other: Union["Term", int]) -> "Term":
        if isinstance(other, int):
            return Term(self.constant + other, self.coeffs)
        merged = dict(self.coeffs)
        for name, c in other.coeffs.items():
            merged[name] = merged.get(name, 0) + c
        return Term(self.constant + other.constant, merged)

    __radd__ = __add__

    def __neg__(self) -> "Term":
        return Term(-self.constant, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other: Union["Term", int]) -> "Term":
        return self + (-other if isinstance(other, Term) else -other)

    def __mul__(self, scalar: int) -> "Term":
        if scalar == 0:
            return Term(0)
        return Term(self.constant * scalar, {n: c * scalar for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        total = self.constant
        for name, c in self.coeffs.items():
            try:
                total += c * assignment[name]
            except KeyError:
                raise UnboundVariableError(f"no value for variable {name!r}") from None
        return total

    def positive_part(self) -> "Term":
        """The term collecting the positive coefficients and constant."""
        return Term(
            self.constant if self.constant > 0 else 0,
            {n: c for n, c in self.coeffs.items() if c > 0},
        )

    def negative_part(self) -> "Term":
        """The negated negative half, so ``self == positive_part() - negative_part()``."""
        return Term(
            -self.constant if self.constant < 0 else 0,
            {n: -c for n, c in self.coeffs.items() if c < 0},
        )


def variable(name: str) -> Term:
    return Term(0, {name: 1})


def constant(value: int) -> Term:
    return Term(value)


def _as_term(value: Union[Term, int, str]) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return variable(value)
    return constant(value)


class Formula(Value):
    """Base class for all formula nodes.  A node is a :class:`Value`: its
    fields are slots set once by its constructor, assignment raises
    ``AttributeError``, and equality and hashing need the same type and
    equal fields.  The traversal protocol's defaults describe a node
    without operands."""

    __slots__ = ()
    children: tuple = ()
    terms: tuple = ()
    binds: tuple = ()
    refs: tuple = ()

    def rebuild(self, children) -> "Formula":
        return self


class TrueF(Formula):
    __slots__ = ()

    def __repr__(self):
        return "TRUE"


class FalseF(Formula):
    __slots__ = ()

    def __repr__(self):
        return "FALSE"


TRUE = TrueF()
FALSE = FalseF()


class _Comparison(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        set_field(self, "lhs", _as_term(lhs))
        set_field(self, "rhs", _as_term(rhs))

    terms = property(attrgetter("lhs", "rhs"))


class Le(_Comparison):
    """lhs <= rhs"""

    __slots__ = ()


class Lt(_Comparison):
    """lhs < rhs"""

    __slots__ = ()


class Eq(_Comparison):
    """lhs = rhs"""

    __slots__ = ()


class Cong(Formula):
    """term = residue (mod modulus); the residue is stored canonically."""

    __slots__ = ("term", "residue", "modulus")

    def __init__(self, term: Term, residue: int, modulus: int):
        set_field(self, "term", _as_term(term))
        if modulus < 1:
            raise ParameterError(f"congruence modulus must be positive, got {modulus}")
        set_field(self, "residue", residue % modulus)
        set_field(self, "modulus", modulus)

    @property
    def terms(self):
        return (self.term,)


class _WithBody(Formula):
    """The protocol of a node whose one subformula is its ``body`` field.

    Equality and hashing walk a run of such heads (``!``, ``E``, ``A``,
    ``C``) in a loop, so a chain thousands of heads deep compares without
    deep recursion.  A head's fields are its ``binds``, then its ``refs``,
    then the body, so :meth:`rebuild` passes them to the constructor in
    that order.
    """

    __slots__ = ()

    @property
    def children(self):
        return (self.body,)

    def rebuild(self, children):
        (body,) = children
        return type(self)(*self.binds, *self.refs, body)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self, other
        while isinstance(a, _WithBody):
            if type(a) is not type(b) or a.binds != b.binds or a.refs != b.refs:
                return False
            a, b = a.body, b.body
        return a == b

    def __hash__(self):
        heads = []
        f = self
        while isinstance(f, _WithBody):
            heads.append((type(f).__name__, f.binds, f.refs))
            f = f.body
        return hash((tuple(heads), f))


class Not(_WithBody):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        set_field(self, "body", body)


class _NaryConnective(Formula):
    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Formula]):
        flat = []
        for part in parts:
            if type(part) is type(self):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if len(flat) < 2:
            raise ParameterError(f"{type(self).__name__} needs at least two parts")
        set_field(self, "parts", tuple(flat))

    children = property(attrgetter("parts"))

    def rebuild(self, children):
        return type(self)(tuple(children))


class And(_NaryConnective):
    """n-ary conjunction; nested conjunctions are flattened at construction."""

    __slots__ = ()


class Or(_NaryConnective):
    """n-ary disjunction; nested disjunctions are flattened at construction."""

    __slots__ = ()


class _Quantifier(_WithBody):
    """A first-order quantifier binding ``var`` in ``body``."""

    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        set_field(self, "var", var)
        set_field(self, "body", body)

    @property
    def binds(self):
        return (self.var,)


class Exists(_Quantifier):
    """E var . body"""

    __slots__ = ()


class Forall(_Quantifier):
    """A var . body"""

    __slots__ = ()


class CountEq(_WithBody):
    """Counting quantifier: the number of counted_var values satisfying the
    body equals the value of count_var (which is free in the construct)."""

    __slots__ = ("counted_var", "count_var", "body")

    def __init__(self, counted_var: str, count_var: str, body: Formula):
        set_field(self, "counted_var", counted_var)
        set_field(self, "count_var", count_var)
        set_field(self, "body", body)

    @property
    def binds(self):
        return (self.counted_var,)

    @property
    def refs(self):
        return (self.count_var,)


class CountResult(Value):
    """Outcome of a bounded witness count.

    When ``stable`` is false the enumeration window may truncate the witness
    set and ``count`` is only a lower bound.
    """

    __slots__ = ("count", "stable")

    def __init__(self, count: int, stable: bool):
        set_field(self, "count", count)
        set_field(self, "stable", stable)


def conj(parts: Iterable[Formula]) -> Formula:
    parts = [p for p in parts if not isinstance(p, TrueF)]
    if any(isinstance(p, FalseF) for p in parts):
        return FALSE
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def disj(parts: Iterable[Formula]) -> Formula:
    parts = [p for p in parts if not isinstance(p, FalseF)]
    if any(isinstance(p, TrueF) for p in parts):
        return TRUE
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(tuple(parts))


def negate(f: Formula) -> Formula:
    """The negation of ``f``, one node smaller where an atom allows: the
    order on the integers is total, so ``!(a <= b)`` is ``b < a`` and ``!(a
    < b)`` is ``b <= a``; a ``Not`` loses its head, the constants swap, and
    anything else is wrapped in a ``Not``."""
    tf = type(f)
    if tf is Le:
        return Lt(f.rhs, f.lhs)
    if tf is Lt:
        return Le(f.rhs, f.lhs)
    if tf is TrueF:
        return FALSE
    if tf is FalseF:
        return TRUE
    if tf is Not:
        return f.body
    return Not(f)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Implication is sugar for ``!a | b`` and is normalised immediately."""
    return disj([negate(antecedent), consequent])


def iff(left: Formula, right: Formula) -> Formula:
    return conj([implies(left, right), implies(right, left)])


def traverse(f: Formula) -> tuple[list, list]:
    """Every node of ``f`` (parents first; a node with children is directly
    followed by its last child) and, in a parallel list, its scope: None at
    the top, ``(names, outer scope)`` below a binder (see
    :func:`bound_names`).  Flat lists and one pair per binder keep the cost
    linear at any depth and spare the garbage collector on large trees."""
    nodes, scopes = [], []
    todo, todo_scopes = [f], [None]
    while todo:
        g = todo.pop()
        scope = todo_scopes.pop()
        nodes.append(g)
        scopes.append(scope)
        children = g.children
        if children:
            if g.binds:
                scope = (g.binds, scope)
            todo.extend(children)
            todo_scopes.extend([scope] * len(children))
    return nodes, scopes


def bound_names(scope) -> frozenset:
    """The names bound in a scope from :func:`traverse`."""
    names = []
    while scope is not None:
        binds, scope = scope
        names.extend(binds)
    return frozenset(names)


def free_vars(f: Formula) -> set:
    out = set()
    last, bound = (), None  # siblings share a scope: resolve it once per run
    for g, scope in zip(*traverse(f)):
        terms, refs = g.terms, g.refs
        if terms or refs:
            if scope is not last:
                last, bound = scope, bound_names(scope)
            for t in terms:
                for name in t.coeffs:
                    if name not in bound:
                        out.add(name)
            for name in refs:
                if name not in bound:
                    out.add(name)
    return out


class FreshNames:
    """Deterministic fresh-name supply: one monotone counter, a reserved
    leading underscore, and a short kind tag (``_u3``, ``_y7``, ...)."""

    def __init__(self, reserved: Iterable[str] = ()):
        self._used = set(reserved)
        self._counter = 0

    def fresh(self, kind: str = "q") -> str:
        while True:
            name = f"_{kind}{self._counter}"
            self._counter += 1
            if name not in self._used:
                self._used.add(name)
                return name


# --- bounded evaluation -----------------------------------------------------


def evaluate(
    f: Formula,
    assignment: Mapping[str, int],
    domain: Union[DomainTag, str] = DomainTag.Z,
    quant_bound: int = 64,
    margin: Optional[int] = None,
) -> bool:
    """Truth value under bounded quantifier semantics.

    ``Exists``/``Forall`` range over ``[-quant_bound, quant_bound]`` (or
    ``[0, quant_bound]`` over the naturals); a counting quantifier holds when
    the bounded witness count over that window is stable and equals the
    value of the count variable.  This approximates the unbounded semantics;
    callers choose bounds large enough for their formulas.  A bound below 1
    is a parameter error.
    """
    if quant_bound < 1:
        raise ParameterError(f"quantifier bound must be positive, got {quant_bound}")
    env = dict(assignment)
    missing = free_vars(f) - set(env)
    if missing:
        raise UnboundVariableError(f"no value for variable(s) {sorted(missing)}")
    return _eval(f, env, as_domain(domain), quant_bound, margin)


def evaluate_atom(f: Formula, env: Mapping[str, int]) -> bool:
    """Truth value of an atom (a node without children) under ``env``."""
    tf = type(f)
    if tf is Le:
        return f.lhs.evaluate(env) <= f.rhs.evaluate(env)
    if tf is Lt:
        return f.lhs.evaluate(env) < f.rhs.evaluate(env)
    if tf is Eq:
        return f.lhs.evaluate(env) == f.rhs.evaluate(env)
    if tf is Cong:
        return f.term.evaluate(env) % f.modulus == f.residue
    if tf is TrueF:
        return True
    if tf is FalseF:
        return False
    raise TypeError(f"not an atom: {f!r}")


def _eval(f, env, domain, bound, margin) -> bool:
    tf = type(f)
    if tf is And:
        return all(_eval(p, env, domain, bound, margin) for p in f.parts)
    if tf is Or:
        return any(_eval(p, env, domain, bound, margin) for p in f.parts)
    if tf is Not:
        return not _eval(f.body, env, domain, bound, margin)
    if tf is Exists or tf is Forall:
        var = f.var
        saved = env.get(var)
        had = var in env
        hit = tf is Forall
        for value in range(0 if domain is DomainTag.N else -bound, bound + 1):
            env[var] = value
            result = _eval(f.body, env, domain, bound, margin)
            if result != (tf is Forall):
                hit = result
                break
        if had:
            env[var] = saved
        else:
            env.pop(var, None)
        return hit
    if tf is CountEq:
        target = env[f.count_var]
        window = (0 if domain is DomainTag.N else -bound, bound)
        result = _count(f.body, f.counted_var, env, domain, window, margin, bound)
        return result.stable and result.count == target
    return evaluate_atom(f, env)


def max_abs_coefficient(f: Formula) -> int:
    """Largest absolute coefficient appearing in any atom of the formula."""
    return max(
        (abs(c) for g in traverse(f)[0] for t in g.terms for c in t.coeffs.values()),
        default=0,
    )


def default_margin(body: Formula) -> int:
    """Stability margin heuristic: twice the largest coefficient plus one."""
    return 2 * (max_abs_coefficient(body) + 1)


def count_witnesses(
    body: Formula,
    counted_var: str,
    assignment: Mapping[str, int],
    domain: Union[DomainTag, str] = DomainTag.Z,
    window: tuple[int, int] = (-64, 64),
    margin: Optional[int] = None,
    quant_bound: int = 64,
) -> CountResult:
    """Brute-force witness count for ``counted_var`` over a window.

    The count is the number of window values making the body true; the result
    is flagged unstable when some witness lies within ``margin`` of a
    truncating window edge.  Over the naturals the window is clamped at zero
    and a lower edge at zero is not truncating (the domain really ends
    there), so witnesses at small naturals do not by themselves make the
    count unstable.  An empty window (lo > hi) and a quantifier bound below
    1 are parameter errors.
    """
    if quant_bound < 1:
        raise ParameterError(f"quantifier bound must be positive, got {quant_bound}")
    env = dict(assignment)
    missing = free_vars(body) - set(env) - {counted_var}
    if missing:
        raise UnboundVariableError(f"no value for variable(s) {sorted(missing)}")
    if margin is None:
        margin = default_margin(body)
    if margin < 1:
        raise ParameterError("margin must be positive")
    if window[0] > window[1]:
        raise ParameterError(f"counting window {window} is empty")
    return _count(body, counted_var, env, as_domain(domain), window, margin, quant_bound)


def _count(body, counted_var, env, domain, window, margin, bound) -> CountResult:
    lo, hi = window
    lower_truncates = True
    if domain is DomainTag.N:
        if lo <= 0:
            lo = 0
            lower_truncates = False
    if margin is None:
        margin = default_margin(body)
    saved = env.get(counted_var)
    had = counted_var in env
    count = 0
    stable = True
    for value in range(lo, hi + 1):
        env[counted_var] = value
        if _eval(body, env, domain, bound, margin):
            count += 1
            if hi - value < margin or (lower_truncates and value - lo < margin):
                stable = False
    if had:
        env[counted_var] = saved
    else:
        env.pop(counted_var, None)
    return CountResult(count=count, stable=stable)


def node_count(f: Formula) -> int:
    """Size measure: formula nodes plus one per term coefficient."""
    total = 0
    for g in traverse(f)[0]:
        total += 1
        for t in g.terms:
            total += len(t.coeffs)
    return total


def contains_counting(f: Formula) -> bool:
    """Structural scan for any counting-quantifier node."""
    return any(isinstance(g, CountEq) for g in traverse(f)[0])
