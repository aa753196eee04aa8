import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countqe.elim import is_subtraction_free, normalize_for_nat
from countqe.errors import ParameterError, UnboundVariableError
from countqe.formula import (
    FALSE,
    TRUE,
    And,
    Cong,
    CountEq,
    CountResult,
    DomainTag,
    Eq,
    Exists,
    FalseF,
    Forall,
    FreshNames,
    Le,
    Lt,
    Not,
    Or,
    Term,
    TrueF,
    bound_names,
    conj,
    constant,
    contains_counting,
    count_witnesses,
    default_margin,
    disj,
    evaluate,
    free_vars,
    implies,
    max_abs_coefficient,
    negate,
    node_count,
    traverse,
    variable,
)

from helpers import random_ast, simplify

x, y, z = variable("x"), variable("y"), variable("z")


def interval_body(lo, hi, var=x):
    return And((Le(constant(lo), var), Le(var, constant(hi))))


class TestTerm:
    def test_zero_coefficients_dropped(self):
        assert Term(1, {"x": 0, "y": 2}) == Term(1, {"y": 2})

    def test_arithmetic(self):
        t = 2 * x + y - 3
        assert t == Term(-3, {"x": 2, "y": 1})
        assert -t == Term(3, {"x": -2, "y": -1})
        assert (t - t) == Term(0)

    def test_evaluate(self):
        t = 2 * x - y + 1
        assert t.evaluate({"x": 3, "y": 5}) == 2
        with pytest.raises(UnboundVariableError):
            t.evaluate({"x": 3})

    def test_sign_split(self):
        t = 2 * x - 3 * y - 4
        assert t.positive_part() == Term(0, {"x": 2})
        assert t.negative_part() == Term(4, {"y": 3})
        assert t.positive_part() - t.negative_part() == t


class TestConstruction:
    def test_and_flattens(self):
        a, b, c = Le(x, y), Le(y, z), Le(z, x)
        assert And((a, And((b, c)))) == And((a, b, c))

    def test_conj_disj_units(self):
        a = Le(x, y)
        assert conj([]) == TRUE
        assert conj([a]) == a
        assert disj([]) == FALSE
        assert disj([a, FALSE]) == a
        assert conj([a, FALSE]) == FALSE
        assert disj([a, TRUE]) == TRUE

    def test_implies_desugars(self):
        a, b = Le(x, y), Le(y, z)
        assert implies(a, b) == Or((Not(a), b))

    def test_cong_normalises_residue(self):
        assert Cong(x, -1, 3) == Cong(x, 2, 3)
        with pytest.raises(ParameterError):
            Cong(x, 0, 0)


class TestFreeVars:
    def test_counting_quantifier(self):
        f = CountEq("x", "y", interval_body(-1, 3))
        assert free_vars(f) == {"y"}
        # The count variable is read outside the counting binder.
        assert free_vars(CountEq("x", "x", Le(x, y))) == {"x", "y"}
        assert free_vars(Exists("n", CountEq("w", "n", Le(variable("w"), y)))) == {"y"}

    def test_atom(self):
        assert free_vars(Eq(x, constant(5))) == {"x"}

    def test_exists(self):
        assert free_vars(Exists("x", Eq(x, z))) == {"z"}


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.4:
        t1 = Term(rng.randint(-3, 3), {rng.choice(names): rng.randint(-2, 2)})
        t2 = Term(rng.randint(-3, 3), {rng.choice(names): rng.randint(-2, 2)})
        kind = rng.randrange(4)
        if kind == 0:
            return Le(t1, t2)
        if kind == 1:
            return Lt(t1, t2)
        if kind == 2:
            return Eq(t1, t2)
        return Cong(t1, rng.randrange(3), rng.randint(1, 3))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_formula(rng, names, depth - 1))
    if kind == 1:
        return And((_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1)))
    if kind == 2:
        return Or((_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1)))
    return Exists(rng.choice(names), _random_formula(rng, names, depth - 1))


class TestEvaluate:
    def test_interval_count_example(self):
        f = CountEq("x", "y", interval_body(-1, 3))
        assert evaluate(f, {"y": 5}) is True
        assert evaluate(f, {"y": 4}) is False

    def test_forall_nonnegative_over_naturals(self):
        f = Forall("x", Le(constant(0), x))
        assert evaluate(f, {}, domain="N", quant_bound=17) is True
        assert evaluate(f, {}, domain="Z", quant_bound=17) is False

    def test_negative_count_value_is_false(self):
        f = CountEq("x", "y", FALSE)
        assert evaluate(f, {"y": 0}) is True
        assert evaluate(f, {"y": -1}) is False

    def test_domain_given_as_tag_or_value(self):
        f = Forall("x", Le(constant(0), x))
        assert evaluate(f, {}, domain=DomainTag.N, quant_bound=5) is True
        assert evaluate(f, {}, domain="N", quant_bound=5) is True
        assert evaluate(f, {}, domain="Z", quant_bound=5) is False
        # Any other value is refused at the entry, even where no quantifier
        # would consult it.
        for bad in ("Q", "DomainTag.N", None):
            with pytest.raises(ParameterError):
                evaluate(Le(x, y), {"x": 0, "y": 1}, domain=bad)
            with pytest.raises(ParameterError):
                count_witnesses(Le(x, y), "x", {"y": 1}, domain=bad)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(Le(x, y), {"x": 0})

    def test_quantifier_free_is_bound_independent(self):
        rng = random.Random(9)
        for _ in range(200):
            f = _random_formula(rng, ["x", "y"], depth=2)
            if any(isinstance(n, Exists) for n in _walk(f)):
                continue
            asg = {"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)}
            assert evaluate(f, asg, quant_bound=2) == evaluate(f, asg, quant_bound=50)

    def test_de_morgan(self):
        rng = random.Random(13)
        for _ in range(200):
            a = _random_formula(rng, ["x", "y"], depth=2)
            b = _random_formula(rng, ["x", "y"], depth=2)
            asg = {"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)}
            lhs = evaluate(Not(And((a, b))), asg, quant_bound=5)
            rhs = evaluate(Or((Not(a), Not(b))), asg, quant_bound=5)
            assert lhs == rhs


def _walk(f):
    yield f
    for attr in ("body",):
        child = getattr(f, attr, None)
        if child is not None and not isinstance(child, str):
            yield from _walk(child)
    for part in getattr(f, "parts", ()):
        yield from _walk(part)


class TestCountWitnesses:
    def test_bounded_interval(self):
        result = count_witnesses(interval_body(-1, 3), "x", {}, window=(-100, 100), margin=5)
        assert result == CountResult(count=5, stable=True)

    def test_half_line_unstable(self):
        result = count_witnesses(Le(constant(0), x), "x", {}, window=(-100, 100))
        assert result.stable is False

    def test_false_body(self):
        assert count_witnesses(FALSE, "x", {}) == CountResult(count=0, stable=True)

    def test_stable_count_survives_window_doubling(self):
        rng = random.Random(21)
        for _ in range(100):
            lo = rng.randint(-10, 10)
            hi = lo + rng.randint(0, 8)
            body = And((interval_body(lo, hi), Cong(x, rng.randrange(3), 3)))
            first = count_witnesses(body, "x", {}, window=(-40, 40))
            if first.stable:
                second = count_witnesses(body, "x", {}, window=(-80, 80))
                assert second == first

    def test_natural_domain_zero_edge_is_stable(self):
        # A singleton witness at the origin is not a truncation artefact over N.
        result = count_witnesses(Eq(x, constant(0)), "x", {}, domain="N", window=(0, 64))
        assert result == CountResult(count=1, stable=True)

    def test_default_margin(self):
        assert default_margin(Le(3 * x, y)) == 8
        assert default_margin(TRUE) == 2


class TestSimplify:
    def test_folds_ground_atoms(self):
        f = And((Le(x, y), Lt(constant(0), constant(1))))
        assert simplify(f, {"x": 1, "y": 5}) == TRUE
        assert simplify(f, {"x": 7, "y": 5}) == FALSE

    def test_partial_fold(self):
        f = Eq(2 * x + y, constant(4))
        assert simplify(f, {"x": 1}) == Eq(y + 2, constant(4))

    def test_consistent_with_evaluate(self):
        rng = random.Random(31)
        names = ["x", "y", "z"]
        for _ in range(300):
            f = _random_formula(rng, names, depth=3)
            known = {n: rng.randint(-4, 4) for n in names if rng.random() < 0.5}
            rest = {n: rng.randint(-4, 4) for n in names if n not in known}
            reduced = simplify(f, known)
            assert free_vars(reduced) <= free_vars(f) - set(known)
            assert evaluate(reduced, rest | {n: 0 for n in names if n not in known and n not in rest}, quant_bound=6) == evaluate(
                f, {**known, **rest, **{n: 0 for n in names if n not in known and n not in rest}}, quant_bound=6
            )


class TestMisc:
    def test_fresh_names(self):
        fresh = FreshNames(reserved=["_u0"])
        assert fresh.fresh("u") == "_u1"
        assert fresh.fresh("y") == "_y2"

    def test_node_count(self):
        f = And((Le(x, y), Not(Eq(x, constant(0)))))
        assert node_count(f) == 7  # And + (Le and its 2 coeffs) + Not + (Eq and 1 coeff)

    def test_contains_counting(self):
        f = Exists("x", CountEq("w", "y", Le(variable("w"), x)))
        assert contains_counting(f) is True
        assert contains_counting(Exists("x", Le(x, y))) is False

    # One formula with all twelve node classes.
    ALL_KINDS = Exists(
        "e",
        Forall(
            "a",
            And(
                (
                    Or((Le(x, 2 * y), Lt(-3 * x, variable("e")))),
                    Not(Eq(variable("a"), constant(1))),
                    Cong(x + variable("a"), 1, 4),
                    CountEq("w", "n", Or((TRUE, FALSE, Le(variable("w"), variable("e") - 5)))),
                )
            ),
        ),
    )

    def test_protocol_walkers_on_every_node_class(self):
        f = self.ALL_KINDS
        nodes, scopes = traverse(f)
        kinds = {type(g) for g in nodes}
        assert kinds == {
            Exists, Forall, And, Or, Le, Lt, Not, Eq, Cong, CountEq, TrueF, FalseF
        }
        assert len(nodes) == 14
        # Counted by hand: 14 nodes plus the coefficients x, 2y; -3x, e; a;
        # x, a; w, e.
        assert node_count(f) == 23
        # e, a and w are bound; the count variable n is free.
        assert free_vars(f) == {"x", "y", "n"}
        assert max_abs_coefficient(f) == 3
        assert contains_counting(f) is True
        assert is_subtraction_free(f) is False
        assert is_subtraction_free(Forall("a", Le(x, 2 * variable("a") + 1))) is True
        innermost = next(g for g in nodes if g == Le(variable("w"), variable("e") - 5))
        assert bound_names(scopes[nodes.index(innermost)]) == {"e", "a", "w"}
        assert bound_names(scopes[0]) == frozenset()
        for g in nodes:
            assert g.rebuild(g.children) == g
        normal = normalize_for_nat(f)
        assert is_subtraction_free(normal)
        assert [g.binds for g in traverse(normal)[0]] == [g.binds for g in nodes]
        assert normalize_for_nat(Not(Or((Le(x, 2 * y), Lt(-3 * x, y))))) == Not(
            Or((Le(x, 2 * y), Lt(constant(0), 3 * x + y)))
        )


class TestBinderChains:
    @staticmethod
    def chain(depth, innermost=Le(x, y), kinds=(Exists,)):
        body = innermost
        for i in reversed(range(depth)):
            body = kinds[i % len(kinds)](f"_c{i}", body)
        return body

    def test_deep_chain_equality_and_hash(self):
        # 400 binders: deeper than the recursion limit allows for a
        # recursive comparison.
        a, b = self.chain(400), self.chain(400)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert a != self.chain(400, innermost=Le(y, x))
        assert a != self.chain(399)
        assert a != self.chain(400, kinds=(Exists, Forall))
        assert self.chain(400, kinds=(Exists, Forall)) == self.chain(400, kinds=(Exists, Forall))

    def test_walkers_at_any_depth(self):
        # 5,000 binders: far deeper than the recursion limit.  The walkers
        # run on one explicit stack.
        f = self.chain(5000, innermost=Le(2 * x, variable("_c0") + 3), kinds=(Exists, Forall))
        assert node_count(f) == 5000 + 3
        assert free_vars(f) == {"x"}
        assert max_abs_coefficient(f) == 2
        assert contains_counting(f) is False
        assert is_subtraction_free(f) is True

    def test_mixed_heads_equality_and_hash(self):
        # 1,200 heads cycling through all four unary kinds.
        kinds = (
            Exists,
            Forall,
            lambda v, body: Not(body),
            lambda v, body: CountEq(v, "n", body),
        )
        a, b = self.chain(1200, kinds=kinds), self.chain(1200, kinds=kinds)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert a != self.chain(1200, innermost=Le(y, x), kinds=kinds)
        assert a != self.chain(1200, kinds=kinds[::-1])
        other_count = kinds[:3] + (lambda v, body: CountEq(v, "m", body),)
        assert a != self.chain(1200, kinds=other_count)

    def test_not_and_count_mismatches(self):
        f = Le(x, y)
        assert Not(f) == Not(f) and hash(Not(f)) == hash(Not(f))
        assert Not(f) != f and Not(Not(f)) != Not(f)
        assert CountEq("x", "n", f) == CountEq("x", "n", f)
        assert CountEq("x", "n", f) != CountEq("y", "n", f)
        assert CountEq("x", "n", f) != CountEq("x", "m", f)
        assert CountEq("x", "n", f) != Exists("x", f)
        assert Not(Exists("x", f)) != Not(Forall("x", f))
        assert len({Not(f), Not(f), CountEq("x", "n", f), CountEq("x", "n", f), f}) == 3

    def test_simplify_5000_binders(self):
        f = self.chain(5000, innermost=Le(2 * x, variable("_c0") + y), kinds=(Exists, Forall))
        # A bound name shadows the assignment; a free one is folded.
        got = simplify(f, {"y": 3, "_c0": 100})
        assert got == self.chain(5000, innermost=Le(2 * x, variable("_c0") + 3), kinds=(Exists, Forall))
        # A body that folds to a truth value collapses the whole chain.
        assert simplify(self.chain(5000, innermost=Le(x, y)), {"x": 1, "y": 2}) is TRUE
        assert simplify(self.chain(5000, innermost=Le(x, y)), {"x": 3, "y": 2}) is FALSE

    def test_simplify_mixed_heads(self):
        kinds = (
            Exists,
            lambda v, body: Not(body),
            lambda v, body: CountEq(v, "n", body),
            Forall,
        )
        f = self.chain(2000, innermost=Le(x, variable("_c1")), kinds=kinds)
        assert simplify(f, {"x": 4}) == self.chain(
            2000, innermost=Le(constant(4), variable("_c1")), kinds=kinds
        )
        # Not heads flip a folded truth value; counting heads keep their body.
        g = Not(Exists("a", Not(Not(CountEq("b", "n", Forall("c", Le(x, y)))))))
        assert simplify(g, {"x": 0, "y": 1}) == Not(Exists("a", CountEq("b", "n", TRUE)))

    def test_simplify_matches_recursive_reference(self):
        rng = random.Random(8)
        names = ["x", "y", "z1", "w_2", "E"]
        for _ in range(600):
            f = random_ast(rng, 6)
            known = {n: rng.randint(-4, 4) for n in names if rng.random() < 0.5}
            assert simplify(f, known) == _reference_simplify(f, known)

    def test_binder_mismatches(self):
        assert Exists("x", Le(x, y)) != Forall("x", Le(x, y))
        assert Exists("x", Le(x, y)) != Exists("z", Le(x, y))
        assert Exists("x", Le(x, y)) != Le(x, y)
        assert Exists("x", Exists("y", Le(x, y))) != Exists("x", Forall("y", Le(x, y)))
        assert len({Exists("x", Le(x, y)), Exists("x", Le(x, y)), Forall("x", Le(x, y))}) == 2


def _reference_simplify(f, assignment):
    """The recursive ``simplify``, one Python frame per node, as reference."""

    def fold_term(t, shadowed):
        const = t.constant
        coeffs = {}
        for name, c in t.coeffs.items():
            if name in assignment and name not in shadowed:
                const += c * assignment[name]
            else:
                coeffs[name] = c
        return Term(const, coeffs)

    def walk(g, shadowed):
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
        if tg is Not:
            return negate(walk(g.body, shadowed))
        if tg is And:
            return conj([walk(p, shadowed) for p in g.parts])
        if tg is Or:
            return disj([walk(p, shadowed) for p in g.parts])
        if tg in (Exists, Forall):
            body = walk(g.body, shadowed | {g.var})
            if isinstance(body, (TrueF, FalseF)):
                return body
            return tg(g.var, body)
        return CountEq(g.counted_var, g.count_var, walk(g.body, shadowed | {g.counted_var}))

    return walk(f, frozenset())


@settings(max_examples=150, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-6, 6))
def test_interval_atom_semantics(a, b, v):
    f = interval_body(a, b)
    assert evaluate(f, {"x": v}) == (a <= v <= b)
