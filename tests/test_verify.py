import random

import pytest

import countqe.elim
from countqe.elim import eliminate, eliminate_simple
from countqe.formula import And, Eq, Exists, Le, constant, evaluate, free_vars, traverse, variable
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation
from helpers import random_ast
from countqe.verify import (
    PinnedEvaluationError,
    _vacuous_binders,
    count_set_witnesses,
    evaluate_pinned,
    formula_count_values,
    run_check,
)

THREE_PERIOD_SET = LinearSetPresentation(
    base=(0, 0, 0, 0),
    periods=((1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1)),
)


def union(*components, domain=DomainTag.Z):
    return SemilinearPresentation(
        components=components, asserted_disjoint=True, asserted_simple=True
    )


def brute_count(presentation, assignment, lo=-200, hi=200):
    from countqe.sets import MembershipTester, coordinate_names

    testers = [MembershipTester(c) for c in presentation.components]
    names = coordinate_names(presentation.dimension)
    values = [assignment[n] for n in names[:-1]]
    return sum(
        1
        for v in range(lo, hi + 1)
        if any(t.contains(values + [v]) for t in testers)
    )


class TestEvaluatePinned:
    def test_matches_naive_on_small_eliminations(self):
        rng = random.Random(3)
        produced = 0
        while produced < 25:
            n = rng.randint(1, 2)
            p = rng.randint(0, n)
            periods = tuple(
                tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(p)
            )
            comp = LinearSetPresentation(
                base=tuple(rng.randint(-2, 2) for _ in range(n)), periods=periods
            )
            from countqe.sets import check_simple

            if not check_simple(comp):
                continue
            result = eliminate_simple(comp, "y")
            produced += 1
            names = [f"x{i+1}" for i in range(n - 1)]
            for _ in range(6):
                asg = {name: rng.randint(-3, 3) for name in names}
                for k in range(0, 5):
                    naive = evaluate(
                        result.formula, asg | {"y": k}, quant_bound=7
                    )
                    pinned = evaluate_pinned(result.formula, asg | {"y": k})
                    assert naive == pinned, (comp, asg, k)

    def test_solves_membership_blocks(self):
        result = eliminate_simple(
            LinearSetPresentation(base=(1, 4), periods=((1, 2),)), "y"
        )
        # the one-witness case: x2 = 4 + 2*(x1 - 1) when x1 >= 1
        assert evaluate_pinned(result.formula, {"x1": 3, "y": 1}) is True
        assert evaluate_pinned(result.formula, {"x1": 3, "y": 0}) is False
        assert evaluate_pinned(result.formula, {"x1": 0, "y": 0}) is True

    def test_rejects_unpinned_shapes(self):
        from countqe.formula import Exists, Le

        loose = Exists("v", Le(variable("v"), constant(3)))
        with pytest.raises(PinnedEvaluationError):
            evaluate_pinned(loose, {})

    def test_large_pinned_block(self):
        # The shape of a half-line elimination once the free coordinates are
        # folded in: n unknowns, each pinned by a unit equation, and one row
        # summing them into the count.
        n = 120
        names = [f"_c{i}" for i in range(n)]
        unknowns = [variable(c) for c in names]
        values = [i % 7 for i in range(n)]

        def block(pins):
            atoms = [Le(constant(0), c) for c in unknowns] + pins
            atoms.append(Eq(sum(unknowns, constant(0)), variable("y")))
            body = And(tuple(atoms))
            for c in reversed(names):
                body = Exists(c, body)
            return body

        pins = [Eq(c, constant(v)) for c, v in zip(unknowns, values)]
        pinned = block(pins)
        assert evaluate_pinned(pinned, {"y": sum(values)}) is True
        assert evaluate_pinned(pinned, {"y": sum(values) + 1}) is False
        # Pin _c5 to 7/2 and _c6 to 1/2: the sum stays integral, so at this
        # count the block has a unique rational solution, but no integer one.
        pins[5] = Eq(2 * unknowns[5], constant(7))
        pins[6] = Eq(2 * unknowns[6], constant(1))
        rest = sum(values) - values[5] - values[6]
        assert evaluate_pinned(block(pins), {"y": rest + 4}) is False

    def test_vacuous_binders_match_free_vars(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(400):
            f = random_ast(rng, rng.randint(1, 6))
            vacuous = _vacuous_binders(f)
            for g in traverse(f)[0]:
                if type(g) is Exists:
                    expected = g.var not in free_vars(g.body)
                    assert (id(g) in vacuous) == expected, g
                    seen.add(expected)
        assert seen == {True, False}

    def test_natural_domain_respects_nonnegativity(self):
        comp = LinearSetPresentation(base=(2,), periods=(), domain=DomainTag.N)
        result = eliminate_simple(comp, "y")
        assert evaluate_pinned(result.formula, {"y": 1}, DomainTag.N) is True


class TestCountSetWitnesses:
    def test_bounded_component(self):
        # x2 even in [0, 2*x1]
        comp = LinearSetPresentation(base=(0, 0), periods=((1, 0), (1, 2)))
        s = union(comp)
        oracle = count_set_witnesses(s, {"x1": 6})
        assert oracle.count == brute_count(s, {"x1": 6})
        assert oracle.stable is True
        assert oracle.overlap is False

    def test_unbounded_component_flags_unstable(self):
        half = LinearSetPresentation(base=(0,), periods=((1,),))
        oracle = count_set_witnesses(union(half), {})
        assert oracle.stable is False

    def test_empty_slice(self):
        comp = LinearSetPresentation(base=(0, 0), periods=((2, 1),))
        oracle = count_set_witnesses(union(comp), {"x1": 3})
        assert oracle.count == 0
        assert oracle.stable is True

    def test_overlap_detected(self):
        a = LinearSetPresentation(base=(0,), periods=((1,),))
        b = LinearSetPresentation(base=(5,), periods=((1,),))
        oracle = count_set_witnesses(union(a, b), {})
        assert oracle.overlap is True

    def test_matches_brute_force_randomised(self):
        rng = random.Random(7)
        done = 0
        while done < 40:
            n = rng.randint(1, 3)
            p = rng.randint(0, n)
            comp = LinearSetPresentation(
                base=tuple(rng.randint(-3, 3) for _ in range(n)),
                periods=tuple(
                    tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(p)
                ),
            )
            from countqe.sets import check_simple

            if not check_simple(comp):
                continue
            done += 1
            s = union(comp)
            asg = {f"x{i+1}": rng.randint(-8, 8) for i in range(n - 1)}
            oracle = count_set_witnesses(s, asg)
            if oracle.stable:
                assert oracle.count == brute_count(s, asg), (comp, asg)


class TestRunCheck:
    def test_worked_example_agrees(self):
        s = union(THREE_PERIOD_SET)
        outcome = run_check(s, trials=40, box_radius=30, seed=0)
        assert outcome.mismatches == 0
        assert outcome.overlaps == 0
        assert outcome.ok()

    def test_union_of_singletons(self):
        s = union(
            LinearSetPresentation(base=(3,), periods=()),
            LinearSetPresentation(base=(7,), periods=()),
        )
        outcome = run_check(s, trials=5, box_radius=10, seed=1)
        assert outcome.ok()
        assert all(r.oracle.count == 2 for r in outcome.records)

    def test_natural_domain(self):
        comp = LinearSetPresentation(
            base=(0, 0), periods=((1, 2), (2, 1)), domain=DomainTag.N
        )
        outcome = run_check(union(comp), trials=30, box_radius=25, seed=2)
        assert outcome.mismatches == 0

    def test_detects_corrupted_count_formula(self, monkeypatch):
        healthy = countqe.elim.progression_count_formula

        def corrupted(coeff, residue, modulus, lo, hi, count_var):
            # widen the interval by one full progression step: every
            # nonempty count comes out one too large
            step = coeff * modulus
            return healthy(coeff, residue, modulus, lo - step, hi, count_var)

        monkeypatch.setattr(countqe.elim, "progression_count_formula", corrupted)
        comp = LinearSetPresentation(base=(0, 0), periods=((1, 0), (1, 2)))
        result = eliminate(union(comp), "y")
        monkeypatch.undo()
        outcome = run_check(union(comp), result=result, trials=30, box_radius=20, seed=3)
        assert outcome.mismatches > 0
        assert not outcome.ok()

    def test_half_line_blocks(self):
        # Periods (1, 1) and (0, 100): for x1 < 0 the slice is empty and the
        # formula is decided by a 100-unknown pinned block; for x1 >= 0 it is
        # infinite and the oracle reports an unstable point.
        s = union(LinearSetPresentation(base=(0, 0), periods=((1, 1), (0, 100))))
        result = eliminate(s, "y")
        decided = []
        for seed in range(3):
            outcome = run_check(s, result=result, trials=4, box_radius=100, seed=seed)
            assert outcome.mismatches == 0
            assert outcome.ok(strict=True)
            decided += [r for r in outcome.records if r.verdict == "ok"]
        assert decided and all(r.assignment["x1"] < 0 for r in decided)

    def test_formula_count_values_scan(self):
        result = eliminate(union(THREE_PERIOD_SET), "y")
        oracle = count_set_witnesses(union(THREE_PERIOD_SET), {"x1": 4, "x2": 8, "x3": 5})
        hits = formula_count_values(
            result, {"x1": 4, "x2": 8, "x3": 5}, list(range(0, 12))
        )
        assert oracle.stable
        assert hits == [oracle.count]
