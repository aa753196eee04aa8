import itertools
import random
from math import gcd, lcm
from pathlib import Path

import pytest

from countqe.elim import (
    BoundClassification,
    ResidueCase,
    build_permutation_branches,
    classify_bounds,
    count_in_progression,
    eliminate,
    estimate_result_nodes,
    is_subtraction_free,
    normalize_for_nat,
    plan_elimination,
    progression_count_formula,
    progression_count_formula_nat,
    residue_case_feasible,
)
from countqe.errors import ContractError, ConventionError, ParameterError, UnsupportedPresentationError
from countqe.formula import (
    Cong,
    Eq,
    Exists,
    Le,
    Lt,
    Term,
    conj,
    constant,
    contains_counting,
    evaluate,
    free_vars,
    traverse,
    variable,
)
from countqe import elim, sets
from countqe.linalg import IntMatrix, cramer_solve, determinant
from countqe.verify import PinnedProgram
from countqe.sets import (
    DomainTag,
    LinearSetPresentation,
    SemilinearPresentation,
    coordinate_names,
)
from countqe.textio import parse_presentation, print_formula
from helpers import random_disjoint_presentation, random_simple_component

FIXTURES = Path(__file__).resolve().parent / "fixtures"

THREE_PERIOD_SET = LinearSetPresentation(
    base=(0, 0, 0, 0),
    periods=((1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1)),
)

# The 3-dim full-rank component with D = 8 and m = 2 (progression step 16).
D8_M2 = LinearSetPresentation(base=(2, 3, 0), periods=((1, 2, -1), (0, 1, -3), (0, 2, 2)))

CORE_SOLUTION = cramer_solve(
    IntMatrix.from_rows([(1, 2, -1), (2, 1, 0), (1, 1, -1)]), (0, 0, 0)
)


def singleton(*point, domain=DomainTag.Z):
    return LinearSetPresentation(base=point, periods=(), domain=domain)


def union(*components):
    """The components as an asserted disjoint simple union."""
    return SemilinearPresentation(
        components=components, asserted_disjoint=True, asserted_simple=True
    )


def half_line(denom):
    """Periods (1, 1) and (0, denom): a one-sided core with D = denom."""
    return SemilinearPresentation(
        components=(LinearSetPresentation(base=(0, 0), periods=((1, 1), (0, denom))),),
        asserted_disjoint=True,
        asserted_simple=True,
    )


class TestCountInProgression:
    def test_examples(self):
        assert count_in_progression(0, 24, 0, 12) == 3
        assert count_in_progression(5, 4, 0, 3) == 0
        assert count_in_progression(0, 0, 0, 5) == 1

    def test_exhaustive_small(self):
        for modulus in range(1, 7):
            for r in range(modulus):
                for lo in range(-15, 16):
                    for hi in range(-15, 16):
                        expected = sum(
                            1 for t in range(lo, hi + 1) if t % modulus == r
                        )
                        assert count_in_progression(lo, hi, r, modulus) == expected

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            count_in_progression(0, 1, 0, 0)


def _progression_count(first, hi, step):
    return sum(1 for t in range(first, hi + 1, step))


class TestProgressionCountFormula:
    def _check(self, first, hi, step):
        f = progression_count_formula(variable("lo"), variable("hi"), step, "u")
        expected = count_in_progression(first, hi, first, step)
        assert expected == _progression_count(first, hi, step)
        asg = {"lo": first, "hi": hi}
        assert evaluate(f, asg | {"u": expected}) is True
        for wrong in (expected - 1, expected + 1, expected + 5):
            assert evaluate(f, asg | {"u": wrong}) is False

    def test_even_example(self):
        # 0, 12 and 24 are at most 24
        self._check(0, 24, 12)

    def test_empty_interval(self):
        self._check(10, 3, 4)

    def test_unit_parameters(self):
        # all integers with 0 <= x <= 9
        self._check(0, 9, 1)

    def test_randomised_against_enumeration(self):
        rng = random.Random(37)
        for _ in range(400):
            self._check(rng.randint(-25, 25), rng.randint(-25, 25), rng.randint(1, 12))

    def test_no_quantifiers_and_parameter_errors(self):
        f = progression_count_formula(variable("lo"), variable("hi"), 6, "u")
        assert contains_counting(f) is False
        assert free_vars(f) == {"lo", "hi", "u"}
        with pytest.raises(ParameterError):
            progression_count_formula(variable("lo"), variable("hi"), 0, "u")


class TestProgressionCountFormulaNat:
    """The count from ``first = a - b`` to ``hi = c - d``, normalised."""

    def _check(self, step, a, b, c, d):
        first, hi = variable("a") - variable("b"), variable("c") - variable("d")
        f = progression_count_formula_nat(first, hi, step, "u")
        expected = _progression_count(a - b, c - d, step)
        asg = {"a": a, "b": b, "c": c, "d": d}
        assert evaluate(f, asg | {"u": expected}, domain="N") is True
        for wrong in (expected + 1, expected + 3):
            assert evaluate(f, asg | {"u": wrong}, domain="N") is False

    def test_even_example(self):
        self._check(12, 0, 0, 24, 0)

    def test_upper_empty(self):
        self._check(2, 0, 0, 3, 9)

    def test_interval_empty_after_shift(self):
        self._check(1, 10, 0, 4, 0)

    def test_subtraction_free(self):
        f = progression_count_formula_nat(variable("a") - variable("b"), variable("c") - 3, 6, "u")
        assert is_subtraction_free(f) is True

    def test_randomised_against_enumeration(self):
        rng = random.Random(41)
        for _ in range(400):
            self._check(rng.randint(1, 12), *(rng.randint(0, 25) for _ in range(4)))


class TestClassifyBounds:
    def test_worked_example(self):
        bc = classify_bounds(CORE_SOLUTION, ["x1", "x3"])
        assert bc.multiplier == 6
        assert bc.upper_rows == (1, 2)
        assert bc.lower_rows == (0,)
        assert bc.sign_rows == ()
        assert bc.scale == {0: -6, 1: 3, 2: 2}
        # 6*x4 >= 6*x1 - 6*x3 ; 6*x4 <= 6*x1 ; 6*x4 <= 2*x1 + 2*x3
        assert bc.bound_term(0) == Term(0, {"x1": 6, "x3": -6})
        assert bc.bound_term(1) == Term(0, {"x1": 6})
        assert bc.bound_term(2) == Term(0, {"x1": 2, "x3": 2})

    def test_single_lower(self):
        sol = cramer_solve(IntMatrix.from_rows([(-1,)]), (0,))
        bc = classify_bounds(sol, [])
        assert bc.multiplier == 1
        assert bc.upper_rows == (0,)
        assert bc.lower_rows == ()

    def test_sign_rows(self):
        sol = cramer_solve(IntMatrix.from_rows([(1, 0), (0, 1)]), (0, 0))
        bc = classify_bounds(sol, ["x1"])
        assert bc.sign_rows == (0,)
        assert bc.lower_rows == (1,)
        assert bc.upper_rows == ()


class TestResidueCases:
    def test_worked_example_feasibility(self):
        assert residue_case_feasible(CORE_SOLUTION, ResidueCase((0, 0), 0)) is True
        assert residue_case_feasible(CORE_SOLUTION, ResidueCase((1, 0), 0)) is False
        feasible = [
            case
            for case in _all_residue_cases(2, 3)
            if residue_case_feasible(CORE_SOLUTION, case)
        ]
        # Exactly the residue classes with x1 + x3 + x4 even.
        assert all(
            (sum(case.free_residues) + case.counted_residue) % 2 == 0
            for case in feasible
        )
        assert len(feasible) == 4

    def test_unit_denominator_always_feasible(self):
        sol = cramer_solve(IntMatrix.from_rows([(1,)]), (0,))
        assert residue_case_feasible(sol, ResidueCase((), 0)) is True


def _all_residue_cases(denom, size):
    return [
        ResidueCase(free_residues=f, counted_residue=a)
        for f in itertools.product(range(denom), repeat=size - 1)
        for a in range(denom)
    ]


class TestFirstWitnessWindow:
    """The congruences of a core leave the counted value one coset of the
    coset period D', so each window of D' consecutive values holds exactly
    the one value that :func:`residue_case_feasible` accepts, or none."""

    @staticmethod
    def _window_values(solution, free, lo, scale):
        rows = elim._congruence_rows(solution)
        period = lcm(*(solution.denom // gcd(solution.denom, c[-1]) for c, _ in rows))
        names = [f"x{j}" for j in range(len(free))]
        atoms = elim._congruences(rows, solution.denom, names, variable("t"))
        window = conj([Le(constant(lo), scale * variable("t")), Lt(scale * variable("t"), constant(lo + scale * period))] + atoms)
        asg = dict(zip(names, free))
        span = range(-((-lo) // scale), -((-lo) // scale) + period)
        holds = [t for t in span if evaluate(window, asg | {"t": t})]
        d = solution.denom
        feasible = [
            t
            for t in span
            if residue_case_feasible(solution, ResidueCase(tuple(v % d for v in free), t % d))
        ]
        return holds, feasible, period, window, asg

    def test_worked_example(self):
        # D = 2 and every row reads the counted value: D' = 2
        holds, feasible, period, _, _ = self._window_values(CORE_SOLUTION, (1, 0), -3, 6)
        assert period == 2 and holds == feasible and len(holds) == 1

    def test_matches_residue_cases_on_random_cores(self):
        rng = random.Random(2024)
        seen = dict(negative=0, unit=0, zero_lambda=0, offset=0, empty=0, pinned=0)
        sizes = set()
        for _ in range(2500):
            p = rng.randint(1, 4)
            m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(p)] for _ in range(p)])
            det = determinant(m)
            if det == 0 or abs(det) ** p > 2_000:
                continue
            solution = cramer_solve(m, [rng.randint(-5, 5) for _ in range(p)])
            free = [rng.randint(-20, 20) for _ in range(p - 1)]
            lo, scale = rng.randint(-30, 30), rng.randint(1, 4)
            holds, feasible, _, window, asg = self._window_values(solution, free, lo, scale)
            assert holds == feasible and len(holds) <= 1, (solution, free, lo, scale)
            # The pinned evaluator decides the window binder by the same value.
            found = PinnedProgram(Exists("t", window)).evaluate(asg)
            assert found is bool(holds)
            sizes.add(p)
            seen["negative"] += det < 0
            seen["unit"] += solution.denom == 1
            seen["zero_lambda"] += any(row[p - 1] == 0 for row in solution.matrix)
            seen["offset"] += solution.denom > 1 and any(g % solution.denom for g in solution.offset)
            seen["empty"] += not holds
            seen["pinned"] += bool(holds) and solution.denom > 1
        assert sizes == {1, 2, 3, 4}
        assert min(seen.values()) >= 50, seen

    def test_half_line_period_is_the_denominator(self):
        plan = elim.plan_component(half_line(60).components[0], coordinate_names(2))
        assert (plan.solution.denom, plan.coset_period, plan.branches) == (60, 60, 0)


class TestPermutationBranches:
    def _classification(self, uppers, lowers):
        terms = []
        scale = {}
        for idx in range(uppers + lowers):
            terms.append(variable(f"s{idx}"))
            scale[idx] = 1 if idx < uppers else -1
        return BoundClassification(
            multiplier=1,
            row_terms=tuple(terms),
            scale=scale,
            upper_rows=tuple(range(uppers)),
            lower_rows=tuple(range(uppers, uppers + lowers)),
            sign_rows=(),
        )

    def test_counts(self):
        assert len(build_permutation_branches(self._classification(2, 1))) == 2
        assert len(build_permutation_branches(self._classification(1, 1))) == 1
        assert len(build_permutation_branches(self._classification(2, 2))) == 4

    def test_single_branch_has_empty_guard(self):
        (branch,) = build_permutation_branches(self._classification(1, 1))
        assert free_vars(branch.guard) == set()

    def test_empty_family_rejected(self):
        with pytest.raises(ConventionError):
            build_permutation_branches(self._classification(0, 2))

    def test_guards_partition(self):
        rng = random.Random(43)
        for uppers in (1, 2, 3):
            for lowers in (1, 2, 3):
                bc = self._classification(uppers, lowers)
                branches = build_permutation_branches(bc)
                for _ in range(300):
                    asg = {
                        f"s{idx}": rng.randint(-2, 2)
                        for idx in range(uppers + lowers)
                    }
                    hits = [
                        b for b in branches if evaluate(b.guard, asg, quant_bound=4)
                    ]
                    assert len(hits) == 1


class TestNormalizeForNat:
    def test_equation_example(self):
        x, y, z = variable("x"), variable("y"), variable("z")
        atom = Eq(x - 3 * y, y - z)
        assert normalize_for_nat(atom) == Eq(x + z, 4 * y)

    def test_already_nonnegative(self):
        atom = Le(constant(0), variable("x"))
        assert normalize_for_nat(atom) == atom

    def test_move_both_sides(self):
        atom = Le(-1 * variable("x"), constant(-2))
        assert normalize_for_nat(atom) == Le(constant(2), variable("x"))

    def test_congruence_coefficients(self):
        atom = Cong(variable("x") - variable("y"), 1, 3)
        fixed = normalize_for_nat(atom)
        assert fixed == Cong(variable("x") + 2 * variable("y"), 1, 3)

    def test_preserves_truth_over_naturals(self):
        rng = random.Random(47)
        names = ["x", "y", "z"]
        for _ in range(400):
            t1 = Term(rng.randint(-4, 4), {n: rng.randint(-3, 3) for n in names})
            t2 = Term(rng.randint(-4, 4), {n: rng.randint(-3, 3) for n in names})
            kind = rng.randrange(4)
            atom = (
                Le(t1, t2)
                if kind == 0
                else Lt(t1, t2)
                if kind == 1
                else Eq(t1, t2)
                if kind == 2
                else Cong(t1, rng.randrange(3), rng.randint(1, 4))
            )
            fixed = normalize_for_nat(atom)
            assert is_subtraction_free(fixed)
            asg = {n: rng.randint(0, 10) for n in names}
            assert evaluate(fixed, asg, domain="N") == evaluate(atom, asg, domain="N")


class TestEliminateSimpleStructure:
    def test_worked_example_report(self):
        result = eliminate(union(THREE_PERIOD_SET), "y")
        rep = result.report.components[0]
        assert rep.case == "interval-count"
        assert rep.denom == 2
        assert rep.multiplier == 6
        assert rep.selected_rows == (1, 3, 4)
        assert rep.dropped_rows == (2,)
        assert rep.upper_rows == (2, 3)
        assert rep.lower_rows == (1,)
        assert rep.sign_rows == ()
        assert rep.coset_period == 2
        assert rep.branches == 2
        assert contains_counting(result.formula) is False
        assert free_vars(result.formula) <= {"x1", "x2", "x3", "y"}

    def test_singleton_uses_single_witness_case(self):
        result = eliminate(union(singleton(5, 7)), "y")
        assert result.report.components[0].case == "single-witness"
        # Count 1 exactly at the point's projection, 0 elsewhere.
        assert evaluate(result.formula, {"x1": 5, "y": 1}, quant_bound=10) is True
        assert evaluate(result.formula, {"x1": 5, "y": 0}, quant_bound=10) is False
        assert evaluate(result.formula, {"x1": 4, "y": 0}, quant_bound=10) is True
        assert evaluate(result.formula, {"x1": 4, "y": 1}, quant_bound=10) is False

    def test_half_line_is_false_for_every_count(self):
        half_line = LinearSetPresentation(base=(0,), periods=((1,),))
        result = eliminate(union(half_line), "y")
        for k in range(-2, 6):
            assert evaluate(result.formula, {"y": k}, quant_bound=8) is False

    def test_non_simple_rejected(self):
        bad = LinearSetPresentation(base=(0, 0), periods=((1, 0), (2, 0)))
        with pytest.raises(UnsupportedPresentationError):
            eliminate(union(bad), "y")

    def test_count_variable_clash(self):
        with pytest.raises(ContractError):
            eliminate(union(singleton(1, 2)), "x1")

    @pytest.mark.parametrize("name", ["y+1", "1y", "a b", "mod", "y\n"])
    def test_count_variable_not_an_identifier(self, name):
        with pytest.raises(ContractError):
            eliminate(union(singleton(1, 2)), name)


class TestEliminateSimpleSemantics:
    def _witness_count(self, presentation, asg, lo=-60, hi=60):
        from countqe.sets import MembershipTester

        tester = MembershipTester(presentation)
        names = [f"x{i+1}" for i in range(presentation.dimension)]
        total = 0
        for v in range(lo, hi + 1):
            point = [asg[n] for n in names[:-1]] + [v]
            if tester.contains(point):
                total += 1
        return total

    def test_even_interval_component(self):
        # points (x1, x2) with x2 even and 0 <= x2 <= 2*x1
        comp = LinearSetPresentation(base=(0, 0), periods=((1, 0), (1, 2)))
        result = eliminate(union(comp), "y")
        for x1 in range(-2, 5):
            expected = self._witness_count(comp, {"x1": x1})
            for k in range(0, 7):
                value = evaluate(
                    result.formula, {"x1": x1, "y": k}, quant_bound=6
                )
                assert value == (k == expected), (x1, k, expected)

    def test_scaled_line_over_naturals(self):
        comp = LinearSetPresentation(base=(1,), periods=(), domain=DomainTag.N)
        result = eliminate(union(comp), "y")
        assert evaluate(result.formula, {"y": 1}, domain="N", quant_bound=8) is True
        assert evaluate(result.formula, {"y": 0}, domain="N", quant_bound=8) is False

    def test_forced_coordinate_relation(self):
        # periods force x2 = 2*x1 and count x3: base 0, period (1, 2, 0), (0, 0, 3)
        comp = LinearSetPresentation(base=(0, 0, 0), periods=((1, 2, 0), (0, 0, 3)))
        result = eliminate(union(comp), "y")
        # x2 != 2*x1: no witnesses at all
        assert evaluate(result.formula, {"x1": 1, "x2": 3, "y": 0}, quant_bound=12) is True
        assert evaluate(result.formula, {"x1": 1, "x2": 3, "y": 1}, quant_bound=12) is False
        # x2 = 2*x1 with x1 >= 0: infinitely many x3 (multiples of 3 from 0)
        for k in range(0, 5):
            assert (
                evaluate(result.formula, {"x1": 1, "x2": 2, "y": k}, quant_bound=12)
                is False
            )
        # x2 = 2*x1 with x1 < 0: coefficient of the first period is negative
        assert evaluate(result.formula, {"x1": -1, "x2": -2, "y": 0}, quant_bound=12) is True


class TestEliminateUnion:
    def test_two_singletons(self):
        s = SemilinearPresentation(
            components=(singleton(3), singleton(7)),
            asserted_disjoint=True,
            asserted_simple=True,
        )
        result = eliminate(s, "y")
        for k in range(0, 5):
            assert evaluate(result.formula, {"y": k}, quant_bound=12) is (k == 2)

    def test_one_simplicity_check_per_component(self, monkeypatch):
        # Planning checks each component once; eliminate reads only the
        # assertion flags after it.
        calls = []
        checked = elim.check_simple

        def counting(component):
            calls.append(component)
            return checked(component)

        monkeypatch.setattr(elim, "check_simple", counting)
        monkeypatch.setattr(sets, "check_simple", counting)
        s = SemilinearPresentation(
            components=(singleton(3), singleton(7), LinearSetPresentation(base=(0,), periods=((2,),))),
            asserted_disjoint=True,
            asserted_simple=True,
        )
        eliminate(s, "y")
        assert len(calls) == 3
        calls.clear()
        eliminate(union(THREE_PERIOD_SET), "y")
        assert len(calls) == 1

    def test_requires_assertions(self):
        s = SemilinearPresentation(components=(singleton(3),))
        with pytest.raises(ContractError):
            eliminate(s, "y")

    def test_two_infinite_components(self):
        evens = LinearSetPresentation(base=(0,), periods=((2,),))
        odds = LinearSetPresentation(base=(1,), periods=((2,),))
        s = SemilinearPresentation(
            components=(evens, odds), asserted_disjoint=True, asserted_simple=True
        )
        result = eliminate(s, "y")
        for k in range(0, 6):
            assert evaluate(result.formula, {"y": k}, quant_bound=10) is False

    def test_plan_builds_what_the_presentation_builds(self):
        for s in (union(singleton(2, 9)), union(THREE_PERIOD_SET), half_line(8)):
            plan = plan_elimination(s)
            assert plan_elimination(plan) is plan
            assert eliminate(plan, "y") == eliminate(s, "y")
            assert estimate_result_nodes(plan) == estimate_result_nodes(s)

    def test_estimate_is_positive(self):
        s = SemilinearPresentation(
            components=(THREE_PERIOD_SET,), asserted_disjoint=True, asserted_simple=True
        )
        assert estimate_result_nodes(s) > 0

    @pytest.mark.parametrize("denom", [100, 400, 1200])
    def test_estimate_of_half_lines_is_close_above(self, denom):
        actual = eliminate(half_line(denom), "y").report.nodes
        assert actual <= estimate_result_nodes(half_line(denom)) <= 2 * actual

    def test_estimate_bounds_one_sided_cores(self):
        # Presentations whose every component has a core with an empty bound
        # family: the estimate is exact over Z and an upper bound over N.
        rng = random.Random(77)
        tried = 0
        while tried < 60:
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            dim = rng.randint(1, 4)
            component = random_simple_component(rng, dim, rng.randint(1, dim), domain)
            plan = elim.plan_component(component, coordinate_names(dim))
            if plan.bounds is None or (plan.bounds.upper_rows and plan.bounds.lower_rows):
                continue
            if plan.solution.denom ** (component.num_periods - 1) > 200:
                continue
            s = SemilinearPresentation(
                components=(component,), asserted_disjoint=True, asserted_simple=True
            )
            estimate, actual = estimate_result_nodes(s), eliminate(s, "y").report.nodes
            assert estimate == actual if domain is DomainTag.Z else estimate >= actual, component
            tried += 1

    def test_estimate_bounds_seeded_sample(self):
        # An upper bound everywhere; exact over Z, dropped-row relations (each
        # counted from its terms) and false one-sided bodies included.
        rng = random.Random(3)
        exact = dropped = 0
        for _ in range(60):
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            result = eliminate(s, "y")
            estimate = estimate_result_nodes(s)
            assert estimate >= result.report.nodes, s
            if domain is DomainTag.Z:
                assert estimate == result.report.nodes, s
                exact += 1
                dropped += any(c.dropped_rows for c in result.report.components)
        assert exact >= 20 and dropped >= 5, (exact, dropped)

    def test_false_one_sided_body_under_relations(self):
        # No sign atom and D' = 1: the core's body is false, and the dropped
        # row's relation leaves "!x1 = 1 & y = 0".
        s = union(LinearSetPresentation(base=(1, 0), periods=((0, 1),)))
        result = eliminate(s, "y")
        assert print_formula(result.formula) == "!x1 = 1 & y = 0"
        assert estimate_result_nodes(s) == result.report.nodes == 6

    def test_estimate_is_exact_on_single_witness_components(self):
        # Single-witness components and the multi-component wrapper are
        # counted exactly, alone and in unions.
        rng = random.Random(91)
        seen = {1: 0, 2: 0}
        while min(seen.values()) < 40:
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            result = eliminate(s, "y")
            if any(r.case != "single-witness" for r in result.report.components):
                continue
            assert estimate_result_nodes(s) == result.report.nodes, s
            seen[len(s.components)] += 1

    @pytest.mark.parametrize(
        "components, actual",
        [
            ([((0, 5, 4), ((3, 0, 1), (2, 2, 0)))], 29),
            ([((0, 5, 4), ((3, 0, 1), (2, 2, 0))), ((5, 2, 5), ((2, 2, 2), (1, 2, 2), (0, 0, 3)))], 61),
        ],
    )
    def test_estimate_not_below_single_witness_sizes(self, components, actual):
        s = SemilinearPresentation(
            components=tuple(
                LinearSetPresentation(base=base, periods=periods, domain=DomainTag.N)
                for base, periods in components
            ),
            asserted_disjoint=True,
            asserted_simple=True,
        )
        assert eliminate(s, "y").report.nodes == actual
        assert estimate_result_nodes(s) >= actual


def _fixture_or_d8_m2(name):
    if name == "d8_m2":
        return union(D8_M2)
    return parse_presentation((FIXTURES / f"{name}.sl").read_text(encoding="utf-8"))


class TestBinders:
    """Each branch of a two-sided core binds its first witness t0, and the
    window witness t1 of its zero case; with several branches each also
    binds its count.  A one-sided core binds one coset witness when D' > 1,
    a single-witness component nothing, and a union one part count per
    component."""

    @staticmethod
    def _exists_nodes(formula):
        return sum(isinstance(g, Exists) for g in traverse(formula)[0])

    @staticmethod
    def _binders(result):
        reports = result.report.components
        total = len(reports) if len(reports) > 1 else 0
        for r in reports:
            if r.case == "single-witness":
                continue
            if not r.branches:
                total += r.coset_period > 1
            else:
                # t0, t1 and, with several branches, u
                total += r.branches * (2 + (r.branches > 1))
        return total

    @pytest.mark.parametrize("name", ["three_periods", "natural", "d8_m2"])
    def test_two_sided_fixtures(self, name):
        result = eliminate(_fixture_or_d8_m2(name), "y")
        assert self._exists_nodes(result.formula) == self._binders(result) > 0

    @pytest.mark.parametrize("denom", [2, 100])
    def test_half_line_has_one(self, denom):
        assert self._exists_nodes(eliminate(half_line(denom), "y").formula) == 1

    def test_seeded_interval_cores(self):
        rng = random.Random(17)
        seen = {"one-sided": 0, "two-sided": 0, "single-witness": 0, "union": 0}
        while min(seen.values()) < 6:
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            result = eliminate(s, "y")
            reports = result.report.components
            assert self._exists_nodes(result.formula) == self._binders(result), s
            for r in reports:
                kind = r.case if r.case == "single-witness" else "two-sided" if r.branches else "one-sided"
                seen[kind] += 1
            seen["union"] += len(reports) > 1


class TestOutputSize:
    # Node ceilings: the sizes measured with one first-witness binder per
    # branch, rounded up by less than 5 %.
    @pytest.mark.parametrize(
        "name, ceiling", [("three_periods", 150), ("natural", 48), ("d8_m2", 72)]
    )
    def test_two_sided_cores_stay_small(self, name, ceiling):
        s = _fixture_or_d8_m2(name)
        result = eliminate(s, "y")
        (core,) = result.report.components
        assert core.upper_rows and core.lower_rows
        assert result.report.nodes <= ceiling
        assert estimate_result_nodes(s) >= result.report.nodes

    def test_half_line_size_does_not_depend_on_the_denominator(self):
        sizes = {eliminate(half_line(denom), "y").report.nodes for denom in (100, 400, 1200)}
        assert len(sizes) == 1
