import itertools
import random
from math import gcd, lcm
from pathlib import Path

import pytest

from countqe.elim import (
    classify_bounds,
    eliminate,
    estimate_result_nodes,
    is_subtraction_free,
    normalize_for_nat,
    plan_elimination,
    progression_count_formula,
)
from countqe.errors import ContractError, ParameterError, UnsupportedPresentationError
from countqe.formula import (
    And,
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
from countqe import formula as fm
from countqe.linalg import IntMatrix, cramer_solve, determinant
from countqe.verify import PinnedProgram, run_check
from countqe.sets import (
    DomainTag,
    LinearSetPresentation,
    SemilinearPresentation,
    coordinate_names,
)
from countqe.textio import parse_presentation, print_formula
from helpers import (
    ResidueCase,
    count_in_progression,
    random_disjoint_presentation,
    random_simple_component,
    residue_case_feasible,
)

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
        f = progression_count_formula(variable("lo"), [variable("hi")], step, "u")
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

    def test_family_of_upper_terms_counts_up_to_the_least(self):
        # The count up to min(h1, h2, h3) from a family of two or three upper
        # terms, over Z and, normalised, over N.
        rng = random.Random(39)
        seen = {"empty": 0, "tie": 0, "three": 0}
        for _ in range(300):
            step = rng.randint(1, 6)
            his = [variable(f"h{j}") for j in range(rng.randint(2, 3))]
            first = rng.randint(0, 20)
            asg = {f"h{j}": rng.randint(0, 40) for j in range(len(his))} | {"lo": first}
            expected = _progression_count(first, min(asg[f"h{j}"] for j in range(len(his))), step)
            for f, domain in (
                (progression_count_formula(variable("lo"), his, step, "u"), "Z"),
                (normalize_for_nat(progression_count_formula(variable("lo"), his, step, "u")), "N"),
            ):
                assert evaluate(f, asg | {"u": expected}, domain=domain) is True
                for wrong in (expected - 1, expected + 1, expected + step):
                    assert evaluate(f, asg | {"u": wrong}, domain=domain) is False
            seen["empty"] += expected == 0
            seen["tie"] += len(set(asg[f"h{j}"] for j in range(len(his)))) < len(his)
            seen["three"] += len(his) == 3
        assert min(seen.values()) >= 10, seen

    def test_no_quantifiers_and_parameter_errors(self):
        f = progression_count_formula(variable("lo"), [variable("hi")], 6, "u")
        assert contains_counting(f) is False
        assert free_vars(f) == {"lo", "hi", "u"}
        with pytest.raises(ParameterError):
            progression_count_formula(variable("lo"), [variable("hi")], 0, "u")
        with pytest.raises(ParameterError):
            progression_count_formula(variable("lo"), [], 6, "u")


class TestProgressionCountFormulaNat:
    """The count from ``first = a - b`` to ``hi = c - d``, normalised by
    :func:`normalize_for_nat`."""

    def _check(self, step, a, b, c, d):
        first, hi = variable("a") - variable("b"), variable("c") - variable("d")
        f = normalize_for_nat(progression_count_formula(first, [hi], step, "u"))
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
        f = normalize_for_nat(progression_count_formula(variable("a") - variable("b"), [variable("c") - 3], 6, "u"))
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
    the one value that :func:`helpers.residue_case_feasible` accepts, or
    none."""

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

    def test_several_lower_terms_take_the_greatest(self):
        # W(t) with two or three lower terms holds only at the least t in the
        # coset with m*t >= max(lows), and the pinned evaluator's window pins it.
        rng = random.Random(2025)
        seen = {"three": 0, "tie": 0}
        for _ in range(300):
            lows = [variable(f"l{i}") for i in range(rng.randint(2, 3))]
            m, period = rng.randint(1, 4), rng.randint(1, 6)
            residue = rng.randrange(period)
            cong = [Cong(variable("t"), residue, period)] if period > 1 else []
            window = elim._first_witness_window(lows, m * variable("t"), m * period, cong)
            asg = {f"l{i}": rng.randint(-20, 20) for i in range(len(lows))}
            top = max(asg.values())
            span = range(-30, 30)
            expected = [t for t in span if m * t >= top and t % period == residue][:1]
            holds = [t for t in span if evaluate(window, asg | {"t": t})]
            assert holds == expected, (asg, m, period, residue)
            t, y = variable("t"), variable("y")
            chosen = PinnedProgram(Exists("t", conj([window, Le(t, y), Le(y, t)])))
            assert chosen.count_values(asg, "y", span) == expected
            seen["three"] += len(lows) == 3
            seen["tie"] += len(set(asg.values())) < len(asg)
        assert min(seen.values()) >= 10, seen

    def test_half_line_period_is_the_denominator(self):
        plan = elim.plan_component(half_line(60).components[0], coordinate_names(2))
        assert (plan.solution.denom, plan.coset_period) == (60, 60)
        assert not (plan.bounds.upper_rows and plan.bounds.lower_rows)
        assert type(eliminate(half_line(60), "y").formula) is And


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
            assert (fixed is atom) == (fixed == atom), atom
            asg = {n: rng.randint(0, 10) for n in names}
            assert evaluate(fixed, asg, domain="N") == evaluate(atom, asg, domain="N")

    @pytest.mark.parametrize(
        "atom",
        [
            Le(variable("x") + 2, variable("y")),
            Lt(constant(0), 3 * variable("x")),
            Eq(variable("x"), variable("y") + 4),
            Cong(variable("x") + 2 * variable("y") + 1, 0, 3),
        ],
    )
    def test_subtraction_free_atom_comes_back_as_is(self, atom):
        assert normalize_for_nat(atom) is atom

    @pytest.mark.parametrize(
        "atom",
        [
            Le(variable("x") + 2, variable("y") + 1),
            Le(variable("x") + variable("y"), variable("y")),
            Cong(variable("x") + 3, 0, 3),
        ],
    )
    def test_rewritten_atom_is_new(self, atom):
        fixed = normalize_for_nat(atom)
        assert fixed is not atom and fixed != atom and is_subtraction_free(fixed)

    def test_eliminated_natural_comes_back_as_is(self):
        f = eliminate(_fixture_or_d8_m2("natural"), "y").formula
        assert normalize_for_nat(f) is f


class TestDividedOrderAtoms:
    def test_example(self):
        x1, x3, t0 = variable("x1"), variable("x3"), variable("_t0")
        assert elim._divided(Le(6 * x1 - 6 * x3, 6 * t0)) == Le(x1 - x3, t0)
        # 2t <= 2x + 5 floors to t <= x + 2; 2t < 2x + 5 rounds up to t < x + 3
        t, x = variable("t"), variable("x")
        assert elim._divided(Le(2 * t, 2 * x + 5)) == Le(t, x + 2)
        assert elim._divided(Lt(2 * t, 2 * x + 5)) == Lt(t, x + 3)
        assert elim._divided(Le(4 * t + 7, 2 * x)) == Le(2 * t + 4, x)
        for atom in (Le(2 * t, 3 * x), Lt(t, 2 * x), Le(constant(2), constant(4))):
            assert elim._divided(atom) is atom

    def test_keeps_integer_solutions_and_sides(self):
        rng = random.Random(43)
        names = ("a", "b", "c")
        for _ in range(400):
            g = rng.randint(2, 6)

            def side():
                coeffs = {n: g * rng.randint(-3, 3) for n in rng.sample(names, rng.randint(0, 2))}
                return Term(rng.randint(-20, 20), coeffs)

            lhs, rhs = side(), side()
            if not (lhs.coeffs or rhs.coeffs):
                continue
            atom = rng.choice((Le, Lt))(lhs, rhs)
            divided = elim._divided(atom)
            assert set(divided.lhs.coeffs) == set(lhs.coeffs) and set(divided.rhs.coeffs) == set(rhs.coeffs)
            assert divided.lhs.constant >= 0 and divided.rhs.constant >= 0
            for _ in range(10):
                asg = {n: rng.randint(-9, 9) for n in names}
                assert evaluate(divided, asg) == evaluate(atom, asg), (atom, divided)
            if is_subtraction_free(atom):
                assert is_subtraction_free(divided)

    def test_eliminated_order_atoms_have_no_common_factor(self):
        rng = random.Random(5)
        divided = 0
        for _ in range(80):
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            with_factor = eliminate(s, "y").formula
            for g in traverse(with_factor)[0]:
                if type(g) in (Le, Lt):
                    assert gcd(*g.lhs.coeffs.values(), *g.rhs.coeffs.values()) == 1, (s, g)
            if domain is DomainTag.N:
                assert is_subtraction_free(with_factor), s
        # The first witness window of three_periods read 6*x1 - 6*x3 <= 6*_t0.
        printed = print_formula(eliminate(union(THREE_PERIOD_SET), "y").formula)
        assert "x1 - x3 <= _t0 & _t0 < x1 - x3 + 2" in printed, printed


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
        # Two upper terms, one branch: the estimate counts it exactly.
        assert rep.nodes == estimate_result_nodes(union(THREE_PERIOD_SET))
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

    def test_plan_for_another_count_variable_is_refused(self):
        plan = plan_elimination(union(THREE_PERIOD_SET), count_var="y")
        assert eliminate(plan, "y") is plan.result
        assert run_check(plan, "y", trials=2).mismatches == 0
        with pytest.raises(ContractError, match="count variable 'z' does not match the plan's 'y'"):
            eliminate(plan, "z")
        with pytest.raises(ContractError, match="count variable 'z' does not match the plan's 'y'"):
            run_check(plan, "z", trials=2)
        z_plan = plan_elimination(union(THREE_PERIOD_SET), count_var="z")
        assert estimate_result_nodes(z_plan) == fm.node_count(eliminate(z_plan, "z").formula)

    def test_estimate_is_positive(self):
        s = SemilinearPresentation(
            components=(THREE_PERIOD_SET,), asserted_disjoint=True, asserted_simple=True
        )
        assert estimate_result_nodes(s) > 0

    @pytest.mark.parametrize("denom", [100, 400, 1200])
    def test_estimate_of_half_lines_is_close_above(self, denom):
        actual = fm.node_count(eliminate(half_line(denom), "y").formula)
        assert estimate_result_nodes(half_line(denom)) == actual

    def test_estimate_bounds_one_sided_cores(self):
        # Presentations whose every component has a core with an empty bound
        # family: the estimate is exact over Z and N.
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
            estimate, actual = estimate_result_nodes(s), fm.node_count(eliminate(s, "y").formula)
            assert estimate == actual, component
            tried += 1

    def test_estimate_bounds_seeded_sample(self):
        # Exact over Z and N, dropped-row relations and false one-sided
        # bodies included.
        rng = random.Random(3)
        exact = dropped = 0
        for _ in range(60):
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            result = eliminate(s, "y")
            assert estimate_result_nodes(s) == fm.node_count(result.formula), s
            if domain is DomainTag.Z:
                exact += 1
                dropped += any(c.dropped_rows for c in result.report.components)
        assert exact >= 20 and dropped >= 5, (exact, dropped)

    def test_estimate_is_exact_over_both_domains(self):
        # No output atom reads a name on both sides, so normalising over N
        # keeps every coefficient: the estimate is exact there too, cores
        # with two or more bounds in a family included.
        rng = random.Random(2027)
        seen = {"N": 0, "N, family>=2": 0, "Z, family>=2": 0}
        for _ in range(300):
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=5)
            result = eliminate(s, "y")
            assert estimate_result_nodes(s) == fm.node_count(result.formula), s
            seen["N"] += domain is DomainTag.N
            seen[f"{domain.value}, family>=2"] += any(
                r.upper_rows and r.lower_rows and len(r.upper_rows + r.lower_rows) >= 3
                for r in result.report.components
            )
        assert min(seen.values()) >= 10, seen

    def test_false_one_sided_body_under_relations(self):
        # No sign atom and D' = 1: the core's body is false, and the dropped
        # row's relation leaves "!x1 = 1 & y = 0".
        s = union(LinearSetPresentation(base=(1, 0), periods=((0, 1),)))
        result = eliminate(s, "y")
        assert print_formula(result.formula) == "!x1 = 1 & y = 0"
        assert estimate_result_nodes(s) == fm.node_count(result.formula) == 6

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
            assert estimate_result_nodes(s) == fm.node_count(result.formula), s
            seen[len(s.components)] += 1

    def test_false_component_beside_a_two_sided_core(self):
        # The one-sided first component's body is false (no sign atom, and
        # its congruences always have a solution): the union is its count
        # binders and the two-sided core's first witness over false.
        s = union(
            LinearSetPresentation(base=(-5, 0), periods=((3, -2), (-2, -2))),
            LinearSetPresentation(base=(2, -1), periods=((-1, 2), (-2, 2))),
        )
        result = eliminate(s, "y")
        assert print_formula(result.formula) == "E _y0 . E _t2 . E _y1 . false"
        assert estimate_result_nodes(s) == fm.node_count(result.formula) == 4

    @pytest.mark.parametrize(
        "components, actual",
        [
            ([((0, 5, 4), ((3, 0, 1), (2, 2, 0)))], 29),
            ([((0, 5, 4), ((3, 0, 1), (2, 2, 0))), ((5, 2, 5), ((2, 2, 2), (1, 2, 2), (0, 0, 3)))], 52),
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
        assert fm.node_count(eliminate(s, "y").formula) == actual
        assert estimate_result_nodes(s) == actual


def _fixture_or_d8_m2(name):
    if name == "d8_m2":
        return union(D8_M2)
    return parse_presentation((FIXTURES / f"{name}.sl").read_text(encoding="utf-8"))


class TestBinders:
    """The only binders are each two-sided core's first witness t0, whatever
    the sizes of its bound families, and a union's part count per component.
    The zero case and a one-sided core ask whether the congruences have a
    solution without a binder; a single-witness component binds nothing."""

    @staticmethod
    def _binders(formula):
        """The binders' kinds, sorted: "t" for a first witness ``_t<k>``,
        "y" for a part count ``_y<k>``."""
        return sorted(g.var[:2] for g in traverse(formula)[0] if isinstance(g, Exists))

    @staticmethod
    def _expected(result):
        """One "_t" per two-sided core, and one "_y" per component of a union."""
        reports = result.report.components
        kinds = ["_y"] * len(reports) if len(reports) > 1 else []
        return sorted(kinds + ["_t" for r in reports if r.upper_rows and r.lower_rows])

    @pytest.mark.parametrize("name", ["three_periods", "natural", "d8_m2"])
    def test_two_sided_fixtures(self, name):
        result = eliminate(_fixture_or_d8_m2(name), "y")
        assert self._binders(result.formula) == self._expected(result) == ["_t"]

    @pytest.mark.parametrize("denom", [2, 100])
    def test_half_line_has_none(self, denom):
        assert self._binders(eliminate(half_line(denom), "y").formula) == []

    def test_seeded_interval_cores(self):
        rng = random.Random(17)
        seen = {"one-sided": 0, "two-sided": 0, "single-witness": 0, "union": 0, "family>=2": 0}
        while min(seen.values()) < 6:
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            result = eliminate(s, "y")
            reports = result.report.components
            assert self._binders(result.formula) == self._expected(result), s
            for r in reports:
                two_sided = r.upper_rows and r.lower_rows
                kind = r.case if r.case == "single-witness" else "two-sided" if two_sided else "one-sided"
                seen[kind] += 1
                seen["family>=2"] += bool(two_sided) and max(len(r.upper_rows), len(r.lower_rows)) >= 2
            seen["union"] += len(reports) > 1


class TestOutputSize:
    # Node ceilings: the sizes measured with one first-witness binder per
    # core, rounded up by less than 5 %.
    @pytest.mark.parametrize(
        "name, ceiling", [("three_periods", 99), ("natural", 48), ("d8_m2", 72)]
    )
    def test_two_sided_cores_stay_small(self, name, ceiling):
        s = _fixture_or_d8_m2(name)
        result = eliminate(s, "y")
        (core,) = result.report.components
        assert core.upper_rows and core.lower_rows
        assert result.report.nodes <= ceiling
        assert estimate_result_nodes(s) == fm.node_count(result.formula)

    @pytest.mark.parametrize("name, nodes", [("three_periods", 75), ("natural", 36), ("d8_m2", 50)])
    def test_two_sided_sizes_without_a_zero_case_binder(self, name, nodes):
        assert eliminate(_fixture_or_d8_m2(name), "y").report.nodes == nodes

    def test_half_line_size_does_not_depend_on_the_denominator(self):
        sizes = {eliminate(half_line(denom), "y").report.nodes for denom in (100, 400, 1200)}
        assert len(sizes) == 1


def _one(base, periods, domain=DomainTag.Z):
    return union(LinearSetPresentation(base=base, periods=periods, domain=domain))


# Per construction case, a family of presentations with one parameter k
# that enters the periods or the base: (builder, case, two-sided, dropped rows).
SCALED_FAMILIES = {
    "half-line": (lambda k: _one((0, 0), ((1, 1), (0, k))), "interval-count", False, 0),
    "one-sided, a dropped row": (lambda k: _one((0, 0, 0), ((1, 1, 1), (0, 0, k))), "interval-count", False, 1),
    "single-witness": (lambda k: _one((0, 0), ((k, 1),)), "single-witness", False, 0),
    "single-witness, a relation": (lambda k: _one((0, 0, 0), ((1, 2, 1), (0, k, k))), "single-witness", False, 0),
    "single-witness, a dropped row": (lambda k: _one((0, 0, 0), ((k, 1, 1),)), "single-witness", False, 1),
    "two-sided": (lambda k: _one((0, 0), ((1, 1), (1, -k))), "interval-count", True, 0),
    "two-sided, a dropped row": (lambda k: _one((0, 0, 0), ((1, 1, 1), (1, 1, -k))), "interval-count", True, 1),
    "two-sided over N": (lambda k: _one((0, 0), ((1, 2 * k), (2 * k, 1)), DomainTag.N), "interval-count", True, 0),
    "three_periods, base scaled": (
        lambda k: _one((k, 2 * k, 3 * k, 4 * k), THREE_PERIOD_SET.periods), "interval-count", True, 1
    ),
}


@pytest.mark.parametrize("name", sorted(SCALED_FAMILIES))
def test_size_does_not_grow_with_scale(name):
    # The construction's size depends on the shape of a component, not on
    # its entries: the same node count at k = 10**3 and k = 10**6.  (Small
    # k can differ: the N family reads 36 nodes at k = 1, 39 above.)
    build, case, two_sided, dropped = SCALED_FAMILIES[name]
    sizes = []
    for k in (10**3, 10**6):
        report = eliminate(build(k), "y").report
        (component,) = report.components
        assert component.case == case
        assert bool(component.upper_rows and component.lower_rows) is two_sided
        assert len(component.dropped_rows) == dropped
        sizes.append(report.nodes)
    assert sizes[0] == sizes[1], sizes
