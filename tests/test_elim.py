import itertools
import random
import time
from math import gcd, lcm
from pathlib import Path

import pytest

from countqe.elim import (
    classify_bounds,
    eliminate,
    estimate_result_nodes,
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
    Or,
    Term,
    conj,
    constant,
    contains_counting,
    evaluate,
    free_vars,
    traverse,
    variable,
)
from countqe import elim, sets, verify
from countqe import formula as fm
from countqe.linalg import IntMatrix, cramer_solve, determinant
from countqe.verify import PinnedProgram, count_set_witnesses, run_check
from countqe.sets import (
    DomainTag,
    LinearSetPresentation,
    SemilinearPresentation,
    coordinate_names,
)
from countqe.textio import parse_presentation, print_formula
from helpers import (
    SPLIT_PATTERNS,
    ResidueCase,
    count_in_progression,
    first_witness_is_a_term,
    is_subtraction_free,
    plan_reports,
    random_disjoint_presentation,
    random_simple_component,
    random_split_union,
    residue_case_feasible,
    residue_classes,
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
        f = progression_count_formula(variable("lo"), [variable("hi")], step, variable("u"))
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
        # terms, over Z and over N.
        rng = random.Random(39)
        seen = {"empty": 0, "tie": 0, "three": 0}
        for _ in range(300):
            step = rng.randint(1, 6)
            his = [variable(f"h{j}") for j in range(rng.randint(2, 3))]
            first = rng.randint(0, 20)
            asg = {f"h{j}": rng.randint(0, 40) for j in range(len(his))} | {"lo": first}
            expected = _progression_count(first, min(asg[f"h{j}"] for j in range(len(his))), step)
            f = progression_count_formula(variable("lo"), his, step, variable("u"))
            for domain in ("Z", "N"):
                assert evaluate(f, asg | {"u": expected}, domain=domain) is True
                for wrong in (expected - 1, expected + 1, expected + step):
                    assert evaluate(f, asg | {"u": wrong}, domain=domain) is False
            seen["empty"] += expected == 0
            seen["tie"] += len(set(asg[f"h{j}"] for j in range(len(his)))) < len(his)
            seen["three"] += len(his) == 3
        assert min(seen.values()) >= 10, seen

    def test_no_quantifiers_and_parameter_errors(self):
        f = progression_count_formula(variable("lo"), [variable("hi")], 6, variable("u"))
        assert contains_counting(f) is False
        assert free_vars(f) == {"lo", "hi", "u"}
        with pytest.raises(ParameterError):
            progression_count_formula(variable("lo"), [variable("hi")], 0, variable("u"))
        with pytest.raises(ParameterError):
            progression_count_formula(variable("lo"), [], 6, variable("u"))

    def test_several_terms_pin_by_strict_atoms_alone(self):
        # 0 <= u & (pins) & (u = 0 | at-most atoms): a pin is its strict
        # atom, each at-most atom stands once, and every atom reads u, so
        # none compares lo with an upper term.
        u = variable("u")
        f = progression_count_formula(variable("lo"), [variable("h0"), variable("h1")], 6, u)
        nonnegative, pins, (zero, at_most) = f.parts[0], f.parts[1].parts, f.parts[2].parts
        assert (nonnegative, zero) == (Le(constant(0), u), Eq(u, constant(0)))
        assert [type(pin) for pin in pins] == [Lt, Lt]
        assert [type(a) for a in at_most.parts] == [Le, Le]
        atoms = [g for g in traverse(f)[0] if not g.children]
        assert len(atoms) == 6 and all(any("u" in t.coeffs for t in g.terms) for g in atoms)

    def test_one_shape_against_enumeration(self):
        # Every step, one to three upper terms, gaps down to below -step
        # (where only 0 <= c rules out a negative count), over Z and N, and
        # the count terms c = u, u - 2 and u - v - 1 (a union's last count):
        # evaluate and count_values agree with enumeration, and count_values
        # never falls back on evaluate.
        rng = random.Random(43)
        u, v = variable("u"), variable("v")
        below = 0
        for domain, step, terms, (count, shift) in itertools.product(
            (DomainTag.Z, DomainTag.N), range(1, 7), (1, 2, 3), ((u, 0), (u - 2, 2), (u - v - 1, 5))
        ):
            his = [variable(f"h{j}") for j in range(terms)]
            f = progression_count_formula(variable("lo"), his, step, count, domain)
            program = PinnedProgram(f, domain)
            program.evaluate = lambda assignment: pytest.fail("count_values fell back on evaluate")
            gaps = (-2 * step - 1, -step - 1, -step, -1, 0, 1, step - 1, step, 2 * step + 1, 5 * step + 2)
            for first in (20, -7) if domain is DomainTag.Z else (20,):
                for _ in range(12):
                    his_at = [first + rng.choice(gaps) for _ in his]
                    expected = _progression_count(first, min(his_at), step) + shift
                    below += min(his_at) < first - step
                    asg = {f"h{j}": h for j, h in enumerate(his_at)} | {"lo": first, "v": 4}
                    candidates = range(expected - 5, expected + 4)
                    assert program.count_values(asg, "u", candidates) == [expected], (domain, step, his_at)
                    for k in candidates:
                        if k >= 0 or domain is DomainTag.Z:
                            assert evaluate(f, asg | {"u": k}, domain=domain) is (k == expected)
        assert below >= 200, below


class TestProgressionCountFormulaNat:
    """The count from ``first = a - b`` to ``hi = c - d``, over N."""

    def _check(self, step, a, b, c, d):
        first, hi = variable("a") - variable("b"), variable("c") - variable("d")
        f = progression_count_formula(first, [hi], step, variable("u"))
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
        f = progression_count_formula(variable("a") - variable("b"), [variable("c") - 3], 6, variable("u"))
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

    def test_several_lower_terms_write_the_congruences_once(self):
        lows = [variable("l0"), variable("l1"), variable("l2")]
        cong = [Cong(variable("t"), 1, 3)]
        window = elim._first_witness_window(lows, 2 * variable("t"), 6, cong)
        assert [g for g in traverse(window)[0] if isinstance(g, Cong)] == cong
        assert sum(isinstance(g, Le) for g in traverse(window)[0]) == 3
        (below,) = [g for g in window.parts if isinstance(g, Or)]
        assert [type(g) for g in below.parts] == [Lt, Lt, Lt]

    def test_half_line_period_is_the_denominator(self):
        plan = elim.plan_component(half_line(60).components[0], coordinate_names(2))
        assert (plan.solution.denom, plan.coset_period) == (60, 60)
        assert not (plan.bounds.upper_rows and plan.bounds.lower_rows)
        assert type(eliminate(half_line(60), "y").formula) is And


def test_upper_terms_never_negative_get_no_atom():
    # Over N only a term with a negative coefficient or constant can be
    # negative; natural.sl's upper term 2*x1 is not.
    x1, x2 = variable("x1"), variable("x2")
    highs = [2 * x1, x1 + 3, x1 - 1, x1 - x2, constant(4)]
    assert elim._negative_upper_terms(highs) == [Lt(x1, constant(1)), Lt(x1, x2)]
    natural = parse_presentation((FIXTURES / "natural.sl").read_text(encoding="utf-8"))
    assert "< 0" not in print_formula(eliminate(natural, "y").formula)


def _random_atom_sides(seed, count):
    """``count`` triples (kind, lhs, rhs) over a, b, c whose coefficients
    share a random factor; an equation's ``lhs - rhs`` has a constant that
    the gcd of its coefficients divides, so that it divides exactly."""
    rng = random.Random(seed)
    names = ("a", "b", "c")
    while count:
        g = rng.randint(1, 6)

        def side():
            coeffs = {n: g * rng.randint(-3, 3) for n in rng.sample(names, rng.randint(0, 3))}
            return Term(rng.randint(-20, 20), coeffs)

        kind, lhs, rhs = rng.choice((Le, Lt, Eq)), side(), side()
        diff = lhs - rhs
        if not diff.coeffs:
            continue
        if kind is Eq:
            rhs += diff.constant % gcd(*diff.coeffs.values())
        yield kind, lhs, rhs
        count -= 1


class TestDividedOrderAtoms:
    """The gcd step of :func:`countqe.elim._atom`, the one constructor of
    the eliminator's comparison atoms."""

    def test_example(self):
        x1, x3, t0 = variable("x1"), variable("x3"), variable("_t0")
        assert elim._atom(Le, 6 * x1 - 6 * x3, 6 * t0) == Le(x1, x3 + t0)
        # 2t <= 2x + 5 rounds down to t <= x + 2; 2t < 2x + 5 rounds up to t < x + 3
        t, x = variable("t"), variable("x")
        assert elim._atom(Le, 2 * t, 2 * x + 5) == Le(t, x + 2)
        assert elim._atom(Lt, 2 * t, 2 * x + 5) == Lt(t, x + 3)
        assert elim._atom(Le, 4 * t + 7, 2 * x) == Le(2 * t + 4, x)
        assert elim._atom(Eq, 4 * t, 2 * x + 6) == Eq(2 * t, x + 3)
        assert elim._atom(Le, constant(2), constant(4)) == Le(constant(0), constant(2))

    def test_keeps_integer_solutions_and_sides(self):
        # Same solutions as lhs kind rhs on a grid of Z^3; each name sits on
        # the side of its coefficient's sign in lhs - rhs.
        grid = [dict(zip("abc", p)) for p in itertools.product(range(-4, 5), repeat=3)]
        for kind, lhs, rhs in _random_atom_sides(43, 300):
            atom, normal = kind(lhs, rhs), elim._atom(kind, lhs, rhs)
            assert type(normal) is kind
            diff = lhs - rhs
            assert set(normal.lhs.coeffs) == {n for n, c in diff.coeffs.items() if c > 0}, (atom, normal)
            assert set(normal.rhs.coeffs) == {n for n, c in diff.coeffs.items() if c < 0}, (atom, normal)
            for asg in grid:
                assert fm.evaluate_atom(normal, asg) == fm.evaluate_atom(atom, asg), (atom, normal, asg)

    def test_eliminated_order_atoms_have_no_common_factor(self):
        # Every comparison atom of an output is its own normal form, negated
        # order atoms included: no common factor, no name on both sides, no
        # subtraction, over Z and over N.
        rng = random.Random(5)
        for _ in range(80):
            domain = rng.choice([DomainTag.Z, DomainTag.N])
            s = random_disjoint_presentation(rng, domain, max_dimension=4)
            f = eliminate(s, "y").formula
            for g in traverse(f)[0]:
                if type(g) in (Le, Lt, Eq):
                    assert gcd(*g.lhs.coeffs.values(), *g.rhs.coeffs.values()) == 1, (s, g)
                    assert elim._atom(type(g), g.lhs, g.rhs) == g, (s, g)
            assert is_subtraction_free(f), s
        # A strict count atom of three_periods read 8*x3 - 4*x1 < 12*y.
        printed = print_formula(eliminate(union(THREE_PERIOD_SET), "y").formula)
        assert "2*x3 < x1 + 3*y" in printed, printed


class TestNormalizeForNat:
    """The subtraction-free shape that :func:`countqe.elim._atom` gives
    every atom, which the N outputs need and the Z outputs share."""

    def test_equation_example(self):
        x, y, z = variable("x"), variable("y"), variable("z")
        assert elim._atom(Eq, x - 3 * y, y - z) == Eq(x + z, 4 * y)

    def test_already_nonnegative(self):
        assert elim._atom(Le, constant(0), variable("x")) == Le(constant(0), variable("x"))

    def test_move_both_sides(self):
        assert elim._atom(Le, -1 * variable("x"), constant(-2)) == Le(constant(2), variable("x"))

    def test_preserves_truth_over_naturals(self):
        rng = random.Random(47)
        for kind, lhs, rhs in _random_atom_sides(47, 400):
            atom, normal = kind(lhs, rhs), elim._atom(kind, lhs, rhs)
            assert is_subtraction_free(normal), normal
            assert normal.lhs.coeffs.keys().isdisjoint(normal.rhs.coeffs), normal
            assert fm.node_count(normal) <= fm.node_count(atom), (atom, normal)
            for _ in range(10):
                asg = {n: rng.randint(0, 10) for n in "abc"}
                assert evaluate(normal, asg, domain="N") == evaluate(atom, asg, domain="N"), (atom, normal)

    @pytest.mark.parametrize(
        "atom",
        [
            Le(variable("x") + 2, variable("y")),
            Lt(constant(1), 3 * variable("x") + variable("y")),
            Eq(variable("x"), variable("y") + 4),
        ],
    )
    def test_subtraction_free_atom_comes_back_as_is(self, atom):
        assert elim._atom(type(atom), atom.lhs, atom.rhs) == atom

    def test_idempotent(self):
        for kind, lhs, rhs in _random_atom_sides(53, 400):
            normal = elim._atom(kind, lhs, rhs)
            assert elim._atom(kind, normal.lhs, normal.rhs) == normal

    @pytest.mark.parametrize(
        "atom",
        [
            Le(variable("x") + 2, variable("y") + 1),
            Le(variable("x") + variable("y"), variable("y")),
        ],
    )
    def test_rewritten_atom_is_new(self, atom):
        normal = elim._atom(type(atom), atom.lhs, atom.rhs)
        assert normal != atom and is_subtraction_free(normal)

    def test_eliminated_natural_comes_back_as_is(self):
        f = eliminate(_fixture_or_d8_m2("natural"), "y").formula
        atoms = [g for g in traverse(f)[0] if type(g) in (Le, Lt, Eq)]
        assert atoms and all(elim._atom(type(g), g.lhs, g.rhs) == g for g in atoms)
        assert is_subtraction_free(f)


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
        # A point in dimension 1 counts 1 wherever it is finite: no
        # component has a part count.
        assert print_formula(result.formula) == "y = 2"
        assert [c.count_var for c in result.report.components] == [None, None]

    def test_split_unions_agree_with_the_oracle(self, monkeypatch):
        # Unions of three and four components with constant counts first, in
        # the middle, last, throughout and nowhere: each agrees with the
        # oracle, and count_values reads the count off the formula without
        # falling back to deciding each tested count.  Each component with
        # a count but the last binds a part count, and the last reads y;
        # single-witness components that exclude each other share one.
        evaluate_formula = PinnedProgram.evaluate

        def without_fallback(program, assignment):
            assert "y" not in program.free_names(program.formula), "count_values fell back to evaluate"
            return evaluate_formula(program, assignment)

        monkeypatch.setattr(PinnedProgram, "evaluate", without_fallback)
        rng = random.Random(2510)
        seen = {"dimension 1": 0, "N": 0, "positive counts": 0, "shared counts": 0}
        for index in range(300):
            pattern = SPLIT_PATTERNS[index % len(SPLIT_PATTERNS)]
            s = random_split_union(rng, (DomainTag.Z, DomainTag.N)[index % 2], pattern)
            outcome = run_check(s, trials=15, box_radius=12, seed=index)
            assert (outcome.mismatches, outcome.unstable_bad, outcome.overlaps) == (0, 0, 0), s
            reports = eliminate(s, "y").report.components
            parts = [c.count_var for c in reports]
            counts = list(dict.fromkeys(part for part in parts if part is not None))
            assert [part is None for part in parts] == list(pattern)
            assert all(part.startswith("_y") for part in counts[:-1]) and counts[-1:] in ([], ["y"])
            shared = [r for r in reports if r.count_var is not None and parts.count(r.count_var) > 1]
            assert all(r.case == "single-witness" for r in shared), s
            seen["shared counts"] += bool(shared)
            seen["dimension 1"] += s.dimension == 1
            seen["N"] += s.domain is DomainTag.N
            seen["positive counts"] += sum(r.verdict == "ok" and r.oracle.count > 0 for r in outcome.records)
        assert seen["dimension 1"] >= 20 and seen["N"] == 150 and seen["positive counts"] >= 500, seen
        assert seen["shared counts"] >= 40, seen

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

    def test_exclusive_single_witness_union_shares_one_count(self):
        # 1,600 components base (r, 0), period (1600, 1): each reads x1 = r
        # (mod 1600), so they exclude each other, share one 0/1 count and
        # bind no part count.  Building and a five-trial check take well
        # under a second (several seconds when each bound its own).
        s = _residue_union(1600, (1600, 1))
        start = time.perf_counter()
        plan = plan_elimination(s)
        outcome = run_check(plan, trials=5, box_radius=50, seed=0)
        elapsed = time.perf_counter() - start
        assert not any(isinstance(g, Exists) for g in traverse(plan.result.formula)[0])
        assert {c.count_var for c in plan.result.report.components} == {"y"}
        assert [r.verdict for r in outcome.records] == ["ok"] * 5
        assert elapsed < 1.0, elapsed

    def test_the_last_count_term_is_built_once(self):
        # Components base (r, 0), period (1, K) each count 1 wherever x1 >= r,
        # so none excludes another, and each but the last binds a part
        # count.  The last one's count term y - (the other parts) is made
        # from one coefficient map: planning twice as many components takes
        # at most about 2.5 times as long (best of three, interleaved).
        unions = {k: _residue_union(k, (1, k)) for k in (1600, 3200)}
        times = {k: [] for k in unions}
        for _ in range(3):
            for k, s in unions.items():
                start = time.perf_counter()
                plan = plan_elimination(s)
                times[k].append(time.perf_counter() - start)
        assert sum(isinstance(g, Exists) for g in traverse(plan.result.formula)[0]) == 3199
        small, large = min(times[1600]), min(times[3200])
        assert large <= 2.5 * small, (small, large)

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
        # Both domains build the same atoms, so the estimate is exact over N
        # too, cores with two or more bounds in a family included.
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
        # No sign atom and D' = 1: the one-sided core's "!(R & signs & S)"
        # keeps only the dropped row's relation R, "!x1 = 1 & y = 0".
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
        # its congruences always have a solution): so is the union, and a
        # false body gets no binders.
        s = union(
            LinearSetPresentation(base=(-5, 0), periods=((3, -2), (-2, -2))),
            LinearSetPresentation(base=(2, -1), periods=((-1, 2), (-2, 2))),
        )
        result = eliminate(s, "y")
        assert print_formula(result.formula) == "false"
        assert estimate_result_nodes(s) == fm.node_count(result.formula) == 1

    @pytest.mark.parametrize(
        "components, actual",
        [
            ([((0, 5, 4), ((3, 0, 1), (2, 2, 0)))], 29),
            ([((0, 5, 4), ((3, 0, 1), (2, 2, 0))), ((5, 2, 5), ((2, 2, 2), (1, 2, 2), (0, 0, 3)))], 40),
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


def _residue_union(k: int, period: tuple) -> SemilinearPresentation:
    """k components ``base (r, 0)``, r < k, each with the one ``period``."""
    components = tuple(LinearSetPresentation(base=(r, 0), periods=(period,)) for r in range(k))
    return SemilinearPresentation(components=components, asserted_disjoint=True, asserted_simple=True)


def _fixture_or_d8_m2(name):
    if name == "d8_m2":
        return union(D8_M2)
    return parse_presentation((FIXTURES / f"{name}.sl").read_text(encoding="utf-8"))


class TestBinders:
    """The only binders are the first witness t0 of each two-sided core
    whose first witness is no term of the free coordinates, whatever the
    sizes of its bound families, and a part count for each count but the
    last; single-witness components that exclude each other share one
    count.  The zero case and a one-sided core ask whether the congruences
    have a solution without a binder; a single-witness component binds
    nothing."""

    @staticmethod
    def _binders(formula):
        """The binders' kinds, sorted: "t" for a first witness ``_t<k>``,
        "y" for a part count ``_y<k>``."""
        return sorted(g.var[:2] for g in traverse(formula)[0] if isinstance(g, Exists))

    @staticmethod
    def _expected(presentation, result):
        """One "_t" per two-sided core whose first witness is no term
        (:func:`helpers.first_witness_is_a_term`), and one "_y" per part
        count the report names but y; none when the formula is a constant.
        Only single-witness components share a count."""
        if isinstance(result.formula, (fm.TrueF, fm.FalseF)):
            return []
        planned = plan_reports(plan_elimination(presentation))
        names = [r.count_var for _, r in planned]
        assert all(r.case == "single-witness" for _, r in planned if names.count(r.count_var) > 1 and r.count_var)
        witnesses = [
            "_t" for plan, r in planned if r.upper_rows and r.lower_rows and not first_witness_is_a_term(plan)
        ]
        return sorted(["_y"] * len(set(names) - {None, "y"}) + witnesses)

    @pytest.mark.parametrize("name", ["three_periods", "natural", "d8_m2"])
    def test_two_sided_fixtures(self, name):
        # Over Z both cores have one lower term whose first witness is a
        # term; over N the binder stays.
        s = _fixture_or_d8_m2(name)
        result = eliminate(s, "y")
        binders = ["_t"] if name == "natural" else []
        assert self._binders(result.formula) == self._expected(s, result) == binders

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
            assert self._binders(result.formula) == self._expected(s, result), s
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

    @pytest.mark.parametrize("name, nodes", [("three_periods", 33), ("natural", 22), ("d8_m2", 22)])
    def test_two_sided_sizes_without_a_zero_case_binder(self, name, nodes):
        assert eliminate(_fixture_or_d8_m2(name), "y").report.nodes == nodes

    def test_half_line_size_does_not_depend_on_the_denominator(self):
        sizes = {eliminate(half_line(denom), "y").report.nodes for denom in (100, 400, 1200)}
        assert len(sizes) == 1


def _one(base, periods, domain=DomainTag.Z):
    return union(LinearSetPresentation(base=base, periods=periods, domain=domain))


def _split(components, domain=DomainTag.Z):
    """A union of ``(base, periods)`` components, disjoint because each
    base's first entry has another residue modulo their number, which
    divides every period's first entry."""
    return union(*(LinearSetPresentation(base=base, periods=periods, domain=domain) for base, periods in components))


# Per construction case, a family of presentations with one parameter k that
# enters the periods (or, for three_periods, the base) and a factor s on the
# base: (builder, (kind, dropped rows) per component, nodes).  A kind is
# "single-witness", "one-sided" or "two-sided".
SCALED_FAMILIES = {
    "half-line": (lambda k, s: _one((s, 2 * s), ((1, 1), (0, k))), [("one-sided", 0)], 5),
    "one-sided, a dropped row": (
        lambda k, s: _one((s, s, 2 * s), ((1, 1, 1), (0, 0, k))), [("one-sided", 1)], 10
    ),
    "single-witness": (lambda k, s: _one((s, 2 * s), ((k, 1),)), [("single-witness", 0)], 17),
    "single-witness, a relation": (
        lambda k, s: _one((s, 2 * s, 3 * s), ((1, 2, 1), (0, k, k))), [("single-witness", 0)], 25
    ),
    "single-witness, a dropped row": (
        lambda k, s: _one((s, 2 * s, 3 * s), ((k, 1, 1),)), [("single-witness", 1)], 23
    ),
    "two-sided": (lambda k, s: _one((s, 2 * s), ((1, 1), (1, -k))), [("two-sided", 0)], 12),
    "two-sided, a dropped row": (
        lambda k, s: _one((s, 3 * s, 2 * s), ((1, 1, 1), (1, 1, -k))), [("two-sided", 1)], 23
    ),
    "two-sided over N": (
        lambda k, s: _one((s, 2 * s), ((1, 2 * k), (2 * k, 1)), DomainTag.N), [("two-sided", 0)], 28
    ),
    "three_periods, base scaled": (
        lambda k, s: _one((k * s, 2 * k * s, 3 * k * s, 4 * k * s), THREE_PERIOD_SET.periods),
        [("two-sided", 1)], 33,
    ),
    # Unions: a constant count (a one-sided core, a point in dimension 1)
    # adds its guard and no part count, and the last count reads y.
    "one-sided pair": (
        lambda k, s: _split([((2 * s + r, 2 * s), ((2, 2), (0, k))) for r in (0, 1)]),
        [("one-sided", 0)] * 2, 15,
    ),
    "single-witness pair": (
        lambda k, s: _split([((2 * s + r, s), ((2, k),)) for r in (0, 1)]),
        [("single-witness", 0)] * 2, 30,
    ),
    "two-sided pair": (
        lambda k, s: _split([((2 * s + r, 2 * s), ((2, 1), (2, -k))) for r in (0, 1)]),
        [("two-sided", 0)] * 2, 69,
    ),
    "mixed": (
        lambda k, s: _split([
            ((3 * s, 2 * s), ((3, 1), (3, -k))),
            ((3 * s + 1, 2 * s), ((3, 1), (0, k))),
            ((3 * s + 2, 2 * s), ((3, k),)),
        ]),
        [("two-sided", 0), ("one-sided", 0), ("single-witness", 0)], 58,
    ),
    "dim-1 points": (
        lambda k, s: _split([((s,), ()), ((s + k,), ()), ((s + 2 * k,), ())]), [("single-witness", 0)] * 3, 2
    ),
}


@pytest.mark.parametrize("name", sorted(SCALED_FAMILIES))
def test_size_does_not_grow_with_scale(name):
    # The construction's size depends on the shape of a component, not on
    # its entries: the same node count at k = 7, 10**3 + 1 and 10**6 + 3
    # (so D up to 10**6 and more), with the base as it is and times 10**6.
    build, kinds, nodes = SCALED_FAMILIES[name]
    for k in (7, 10**3 + 1, 10**6 + 3):
        for scale in (1, 10**6):
            report = eliminate(build(k, scale), "y").report
            assert [
                (c.case if c.case == "single-witness" else "two-sided" if c.upper_rows and c.lower_rows else "one-sided",
                 len(c.dropped_rows))
                for c in report.components
            ] == kinds
            assert report.nodes == nodes, (k, scale)


@pytest.mark.parametrize(
    "name", ["two-sided", "two-sided, a dropped row", "three_periods, base scaled", "single-witness pair"]
)
def test_scaled_families_agree_with_the_oracle(name):
    # The families whose first witness is a term or whose single-witness
    # components share one count, at the scales above: the formula agrees
    # with the oracle at random assignments, and count_values with the
    # oracle's count at members of each component (coefficients up to 10**6)
    # and one step off them on the first coordinate.
    build = SCALED_FAMILIES[name][0]
    rng = random.Random(4243)
    positive = 0
    for k in (7, 10**3 + 1, 10**6 + 3):
        for scale in (1, 10**6):
            s = build(k, scale)
            outcome = run_check(s, trials=5, box_radius=12, seed=k)
            assert (outcome.mismatches, outcome.unstable_bad, outcome.overlaps) == (0, 0, 0), (k, scale)
            program = PinnedProgram(eliminate(s, "y").formula, s.domain)
            names = coordinate_names(s.dimension)[:-1]
            for component in s.components:
                for _ in range(3):
                    point = component.point_at([rng.choice((0, 1, 3, 10**6)) for _ in component.periods])
                    for step in (0, 1):
                        assignment = dict(zip(names, point))
                        assignment["x1"] += step
                        oracle = count_set_witnesses(s, assignment)
                        tested = verify.tested_counts(rng, oracle.count, s.domain)
                        expected = [oracle.count] if oracle.stable else []
                        assert program.count_values(assignment, "y", tested) == expected, (k, scale, assignment)
                        positive += oracle.stable and oracle.count > 0
    assert positive >= 18, positive


# One component per construction case and domain, the case first in its
# name: (base, periods, domain).
COALESCED_CASES = {
    "single-witness": ((0, 1), ((1, 2),), DomainTag.Z),
    "single-witness over N": ((0, 1), ((1, 2),), DomainTag.N),
    "single-witness, a relation": ((1, 2, 3), ((1, 2, 1), (0, 3, 3)), DomainTag.Z),
    "one-sided": ((1, 2), ((1, 1), (0, 3)), DomainTag.Z),
    "one-sided over N": ((1, 2), ((1, 1), (0, 3)), DomainTag.N),
    "two-sided": ((3, 5), ((6, 1), (6, -1)), DomainTag.Z),
    "two-sided over N": ((0, 0), ((1, 2), (2, 1)), DomainTag.N),
    "two-sided, three_periods": (THREE_PERIOD_SET.base, THREE_PERIOD_SET.periods, DomainTag.Z),
}


class TestCoalesce:
    """The residue classes of one simple linear set modulo k in one period
    are eliminated as that set: the same formula, one plan, and every
    class reports it with ``merged`` listing them all."""

    @staticmethod
    def _printed(*components):
        return print_formula(eliminate(union(*components), "y").formula)

    @pytest.mark.parametrize("name", sorted(COALESCED_CASES))
    @pytest.mark.parametrize("which", [0, -1])
    def test_two_classes_eliminate_as_the_set(self, name, which):
        base, periods, domain = COALESCED_CASES[name]
        whole = LinearSetPresentation(base, periods, domain)
        classes = residue_classes(base, periods, 2, which % len(periods), domain)
        plan = plan_elimination(union(*classes))
        assert [c.component for c in plan.components] == [whole]
        reports = plan.result.report.components
        assert [r.merged for r in reports] == [(1, 2), (1, 2)]
        kind = reports[0].case
        if kind == "interval-count":
            kind = "two-sided" if reports[0].upper_rows and reports[0].lower_rows else "one-sided"
        assert name.startswith(kind)
        assert self._printed(*classes) == self._printed(whole)

    @pytest.mark.parametrize("k", [3, 4, 6, 12])
    def test_composite_splits_cascade(self, k):
        # k = 3 merges in one step, 4 as 2*2, 6 as 2*3 and 12 as 2*2*3, in
        # any order of the classes and beside a component that stays.
        base, periods, _ = COALESCED_CASES["two-sided"]
        whole = LinearSetPresentation(base, periods)
        classes = residue_classes(base, periods, k)
        random.Random(k).shuffle(classes)
        point = LinearSetPresentation((-1, 0), ())
        s = union(classes[0], point, *classes[1:])
        plan = plan_elimination(s)
        assert [c.component for c in plan.components] == [whole, point]
        merged = tuple(i for i in range(1, k + 2) if i != 2)
        assert [r.merged for r in plan.result.report.components] == [merged, (), *[merged] * (k - 1)]
        assert self._printed(*s.components) == self._printed(whole, point)
        outcome = run_check(plan, trials=20, box_radius=40, seed=k)
        assert (outcome.mismatches, outcome.unstable_bad, outcome.overlaps) == (0, 0, 0)

    def test_the_least_input_gives_the_period_order(self):
        base, periods, _ = COALESCED_CASES["two-sided"]
        first, second = residue_classes(base, periods, 2)
        second = LinearSetPresentation(second.base, second.periods[::-1])
        plan = plan_elimination(union(second, first))
        assert [c.component for c in plan.components] == [LinearSetPresentation(base, periods[::-1])]

    def test_incomplete_or_repeated_classes_stay(self):
        # A missing class, a class moved by a whole period, and a class given
        # twice: nothing merges, and the check reports the repeat's overlap.
        base, periods, _ = COALESCED_CASES["two-sided"]
        classes = residue_classes(base, periods, 3)
        q = classes[1].periods[0]
        moved = LinearSetPresentation(tuple(b + v for b, v in zip(classes[1].base, q)), classes[1].periods)
        repeated = [classes[0], classes[0], classes[1]]
        for components in (classes[:2], [classes[0], moved, classes[2]], repeated):
            plan = plan_elimination(union(*components))
            assert [c.component for c in plan.components] == components
            assert all(r.merged == () for r in plan.result.report.components)
        outcome = run_check(union(*repeated), trials=20, box_radius=40, seed=0)
        assert outcome.overlaps > 0

    def test_a_complete_residue_system_merges_in_linear_time(self):
        # K components base (j, 0), periods (K, 0), (0, 1) are the quadrant
        # (0, 0) + N(1, 0) + N(0, 1): planning twice as many classes takes
        # at most about 2.5 times as long (best of three, interleaved).
        def system(k):
            return union(*(LinearSetPresentation((j, 0), ((k, 0), (0, 1))) for j in range(k)))

        unions = {k: system(k) for k in (1600, 3200)}
        times = {k: [] for k in unions}
        for _ in range(3):
            for k, s in unions.items():
                start = time.perf_counter()
                plan = plan_elimination(s)
                times[k].append(time.perf_counter() - start)
        assert [c.component for c in plan.components] == [LinearSetPresentation((0, 0), ((1, 0), (0, 1)))]
        assert plan.result.report.components[-1].merged == tuple(range(1, 3201))
        small, large = min(times[1600]), min(times[3200])
        assert large <= 2.5 * small, (small, large)
