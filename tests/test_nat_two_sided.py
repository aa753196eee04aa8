"""Differential test of the two-sided construction over the naturals and
the integers.

A seeded generator draws components whose square core has both an upper
and a lower bound family on the counted coordinate.  Every eliminated
formula must agree with the witness oracle, and over N be subtraction-free.
A second sample reaches cores with three bounds in one family, and a
third splits cores with two or more bounds in a family into two-component
unions, whose part counts the evaluator pins from the count's disjunction.
A Hypothesis strategy draws the same shape of core, so that a failing one
shrinks.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from countqe.elim import eliminate, estimate_result_nodes, is_subtraction_free, plan_elimination
from countqe.formula import Exists, traverse
from countqe.linalg import IntMatrix, rank_over_rationals
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation, coordinate_names
from countqe import verify
from countqe.verify import PinnedProgram, count_set_witnesses, run_check

MAX_DENOM = 12
NODE_BUDGET = 30_000


def random_two_sided(rng: random.Random, domain: DomainTag = DomainTag.N):
    """A one-component presentation with a two-sided core, and its
    elimination.

    Dims 2-4, with 2 or 3 periods of entries 0..3 over N and -3..3 over Z.
    The non-counted rows are p-1 random rows plus nonnegative combinations
    of them, which the core drops; the counted row is random.  Draws that
    are not simple, whose core lacks a bound family, whose determinant
    exceeds ``MAX_DENOM`` or whose estimated output exceeds ``NODE_BUDGET``
    are redrawn.
    """
    while True:
        n = rng.randint(2, 4)
        p = rng.choice((2, 3, 3)) if n > 2 else 2
        drawn = _draw_core(rng, domain, n, p)
        if drawn is not None:
            core = drawn[1].report.components[0]
            if core.upper_rows and core.lower_rows:
                return drawn


def _draw_core(rng: random.Random, domain: DomainTag, n: int, p: int):
    """One draw of :func:`random_two_sided`'s shape, n coordinates and p
    periods: the presentation and its elimination, or None when the draw is
    not simple, has no interval core, or exceeds a limit."""
    low = 0 if domain is DomainTag.N else -3
    basis = [[rng.randint(low, 3) for _ in range(p)] for _ in range(p - 1)]
    rows = list(basis)
    for _ in range(n - p):
        weights = [rng.randint(0, 2) for _ in basis]
        combo = [sum(w * row[j] for w, row in zip(weights, basis)) for j in range(p)]
        rows.insert(rng.randint(0, len(rows)), combo)
    rows.append([rng.randint(low, 3) for _ in range(p)])
    periods = tuple(tuple(row[j] for row in rows) for j in range(p))
    if rank_over_rationals(IntMatrix.from_columns(periods)) != p:
        return None
    base = tuple(rng.randint(low, 3) for _ in range(n))
    presentation = SemilinearPresentation(
        components=(LinearSetPresentation(base, periods, domain),),
        asserted_disjoint=True,
        asserted_simple=True,
    )
    plan = plan_elimination(presentation)
    if estimate_result_nodes(plan) > NODE_BUDGET:
        return None
    result = eliminate(plan, "y")
    core = result.report.components[0]
    if core.case != "interval-count" or core.denom > MAX_DENOM:
        return None
    return presentation, result


def _agree_with_oracle(domain, seed):
    """Shape counts and stable trials with a positive count over 80 draws,
    each checked in 15 trials."""
    rng = random.Random(seed)
    shapes = {"upper>=2": 0, "lower>=2": 0, "dropped": 0, "D>=5": 0}
    counted = 0  # stable trials with a positive oracle count
    for index in range(80):
        presentation, result = random_two_sided(rng, domain)
        if domain is DomainTag.N:
            assert is_subtraction_free(result.formula), presentation
        core = result.report.components[0]
        shapes["upper>=2"] += len(core.upper_rows) >= 2
        shapes["lower>=2"] += len(core.lower_rows) >= 2
        shapes["dropped"] += bool(core.dropped_rows)
        shapes["D>=5"] += core.denom >= 5
        outcome = run_check(presentation, trials=15, box_radius=12, seed=index)
        assert (outcome.mismatches, outcome.unstable_bad) == (0, 0), presentation
        counted += sum(r.oracle.stable and r.oracle.count > 0 for r in outcome.records)
    return shapes, counted


def test_nat_two_sided_cores_agree_with_oracle():
    shapes, counted = _agree_with_oracle(DomainTag.N, 2024)
    assert all(shapes.values()), shapes
    assert counted > 300


def test_int_two_sided_cores_agree_with_oracle():
    shapes, counted = _agree_with_oracle(DomainTag.Z, 4048)
    assert all(shapes.values()), shapes
    assert counted > 200


class _Draws:
    """The one method of ``random.Random`` that :func:`_draw_core` calls,
    answered by Hypothesis."""

    def __init__(self, draw):
        self.draw = draw

    def randint(self, lo, hi):
        return self.draw(st.integers(lo, hi))


@st.composite
def two_sided_cores(draw, domain):
    """:func:`random_two_sided`'s shape over ``domain``: dims 2-4, D <= 12."""
    n = draw(st.integers(2, 4))
    p = draw(st.sampled_from((2, 3))) if n > 2 else 2
    drawn = _draw_core(_Draws(draw), domain, n, p)
    assume(drawn is not None)
    core = drawn[1].report.components[0]
    assume(core.upper_rows and core.lower_rows)
    return drawn


@settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@pytest.mark.parametrize("domain", [DomainTag.Z, DomainTag.N])
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_drawn_two_sided_cores(domain, data, seed):
    # The oracle agrees, at random assignments and at points of the set,
    # and one evaluation over all tested counts decides as one per count.
    presentation, result = data.draw(two_sided_cores(domain))
    if domain is DomainTag.N:
        assert is_subtraction_free(result.formula)
    outcome = run_check(presentation, trials=8, box_radius=12, seed=seed)
    assert (outcome.mismatches, outcome.unstable_bad) == (0, 0)
    _agree_at_points(presentation, result, presentation.components[0], random.Random(seed), 4)
    program = PinnedProgram(result.formula, domain)
    for record in outcome.records:
        candidates = list(reversed(record.tested)) + [record.tested[-1], -2]
        expected = [
            k for k in candidates
            if (k >= 0 or domain is DomainTag.Z) and program.evaluate({**record.assignment, "y": k})
        ]
        assert program.count_values(record.assignment, "y", candidates) == expected


def _agree_at_points(presentation, result, component, rng, points):
    """Check the formula against the oracle where ``points`` random points
    of ``component`` lie; returns how many of them were stable."""
    names = coordinate_names(component.dimension)
    stable = 0
    for _ in range(points):
        point = component.point_at([rng.randint(0, 3) for _ in component.periods])
        assignment = dict(zip(names, point[:-1]))
        oracle = count_set_witnesses(presentation, assignment)
        tested = verify.tested_counts(rng, oracle.count)
        got = PinnedProgram(result.formula, presentation.domain).count_values(assignment, "y", tested)
        assert got == ([oracle.count] if oracle.stable else []), (presentation, assignment)
        stable += oracle.stable
    return stable


def test_cores_with_three_bounds_in_one_family():
    # Four periods in dims 4-5: two-sided cores with three upper or three
    # lower bounds, each still one branch with the one binder t0.
    # Random assignments rarely meet the set's projection, so each core is
    # also checked where a point of the set lies, with a count of at least 1.
    rng = random.Random(7331)
    cores = counted = 0
    while cores < 12:
        domain = (DomainTag.Z, DomainTag.N)[cores % 2]
        drawn = _draw_core(rng, domain, rng.randint(4, 5), 4)
        if drawn is None:
            continue
        presentation, result = drawn
        core = result.report.components[0]
        if not (core.upper_rows and core.lower_rows):
            continue
        if max(len(core.upper_rows), len(core.lower_rows)) < 3:
            continue
        binders = [g.var for g in traverse(result.formula)[0] if isinstance(g, Exists)]
        assert binders == ["_t0"], binders
        if domain is DomainTag.N:
            assert is_subtraction_free(result.formula), presentation
        outcome = run_check(presentation, trials=15, box_radius=12, seed=cores)
        assert (outcome.mismatches, outcome.unstable_bad) == (0, 0), presentation
        (component,) = presentation.components
        counted += _agree_at_points(presentation, result, component, rng, 10)
        cores += 1
    assert counted >= 60, counted


def _parity_split(component: LinearSetPresentation) -> SemilinearPresentation:
    """Two disjoint components: the first period's coefficient even or odd."""
    first, *rest = component.periods
    doubled = (tuple(2 * v for v in first), *rest)
    shifted = tuple(b + v for b, v in zip(component.base, first))
    parts = (LinearSetPresentation(base, doubled, component.domain) for base in (component.base, shifted))
    return SemilinearPresentation(components=tuple(parts), asserted_disjoint=True, asserted_simple=True)


def test_parity_split_unions_of_multi_bound_cores():
    # A union binds each part count, so the evaluator takes it from a split
    # on the count's disjunction over the upper terms (and the first witness
    # from the window over the lower terms), not from a given count value.
    rng = random.Random(4099)
    shapes = {"upper>=2": 0, "lower>=2": 0, "N": 0}
    unions = counted = 0
    while unions < 16:
        domain = (DomainTag.Z, DomainTag.N)[unions % 2]
        p = rng.choice((3, 4))
        drawn = _draw_core(rng, domain, rng.randint(p, 5), p)
        if drawn is None:
            continue
        core = drawn[1].report.components[0]
        if not (core.upper_rows and core.lower_rows):
            continue
        if max(len(core.upper_rows), len(core.lower_rows)) < 2:
            continue
        (component,) = drawn[0].components
        presentation = _parity_split(component)
        result = eliminate(presentation, "y")
        if domain is DomainTag.N:
            assert is_subtraction_free(result.formula), presentation
        outcome = run_check(presentation, trials=8, box_radius=12, seed=unions)
        assert (outcome.mismatches, outcome.unstable_bad, outcome.overlaps) == (0, 0, 0), presentation
        counted += _agree_at_points(presentation, result, component, rng, 6)
        shapes["upper>=2"] += len(core.upper_rows) >= 2
        shapes["lower>=2"] += len(core.lower_rows) >= 2
        shapes["N"] += domain is DomainTag.N
        unions += 1
    assert min(shapes.values()) >= 4, shapes
    assert counted >= 60, counted
