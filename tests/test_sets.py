import itertools
import random
from typing import Optional

import pytest

from countqe.errors import DimensionError, ParameterError, UnsupportedPresentationError
from countqe.sets import (
    DomainTag,
    IntBox,
    LinearSetPresentation,
    MembershipTester,
    SemilinearPresentation,
    check_disjoint_in_box,
    check_simple,
    membership,
)
from countqe import sets
from helpers import check_progression_on_line, members_in, random_simple_component

THREE_PERIOD_SET = LinearSetPresentation(
    base=(0, 0, 0, 0),
    periods=((1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1)),
)


def _coefficient_bounds(tester: MembershipTester, box: IntBox) -> Optional[int]:
    """Upper bound for every coefficient of any set point inside the box.

    The solved coefficients are linear in the selected coordinates, so the
    extreme values over the box are attained at its corners; interval
    arithmetic over the Cramer rows gives a sound bound.
    """
    if tester.cramer is None:
        return 0
    d = tester.cramer.denom
    bound = 0
    for row, gamma in zip(tester.cramer.matrix, tester.cramer.offset):
        hi = gamma
        for c, sel in zip(row, tester.selection):
            lo_v, hi_v = box.lower[sel], box.upper[sel]
            hi += max(c * lo_v, c * hi_v)
        if hi < 0:
            return None  # that coefficient is negative everywhere in the box
        bound = max(bound, hi // d)
    return bound


def enumerate_in_box(presentation: SemilinearPresentation, box: IntBox) -> list[tuple[int, ...]]:
    """All points of the union inside the box, once each, lexicographically:
    the members of each component's progression on each line of the box
    along its last coordinate."""
    testers = [MembershipTester(c) for c in presentation.components]
    lo, hi = box.lower[-1], box.upper[-1]
    prefixes = itertools.product(
        *(range(a, b + 1) for a, b in zip(box.lower[:-1], box.upper[:-1]))
    )
    return [
        prefix + (v,)
        for prefix in prefixes
        for v in sorted({v for t in testers for v in members_in(t.progression_on_line(prefix), lo, hi)})
    ]


def enumerate_in_box_by_coefficients(
    presentation: SemilinearPresentation, box: IntBox
) -> list[tuple[int, ...]]:
    """Alternative enumeration walking coefficient vectors instead of points.

    Must agree with :func:`enumerate_in_box`; kept here as an independent
    route for cross-checking it.
    """
    if box.dimension != presentation.dimension:
        raise DimensionError("box dimension does not match presentation")
    found = set()
    for comp in presentation.components:
        tester = MembershipTester(comp)
        bound = _coefficient_bounds(tester, box)
        if bound is None:
            continue
        for coeffs in itertools.product(range(bound + 1), repeat=comp.num_periods):
            point = comp.point_at(coeffs)
            if all(lo <= v <= hi for v, lo, hi in zip(point, box.lower, box.upper)):
                found.add(point)
    return sorted(found)


def line(base, step, domain=DomainTag.Z):
    return LinearSetPresentation(base=base, periods=(step,) if step else (), domain=domain)


class TestPresentations:
    def test_natural_domain_rejects_negative_entries(self):
        with pytest.raises(ParameterError):
            LinearSetPresentation(base=(0,), periods=((-1,),), domain=DomainTag.N)

    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            LinearSetPresentation(base=(0, 0), periods=((1,),))
        with pytest.raises(DimensionError):
            SemilinearPresentation(components=())


class TestCheckSimple:
    def test_worked_example_is_simple(self):
        assert check_simple(THREE_PERIOD_SET) is True

    def test_parallel_periods(self):
        dependent = LinearSetPresentation(base=(0, 0), periods=((1, 0), (2, 0)))
        assert check_simple(dependent) is False

    def test_empty_period_list(self):
        assert check_simple(line((3,), None)) is True


class TestMembership:
    def test_worked_example_points(self):
        assert membership(THREE_PERIOD_SET, (1, 2, 2, 1)) is True
        assert membership(THREE_PERIOD_SET, (0, 0, 0, 0)) is True
        # The first two coordinates are locked together: x2 = 2*x1.
        assert membership(THREE_PERIOD_SET, (0, 1, 0, 0)) is False

    def test_rejects_non_simple(self):
        dependent = LinearSetPresentation(base=(0, 0), periods=((1, 0), (2, 0)))
        with pytest.raises(UnsupportedPresentationError):
            membership(dependent, (0, 0))

    def test_generated_points_are_members(self):
        rng = random.Random(17)
        for _ in range(200):
            coeffs = [rng.randint(0, 5) for _ in range(3)]
            point = THREE_PERIOD_SET.point_at(coeffs)
            assert membership(THREE_PERIOD_SET, point) is True

    def test_invariant_under_period_permutation(self):
        rng = random.Random(19)
        shuffled = list(THREE_PERIOD_SET.periods)
        rng.shuffle(shuffled)
        permuted = LinearSetPresentation(base=(0, 0, 0, 0), periods=tuple(shuffled))
        for _ in range(100):
            point = [rng.randint(-4, 4) for _ in range(4)]
            assert membership(THREE_PERIOD_SET, point) == membership(permuted, point)


def _line_corpus():
    """Seeded (tester, prefix, lo, hi) cases over Z and N, dims 1-5.

    Half of the prefixes are taken from a member point, so that many lines
    meet the set; the ranges run over both signs and include empty ones.
    """
    rng = random.Random(41)
    for _ in range(600):
        domain = rng.choice([DomainTag.Z, DomainTag.N])
        n = rng.randint(1, 5)
        comp = random_simple_component(rng, n, rng.randint(0, n), domain)
        tester = MembershipTester(comp)
        for _ in range(4):
            if rng.random() < 0.5:
                point = comp.point_at([rng.randint(0, 4) for _ in range(comp.num_periods)])
            else:
                point = [rng.randint(-12, 12) for _ in range(n)]
            lo = rng.randint(-30, 10)
            yield tester, list(point[:-1]), lo, lo + rng.randint(-1, 50)


class TestProgressionOnLine:
    def test_matches_contains_on_seeded_corpus(self):
        seen = dict(no_periods=0, rest_rows=0, counted_is_rest=0, denom=0, hits=0, open=0)
        for tester, prefix, lo, hi in _line_corpus():
            found = check_progression_on_line(tester, prefix, lo, hi)
            n = tester.presentation.dimension
            seen["no_periods"] += tester.cramer is None
            seen["rest_rows"] += tester.cramer is not None and bool(tester.rest_rows)
            seen["counted_is_rest"] += tester.cramer is not None and n - 1 in tester.rest_rows
            seen["denom"] += tester.denom >= 2
            seen["hits"] += bool(members_in(found, lo, hi))
            seen["open"] += found is not None and not found.bounded
        assert all(count >= 50 for count in seen.values()), seen

    def test_worked_example_line(self):
        tester = MembershipTester(THREE_PERIOD_SET)
        # (3, 6, 3, 2) = p1 + p2 and (3, 6, 3, 0) = 3*p2 + 3*p3.
        assert tester.progression_on_line([3, 6, 3]) == (0, 2, 0, 2)
        assert tester.progression_on_line([3, 5, 3]) is None

    def test_open_side_and_prefix_length(self):
        tester = MembershipTester(line((0,), (2,)))
        assert tester.progression_on_line([]) == (0, None, 0, 2)
        assert not tester.progression_on_line([]).bounded
        with pytest.raises(DimensionError):
            tester.progression_on_line([0])

    def test_meet_merges_cosets(self):
        evens = sets.Progression(0, None, 0, 2)
        assert evens.meet(sets.Progression(None, 20, 1, 3)) == (4, 16, 4, 6)
        assert evens.meet(sets.Progression(1, 9, 1, 2)) is None
        assert evens.meet(sets.Progression(-7, -1, 0, 1)) is None


class TestEnumeration:
    def test_even_numbers(self):
        s = SemilinearPresentation(components=(line((0,), (2,)),))
        assert enumerate_in_box(s, IntBox((-1,), (5,))) == [(0,), (2,), (4,)]

    def test_worked_example_small_box(self):
        s = SemilinearPresentation(components=(THREE_PERIOD_SET,))
        points = enumerate_in_box(s, IntBox.cube(4, 0, 2))
        assert (0, 0, 0, 0) in points
        assert (1, 2, 2, 1) in points

    def test_base_outside_box(self):
        s = SemilinearPresentation(components=(line((7,), None),))
        assert enumerate_in_box(s, IntBox((0,), (5,))) == []

    def test_routes_agree(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 3)
            p = rng.randint(0, n)
            comps = []
            for _ in range(rng.randint(1, 2)):
                while True:
                    periods = tuple(
                        tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(p)
                    )
                    comp = LinearSetPresentation(
                        base=tuple(rng.randint(-2, 2) for _ in range(n)),
                        periods=periods,
                    )
                    if check_simple(comp):
                        break
                comps.append(comp)
            s = SemilinearPresentation(components=tuple(comps))
            box = IntBox.cube(n, -4, 4)
            assert enumerate_in_box(s, box) == enumerate_in_box_by_coefficients(s, box)

    def test_natural_domain_points_nonnegative(self):
        comp = LinearSetPresentation(base=(1, 0), periods=((0, 2),), domain=DomainTag.N)
        s = SemilinearPresentation(components=(comp,))
        for point in enumerate_in_box(s, IntBox.cube(2, -3, 6)):
            assert all(v >= 0 for v in point)


class TestDisjointness:
    def test_even_odd(self):
        s = SemilinearPresentation(components=(line((0,), (2,)), line((1,), (2,))))
        assert check_disjoint_in_box(s, IntBox((-10,), (10,))) is True

    def test_overlap_at_zero(self):
        s = SemilinearPresentation(components=(line((0,), (1,)), line((0,), (2,))))
        assert check_disjoint_in_box(s, IntBox((0,), (10,))) is False

    def test_million_radius_box(self):
        # 2 + 3k meets 999_998 + 6k at 999_998, inside the box, and
        # 1_000_001 + 6k only outside it.
        inside = SemilinearPresentation(components=(line((2,), (3,)), line((999_998,), (6,))))
        outside = SemilinearPresentation(components=(line((2,), (3,)), line((1_000_001,), (6,))))
        box = IntBox((-10**6,), (10**6,))
        assert check_disjoint_in_box(inside, box) is False
        assert check_disjoint_in_box(outside, box) is True

    def test_single_component(self):
        s = SemilinearPresentation(components=(line((0,), (1,)),))
        assert check_disjoint_in_box(s, IntBox((0,), (10,))) is True
