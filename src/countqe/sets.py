"""Semilinear-set presentations over the integers and the naturals.

A linear set is a base vector plus arbitrary natural-number multiples of a
list of period vectors; a presentation is *simple* when the periods are
linearly independent over the rationals, which makes the coefficient vector
of every member unique and membership decidable by exact linear algebra.  A
semilinear presentation is a finite union of components carrying caller
assertions (disjointness, simplicity) that the elimination engine relies on.

Disjointness of components is only ever *verified* inside a finite box; the
general question is an integer-programming problem this package does not
decide.  Callers asserting ``disjoint`` own that claim.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import formula as fm
from .errors import DimensionError, ParameterError, UnsupportedPresentationError
from .formula import DomainTag
from .linalg import CramerSolution, IntMatrix, congruence_coset, cramer_solve
from .linalg import find_full_rank_submatrix, rank_over_rationals
from .values import Value, set_field


def coordinate_names(dimension: int) -> list[str]:
    """Default variable names for coordinates: x1 .. xn."""
    return [f"x{i + 1}" for i in range(dimension)]


class LinearSetPresentation(Value):
    """base + N*periods[0] + ... + N*periods[p-1] inside Z^n or N^n."""

    __slots__ = ("base", "periods", "domain")

    def __init__(
        self,
        base: Sequence[int],
        periods: Sequence[Sequence[int]],
        domain: DomainTag = DomainTag.Z,
    ):
        base = tuple(int(v) for v in base)
        domain = fm.as_domain(domain)
        periods = tuple(tuple(int(v) for v in row) for row in periods)
        n = len(base)
        if n < 1:
            raise DimensionError("presentation dimension must be at least 1")
        for period in periods:
            if len(period) != n:
                raise DimensionError("period length does not match dimension")
        if domain is DomainTag.N:
            if any(v < 0 for vec in (base,) + periods for v in vec):
                raise ParameterError("natural-domain presentation with negative entry")
        set_field(self, "base", base)
        set_field(self, "periods", periods)
        set_field(self, "domain", domain)

    @property
    def dimension(self) -> int:
        return len(self.base)

    @property
    def num_periods(self) -> int:
        return len(self.periods)

    def period_matrix(self) -> Optional[IntMatrix]:
        """The n x p matrix whose columns are the periods; None when p = 0."""
        if not self.periods:
            return None
        return IntMatrix.from_columns(self.periods)

    def point_at(self, coefficients: Sequence[int]) -> tuple[int, ...]:
        if len(coefficients) != self.num_periods:
            raise DimensionError("coefficient vector length does not match period count")
        point = list(self.base)
        for period, c in zip(self.periods, coefficients):
            for i, v in enumerate(period):
                point[i] += c * v
        return tuple(point)


class SemilinearPresentation(Value):
    """Finite union of linear components with caller assertions."""

    __slots__ = ("components", "asserted_disjoint", "asserted_simple")

    def __init__(
        self,
        components: Sequence[LinearSetPresentation],
        asserted_disjoint: bool = False,
        asserted_simple: bool = False,
    ):
        components = tuple(components)
        if not components:
            raise DimensionError("a presentation needs at least one component")
        first = components[0]
        for comp in components[1:]:
            if comp.dimension != first.dimension:
                raise DimensionError("components of mixed dimension")
            if comp.domain is not first.domain:
                raise DimensionError("components of mixed domain")
        set_field(self, "components", components)
        set_field(self, "asserted_disjoint", asserted_disjoint)
        set_field(self, "asserted_simple", asserted_simple)

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def domain(self) -> DomainTag:
        return self.components[0].domain


class IntBox(Value):
    """Axis-aligned box of integer points, inclusive on both ends."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: tuple[int, ...], upper: tuple[int, ...]):
        if len(lower) != len(upper):
            raise DimensionError("box bounds of different length")
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise DimensionError("box with empty coordinate range")
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)

    @classmethod
    def cube(cls, dimension: int, lo: int, hi: int) -> "IntBox":
        return cls((lo,) * dimension, (hi,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.lower)


def check_simple(presentation: LinearSetPresentation) -> bool:
    """True when the periods are linearly independent over the rationals."""
    matrix = presentation.period_matrix()
    if matrix is None:
        return True
    return rank_over_rationals(matrix) == presentation.num_periods


class MembershipTester:
    """Reusable exact membership test for one simple component.

    Picks a full-rank row subsystem once, keeps its Cramer data, and answers
    point queries by checking integrality and nonnegativity of the solved
    coefficients plus the leftover rows.

    Along a line that fixes every coordinate but the last, v, the Cramer
    numerators ``denom * z_i`` and the leftover rows scaled by ``denom`` are
    affine in v (:meth:`line`), so the members of the line form one
    arithmetic progression of v (:meth:`progression_on_line`), open on one
    side when the component is unbounded along the line.
    """

    def __init__(self, presentation: LinearSetPresentation):
        if not check_simple(presentation):
            raise UnsupportedPresentationError(
                "membership requires a simple presentation"
            )
        self.presentation = presentation
        matrix = presentation.period_matrix()
        if matrix is None:
            self.selection: tuple[int, ...] = ()
            self.cramer: Optional[CramerSolution] = None
            self.rest_rows: tuple[int, ...] = tuple(range(presentation.dimension))
        else:
            self.selection = find_full_rank_submatrix(matrix)
            assert self.selection is not None  # guaranteed by simplicity
            sub = matrix.select_rows(self.selection)
            offsets = [presentation.base[i] for i in self.selection]
            self.cramer = cramer_solve(sub, offsets)
            chosen = set(self.selection)
            self.rest_rows = tuple(
                i for i in range(presentation.dimension) if i not in chosen
            )
        self.denom = self.cramer.denom if self.cramer is not None else 1
        # Each condition of line() is affine in the point: kept as its value
        # at the origin and its differences along the coordinates.
        n = presentation.dimension
        origin = self._conditions([0] * n)
        units = [self._conditions([int(i == k) for i in range(n)]) for k in range(n)]
        self._forms = [
            [(c, [unit[part][i] - c for unit in units]) for i, c in enumerate(origin[part])]
            for part in (0, 1)
        ]

    def coefficients_for(self, point: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The unique coefficient vector placing ``point`` in the set, or None."""
        pres = self.presentation
        if len(point) != pres.dimension:
            raise DimensionError("point length does not match dimension")
        if self.cramer is None:
            return () if tuple(point) == pres.base else None
        numerators = self.cramer.numerators([point[i] for i in self.selection])
        d = self.cramer.denom
        coeffs = []
        for num in numerators:
            if num % d != 0 or num < 0:
                return None
            coeffs.append(num // d)
        for i in self.rest_rows:
            expected = pres.base[i] + sum(
                period[i] * c for period, c in zip(pres.periods, coeffs)
            )
            if expected != point[i]:
                return None
        return tuple(coeffs)

    def contains(self, point: Sequence[int]) -> bool:
        return self.coefficients_for(point) is not None

    def line(self, prefix: Sequence[int]) -> tuple[list, list]:
        """The affine data of the points ``prefix + [v]``, as two lists of
        ``(value at v = 0, step per unit of v)`` pairs.

        The first holds the numerators ``denom * z_i`` in selection order;
        the point is a member exactly when each of them is a nonnegative
        multiple of ``denom`` and each of the second, the residuals
        ``denom * (base_r + sum_i period_i[r] * z_i - x_r)`` of the leftover
        rows r in ``rest_rows`` order, is 0.
        """
        if len(prefix) + 1 != self.presentation.dimension:
            raise DimensionError("line prefix length does not match dimension")
        return tuple(
            [(c + sum(map(mul, diffs, prefix)), diffs[-1]) for c, diffs in forms]
            for forms in self._forms
        )

    def _conditions(self, point: Sequence[int]) -> tuple[Sequence[int], list[int]]:
        """The numerators and the residuals of :meth:`line` at ``point``."""
        pres = self.presentation
        nums = self.cramer.numerators([point[i] for i in self.selection]) if self.cramer else ()
        residuals = [
            self.denom * (pres.base[r] - point[r])
            + sum(period[r] * num for period, num in zip(pres.periods, nums))
            for r in self.rest_rows
        ]
        return nums, residuals

    def progression_on_line(self, prefix: Sequence[int]) -> Optional["Progression"]:
        """The members ``prefix + [v]`` as one :class:`Progression` of v, or
        None when the line holds none.

        Each condition of :meth:`line` is an affine form ``value + step*v``.
        A numerator must be at least 0, which bounds v on one side when it
        has a step, and ``step*v = -value (mod denom)``; these congruences
        merge into one coset of v by the Chinese remainder theorem.  A
        residual must be at least 0 and at most 0, which forces v by exact
        division when it has a step.
        """
        numerators, residuals = self.line(prefix)
        forms = numerators + residuals + [(-value, -step) for value, step in residuals]
        if any(value < 0 for value, step in forms if step == 0):
            return None
        start, period = 0, 1  # v = start (mod period)
        for value, step in numerators:
            coset = congruence_coset(step * period, -value - step * start, self.denom)
            if coset is None:
                return None
            start, period = start + period * coset[0], period * coset[1]
        lows = [-(value // step) for value, step in forms if step > 0]
        highs = [value // -step for value, step in forms if step < 0]
        return Progression.of(lows, highs, start, period)


class Progression(NamedTuple):
    """The integers ``v = start (mod step)`` with ``lo <= v <= hi``, None
    for an open side; a finite end is itself a member, and ``0 <= start <
    step``."""

    lo: Optional[int]
    hi: Optional[int]
    start: int
    step: int

    @classmethod
    def of(cls, lows: list, highs: list, start: int, step: int) -> Optional["Progression"]:
        """The members of ``start + step*Z`` at least every bound in
        ``lows`` and at most every one in ``highs``, or None when there are
        none."""
        start %= step
        lo = max(lows) + (start - max(lows)) % step if lows else None
        hi = min(highs) - (min(highs) - start) % step if highs else None
        if lows and highs and lo > hi:
            return None
        return cls(lo, hi, start, step)

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def size(self) -> int:
        """The number of members of a bounded progression."""
        return (self.hi - self.lo) // self.step + 1

    def meet(self, other: "Progression") -> Optional["Progression"]:
        """The common members, merged by the Chinese remainder theorem, or
        None when there are none."""
        coset = congruence_coset(self.step, other.start - self.start, other.step)
        if coset is None:
            return None
        lows, highs = ([v for v in ends if v is not None] for ends in zip(self[:2], other[:2]))
        return Progression.of(lows, highs, self.start + self.step * coset[0], self.step * coset[1])


def membership(presentation: LinearSetPresentation, point: Sequence[int]) -> bool:
    """Exact membership in a simple linear set.

    Solves the full-rank subsystem over the rationals and accepts the point
    when the unique candidate coefficient vector is a nonnegative integer
    vector satisfying the remaining rows.
    """
    return MembershipTester(presentation).contains(point)


def check_disjoint_in_box(presentation: SemilinearPresentation, box: IntBox) -> bool:
    """True when no box point belongs to two distinct components: on each
    line of the box along its last coordinate, no two components'
    progressions meet inside the box."""
    if box.dimension != presentation.dimension:
        raise DimensionError("box dimension does not match presentation")
    testers = [MembershipTester(c) for c in presentation.components]
    if len(testers) < 2:
        return True
    window = Progression(box.lower[-1], box.upper[-1], 0, 1)
    for prefix in itertools.product(
        *(range(a, b + 1) for a, b in zip(box.lower[:-1], box.upper[:-1]))
    ):
        lines = [t.progression_on_line(prefix) for t in testers]
        pieces = [p.meet(window) for p in lines if p is not None]
        if any(a and b and a.meet(b) for a, b in itertools.combinations(pieces, 2)):
            return False
    return True
