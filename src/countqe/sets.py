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
from dataclasses import dataclass
from typing import Optional, Sequence

from . import formula as fm
from .errors import DimensionError, ParameterError, UnsupportedPresentationError
from .formula import DomainTag
from .linalg import CramerSolution, IntMatrix, cramer_solve, find_full_rank_submatrix, rank_over_rationals


def coordinate_names(dimension: int) -> list[str]:
    """Default variable names for coordinates: x1 .. xn."""
    return [f"x{i + 1}" for i in range(dimension)]


@dataclass(frozen=True)
class LinearSetPresentation:
    """base + N*periods[0] + ... + N*periods[p-1] inside Z^n or N^n."""

    base: tuple[int, ...]
    periods: tuple[tuple[int, ...], ...]
    domain: DomainTag = DomainTag.Z

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(int(v) for v in self.base))
        object.__setattr__(self, "domain", fm.as_domain(self.domain))
        object.__setattr__(
            self, "periods", tuple(tuple(int(v) for v in row) for row in self.periods)
        )
        n = len(self.base)
        if n < 1:
            raise DimensionError("presentation dimension must be at least 1")
        for period in self.periods:
            if len(period) != n:
                raise DimensionError("period length does not match dimension")
        if self.domain is DomainTag.N:
            vectors = (self.base,) + self.periods
            if any(v < 0 for vec in vectors for v in vec):
                raise ParameterError("natural-domain presentation with negative entry")

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


@dataclass(frozen=True)
class SemilinearPresentation:
    """Finite union of linear components with caller assertions."""

    components: tuple[LinearSetPresentation, ...]
    asserted_disjoint: bool = False
    asserted_simple: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise DimensionError("a presentation needs at least one component")
        first = self.components[0]
        for comp in self.components[1:]:
            if comp.dimension != first.dimension:
                raise DimensionError("components of mixed dimension")
            if comp.domain is not first.domain:
                raise DimensionError("components of mixed domain")

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def domain(self) -> DomainTag:
        return self.components[0].domain


@dataclass(frozen=True)
class IntBox:
    """Axis-aligned box of integer points, inclusive on both ends."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DimensionError("box bounds of different length")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise DimensionError("box with empty coordinate range")

    @classmethod
    def cube(cls, dimension: int, lo: int, hi: int) -> "IntBox":
        return cls((lo,) * dimension, (hi,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def points(self):
        """All integer points of the box in lexicographic order."""
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lower, self.upper)]
        return itertools.product(*ranges)


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
        self._matrix = matrix

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


def membership(presentation: LinearSetPresentation, point: Sequence[int]) -> bool:
    """Exact membership in a simple linear set.

    Solves the full-rank subsystem over the rationals and accepts the point
    when the unique candidate coefficient vector is a nonnegative integer
    vector satisfying the remaining rows.
    """
    return MembershipTester(presentation).contains(point)


def enumerate_in_box(presentation: SemilinearPresentation, box: IntBox) -> list[tuple[int, ...]]:
    """All points of the union inside the box, once each, lexicographically.

    Scans the box and filters by membership; this is the desk-scale oracle
    path, so the box volume is expected to stay small.
    """
    if box.dimension != presentation.dimension:
        raise DimensionError("box dimension does not match presentation")
    testers = [MembershipTester(c) for c in presentation.components]
    return [
        point for point in box.points() if any(t.contains(point) for t in testers)
    ]


def check_disjoint_in_box(presentation: SemilinearPresentation, box: IntBox) -> bool:
    """True when no box point belongs to two distinct components."""
    if box.dimension != presentation.dimension:
        raise DimensionError("box dimension does not match presentation")
    testers = [MembershipTester(c) for c in presentation.components]
    if len(testers) < 2:
        return True
    for point in box.points():
        hits = 0
        for t in testers:
            if t.contains(point):
                hits += 1
                if hits > 1:
                    return False
    return True


def membership_formula(
    presentation: LinearSetPresentation,
    var_names: Optional[Sequence[str]] = None,
) -> fm.Formula:
    """The defining existential formula of a linear set.

    Quantifies one nonnegative coefficient per period and equates each
    coordinate with base plus the period combination.  Free variables are
    the coordinate names in order.
    """
    n = presentation.dimension
    names = list(var_names) if var_names is not None else coordinate_names(n)
    if len(names) != n:
        raise DimensionError("variable name list does not match dimension")
    taken = set(names)
    bound = []
    for i in range(presentation.num_periods):
        candidate = f"z{i + 1}"
        while candidate in taken:
            candidate = "_" + candidate
        taken.add(candidate)
        bound.append(candidate)
    zero = fm.constant(0)
    parts = [fm.Le(zero, fm.variable(zv)) for zv in bound]
    for j in range(n):
        rhs = fm.constant(presentation.base[j])
        for period, zv in zip(presentation.periods, bound):
            if period[j]:
                rhs = rhs + period[j] * fm.variable(zv)
        parts.append(fm.Eq(fm.variable(names[j]), rhs))
    body = fm.conj(parts)
    for zv in reversed(bound):
        body = fm.Exists(zv, body)
    return body
