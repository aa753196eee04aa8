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
from operator import mul
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

    Along a line that fixes every coordinate but the last, the Cramer
    numerators ``denom * z_i`` are affine in the last coordinate v, and so
    are the leftover rows scaled by ``denom``.  :meth:`line` gives their
    values at v = 0 and their steps per unit of v.  :meth:`range_on_line`
    reads from them the range of v that can hold members, and
    :meth:`members_on_line` tests every point of a range of v with them,
    O(p) integer operations a point instead of a matrix-vector product.
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
        # Every membership condition is an affine form in the point x: the
        # numerators denom * z_i and, for each leftover row r, the residual
        # denom * (base_r - x_r) + sum_i period_i[r] * denom * z_i.  Each is
        # kept as (constant, coefficients of x_1..x_{n-1}, coefficient of x_n).
        n = presentation.dimension
        d = self.denom = self.cramer.denom if self.cramer is not None else 1
        numerators = []
        if self.cramer is not None:
            column = {k: pos for pos, k in enumerate(self.selection)}
            numerators = [
                (gamma, [row[column[k]] if k in column else 0 for k in range(n)])
                for row, gamma in zip(self.cramer.matrix, self.cramer.offset)
            ]
        residuals = []
        for r in self.rest_rows:
            weights = [period[r] for period in presentation.periods]
            constant = d * presentation.base[r] + sum(
                w * gamma for w, (gamma, _) in zip(weights, numerators)
            )
            coeffs = [
                sum(w * num[k] for w, (_, num) in zip(weights, numerators))
                for k in range(n)
            ]
            coeffs[r] -= d
            residuals.append((constant, coeffs))
        self._numerator_forms = [(c, coeffs[:-1], coeffs[-1]) for c, coeffs in numerators]
        self._residual_forms = [(c, coeffs[:-1], coeffs[-1]) for c, coeffs in residuals]

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

    def line(
        self, prefix: Sequence[int]
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
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
        def at_zero(forms):
            return [(c + sum(map(mul, coeffs, prefix)), step) for c, coeffs, step in forms]

        return at_zero(self._numerator_forms), at_zero(self._residual_forms)

    def range_on_line(self, prefix: Sequence[int]) -> Optional[tuple[Optional[int], Optional[int]]]:
        """The range ``(lo, hi)`` of v holding every member ``prefix + [v]``,
        None for an unbounded side; None when :meth:`line` shows none.

        A numerator with a step bounds v on one side; a constant one must be
        a nonnegative multiple of ``denom``.  Every residual but the counted
        row's own is constant along the line: the selection is the least row
        basis, so a leftover row is spanned by selected rows before it, never
        the last coordinate.  When v is a leftover row, no numerator reads it
        and the residuals force it; otherwise :meth:`members_on_line` tests
        them, and a range may hold no member.
        """
        numerators, residuals = self.line(prefix)
        d = self.denom
        lo = hi = None
        for num, step in numerators:
            if step == 0:
                if num < 0 or num % d != 0:
                    return None
            elif step > 0:
                bound = -(num // step)
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = num // (-step)
                hi = bound if hi is None else min(hi, bound)
        if self.presentation.dimension - 1 in self.rest_rows:
            # The counted row's residual steps by -denom and comes last.
            if any(res for res, _ in residuals[:-1]):
                return None
            forced = residuals[-1][0] // d
            return forced, forced
        if lo is not None and hi is not None and lo > hi:
            return None
        return lo, hi

    def members_on_line(self, prefix: Sequence[int], lo: int, hi: int) -> list[int]:
        """The values v in ``lo..hi``, ascending, with ``prefix + [v]`` in the set.

        Tests every v by the affine data of :meth:`line`: each numerator in
        turn for sign and divisibility, stopping at the first failure, then
        each residual for zero.
        """
        numerators, residuals = self.line(prefix)
        d = self.denom
        found = []
        for v in range(lo, hi + 1):
            for num, step in numerators:
                num += step * v
                if num < 0 or num % d:
                    break
            else:
                for res, step in residuals:
                    if res + step * v:
                        break
                else:
                    found.append(v)
        return found


def membership(presentation: LinearSetPresentation, point: Sequence[int]) -> bool:
    """Exact membership in a simple linear set.

    Solves the full-rank subsystem over the rationals and accepts the point
    when the unique candidate coefficient vector is a nonnegative integer
    vector satisfying the remaining rows.
    """
    return MembershipTester(presentation).contains(point)


def _box_testers(presentation: SemilinearPresentation, box: IntBox) -> list[MembershipTester]:
    if box.dimension != presentation.dimension:
        raise DimensionError("box dimension does not match presentation")
    return [MembershipTester(c) for c in presentation.components]


def _box_lines(testers: Sequence[MembershipTester], box: IntBox):
    """For each line of the box along its last coordinate, in lexicographic
    order, its prefix and each tester's members on it."""
    lo, hi = box.lower[-1], box.upper[-1]
    prefixes = itertools.product(
        *(range(a, b + 1) for a, b in zip(box.lower[:-1], box.upper[:-1]))
    )
    for prefix in prefixes:
        yield prefix, [t.members_on_line(prefix, lo, hi) for t in testers]


def check_disjoint_in_box(presentation: SemilinearPresentation, box: IntBox) -> bool:
    """True when no box point belongs to two distinct components."""
    testers = _box_testers(presentation, box)
    if len(testers) < 2:
        return True
    return all(
        sum(map(len, lines)) == len(set().union(*lines))
        for _, lines in _box_lines(testers, box)
    )

