"""Exact integer linear algebra for the elimination engine.

Everything here is computed over arbitrary-precision integers, so results
are exact at any magnitude.  The module provides just what the engine
needs: ranks, determinants, full-rank row selections and Cramer-style
inverse data for small dense systems, and the solution coset of one linear
congruence, by which congruences merge (Chinese remainder theorem, Ore
1952).  Those matrices are tiny (the number of periods of a presentation),
so dense fraction-free elimination is the right tool: rank and row
selection reduce against an integer echelon basis, and one Bareiss
Gauss-Jordan pass gives a determinant and its adjugate in O(n^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInputError, DimensionError, SingularMatrixError


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, with at least one row and column."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise DimensionError("ragged rows in matrix")
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise DimensionError(f"matrix entry {value!r} is not an int")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        if not columns or not columns[0]:
            raise DimensionError("matrix must have at least one row and one column")
        height = len(columns[0])
        return cls.from_rows([[col[i] for col in columns] for i in range(height)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def select_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_rows([self.entries[i] for i in indices])


@dataclass(frozen=True)
class CramerSolution:
    """Exact inverse data for an invertible square system.

    For the system ``M z = x - offset_vector`` the solution satisfies, for
    every rational x and z,

        denom * z_i  =  sum_j matrix[i][j] * x_j  +  offset[i]

    with ``denom`` the absolute value of ``det M`` and all entries integers.
    """

    denom: int
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.offset)

    def numerators(self, x: Sequence[int]) -> tuple[int, ...]:
        """The vector ``denom * z`` for a concrete integer point ``x``."""
        if len(x) != self.size:
            raise DimensionError("point length does not match system size")
        return tuple(
            sum(c * v for c, v in zip(row, x)) + g
            for row, g in zip(self.matrix, self.offset)
        )


def _independent_rows(m: IntMatrix, candidates: Iterable[int]) -> list[int]:
    """The candidate rows, in order, that enlarge the span of those before.

    By the matroid exchange property this greedy choice is the
    lexicographically least row basis of the candidates.  It stops at
    ``m.cols`` rows, when no further row can be independent.  The basis is
    kept in integers: each row has a lead position where the rows after it
    are zero, and a candidate is reduced against it by cross-multiplying,
    then divided by the gcd of its entries.
    """
    basis: list[tuple[list[int], int]] = []  # (row, its lead position)
    chosen: list[int] = []
    for i in candidates:
        work = list(m.row(i))
        for row, lead in basis:
            w = work[lead]
            if w:
                p = row[lead]
                work = [p * a - w * b for a, b in zip(work, row)]
                g = gcd(*work)
                if g > 1:
                    work = [a // g for a in work]
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is not None:
            basis.append((work, lead))
            chosen.append(i)
            if len(chosen) == m.cols:
                break
    return chosen


def rank_over_rationals(m: IntMatrix) -> int:
    """Rank of the matrix over the rationals, by exact elimination."""
    return len(_independent_rows(m, range(m.rows)))


def _fraction_free_inverse(entries: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """``(det M, adj M)`` from one fraction-free (Bareiss) Gauss-Jordan pass
    over ``[M | I]``.  Every division is exact; the left block ends as
    ``d*I`` and the right one as ``d*M^-1``, where ``d = +-det M`` (the sign
    of the row swaps).  A singular M gives ``(0, [])``."""
    n = len(entries)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(entries)]
    sign = prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0, []
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * v - f * w) // prev for v, w in zip(a[i], top)]
        prev = p
    return sign * prev, [[sign * v for v in row[n:]] for row in a]


def determinant(m: IntMatrix) -> int:
    """Exact determinant, by fraction-free elimination."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    return _fraction_free_inverse(m.entries)[0]


def find_full_rank_submatrix(
    m: IntMatrix, forbidden_row: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Lexicographically least selection of ``cols`` independent rows.

    The row indices come in increasing order; ``forbidden_row`` (if given) is
    skipped.  Returns None when no selection avoiding the forbidden row
    reaches full column rank.
    """
    chosen = _independent_rows(m, (i for i in range(m.rows) if i != forbidden_row))
    return tuple(chosen) if len(chosen) == m.cols else None


def greedy_row_basis(m: IntMatrix, limit: int) -> list[int]:
    """Lexicographically least independent subset of the first ``limit`` rows
    spanning their row space."""
    return _independent_rows(m, range(limit))


def cramer_solve(m: IntMatrix, offset_vector: Sequence[int]) -> CramerSolution:
    """Inverse data ``denom * z = matrix * x + offset`` for ``M z = x - a``.

    ``denom`` is ``|det M|``; the sign of the determinant is absorbed into
    the coefficient matrix and offset so residue classes stay in
    ``0 .. denom-1``.
    """
    if m.rows != m.cols:
        raise DimensionError("cramer_solve needs a square matrix")
    if len(offset_vector) != m.rows:
        raise DimensionError("offset vector length does not match matrix size")
    det, adj = _fraction_free_inverse(m.entries)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    sign = 1 if det > 0 else -1
    coeffs = tuple(tuple(sign * v for v in row) for row in adj)
    gamma = tuple(
        -sum(c * a for c, a in zip(row, offset_vector)) for row in coeffs
    )
    return CramerSolution(denom=abs(det), matrix=coeffs, offset=gamma)


def positive_lcm(values: Sequence[int]) -> int:
    """Positive lcm of the absolute values of the nonzero entries."""
    nonzero = [abs(v) for v in values if v]
    if not nonzero:
        raise DegenerateInputError("positive_lcm of all-zero values")
    return lcm(*nonzero)


def congruence_coset(coeff: int, rhs: int, modulus: int) -> Optional[tuple[int, int]]:
    """The solutions of ``coeff*k = rhs (mod modulus)`` as ``(k0, step)``,
    the coset k0 + step*Z with 0 <= k0 < step; None when there are none.
    The members ``start + period*k`` of a coset that solve ``a*v = b (mod
    m)`` are those of ``congruence_coset(a*period, b - a*start, m)``."""
    g = gcd(coeff, modulus)
    if rhs % g:
        return None
    step = modulus // g
    return rhs // g * pow(coeff // g, -1, step) % step, step
