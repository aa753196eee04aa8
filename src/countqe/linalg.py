"""Exact integer linear algebra for the elimination engine.

Everything here is computed over arbitrary-precision integers (rationals only
appear in intermediate eliminations), so results are exact at any magnitude.
The module provides just what the engine needs: ranks, determinants,
full-rank row selections and Cramer-style inverse data for small dense
systems.  Those matrices are tiny (the number of periods of a presentation),
so the classic O(n^3)/O(n^5) dense algorithms are the right tool.  The one
exception is :func:`solve_unique`, which eliminates sparsely for large,
nearly diagonal systems; nothing in the package calls it any more (the
eliminator's row equations come from Cramer data, and the pinned evaluator
solves no joint system), but it stays public.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import lcm
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


def _reduce_against_basis(
    basis: list[list[Fraction]], vector: Sequence[int]
) -> Optional[list[Fraction]]:
    """Reduce ``vector`` against a row basis kept in echelon form.

    Returns the residual (normalised to leading coefficient 1) if it is
    nonzero, i.e. the vector is independent of the basis; None otherwise.
    The basis rows each have a unique leading (first nonzero) position.
    """
    work = [Fraction(v) for v in vector]
    for row in basis:
        lead = next(i for i, v in enumerate(row) if v)
        if work[lead]:
            factor = work[lead]
            for i in range(lead, len(work)):
                work[i] -= factor * row[i]
    for i, v in enumerate(work):
        if v:
            inv = Fraction(1) / v
            return [x * inv for x in work]
    return None


def _independent_rows(m: IntMatrix, candidates: Iterable[int]) -> list[int]:
    """The candidate rows, in order, that enlarge the span of those before.

    By the matroid exchange property this greedy choice is the
    lexicographically least row basis of the candidates.  It stops at
    ``m.cols`` rows, when no further row can be independent.
    """
    basis: list[list[Fraction]] = []
    chosen: list[int] = []
    for i in candidates:
        residual = _reduce_against_basis(basis, m.row(i))
        if residual is not None:
            basis.append(residual)
            chosen.append(i)
            if len(chosen) == m.cols:
                break
    return chosen


def rank_over_rationals(m: IntMatrix) -> int:
    """Rank of the matrix over the rationals, by exact elimination."""
    return len(_independent_rows(m, range(m.rows)))


def determinant(m: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss step: the division by the previous pivot is exact.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def _adjugate(entries: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(entries)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [entries[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = determinant(IntMatrix.from_rows(minor))
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof  # transpose of the cofactor matrix
    return adj


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
    det = determinant(m)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    sign = 1 if det > 0 else -1
    adj = _adjugate(m.entries)
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


def solve_unique(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """Solve ``rows * c = rhs`` exactly when the solution is unique.

    Sparse Gauss elimination over the rationals.  Each row is held as a map
    from column to nonzero coefficient.  Every step pivots on an active row
    with the fewest nonzeros (ties: lowest row index), in its column shared
    by the fewest active rows (ties: lowest column), and updates only the
    active rows containing that column; back-substitution then reads the
    pivot rows in reverse order.  A row with a single unknown therefore pins
    it at once, so the nearly diagonal blocks of eliminated formulas cost
    time linear in their nonzeros.  All arithmetic is exact.

    Three outcomes:

    * the unique solution, as a tuple of :class:`~fractions.Fraction`;
    * None if the system is inconsistent (some combination of rows reads
      ``0 = b`` with ``b != 0``), even when it is also rank deficient;
    * :class:`DegenerateInputError` if it is consistent but underdetermined.
    """
    if not rows:
        raise DimensionError("empty system")
    width = len(rows[0])
    coeffs: list[dict[int, Fraction]] = []
    consts: list[Fraction] = []
    holders: dict[int, set[int]] = {}  # column -> active rows containing it
    for i, (row, b) in enumerate(zip(rows, rhs)):
        entries = {j: Fraction(row[j]) for j in compress(range(width), row)}
        coeffs.append(entries)
        consts.append(Fraction(b))
        for j in entries:
            holders.setdefault(j, set()).add(i)
    heap = [(len(entries), i) for i, entries in enumerate(coeffs)]
    heapify(heap)
    active = set(range(len(coeffs)))
    order: list[tuple[int, int]] = []  # (pivot row, pivot column)
    while heap:
        size, i = heappop(heap)
        if i not in active or size != len(coeffs[i]):
            continue  # stale entry: the row was pivoted or has changed
        active.discard(i)
        pivot_row = coeffs[i]
        if not pivot_row:
            if consts[i]:
                return None
            continue
        col = min(pivot_row, key=lambda j: (len(holders[j]), j))
        for j in pivot_row:
            holders[j].discard(i)
        inv = 1 / pivot_row[col]
        for k in list(holders[col]):
            target = coeffs[k]
            factor = target[col] * inv
            for j, v in pivot_row.items():
                value = target.get(j, 0) - factor * v
                if value:
                    if j not in target:
                        holders[j].add(k)
                    target[j] = value
                else:
                    del target[j]
                    holders[j].discard(k)
            consts[k] -= factor * consts[i]
            heappush(heap, (len(target), k))
        order.append((i, col))
    if len(order) < width:
        raise DegenerateInputError("system is underdetermined")
    solution = [Fraction(0)] * width
    for i, col in reversed(order):
        pivot_row = coeffs[i]
        total = consts[i]
        for j, v in pivot_row.items():
            if j != col:
                total -= v * solution[j]
        solution[col] = total / pivot_row[col]
    return tuple(solution)
