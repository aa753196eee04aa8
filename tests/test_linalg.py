import itertools
import random
from fractions import Fraction

import pytest

from countqe.errors import DegenerateInputError, DimensionError, SingularMatrixError
from countqe.linalg import (
    IntMatrix,
    cramer_solve,
    determinant,
    find_full_rank_submatrix,
    greedy_row_basis,
    positive_lcm,
    rank_over_rationals,
    solve_unique,
)

# The 4x3 period matrix of the worked three-period example: columns are
# (1,2,2,1), (2,4,1,1) and (-1,-2,0,-1).
THREE_PERIOD_MATRIX = IntMatrix.from_columns([(1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1)])


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def _cofactor_determinant(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [[row[c] for c in range(len(rows)) if c != j] for row in rows[1:]]
        total += (-1) ** j * head * _cofactor_determinant(minor)
    return total


class TestRank:
    def test_identity(self):
        assert rank_over_rationals(identity(3)) == 3

    def test_three_period_matrix(self):
        assert rank_over_rationals(THREE_PERIOD_MATRIX) == 3

    def test_zero_column(self):
        assert rank_over_rationals(IntMatrix.from_rows([[0], [0], [0]])) == 0

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(7)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            )
            assert rank_over_rationals(m) == rank_over_rationals(IntMatrix.from_columns(m.entries))


class TestDeterminant:
    def test_worked_subsystem(self):
        m = IntMatrix.from_rows([(1, 2, -1), (2, 1, 0), (1, 1, -1)])
        assert determinant(m) == 2

    def test_identity(self):
        for n in range(1, 5):
            assert determinant(identity(n)) == 1

    def test_diagonal(self):
        assert determinant(IntMatrix.from_rows([(2, 0), (0, 3)])) == 6

    def test_non_square(self):
        with pytest.raises(DimensionError):
            determinant(IntMatrix.from_rows([(1, 2, 3), (4, 5, 6)]))

    def test_against_cofactor_expansion(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert determinant(IntMatrix.from_rows(rows)) == _cofactor_determinant(rows)


class TestRowSelection:
    def test_worked_example_selection(self):
        # Forbidding the second row (index 1) picks rows 1, 3, 4 (0-based 0, 2, 3).
        sel = find_full_rank_submatrix(THREE_PERIOD_MATRIX, forbidden_row=1)
        assert sel == (0, 2, 3)

    def test_identity_all_rows(self):
        sel = find_full_rank_submatrix(identity(4))
        assert sel == (0, 1, 2, 3)

    def test_absent_when_only_usable_row_forbidden(self):
        m = IntMatrix.from_rows([(0,), (1,)])
        assert find_full_rank_submatrix(m, forbidden_row=1) is None

    def test_matches_exhaustive_search(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 5)
            p = rng.randint(1, min(n, 3))
            m = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(p)] for _ in range(n)]
            )
            forbidden = rng.choice([None] + list(range(n)))
            best = None
            for combo in itertools.combinations(
                [i for i in range(n) if i != forbidden], p
            ):
                if rank_over_rationals(m.select_rows(combo)) == p:
                    best = combo
                    break
            got = find_full_rank_submatrix(m, forbidden_row=forbidden)
            assert got == best

    def test_greedy_row_basis_spans_prefix(self):
        basis = greedy_row_basis(THREE_PERIOD_MATRIX, 3)
        # The first three rows have rank 2: row 2 is twice row 1.
        assert basis == [0, 2]


class TestCramerSolve:
    def test_worked_subsystem(self):
        m = IntMatrix.from_rows([(1, 2, -1), (2, 1, 0), (1, 1, -1)])
        sol = cramer_solve(m, (0, 0, 0))
        assert sol.denom == 2
        assert sol.matrix == ((-1, 1, 1), (2, 0, -2), (1, 1, -3))
        assert sol.offset == (0, 0, 0)

    def test_identity(self):
        sol = cramer_solve(identity(3), (0, 0, 0))
        assert sol.denom == 1
        assert sol.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert sol.offset == (0, 0, 0)

    def test_single_equation_with_offset(self):
        sol = cramer_solve(IntMatrix.from_rows([(2,)]), (4,))
        assert sol.denom == 2
        assert sol.matrix == ((1,),)
        assert sol.offset == (-4,)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            cramer_solve(IntMatrix.from_rows([(1, 2), (2, 4)]), (0, 0))

    def test_identity_on_random_systems(self):
        rng = random.Random(23)
        done = 0
        while done < 400:
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            if determinant(m) == 0:
                continue
            a = [rng.randint(-5, 5) for _ in range(n)]
            z = [rng.randint(-6, 6) for _ in range(n)]
            x = [sum(r * v for r, v in zip(row, z)) + b for row, b in zip(m.entries, a)]
            sol = cramer_solve(m, a)
            assert sol.numerators(x) == tuple(sol.denom * zi for zi in z)
            done += 1


# --- the rational reduction and cofactor adjugate linalg used before ----------
#
# Row selection reduced each candidate against an echelon basis of Fraction
# rows normalised to a leading 1; cramer_solve took det M and n^2 cofactor
# minors.  The integer versions must select the same rows and give the same
# CramerSolution.


def _reference_independent_rows(rows, candidates, cols):
    basis, chosen = [], []
    for i in candidates:
        work = [Fraction(v) for v in rows[i]]
        for row in basis:
            lead = next(j for j, v in enumerate(row) if v)
            if work[lead]:
                factor = work[lead]
                work = [a - factor * b for a, b in zip(work, row)]
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is not None:
            basis.append([v / work[lead] for v in work])
            chosen.append(i)
            if len(chosen) == cols:
                break
    return chosen


def _reference_cramer_solve(rows, offset):
    n = len(rows)
    det = _cofactor_determinant(rows)
    if det == 0:
        return None
    sign = 1 if det > 0 else -1
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _cofactor_determinant(minor) if minor else 1
            adj[j][i] = sign * (-cof if (i + j) % 2 else cof)
    gamma = tuple(-sum(c * a for c, a in zip(row, offset)) for row in adj)
    return abs(det), tuple(map(tuple, adj)), gamma


def _random_matrix(rng, rows, cols):
    """Entries in a small, a large or a huge range; some rows are combinations
    of earlier ones, so the matrix may be rank deficient or singular."""
    bound = rng.choice((3, 10**3, 10**12))
    entries = []
    for _ in range(rows):
        if entries and rng.random() < 0.3:
            weights = [rng.randint(-3, 3) for _ in entries]
            entries.append([sum(w * row[j] for w, row in zip(weights, entries)) for j in range(cols)])
        else:
            entries.append([rng.randint(-bound, bound) for _ in range(cols)])
    return entries


class TestAgainstRationalReference:
    def test_row_selections(self):
        rng = random.Random(97)
        deficient = 0
        for _ in range(600):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            entries = _random_matrix(rng, rows, cols)
            m = IntMatrix.from_rows(entries)
            forbidden = rng.choice([None] + list(range(rows)))
            allowed = [i for i in range(rows) if i != forbidden]
            expected = _reference_independent_rows(entries, allowed, cols)
            got = find_full_rank_submatrix(m, forbidden_row=forbidden)
            assert got == (tuple(expected) if len(expected) == cols else None), entries
            limit = rng.randint(1, rows)
            assert greedy_row_basis(m, limit) == _reference_independent_rows(entries, range(limit), cols)
            rank = len(_reference_independent_rows(entries, range(rows), cols))
            assert rank_over_rationals(m) == rank
            deficient += rank < min(rows, cols)
        assert deficient >= 50

    def test_cramer_solutions(self):
        rng = random.Random(101)
        singular = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            entries = _random_matrix(rng, n, n)
            offset = [rng.randint(-50, 50) for _ in range(n)]
            m = IntMatrix.from_rows(entries)
            expected = _reference_cramer_solve(entries, offset)
            assert determinant(m) == _cofactor_determinant(entries)
            if expected is None:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    cramer_solve(m, offset)
                continue
            sol = cramer_solve(m, offset)
            assert (sol.denom, sol.matrix, sol.offset) == expected, entries
        assert singular >= 40


class TestPositiveLcm:
    def test_worked_coefficients(self):
        assert positive_lcm((1, -2, -3)) == 6

    def test_single(self):
        assert positive_lcm((5,)) == 5

    def test_zeros_ignored(self):
        assert positive_lcm((4, 0, 6)) == 12

    def test_all_zero(self):
        with pytest.raises(DegenerateInputError):
            positive_lcm((0, 0))


class TestSolveUnique:
    def test_unique(self):
        sol = solve_unique([(1, 1), (1, -1)], (3, 1))
        assert sol == (2, 1)

    def test_inconsistent(self):
        assert solve_unique([(1, 1), (2, 2)], (1, 3)) is None

    def test_underdetermined(self):
        with pytest.raises(DegenerateInputError):
            solve_unique([(1, 1)], (2,))

    def test_overdetermined_consistent(self):
        sol = solve_unique([(1, 0), (0, 1), (1, 1)], (2, 3, 5))
        assert sol == (2, 3)


def _dense_solve_unique(rows, rhs):
    """Reference: dense Gauss-Jordan over Fractions, first nonzero pivot.

    Same contract as :func:`solve_unique`: the unique solution, None when
    inconsistent, DegenerateInputError when consistent but underdetermined.
    """
    if not rows:
        raise DimensionError("empty system")
    width = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][width]:
            return None
    if len(pivots) < width:
        raise DegenerateInputError("system is underdetermined")
    solution = [Fraction(0)] * width
    for row_idx, col in enumerate(pivots):
        solution[col] = aug[row_idx][width]
    return tuple(solution)


def _outcome(solver, rows, rhs):
    try:
        return solver(rows, rhs)
    except DegenerateInputError:
        return "underdetermined"


def _random_system(rng):
    """A small random system of one of several shapes, with its right side."""
    shape = rng.choice(["square", "tall", "wide", "duplicate", "zero-row", "width-0", "sparse"])
    width = 0 if shape == "width-0" else rng.randint(1, 5)
    height = {
        "square": width,
        "tall": width + rng.randint(1, 3),
        "wide": max(1, width - rng.randint(1, 2)),
    }.get(shape, rng.randint(1, 6))
    density = 0.3 if shape == "sparse" else 0.8
    rows = [
        [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(width)]
        for _ in range(height)
    ]
    if shape == "duplicate":
        rows.append(list(rows[rng.randrange(height)]))
    if shape == "zero-row":
        rows.insert(rng.randrange(len(rows) + 1), [0] * width)
    if rng.random() < 0.5:
        # Consistent by construction: the right side of an integer point.
        point = [rng.randint(-4, 4) for _ in range(width)]
        rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
    else:
        rhs = [rng.randint(-4, 4) for _ in rows]
    return rows, rhs


class TestSolveUniqueAgainstDense:
    def test_random_systems(self):
        rng = random.Random(2410)
        seen = set()
        for _ in range(600):
            rows, rhs = _random_system(rng)
            expected = _outcome(_dense_solve_unique, rows, rhs)
            got = _outcome(solve_unique, rows, rhs)
            assert got == expected, (rows, rhs)
            if isinstance(got, tuple):
                assert all(type(v) is Fraction for v in got)
            seen.add("solved" if isinstance(got, tuple) else str(got))
        assert seen == {"solved", "None", "underdetermined"}

    def test_inconsistent_and_rank_deficient(self):
        # Rank 1 in two unknowns, and 0 = 1 after eliminating: None wins.
        rows, rhs = [(1, 1), (2, 2)], (1, 3)
        assert _dense_solve_unique(rows, rhs) is None
        assert solve_unique(rows, rhs) is None
        rows, rhs = [(0, 0, 0), (1, 2, 0)], (5, 1)
        assert solve_unique(rows, rhs) is None

    def test_width_zero(self):
        assert solve_unique([[], []], (0, 0)) == ()
        assert solve_unique([[]], (1,)) is None

    def test_zero_column(self):
        with pytest.raises(DegenerateInputError):
            solve_unique([(1, 0), (2, 0)], (1, 2))

    def test_fractional_solution(self):
        assert solve_unique([(2, 0), (1, 3)], (1, 1)) == (Fraction(1, 2), Fraction(1, 6))

    def test_pinned_block_shape(self):
        # Unit equations c_i = i plus one row summing them: a half-line block.
        n = 400
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        rows.append([1] * n)
        rhs = list(range(n)) + [n * (n - 1) // 2]
        assert solve_unique(rows, rhs) == tuple(Fraction(i) for i in range(n))
        rhs[-1] += 1
        assert solve_unique(rows, rhs) is None
