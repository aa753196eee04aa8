"""Differential test of the two-sided construction over the naturals and
the integers.

A seeded generator draws components whose square core has both an upper
and a lower bound family on the counted coordinate.  Every eliminated
formula must agree with the witness oracle, and over N be subtraction-free.
"""

import random

from countqe.elim import eliminate, estimate_result_nodes, is_subtraction_free
from countqe.linalg import IntMatrix, rank_over_rationals
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation
from countqe.verify import run_check

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
    low = 0 if domain is DomainTag.N else -3
    while True:
        n = rng.randint(2, 4)
        p = rng.choice((2, 3, 3)) if n > 2 else 2
        basis = [[rng.randint(low, 3) for _ in range(p)] for _ in range(p - 1)]
        rows = list(basis)
        for _ in range(n - p):
            weights = [rng.randint(0, 2) for _ in basis]
            combo = [sum(w * row[j] for w, row in zip(weights, basis)) for j in range(p)]
            rows.insert(rng.randint(0, len(rows)), combo)
        rows.append([rng.randint(low, 3) for _ in range(p)])
        periods = tuple(tuple(row[j] for row in rows) for j in range(p))
        if rank_over_rationals(IntMatrix.from_columns(periods)) != p:
            continue
        base = tuple(rng.randint(low, 3) for _ in range(n))
        presentation = SemilinearPresentation(
            components=(LinearSetPresentation(base, periods, domain),),
            asserted_disjoint=True,
            asserted_simple=True,
        )
        if estimate_result_nodes(presentation) > NODE_BUDGET:
            continue
        result = eliminate(presentation, "y")
        core = result.report.components[0]
        if core.case == "interval-count" and core.upper_rows and core.lower_rows:
            if core.denom <= MAX_DENOM:
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
        outcome = run_check(presentation, trials=15, box_radius=12, seed=index, result=result)
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
