"""Differential test of single-witness components over the integers and the
naturals.

A seeded generator draws presentations of one or two components whose
counted coordinate is a function of the others: some full-rank row
subsystem avoids the counted row.  Every eliminated formula must agree with
the witness oracle, bind nothing when it has one component, and be
subtraction-free over both domains.
"""

import random

from countqe.elim import eliminate, plan_elimination
from countqe.formula import Exists, traverse
from countqe.sets import DomainTag, SemilinearPresentation
from countqe.verify import run_check
from helpers import is_subtraction_free, random_simple_component

SEED = 8117


def random_single_witness(rng: random.Random, domain: DomainTag):
    """The plan of one or two single-witness components.

    Dims 2-4 with at most n-1 periods; two components split on the parity
    of one coordinate, which keeps them disjoint.  Draws with a component
    that needs a core are redrawn.
    """
    while True:
        n = rng.randint(2, 4)
        parities = (0, 1) if rng.random() < 0.3 else (None,)
        even = rng.randrange(n) if parities[0] is not None else None
        components = tuple(
            random_simple_component(
                rng, n, rng.randint(0, n - 1), domain, split_coordinate=even, residue=parity
            )
            for parity in parities
        )
        plan = plan_elimination(
            SemilinearPresentation(components, asserted_disjoint=True, asserted_simple=True)
        )
        if all(c.case == "single-witness" for c in plan.components):
            return plan


def test_single_witness_components_agree_with_oracle():
    rng = random.Random(SEED)
    shapes = {"dropped": 0, "D>=2": 0, "p=0": 0, "union": 0}
    counted = 0  # stable trials with count 1
    for index in range(160):
        domain = (DomainTag.Z, DomainTag.N)[index % 2]
        plan = random_single_witness(rng, domain)
        result = eliminate(plan, "y")
        assert is_subtraction_free(result.formula), plan.presentation
        if len(plan.components) == 1:
            assert not any(type(g) is Exists for g in traverse(result.formula)[0])
        for c in plan.components:
            shapes["dropped"] += bool(c.dropped_rows)
            shapes["D>=2"] += c.solution.denom >= 2
            shapes["p=0"] += not c.rows
        shapes["union"] += len(plan.components) > 1
        for radius in (4, 100):
            outcome = run_check(plan, trials=10, box_radius=radius, seed=index)
            assert (outcome.mismatches, outcome.unstable_bad) == (0, 0), plan.presentation
            counted += sum(r.oracle.stable and r.oracle.count == 1 for r in outcome.records)
    assert min(shapes.values()) >= 10, shapes
    assert counted >= 150, counted
