"""PinnedProgram.count_values decides all tested counts in one evaluation.

The count variable ranges over the set of candidates, and the steps that
bind a name from it are taken at each candidate.  Every test here compares
that against deciding the formula once per candidate, with the count in the
assignment (:meth:`PinnedProgram.evaluate`).
"""

import random

import pytest

from countqe import verify
from countqe.elim import eliminate
from countqe.formula import And, Cong, Eq, Exists, Le, Lt, Or, constant, variable
from countqe.sets import DomainTag, coordinate_names
from countqe.verify import PinnedEvaluationError, PinnedProgram, count_set_witnesses
from helpers import random_disjoint_presentation
from test_nat_two_sided import random_two_sided

x, y, u, v, w, t = map(variable, ("x", "y", "u", "v", "w", "t"))


def per_candidate(program, assignment, candidates, nat=False):
    """The candidates at which the formula holds, one evaluation each."""
    return [
        k for k in candidates if (k >= 0 or not nat) and program.evaluate({**assignment, "y": k})
    ]


def assert_same_values(program, assignment, candidates, nat=False):
    """count_values agrees with per_candidate, or both raise; returns the values."""
    try:
        expected = per_candidate(program, assignment, candidates, nat)
    except PinnedEvaluationError:
        with pytest.raises(PinnedEvaluationError):
            program.count_values(assignment, "y", candidates)
        return None
    assert program.count_values(assignment, "y", candidates) == expected, (assignment, candidates)
    return expected


def _candidates(rng, tested):
    """The tested counts unsorted, with repeats and a negative value."""
    extra = list(tested) + [rng.choice(tested), -1 - rng.randrange(3)]
    rng.shuffle(extra)
    return extra


def _corrupted(f, rng):
    """``f`` with the constant of about one comparison in four moved by one."""
    if f.children:
        return f.rebuild([_corrupted(c, rng) for c in f.children])
    if type(f) in (Le, Lt, Eq) and rng.random() < 0.25:
        return type(f)(f.lhs + rng.choice((-1, 1)), f.rhs)
    return f


def _seeded_eliminations():
    rng = random.Random(211)
    for domain in (DomainTag.Z, DomainTag.N):
        for _ in range(40):
            presentation = random_disjoint_presentation(rng, domain, max_dimension=4)
            yield presentation, eliminate(presentation, "y").formula
        for _ in range(15):
            presentation, result = random_two_sided(rng, domain)
            yield presentation, result.formula


@pytest.mark.parametrize("corrupt", [False, True])
def test_same_values_as_one_evaluation_per_count(corrupt):
    rng = random.Random(223 + corrupt)
    compared = hits = mismatches = raised = 0
    for presentation, formula in _seeded_eliminations():
        if corrupt:
            formula = _corrupted(formula, rng)
        domain = presentation.domain
        nat = domain is DomainTag.N
        program = PinnedProgram(formula, domain)
        names = coordinate_names(presentation.dimension)
        for _ in range(4):
            assignment = verify.random_assignment(rng, names[:-1], 12, domain)
            oracle = count_set_witnesses(presentation, assignment, names)
            tested = verify.tested_counts(rng, oracle.count)
            got = assert_same_values(program, assignment, _candidates(rng, tested), nat)
            compared += 1
            if got is None:
                raised += 1
                continue
            hits += bool(got)
            satisfied = [k for k in tested if k in got]
            mismatches += oracle.stable and satisfied != [oracle.count]
    assert compared == 440 and hits > 100
    if corrupt:
        assert mismatches > 50 and raised < compared // 2, (mismatches, raised)
    else:
        assert (mismatches, raised) == (0, 0)


def _chosen(g):
    """``E u . (g & u <= 9)``: u is taken from a split on the disjunction g."""
    return Exists("u", And((g, Le(u, constant(9)))))


SPLIT_POINTS = {
    # 2u = y: u is defined from the count, at each candidate.
    "definition from y": Exists("u", And((Eq(2 * u, y), Le(u, x)))),
    # y <= 2t < y + 2 with t = x (mod 3): a window bounded by the count.
    "window bounded by y": Exists("t", And((Le(y, 2 * t), Lt(2 * t, y + 2), Cong(t - x, 0, 3)))),
    # The generator u = y - 1 reads the count; so does the guard of u = 0.
    "choice from an equation reading y": _chosen(
        Or((And((Eq(u, y - 1), Le(x, u))), And((Eq(u, constant(0)), Lt(y, x)))))
    ),
    # A disjunction over two undefined names is split.
    "split": Exists(
        "u",
        Exists("w", And((Or((And((Eq(u, y), Eq(w, x))), And((Eq(u, x), Eq(w, y + 1))))), Le(u + w, constant(6))))),
    ),
    # u takes x or x + 2, each for the counts its guard leaves.
    "two-valued choice": Exists(
        "u",
        And((Or((And((Eq(u, x), Le(y, constant(3)))), Eq(u, x + 2))), Le(u, y), Le(y - 2, u))),
    ),
    # Atoms solved for the count once: y cancels out of the first, the
    # others test 2y < u + 9, y = u (mod 2) and 3y = u + 6 at each candidate.
    "atoms solved for y": Exists(
        "u",
        And((Eq(u, x), Le(y + u, y + constant(3)), Lt(2 * y, u + 9), Or((Cong(y - u, 0, 2), Eq(3 * y, u + 6))))),
    ),
    # The inner chain reads the count and w, not u: at u = 0 and u = 1 it is
    # reached with the same value of w and different candidate sets.
    "chain under two choices": Exists(
        "u",
        Exists(
            "w",
            And((
                Or((And((Eq(u, constant(0)), Le(y, constant(2)))), And((Eq(u, constant(1)), Lt(constant(2), y))))),
                Or((Eq(w, constant(0)), Eq(w, x))),
                Exists("v", And((Eq(v, y + w), Cong(v, 0, 2)))),
            )),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SPLIT_POINTS))
@pytest.mark.parametrize("domain", [DomainTag.Z, DomainTag.N])
def test_each_split_point(name, domain):
    program = PinnedProgram(SPLIT_POINTS[name], domain)
    nat = domain is DomainTag.N
    rng = random.Random(name)
    held = set()
    for value in range(-4, 7):
        if nat and value < 0:
            continue
        candidates = [rng.randint(-3, 8) for _ in range(rng.randint(1, 12))]
        got = assert_same_values(program, {"x": value}, candidates, nat)
        held.update(got)
        assert program.count_values({"x": value}, "y", []) == []
    assert len(held) >= 2, held


def test_count_var_also_bound_inside():
    # The inner E y binds its own y, which the set path leaves to the chain.
    f = And((Le(x, y), Exists("y", And((Eq(y, x + 1), Le(y, constant(3)))))))
    program = PinnedProgram(f)
    for value in range(-2, 5):
        assert_same_values(program, {"x": value}, [5, 0, 3, 3, -1, 4])


def test_1000_two_valued_choices():
    # Each u_i is 0 or 1: every split leaves a backtracking point, and the
    # counts 0..3 are the sums of the first assignments in search order.
    n = 1000
    names = [f"u{i}" for i in range(n)]
    parts = [Or((Eq(variable(name), constant(0)), Eq(variable(name), constant(1)))) for name in names]
    parts.append(Eq(sum((variable(name) for name in names), constant(0)), y))
    body = And(tuple(parts))
    for name in reversed(names):
        body = Exists(name, body)
    for domain in (DomainTag.Z, DomainTag.N):
        program = PinnedProgram(body, domain)
        nat = domain is DomainTag.N
        candidates = [3, 0, 2, 2, 1, 3] + ([-1] if nat else [])
        assert program.count_values({}, "y", candidates) == [3, 0, 2, 2, 1, 3]
        assert per_candidate(program, {}, candidates, nat) == [3, 0, 2, 2, 1, 3]


def _decisions(program_for, assignment, other):
    """Per-candidate evaluations of y, then y's and then ``other``'s count
    values, each from ``program_for()``; an evaluation that raises gives
    None."""

    def attempt(decide):
        try:
            return decide(program_for())
        except PinnedEvaluationError:
            return None

    at_y = {**assignment, "y": 2}
    del at_y[other]
    return (
        attempt(lambda p: per_candidate(p, assignment, range(-1, 6))),
        attempt(lambda p: p.count_values(assignment, "y", range(-1, 6))),
        attempt(lambda p: p.count_values(at_y, other, range(-3, 6))),
    )


def _first_steps(program):
    return {head: [step[:2] for step in plan[0]] for head, plan in program._plans.items()}


def test_plans_are_reused_across_count_names():
    # A chain is planned when first reached, for the count of that call, and
    # kept: a plan made by evaluate (no count) or for y serves every count.
    # The two-component unions have a chain with a disjunction per part
    # count and an equation that reads y; it is ordered differently when
    # planned for y, whose definition waits for the disjunctions.
    rng = random.Random(227)
    cases = [(f, DomainTag.Z, "x") for f in SPLIT_POINTS.values()]
    for presentation, formula in _seeded_eliminations():
        if len(presentation.components) == 2 and presentation.dimension >= 2:
            cases.append((formula, presentation.domain, "x1"))
    compared = reordered = 0
    for formula, domain, other in cases:
        names = sorted(PinnedProgram(formula).free_names(formula) | {other, "y"})
        program = PinnedProgram(formula, domain)
        for _ in range(3):
            assignment = verify.random_assignment(rng, names, 4, domain)
            reused = _decisions(lambda: program, assignment, other)
            assert reused == _decisions(lambda: PinnedProgram(formula, domain), assignment, other), formula
            compared += 1
        planned_for_y = PinnedProgram(formula, domain)
        planned_for_y.count_values(dict.fromkeys(names, 0), "y", [0])
        fresh = _first_steps(planned_for_y)
        reordered += any(steps != fresh.get(head, steps) for head, steps in _first_steps(program).items())
    assert compared >= 60 and reordered >= 5, (compared, reordered)
