"""PinnedProgram.count_values reads the count off the formula.

The formula closed by ``E y`` is run as one chain that tries every branch
and gathers the values it binds y to; where that run raises, each candidate
is decided by itself.  The tests compare count_values against deciding the
formula once per candidate, with the count in the assignment
(:meth:`PinnedProgram.evaluate`), and check that the count of an
eliminated formula, or of a formula that pins it, is read without that
fallback.
"""

import random
from pathlib import Path

import pytest

from countqe import verify
from countqe.elim import eliminate
from countqe.errors import UnsupportedPresentationError
from countqe.formula import And, Cong, Eq, Exists, Le, Lt, Or, constant, variable
from countqe.sets import DomainTag, coordinate_names
from countqe.textio import parse_presentation
from countqe.verify import PinnedEvaluationError, PinnedProgram, count_set_witnesses
from helpers import random_disjoint_presentation
from test_nat_two_sided import random_two_sided

FIXTURES = Path(__file__).resolve().parent / "fixtures"

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


def _refuse_fallback(monkeypatch):
    """Make :meth:`PinnedProgram.evaluate` fail when the count is assigned,
    as it is only when count_values decides candidates one by one."""
    evaluate = PinnedProgram.evaluate

    def refuse(self, assignment):
        assert "y" not in assignment, "count_values decided the counts one by one"
        return evaluate(self, assignment)

    monkeypatch.setattr(PinnedProgram, "evaluate", refuse)


def _fixture_eliminations():
    for path in sorted(FIXTURES.glob("*.sl")):
        presentation = parse_presentation(path.read_text(encoding="utf-8"))
        try:
            yield presentation, eliminate(presentation, "y").formula
        except UnsupportedPresentationError:  # nonsimple.sl
            pass


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
            tested = verify.tested_counts(rng, oracle.count, domain)
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
    # 2u = y: u and the count each wait for the other, so nothing pins them.
    "definition from y": Exists("u", And((Eq(2 * u, y), Le(u, x)))),
    # y <= 2t < y + 2 with t = x (mod 3): a window that reads the count.
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
    # y cancels out of the second atom; the others bound the count by 2y <
    # u + 9, y = u (mod 2) or 3y = u + 6.
    "atoms solved for y": Exists(
        "u",
        And((Eq(u, x), Le(y + u, y + constant(3)), Lt(2 * y, u + 9), Or((Cong(y - u, 0, 2), Eq(3 * y, u + 6))))),
    ),
    # The inner chain reads the count and w, not u: at u = 0 and u = 1 it is
    # reached with the same value of w, and its memo keys the count too.
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


PINNED_COUNTS = {
    # At x = 1 the first disjunct binds y = 1 and fails; the second holds
    # without binding y, so the formula holds at every count.
    "branch leaving the count unbound": Or((And((Eq(y, constant(1)), Eq(x, constant(0)))), Eq(x, constant(1)))),
    # y = u + w, the sum of two part counts, each from its own disjunction.
    "sum of part counts": Exists(
        "u",
        Exists(
            "w",
            And((
                Or((And((Le(x, constant(0)), Eq(u, constant(0)))), And((Lt(constant(0), x), Eq(u, x))))),
                Or((And((Cong(x, 0, 2), Eq(w, constant(1)))), And((Cong(x, 1, 2), Eq(w, constant(0)))))),
                Eq(y, u + w),
            )),
        ),
    ),
    # 3y <= x + 3 and x < 3y pin y = floor(x/3) + 1.
    "floor pair on the count": And((Le(3 * y, x + 3), Lt(x, 3 * y))),
    # The inner E y binds its own y; after it the count bound before it is back.
    "count bound again inside": And((Eq(y, x + 1), Exists("y", And((Eq(y, 2 * x), Le(y, constant(4))))))),
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
@pytest.mark.parametrize("domain", [DomainTag.Z, DomainTag.N])
def test_each_pinned_count(name, domain, monkeypatch):
    program = PinnedProgram(PINNED_COUNTS[name], domain)
    nat = domain is DomainTag.N
    candidates = [*range(8, -4, -1), 2]
    expected = {
        value: per_candidate(program, {"x": value}, candidates, nat) for value in range(-4 * (not nat), 7)
    }
    _refuse_fallback(monkeypatch)
    held = set()
    for value, want in expected.items():
        assert program.count_values({"x": value}, "y", candidates) == want, value
        held.update(want)
    assert len(held) >= 2, held


def test_count_var_also_bound_inside():
    # The inner E y binds its own y.  Outside it, x <= y bounds the count on
    # one side only, so each count is decided by itself.
    f = And((Le(x, y), Exists("y", And((Eq(y, x + 1), Le(y, constant(3)))))))
    program = PinnedProgram(f)
    for value in range(-2, 5):
        assert_same_values(program, {"x": value}, [5, 0, 3, 3, -1, 4])


COUNT_NOT_FREE = {
    # y is bound inside, so the formula reads no count: it holds at every
    # count or at none, and one evaluation decides it.
    "holds": Exists("y", Eq(y, x)),
    "fails": Exists("y", And((Eq(y, x), Lt(x, constant(0))))),
}


@pytest.mark.parametrize("name", sorted(COUNT_NOT_FREE))
@pytest.mark.parametrize("domain", [DomainTag.Z, DomainTag.N])
def test_formula_without_a_free_count(name, domain):
    program = PinnedProgram(COUNT_NOT_FREE[name], domain)
    nat = domain is DomainTag.N
    candidates = [0, 1, 2, 3, 4, 3, -1]
    for value in (3, 0) if nat else (3, -2):
        expected = per_candidate(program, {"x": value}, candidates, nat)
        assert program.count_values({"x": value}, "y", candidates) == expected, value
        assert expected in ([], [k for k in candidates if k >= 0 or not nat])


def test_eliminated_formulas_pin_their_count(monkeypatch):
    # The fixtures and the seeded corpus, over Z and N: count_values reads
    # the count off each formula without deciding a count by itself.
    _refuse_fallback(monkeypatch)
    rng = random.Random(229)
    read = {DomainTag.Z: 0, DomainTag.N: 0}
    for presentation, formula in [*_fixture_eliminations(), *_seeded_eliminations()]:
        domain = presentation.domain
        program = PinnedProgram(formula, domain)
        names = coordinate_names(presentation.dimension)
        for _ in range(4):
            assignment = verify.random_assignment(rng, names[:-1], 12, domain)
            oracle = count_set_witnesses(presentation, assignment, names)
            got = program.count_values(assignment, "y", _candidates(rng, verify.tested_counts(rng, oracle.count, domain)))
            if not oracle.overlap:
                assert sorted(set(got)) == ([oracle.count] if oracle.stable else []), (presentation, assignment)
            read[domain] += bool(got)
    assert min(read.values()) > 50, read


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
    # A chain is planned when first reached and kept: a plan made by
    # evaluate (no count) or for y serves every count, and is the same
    # whichever call made it.  The two-component unions have a chain with a
    # disjunction per part count and an equation that reads y.
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
    assert compared >= 60 and reordered == 0, (compared, reordered)
