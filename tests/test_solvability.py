"""The quantifier-free solvability condition of a core's congruences.

A core's congruences ``lam_i*t = c_i(x) (mod D)`` have a common solution t
exactly where the atoms of :func:`countqe.elim._solvability` hold.  The
tests here check that condition by brute force over t, check that the rows
kept when a row is a multiple of another have the solutions of all rows (by
brute force over residue vectors), check the eliminated formulas against
the encoding that asked it with a binder (a window witness ``t1`` in a
two-sided core's zero case, a coset witness in a one-sided core's guard),
and keep a fixed list of mutations of the construction that the oracle must
catch.
"""

import itertools
import random
import time
from math import gcd
from pathlib import Path
from typing import Sequence

import pytest

import countqe.formula as fm
from countqe import elim, verify
from countqe.elim import (
    ComponentPlan,
    _congruences,
    _first_witness_window,
    eliminate,
    progression_count_formula,
)
from countqe.formula import (
    And,
    Eq,
    Exists,
    Formula,
    FreshNames,
    Le,
    Lt,
    Or,
    Term,
    conj,
    constant,
    disj,
    negate,
    variable,
)
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation, coordinate_names
from countqe.textio import parse_presentation
from countqe.verify import PinnedEvaluationError, PinnedProgram, count_set_witnesses, run_check
from helpers import (
    SPLIT_PATTERNS,
    is_subtraction_free,
    random_disjoint_presentation,
    random_split_union,
    residue_classes,
)
from test_nat_two_sided import random_two_sided

FIXTURES = Path(__file__).resolve().parent / "fixtures"
NAMES = ("a", "b", "c")


def _solvable_by_search(rows, denom, point) -> bool:
    """Whether some t in 0..D-1 solves every row ``coeffs . (point, t) =
    residue (mod D)``."""
    return any(
        all(
            (sum(c * v for c, v in zip(coeffs, point)) + coeffs[-1] * t - residue) % denom == 0
            for coeffs, residue in rows
        )
        for t in range(denom)
    )


def test_condition_matches_search_over_t():
    # 3,000 row systems (D <= 40, up to 4 rows, up to 3 free names) at 5
    # points each.
    rng = random.Random(1952)
    cases = solvable = pairs = constant_false = 0
    for _ in range(3000):
        denom = rng.randint(1, 40)
        free = rng.randint(0, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            lam = rng.choice((rng.randrange(denom), denom // rng.choice((1, 2, 3, 4)) % denom))
            coeffs = tuple(rng.randrange(denom) for _ in range(free)) + (lam,)
            rows.append((coeffs, rng.randrange(denom)))
        atoms = elim._solvability(rows, denom, NAMES[:free])
        pairs += any(len(w) == 2 for w, _ in elim._coset_conditions(rows, denom))
        constant_false += atoms == [fm.FALSE]
        for _ in range(5):
            point = [rng.randint(-50, 50) for _ in range(free)]
            env = dict(zip(NAMES, point))
            got = all(fm.evaluate_atom(a, env) for a in atoms)
            expected = _solvable_by_search(rows, denom, point)
            assert got == expected, (rows, denom, point, atoms)
            cases += 1
            solvable += expected
    assert cases == 15_000
    assert 2000 < solvable < 13_000 and pairs > 1000 and constant_false > 50, (solvable, pairs, constant_false)


def test_condition_atoms_are_reduced_and_subtraction_free():
    rng = random.Random(61)
    for _ in range(500):
        denom = rng.randint(2, 30)
        rows = [
            (tuple(rng.randrange(denom) for _ in range(3)), rng.randrange(denom))
            for _ in range(rng.randint(1, 3))
        ]
        atoms = elim._solvability(rows, denom, NAMES[:2])
        assert len(set(atoms)) == len(atoms)
        for atom in atoms:
            if atom is fm.FALSE:
                continue
            assert atom.modulus > 1 and atom.term.constant == 0
            assert all(0 < c < atom.modulus for c in atom.term.coeffs.values())
            assert gcd(atom.modulus, atom.residue, *atom.term.coeffs.values()) == 1
            assert is_subtraction_free(atom)


# --- rows that another row implies ------------------------------------------------


def _holds(rows, denom, point) -> bool:
    return all((sum(c * v for c, v in zip(coeffs, point)) - residue) % denom == 0 for coeffs, residue in rows)


def _multiple_by_search(row, other, denom) -> bool:
    (b, s), (a, r) = row, other
    return any(all((k * x - y) % denom == 0 for x, y in zip((*a, r), (*b, s))) for k in range(denom))


def _small_row_systems():
    """400 row systems with D <= 12 and up to 3 coordinates: random rows,
    multiples of earlier rows, and multiples whose residue is off."""
    rng = random.Random(2425)
    for _ in range(400):
        denom, width = rng.randint(1, 12), rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("random", "multiple", "off residue")) if rows else "random"
            if kind == "random":
                rows.append((tuple(rng.randrange(denom) for _ in range(width)), rng.randrange(denom)))
                continue
            (coeffs, residue), k = rng.choice(rows), rng.randrange(denom)
            shift = rng.randrange(1, denom) if kind == "off residue" and denom > 1 else 0
            rows.append((tuple(k * c % denom for c in coeffs), (k * residue + shift) % denom))
        yield rows, denom, width


def _systems_changed() -> int:
    """How many small systems' kept rows have other solutions than all
    their rows, over every residue vector."""
    changed = 0
    for rows, denom, width in _small_row_systems():
        kept = elim._without_multiples(rows, denom)
        points = itertools.product(range(denom), repeat=width)
        changed += any(_holds(kept, denom, p) != _holds(rows, denom, p) for p in points)
    return changed


def test_kept_rows_have_the_solutions_of_all_rows():
    # The kept rows solve the same residue vectors as all the rows, none of
    # them is a multiple of another, and the multiple test agrees with a
    # search over k.
    assert _systems_changed() == 0
    dropped = off_residue_kept = 0
    for rows, denom, _ in _small_row_systems():
        for row in rows:
            for other in rows:
                assert elim._multiple_of(row, other, denom) == _multiple_by_search(row, other, denom)
        kept = elim._without_multiples(rows, denom)
        assert all(row in rows for row in kept)
        assert not any(_multiple_by_search(a, b, denom) for a, b in itertools.permutations(kept, 2))
        dropped += len(set(rows)) - len(kept)
        off_residue_kept += sum(
            not _multiple_by_search(row, other, denom) and _multiple_by_search((row[0], 0), (other[0], 0), denom)
            for row, other in itertools.permutations(kept, 2)
        )
    assert dropped > 100 and off_residue_kept > 50, (dropped, off_residue_kept)


def test_residue_blind_multiple_test_is_caught(monkeypatch):
    # The rows of a Cramer solution share the base point as a solution, so
    # where their coefficients are multiples their residues are too, and the
    # oracle cannot see this mutation; the comparison over residue vectors
    # does.
    multiple_of = elim._multiple_of
    monkeypatch.setattr(elim, "_multiple_of", lambda row, other, d: multiple_of((row[0], 0), (other[0], 0), d))
    assert _systems_changed() > 0


def test_multiple_test_at_a_large_modulus():
    # D = 10**6 + 3 (a prime) and 10**6: one congruence_coset per entry,
    # never a loop over D.
    rng = random.Random(1000003)
    start = time.perf_counter()
    for denom in (10**6 + 3, 10**6):
        for _ in range(200):
            a = (tuple(rng.randrange(denom) for _ in range(3)), rng.randrange(denom))
            k = rng.randrange(2, denom)
            b = (tuple(k * c % denom for c in a[0]), k * a[1] % denom)
            off = (b[0], (b[1] + 1) % denom)
            other = (tuple(rng.randrange(denom) for _ in range(3)), rng.randrange(denom))
            assert elim._without_multiples([a, b, other], denom) == [a, other]
            assert elim._multiple_of(b, a, denom) and not elim._multiple_of(off, a, denom)
    assert time.perf_counter() - start < 2.0


# --- the binder encoding, kept as the reference ----------------------------------


def _binder_pieces(plan: ComponentPlan, names: Sequence[str]):
    """What both binder encodings of a core read: its relations, its sign
    atoms, and its window over a witness name."""
    solution, bc = plan.solution, plan.bounds
    free_names = [names[i] for i in plan.rows[:-1]]

    def window(witness: str, lows, m: int) -> Formula:
        t = variable(witness)
        congruences = _congruences(plan.congruences, solution.denom, free_names, t)
        return _first_witness_window(lows, m * t, m * plan.coset_period, congruences)

    signs = conj([Le(constant(0), bc.row_terms[i]) for i in bc.sign_rows])
    return conj(plan.relations), signs, window


def _t1_encoding(
    plan: ComponentPlan, count: Term, names: Sequence[str], fresh: FreshNames
) -> tuple[list, Formula]:
    """A two-sided core's construction as it asked for a solution with a
    binder: the zero case ``!E t1 . W(t1)`` (no value fills the window),
    where the eliminator now emits the quantifier-free condition, and the
    relations wrapped around the core."""
    bc = plan.bounds
    relations, signs, window = _binder_pieces(plan, names)
    m = bc.multiplier
    lows = [bc.bound_term(i) for i in bc.lower_rows]
    highs = [bc.bound_term(j) for j in bc.upper_rows]
    t0, t1 = fresh.fresh("t"), fresh.fresh("t")
    progression = progression_count_formula(m * variable(t0), highs, m * plan.coset_period, count)
    found = conj([signs, window(t0, lows, m), progression])
    missing = disj([negate(signs), negate(Exists(t1, window(t1, lows, m)))])
    body = disj([found, conj([missing, Eq(count, constant(0))])])
    return [t0], disj([conj([relations, body]), conj([negate(relations), Eq(count, constant(0))])])


_GUARD_WITNESSES = itertools.count()


def _t1_guard(plan: ComponentPlan) -> Formula:
    """A one-sided core's guard as it asked for a coset member with a
    binder: ``!R | !(signs & E t . 0 <= t < D' & congruences)``, the
    congruences at t = 0 when D' = 1.  A point's guard is true.  The
    coordinates have their default names."""
    if plan.bounds is None:
        return fm.TRUE
    names = coordinate_names(plan.component.dimension)
    relations, signs, window = _binder_pieces(plan, names)
    if plan.coset_period == 1:
        free_names = [names[i] for i in plan.rows[:-1]]
        solvable = conj(_congruences(plan.congruences, plan.solution.denom, free_names, constant(0)))
    else:
        witness = f"_s{next(_GUARD_WITNESSES)}"  # elim binds no "_s" name
        solvable = Exists(witness, window(witness, [constant(0)], 1))
    return disj([negate(relations), negate(conj([signs, solvable]))])


def _cross_encoding_corpus():
    rng = random.Random(8191)
    for domain in (DomainTag.Z, DomainTag.N):
        for _ in range(40):
            yield rng, random_disjoint_presentation(rng, domain, max_dimension=4)
        for _ in range(20):
            yield rng, random_two_sided(rng, domain)[0]


def _assignments(rng, presentation, count):
    """``count`` random assignments, half of them at points of the set."""
    names = coordinate_names(presentation.dimension)
    for k in range(count):
        if k % 2:
            yield verify.random_assignment(rng, names[:-1], 12, presentation.domain)
        else:
            component = rng.choice(presentation.components)
            point = component.point_at([rng.randint(0, 3) for _ in component.periods])
            yield dict(zip(names, point[:-1]))


def test_same_count_values_as_the_binder_encoding(monkeypatch):
    compared = hits = binders_before = binders_after = 0
    for rng, presentation in _cross_encoding_corpus():
        result = eliminate(presentation, "y")
        with monkeypatch.context() as patched:
            patched.setattr(elim, "_case_interval", _t1_encoding)
            patched.setattr(elim, "_guard", _t1_guard)
            reference = eliminate(presentation, "y")
        binders_before += sum(isinstance(g, Exists) for g in fm.traverse(reference.formula)[0])
        binders_after += sum(isinstance(g, Exists) for g in fm.traverse(result.formula)[0])
        domain = presentation.domain
        program, reference_program = PinnedProgram(result.formula, domain), PinnedProgram(reference.formula, domain)
        names = coordinate_names(presentation.dimension)
        for assignment in _assignments(rng, presentation, 6):
            oracle = count_set_witnesses(presentation, assignment, names)
            tested = verify.tested_counts(rng, oracle.count, domain)
            got = program.count_values(assignment, "y", tested)
            assert got == reference_program.count_values(assignment, "y", tested), (presentation, assignment)
            for k in (oracle.count, oracle.count + 1):
                at_count = {**assignment, "y": k}
                assert program.evaluate(at_count) == reference_program.evaluate(at_count)
            compared += 1
            hits += bool(got) and got != [0]
    assert compared == 720 and hits > 150, (compared, hits)
    assert binders_after < binders_before, (binders_after, binders_before)


# --- mutations that the oracle must catch --------------------------------------------


def _component(base, periods, domain=DomainTag.Z):
    return SemilinearPresentation(
        components=(LinearSetPresentation(base, periods, domain),), asserted_disjoint=True, asserted_simple=True
    )


def _mutation_corpus():
    """The fixtures, d8_m2, two cores whose first pair condition the row
    conditions do not imply (in most cores they do), seeded draws, split
    unions with constant counts in every position and residue splits of
    the fixtures, which coalesce."""
    corpus = [
        parse_presentation((FIXTURES / name).read_text(encoding="utf-8"))
        for name in ("three_periods.sl", "natural.sl")
    ]
    corpus += [
        _component((2, 3, 0), ((1, 2, -1), (0, 1, -3), (0, 2, 2))),
        _component((-5, -5), ((-3, 0), (-3, -3))),
        _component((3, 0, -1), ((4, 2, 0), (6, 3, 2))),
    ]
    rng = random.Random(4111)
    for domain in (DomainTag.Z, DomainTag.N):
        corpus += [random_two_sided(rng, domain)[0] for _ in range(12)]
        corpus += [random_disjoint_presentation(rng, domain, max_dimension=4) for _ in range(12)]
    for domain in (DomainTag.Z, DomainTag.N):
        corpus += [random_split_union(rng, domain, constant) for constant in SPLIT_PATTERNS]
    for fixture, k, which in ((corpus[0], 2, 0), (corpus[1], 3, 1)):
        whole = fixture.components[0]
        classes = residue_classes(whole.base, whole.periods, k, which, whole.domain)
        corpus.append(SemilinearPresentation(tuple(classes), asserted_disjoint=True, asserted_simple=True))
    return corpus


def _drop_first_pair(original):
    def mutated(rows, denom):
        conditions = original(rows, denom)
        pair = next((k for k, (weights, _) in enumerate(conditions) if len(weights) == 2), None)
        return conditions if pair is None else conditions[:pair] + conditions[pair + 1:]

    return mutated


def _pair_modulus_without_gcd(original):
    def mutated(rows, denom):
        conditions = []
        for weights, modulus in original(rows, denom):
            if len(weights) == 2:
                modulus = 1
                for i in weights:
                    modulus *= gcd(rows[i][0][-1], denom)
            conditions.append((weights, modulus))
        return conditions

    return mutated


def _drop_row_conditions(original):
    return lambda rows, denom: [c for c in original(rows, denom) if len(c[0]) == 2]


def _window_one_step_wide(original):
    def mutated(lows, first, width, congruences):
        (step,) = first.coeffs.values()
        return original(lows, first, step, congruences)

    return mutated


def _rewrite_atoms(f: Formula, rewrite) -> Formula:
    """``f``, a tree of conjunctions and disjunctions over atoms, with each
    atom replaced by ``rewrite(atom)``."""
    if type(f) in (And, Or):
        return (conj if type(f) is And else disj)([_rewrite_atoms(p, rewrite) for p in f.parts])
    return rewrite(f)


def _count_atom_becomes(atom_of, truth):
    """The progression count with its atom ``atom_of(count)`` replaced by
    ``truth``."""
    def mutate(original):
        def mutated(first, his, step, count, *rest):
            atom = atom_of(count)
            return _rewrite_atoms(original(first, his, step, count, *rest), lambda a: truth if a == atom else a)

        return mutated

    return mutate


def _pins_without_strict_atom(original):
    """Each floor pair without its strict atom ``hi - first < step*u``, the
    only atom reading the count term ``u`` on its greater side."""
    def mutated(first, his, step, count, *rest):
        return _rewrite_atoms(
            original(first, his, step, count, *rest),
            lambda a: fm.TRUE if type(a) is Lt and a.rhs.coeffs.keys() & count.coeffs.keys() else a,
        )

    return mutated


def _last_count_without_the_parts(original):
    """The last component with a count counted by y itself, not by y less
    the constant counts and the other parts."""
    def mutated(plan, count, *args):
        return original(plan, variable("y") if "y" in count.coeffs else count, *args)

    return mutated


def _zero_case_keeps_one_member(original):
    """A group's zero case without the negation of its first member's
    condition, so the count of the group may be 0 where that member holds."""
    def mutated(members, count):
        built = original(members, count)
        if len(members) < 2:
            return built
        found, zero = built.parts
        return fm.disj([found, fm.conj(zero.parts[1:])])

    return mutated


def _first_witness_one_period_later(original):
    """The first witness term one coset period above the window's member."""
    def mutated(plan, free_names):
        first = original(plan, free_names)
        return None if first is None else first + plan.coset_period

    return mutated


MUTATIONS = {
    "drop one pair condition": ("_coset_conditions", _drop_first_pair),
    "pair modulus g_i*g_j without G": ("_coset_conditions", _pair_modulus_without_gcd),
    "drop the row conditions": ("_coset_conditions", _drop_row_conditions),
    "drop the N disjunct h < 0": ("_negative_upper_terms", lambda original: lambda highs: []),
    "window one step wide": ("_first_witness_window", _window_one_step_wide),
    "the count without 0 <= u": (
        "progression_count_formula", _count_atom_becomes(lambda u: elim._atom(Le, constant(0), u), fm.TRUE)
    ),
    "no u = 0 disjunct": (
        "progression_count_formula", _count_atom_becomes(lambda u: elim._atom(Eq, u, constant(0)), fm.FALSE)
    ),
    "pins without their strict atom": ("progression_count_formula", _pins_without_strict_atom),
    "no row relations": ("_row_equations", lambda original: lambda *args: []),
    "the last count is y without the other parts": ("_case_single", _last_count_without_the_parts),
    "a constant component's guard is dropped": ("_guard", lambda original: lambda plan: fm.TRUE),
    "a constant count's offset is off by one": (
        "_constant_count", lambda original: lambda plan: None if original(plan) is None else original(plan) + 1
    ),
    "a row is dropped that no other row implies": ("_multiple_of", lambda original: lambda *args: True),
    "a group's zero case keeps one member": ("_case_single", _zero_case_keeps_one_member),
    "the first witness term one coset period late": ("_first_witness_term", _first_witness_one_period_later),
    "a residue split merges without its last class": (
        "_chain", lambda original: lambda bases, b, step, k: original(bases, b, step, k - 1)
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught_by_the_oracle(monkeypatch, name):
    attribute, mutate = MUTATIONS[name]
    monkeypatch.setattr(elim, attribute, mutate(getattr(elim, attribute)))
    mismatches = 0
    for index, presentation in enumerate(_mutation_corpus()):
        outcome = run_check(presentation, trials=15, box_radius=12, seed=index)
        mismatches += outcome.mismatches + outcome.unstable_bad
    assert mismatches > 0, name


def test_window_without_congruences_is_caught(monkeypatch):
    # Without its congruences a window of width m*D' > m leaves the first
    # witness several values, which the pinned evaluator refuses to pick.
    window = elim._first_witness_window
    monkeypatch.setattr(elim, "_first_witness_window", lambda lows, first, width, _: window(lows, first, width, []))
    with pytest.raises(PinnedEvaluationError):
        for index, presentation in enumerate(_mutation_corpus()):
            run_check(presentation, trials=15, box_radius=12, seed=index)


def test_unmutated_corpus_passes():
    for index, presentation in enumerate(_mutation_corpus()):
        outcome = run_check(presentation, trials=15, box_radius=12, seed=index)
        assert (outcome.mismatches, outcome.unstable_bad) == (0, 0), presentation


def _divided_in_place(kind, lhs, rhs):
    """``lhs kind rhs`` divided by the gcd of its coefficients, as
    :func:`countqe.elim._atom` divides it, but with each side keeping its
    names: ``L + a <= R + b`` becomes ``L/g <= R/g + floor((b - a)/g)``, and
    ``<`` rounds up instead."""
    g = gcd(*lhs.coeffs.values(), *rhs.coeffs.values())
    if g < 2:
        return kind(lhs, rhs)
    gap = rhs.constant - lhs.constant
    k = -(-gap // g) if kind is Lt else gap // g
    left = Term(max(-k, 0), {n: c // g for n, c in lhs.coeffs.items()})
    right = Term(max(k, 0), {n: c // g for n, c in rhs.coeffs.items()})
    return kind(left, right)


def test_skipping_the_normal_form_is_caught(monkeypatch):
    # The normal form keeps every atom's truth value, so the oracle cannot
    # see it skipped; the structural check does, over Z and over N.
    monkeypatch.setattr(elim, "_atom", _divided_in_place)
    for domain in (DomainTag.Z, DomainTag.N):
        corpus = [p for p in _mutation_corpus() if p.domain is domain]
        assert not all(is_subtraction_free(eliminate(p, "y").formula) for p in corpus), domain
