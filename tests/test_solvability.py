"""The quantifier-free solvability condition of a core's congruences.

A core's congruences ``lam_i*t = c_i(x) (mod D)`` have a common solution t
exactly where the atoms of :func:`countqe.elim._solvability` hold.  The
tests here check that condition by brute force over t, check the eliminated
formulas against the encoding that asked it with a binder (a window witness
``t1`` in a two-sided core's zero case, a coset witness in a one-sided core),
and keep a fixed list of mutations of the construction that the oracle must
catch.
"""

import random
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
    is_subtraction_free,
    normalize_for_nat,
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
    conj,
    constant,
    disj,
    negate,
    variable,
)
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation, coordinate_names
from countqe.textio import parse_presentation
from countqe.verify import PinnedEvaluationError, PinnedProgram, count_set_witnesses, run_check
from helpers import random_disjoint_presentation
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


# --- the binder encoding, kept as the reference ----------------------------------


def _t1_encoding(
    plan: ComponentPlan, count_var: str, names: Sequence[str], fresh: FreshNames
) -> tuple[list, Formula]:
    """A core's construction as it asked for a solution with a binder: the
    zero case ``!E t1 . W(t1)`` (no value fills the window) and the
    one-sided ``E t . 0 <= t < D' & congruences``, where the eliminator now
    emits the quantifier-free condition."""
    presentation, solution, bc = plan.component, plan.solution, plan.bounds
    piece = normalize_for_nat if presentation.domain is DomainTag.N else lambda f: f
    relations = piece(conj(plan.relations))
    free_names = [names[i] for i in plan.rows[:-1]]
    period = plan.coset_period

    def window(witness: str, lows, m: int) -> Formula:
        t = variable(witness)
        congruences = _congruences(plan.congruences, solution.denom, free_names, t)
        return piece(_first_witness_window(lows, m * t, m * period, congruences))

    def has_witness(lows, m: int) -> Formula:
        t = fresh.fresh("t")
        return Exists(t, window(t, lows, m))

    signs = piece(conj([Le(constant(0), bc.row_terms[i]) for i in bc.sign_rows]))
    y = variable(count_var)
    if not bc.upper_rows or not bc.lower_rows:
        congruences = conj(_congruences(plan.congruences, solution.denom, free_names, constant(0)))
        solvable = congruences if period == 1 else has_witness([constant(0)], 1)
        prefix, body = [], conj([negate(conj([signs, solvable])), Eq(constant(0), y)])
    else:
        m = bc.multiplier
        lows = [bc.bound_term(i) for i in bc.lower_rows]
        highs = [bc.bound_term(j) for j in bc.upper_rows]
        t0 = fresh.fresh("t")
        count = piece(progression_count_formula(m * variable(t0), highs, m * period, count_var))
        found = conj([signs, window(t0, lows, m), count])
        missing = disj([negate(signs), negate(has_witness(lows, m))])
        prefix, body = [t0], disj([found, conj([missing, Eq(y, constant(0))])])
    if not isinstance(relations, fm.TrueF):
        body = disj([conj([relations, body]), conj([negate(relations), Eq(y, constant(0))])])
    return prefix, body


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
    conditions do not imply (in most cores they do) and seeded draws."""
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


def _count_at_most_zero(original):
    """The zero count ``u = 0`` weakened to ``u <= 0``, which also holds at
    negative counts."""
    def mutated(first, his, step, count_var):
        u = variable(count_var)
        zero = Eq(u, constant(0))
        return _rewrite_atoms(
            original(first, his, step, count_var), lambda a: Le(u, constant(0)) if a == zero else a
        )

    return mutated


def _pins_without_strict_atom(original):
    """Each floor pair without its strict atom ``hi - first < step*u``, the
    only atom reading the count ``u`` on its greater side."""
    def mutated(first, his, step, count_var):
        return _rewrite_atoms(
            original(first, his, step, count_var),
            lambda a: fm.TRUE if type(a) is Lt and count_var in a.rhs.coeffs else a,
        )

    return mutated


MUTATIONS = {
    "drop one pair condition": ("_coset_conditions", _drop_first_pair),
    "pair modulus g_i*g_j without G": ("_coset_conditions", _pair_modulus_without_gcd),
    "drop the row conditions": ("_coset_conditions", _drop_row_conditions),
    "drop the N disjunct h < 0": ("_negative_upper_terms", lambda original: lambda highs: []),
    "window one step wide": ("_first_witness_window", _window_one_step_wide),
    "count u <= 0 for u = 0": ("progression_count_formula", _count_at_most_zero),
    "pins without their strict atom": ("progression_count_formula", _pins_without_strict_atom),
    "no row relations": ("_row_equations", lambda original: lambda *args: []),
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


def test_skipping_the_nat_normalisation_is_caught(monkeypatch):
    # Normalising keeps every atom's truth value, so the oracle cannot see
    # it skipped; the structural check over N does.
    monkeypatch.setattr(elim, "normalize_for_nat", lambda f: f)
    natural = [p for p in _mutation_corpus() if p.domain is DomainTag.N]
    assert not all(is_subtraction_free(eliminate(p, "y").formula) for p in natural)
