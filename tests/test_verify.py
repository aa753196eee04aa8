import dataclasses
import random
import sys
import time
from math import factorial
from pathlib import Path
from typing import Mapping, Optional, Sequence

import pytest

import countqe.elim
import countqe.formula as fm
from countqe import verify
from countqe.elim import (
    eliminate,
    estimate_result_nodes,
    normalize_for_nat,
    plan_elimination,
    progression_count_formula,
)
from countqe.errors import DegenerateInputError, DimensionError, UnboundVariableError, UnsupportedPresentationError
from countqe.formula import (
    FALSE,
    And,
    Cong,
    CountEq,
    Eq,
    Exists,
    Forall,
    Formula,
    Le,
    Lt,
    Not,
    Or,
    conj,
    constant,
    disj,
    evaluate,
    free_vars,
    traverse,
    variable,
)
from countqe.sets import (
    DomainTag,
    LinearSetPresentation,
    MembershipTester,
    Progression,
    SemilinearPresentation,
    coordinate_names,
)
from countqe.textio import parse_formula, parse_presentation
import helpers
from helpers import count_in_progression, random_ast, random_disjoint_presentation, solve_unique
from countqe.verify import (
    PinnedEvaluationError,
    PinnedProgram,
    count_set_witnesses,
    run_check,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from test_nat_two_sided import random_two_sided  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"

THREE_PERIOD_SET = LinearSetPresentation(
    base=(0, 0, 0, 0),
    periods=((1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1)),
)


def union(*components, domain=DomainTag.Z):
    return SemilinearPresentation(
        components=components, asserted_disjoint=True, asserted_simple=True
    )


def brute_count(presentation, assignment, lo=-200, hi=200):
    from countqe.sets import MembershipTester, coordinate_names

    testers = [MembershipTester(c) for c in presentation.components]
    names = coordinate_names(presentation.dimension)
    values = [assignment[n] for n in names[:-1]]
    return sum(
        1
        for v in range(lo, hi + 1)
        if any(t.contains(values + [v]) for t in testers)
    )


# --- the evaluator this module's differential test compares against ----------
#
# The search-based evaluator that decided eliminated formulas before
# PinnedProgram: formula_count_values folded the assignment in with
# helpers.simplify on every trial, then tried the forced values of each
# binder in turn and sent atoms-only blocks to helpers.solve_unique.  For
# first-witness binders and floor pairs it also tries, one by one, every
# point of a window that the order atoms of a conjunction bound on both
# sides; it solves no congruence.


def _reference_candidate_values(var: str, f: Formula, env: Mapping[str, int]) -> set:
    """Values of ``var`` that some equation of ``f`` outside a binder of
    ``var`` forces, given the other variables' values in ``env``."""
    out = set()
    for g, scope in zip(*fm.traverse(f)):
        if not isinstance(g, Eq) or (var not in g.lhs.coeffs and var not in g.rhs.coeffs):
            continue
        combined = g.lhs - g.rhs
        c = combined.coeffs.get(var)
        others = [name for name in combined.coeffs if name != var]
        if c and all(name in env for name in others) and var not in fm.bound_names(scope):
            total = combined.constant + sum(combined.coeffs[n] * env[n] for n in others)
            if total % c == 0:
                out.add(-(total // c))
    return out


def _reference_window_values(var: str, f: Formula, env: Mapping[str, int]) -> set:
    """Every point of each window that the order atoms of a conjunction of
    ``f`` outside a binder of ``var`` leave it, the other variables' values
    given in ``env``."""
    out = set()
    for g, scope in zip(*fm.traverse(f)):
        if not isinstance(g, And) or var in fm.bound_names(scope):
            continue
        lo = hi = None
        for atom in g.parts:
            if not isinstance(atom, (Le, Lt)):
                continue
            combined = atom.lhs - atom.rhs
            c = combined.coeffs.get(var)
            others = [name for name in combined.coeffs if name != var]
            if not c or any(name not in env for name in others):
                continue
            # c*var <= bound
            bound = -combined.constant - sum(combined.coeffs[n] * env[n] for n in others)
            bound -= isinstance(atom, Lt)
            if c > 0:
                hi = bound // c if hi is None else min(hi, bound // c)
            else:
                lo = -(bound // -c) if lo is None else max(lo, -(bound // -c))
        if lo is not None and hi is not None:
            out.update(range(lo, hi + 1))
    return out


def _reference_atoms_only(f: Formula) -> Optional[list]:
    """The atom list when the formula is a conjunction of atoms, else None."""
    parts = f.parts if isinstance(f, And) else (f,)
    return None if any(p.children for p in parts) else list(parts)


def _reference_solve_linear_block(
    chain: Sequence[str], atoms: Sequence[Formula], env: dict, domain
) -> bool:
    occurring = {name for atom in atoms for t in atom.terms for name in t.coeffs}
    unknowns = [v for v in chain if v not in env and v in occurring]
    # Chain variables absent from every atom are unconstrained; zero works
    # in either domain.
    env = {**env, **{v: 0 for v in chain if v not in env and v not in occurring}}
    if not unknowns:
        return all(fm.evaluate_atom(atom, env) for atom in atoms)
    index = {name: i for i, name in enumerate(unknowns)}
    rows = []
    rhs = []
    for atom in atoms:
        if not isinstance(atom, Eq):
            continue
        combined = atom.lhs - atom.rhs
        row = [0] * len(unknowns)
        total = combined.constant
        for name, coef in combined.coeffs.items():
            if name in env:
                total += coef * env[name]
            elif name in index:
                row[index[name]] = coef
            else:
                raise UnboundVariableError(f"no value for variable {name!r}")
        rows.append(row)
        rhs.append(-total)
    if not rows:
        raise PinnedEvaluationError("existential block without equations")
    try:
        solution = solve_unique(rows, rhs)
    except DegenerateInputError as exc:
        raise PinnedEvaluationError("existential block is underdetermined") from exc
    if solution is None:
        return False
    values = {}
    for name, value in zip(unknowns, solution):
        if value.denominator != 1:
            return False
        concrete = int(value)
        if domain is DomainTag.N and concrete < 0:
            return False
        values[name] = concrete
    extended = {**env, **values}
    return all(fm.evaluate_atom(atom, extended) for atom in atoms)


def _reference_vacuous_binders(f: Formula) -> set:
    """The ids of the ``Exists`` nodes of ``f`` whose variable is not free
    in their body, from one traversal: every name an atom reads is resolved
    to the scope of its innermost binder, and a binder no name resolves to
    is vacuous."""
    nodes, scopes = fm.traverse(f)
    used = set()
    last, owners = (), {}
    for g, scope in zip(nodes, scopes):
        names = [name for t in g.terms for name in t.coeffs]
        names.extend(g.refs)
        if not names:
            continue
        if scope is not last:
            last, owners, inner = scope, {}, scope
            while inner is not None:
                for name in inner[0]:
                    owners.setdefault(name, id(inner))
                inner = inner[1]
        used.update(owners[name] for name in names if name in owners)
    # traverse lists a node with children directly before its last child,
    # whose scope is the one the node opens
    return {
        id(g) for k, g in enumerate(nodes) if type(g) is Exists and id(scopes[k + 1]) not in used
    }


def _reference_eval_pinned(f: Formula, env: dict, domain, vacuous: set) -> bool:
    tf = type(f)
    if not f.children:
        return fm.evaluate_atom(f, env)
    if tf is And:
        return all(_reference_eval_pinned(p, env, domain, vacuous) for p in f.parts)
    if tf is Or:
        return any(_reference_eval_pinned(p, env, domain, vacuous) for p in f.parts)
    if tf is Not:
        return not _reference_eval_pinned(f.body, env, domain, vacuous)
    if tf is Exists:
        if id(f) in vacuous:
            return _reference_eval_pinned(f.body, env, domain, vacuous)
        chain = [f.var]
        inner = f.body
        while isinstance(inner, Exists):
            chain.append(inner.var)
            inner = inner.body
        atoms = _reference_atoms_only(inner)
        equations = atoms is not None and any(isinstance(atom, Eq) for atom in atoms)
        if equations and any(v not in env for v in chain):
            return _reference_solve_linear_block(chain, atoms, env, domain)
        candidates = _reference_candidate_values(f.var, f.body, env)
        candidates |= _reference_window_values(f.var, f.body, env)
        candidates.add(0)
        for value in sorted(candidates):
            if domain is DomainTag.N and value < 0:
                continue
            env[f.var] = value
            if _reference_eval_pinned(f.body, env, domain, vacuous):
                del env[f.var]
                return True
        env.pop(f.var, None)
        return False
    if tf is Forall or tf is CountEq:
        raise PinnedEvaluationError(f"unsupported quantifier in pinned evaluation: {tf.__name__}")
    raise TypeError(f"not a formula: {f!r}")


def _reference_estimate_result_nodes(presentation):
    """The node estimate that sized the step**2 count, and so drew the random
    part of the differential corpus: a two-sided core counted all denom**p
    residue cases, each with one branch per ordering of each bound family,
    and ``8*step**2 + 6*step + 16`` nodes per progression."""
    plan = plan_elimination(presentation)
    total = estimate_result_nodes(plan)
    for c, report in zip(plan.components, plan.result.report.components):
        bc = c.bounds
        if bc is not None and bc.upper_rows and bc.lower_rows:  # a two-sided core
            branches = factorial(len(bc.upper_rows)) * factorial(len(bc.lower_rows))
            denom, p = c.solution.denom, c.solution.size
            step = bc.multiplier * denom
            branch = 8 * step * step + 6 * step + 16 + 4 * p + 8
            total += denom**p * (branches * branch + 12) - report.nodes
    return total


def _reference_count_values(result, assignment, candidates, domain):
    residual = helpers.simplify(result.formula, assignment)
    vacuous = _reference_vacuous_binders(residual)
    hits = []
    for k in candidates:
        if domain is DomainTag.N and k < 0:
            continue
        env = {result.count_var: k}
        if _reference_eval_pinned(residual, env, domain, vacuous):
            hits.append(k)
    return hits


class TestEvaluatePinned:
    def test_matches_naive_on_small_eliminations(self):
        rng = random.Random(3)
        produced = 0
        while produced < 25:
            n = rng.randint(1, 2)
            p = rng.randint(0, n)
            periods = tuple(
                tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(p)
            )
            comp = LinearSetPresentation(
                base=tuple(rng.randint(-2, 2) for _ in range(n)), periods=periods
            )
            from countqe.sets import check_simple

            if not check_simple(comp):
                continue
            result = eliminate(union(comp), "y")
            produced += 1
            names = [f"x{i+1}" for i in range(n - 1)]
            for _ in range(6):
                asg = {name: rng.randint(-3, 3) for name in names}
                for k in range(0, 5):
                    naive = evaluate(
                        result.formula, asg | {"y": k}, quant_bound=7
                    )
                    pinned = PinnedProgram(result.formula).evaluate(asg | {"y": k})
                    assert naive == pinned, (comp, asg, k)

    def test_solves_membership_blocks(self):
        result = eliminate(
            union(LinearSetPresentation(base=(1, 4), periods=((1, 2),))), "y"
        )
        # the one-witness case: x2 = 4 + 2*(x1 - 1) when x1 >= 1
        assert PinnedProgram(result.formula).evaluate({"x1": 3, "y": 1}) is True
        assert PinnedProgram(result.formula).evaluate({"x1": 3, "y": 0}) is False
        assert PinnedProgram(result.formula).evaluate({"x1": 0, "y": 0}) is True

    def test_rejects_unpinned_shapes(self):
        from countqe.formula import Exists, Le

        loose = Exists("v", Le(variable("v"), constant(3)))
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(loose).evaluate({})

    def test_large_pinned_block(self):
        # The shape of a half-line elimination once the free coordinates are
        # folded in: n unknowns, each pinned by a unit equation, and one row
        # summing them into the count.
        n = 120
        names = [f"_c{i}" for i in range(n)]
        unknowns = [variable(c) for c in names]
        values = [i % 7 for i in range(n)]

        def block(pins):
            atoms = [Le(constant(0), c) for c in unknowns] + pins
            atoms.append(Eq(sum(unknowns, constant(0)), variable("y")))
            body = And(tuple(atoms))
            for c in reversed(names):
                body = Exists(c, body)
            return body

        pins = [Eq(c, constant(v)) for c, v in zip(unknowns, values)]
        pinned = block(pins)
        assert PinnedProgram(pinned).evaluate({"y": sum(values)}) is True
        assert PinnedProgram(pinned).evaluate({"y": sum(values) + 1}) is False
        # Pin _c5 to 7/2 and _c6 to 1/2: the sum stays integral, so at this
        # count the block has a unique rational solution, but no integer one.
        pins[5] = Eq(2 * unknowns[5], constant(7))
        pins[6] = Eq(2 * unknowns[6], constant(1))
        rest = sum(values) - values[5] - values[6]
        assert PinnedProgram(block(pins)).evaluate({"y": rest + 4}) is False

    def test_free_name_masks_match_free_vars(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(400):
            f = random_ast(rng, rng.randint(1, 6))
            program = PinnedProgram(f)
            for g in traverse(f)[0]:
                assert program.free_names(g) == free_vars(g), g
                if type(g) is Exists:
                    seen.add(g.var in free_vars(g.body))
        assert seen == {True, False}

    def test_5000_vacuous_binders(self):
        body = Eq(variable("y"), constant(0))
        for i in range(5000):
            body = Exists(f"_c{i}", body)
        assert PinnedProgram(body).evaluate({"y": 0}) is True
        assert PinnedProgram(body).evaluate({"y": 1}) is False

    def test_2000_auxiliaries_pinned_by_choices(self):
        # Each auxiliary u_i is pinned by its own (g_i & u_i = k_i) | (!g_i &
        # u_i = 0): 2000 nested splits, which must not recurse.
        n = 2000
        names = [f"u{i}" for i in range(n)]
        parts = []
        for i, name in enumerate(names):
            guard = Le(variable("x"), constant(i % 50))
            u = variable(name)
            parts.append(
                Or((And((guard, Eq(u, constant(i % 3)))), And((Not(guard), Eq(u, constant(0))))))
            )
        parts.append(Eq(sum((variable(name) for name in names), constant(0)), variable("y")))
        body = And(tuple(parts))
        for name in reversed(names):
            body = Exists(name, body)
        x = 20
        total = sum(i % 3 for i in range(n) if x <= i % 50)
        program = PinnedProgram(body)
        assert program.count_values({"x": x}, "y", [total - 1, total, total + 1]) == [total]

    def test_memo_is_keyed_by_the_values_read(self):
        # The value of u depends on the count y, and the verdict of the inner
        # chain on u; a memo that ignored the values the chain reads would
        # reuse the first count's.
        x, y, u, w = map(variable, "xyuw")
        choice = Or((And((Le(x, y), Eq(u, y))), And((Lt(y, x), Eq(u, constant(0))))))
        inner = Exists("w", And((Eq(w, u + 1), Le(w, constant(3)))))
        f = Exists("u", And((choice, inner)))
        assert PinnedProgram(f).count_values({"x": 1}, "y", range(6)) == [0, 1, 2]

    def test_equation_defines_before_a_choice(self):
        # The equation pins u = 3 before the disjunction is split; then only
        # its disjunct x = 1 can hold.
        u = variable("u")
        either = Or((Eq(variable("x"), constant(1)), Eq(u, constant(5))))
        f = Exists("u", And((either, Eq(u, constant(3)))))
        assert PinnedProgram(f).evaluate({"x": 1}) is True
        assert PinnedProgram(f).evaluate({"x": 2}) is False

    def test_binder_over_an_assigned_name(self):
        # E x shadows the assigned x; after the chain the outer value is back.
        f = And((Exists("x", Eq(variable("x"), constant(5))), Eq(variable("x"), constant(3))))
        assignment = {"x": 3}
        assert PinnedProgram(f).evaluate(assignment) is True
        assert PinnedProgram(f).evaluate({"x": 5}) is False
        assert assignment == {"x": 3}

    def test_rejects_other_quantifiers(self):
        atom = Le(variable("v"), constant(3))
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(Forall("v", atom)).evaluate({})
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(CountEq("v", "y", atom)).evaluate({"y": 1})

    @pytest.mark.parametrize(
        "quantified",
        [
            Forall("v", Le(variable("v"), variable("y"))),  # reads the count
            Forall("v", Le(variable("v"), variable("x"))),
            CountEq("v", "y", Le(variable("v"), constant(3))),  # reads the count
            CountEq("v", "x", Le(variable("v"), constant(3))),
        ],
    )
    def test_count_values_rejects_other_quantifiers(self, quantified):
        f = And((Le(variable("y"), constant(3)), quantified))
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(f).count_values({"x": 1}, "y", range(3))

    def test_underdetermined_block(self):
        # Equations that each read several undefined names are not solved
        # jointly: determined or not, the chain raises, over Z and over N.
        u, w = variable("u"), variable("w")
        underdetermined = (Eq(u + w, constant(3)), Eq(2 * u + 2 * w, constant(6)))
        determined = (Eq(u + w, constant(3)), Eq(u - w, constant(1)))
        for equations in (underdetermined, determined):
            f = Exists("u", Exists("w", And(equations)))
            for domain in (DomainTag.Z, DomainTag.N):
                with pytest.raises(PinnedEvaluationError, match="no step pins"):
                    PinnedProgram(f, domain).evaluate({})
        # One equation pinning u first leaves a definition for w.
        staged = Exists("u", Exists("w", And((Eq(u, constant(2)), Eq(u - w, constant(1))))))
        assert PinnedProgram(staged).evaluate({}) is True

    def test_natural_domain_respects_nonnegativity(self):
        comp = LinearSetPresentation(base=(2,), periods=(), domain=DomainTag.N)
        result = eliminate(union(comp), "y")
        assert PinnedProgram(result.formula, DomainTag.N).evaluate({"y": 1}) is True


def _differential_corpus():
    """(label, presentation, trials): the fixtures, every presentation of the
    three benchmark workloads (sweep seed 7) and 200 seeded random draws."""
    for path in sorted(FIXTURES.glob("*.sl")):
        yield "fixture", parse_presentation(path.read_text(encoding="utf-8")), 3
    for name in workloads.WORKLOADS:
        for item in workloads.make_workload(name, 7).presentations:
            yield name, parse_presentation(item.text), 2 if name != "sweep" else 3
    rng = random.Random(61)
    for domain in (DomainTag.Z, DomainTag.N):
        for _ in range(100):
            yield "random", random_disjoint_presentation(rng, domain), 3


def _kind(report):
    if report.case == "single-witness":
        return "single-witness"
    return "two-sided" if report.upper_rows and report.lower_rows else "one-sided"


class TestAgainstReferenceEvaluator:
    def test_same_count_values_on_seeded_eliminations(self, monkeypatch):
        # The corpus is drawn with the estimate of the step**2 count.
        monkeypatch.setattr(helpers, "estimate_result_nodes", _reference_estimate_result_nodes)
        rng = random.Random(5)
        kinds = {}
        compared = hits = 0
        for label, presentation, trials in _differential_corpus():
            try:
                result = eliminate(presentation, "y")
            except UnsupportedPresentationError:
                assert label == "fixture"  # nonsimple.sl
                continue
            for report in result.report.components:
                kinds.setdefault(_kind(report), set()).add(label)
            names = coordinate_names(presentation.dimension)
            domain = presentation.domain
            for _ in range(trials):
                assignment = verify.random_assignment(rng, names[:-1], 40, domain)
                oracle = count_set_witnesses(presentation, assignment, names)
                tested = verify.tested_counts(rng, oracle.count)
                got = PinnedProgram(result.formula, domain).count_values(assignment, "y", tested)
                expected = _reference_count_values(result, assignment, tested, domain)
                assert got == expected, (label, presentation, assignment)
                compared += 1
                hits += bool(got)
        assert compared > 700 and 0 < hits < compared
        assert set(kinds) == {"single-witness", "one-sided", "two-sided"}
        assert all("random" in labels for labels in kinds.values()), kinds


def _permuted(presentation, order, perm):
    """The components in ``order``, the non-counted coordinates permuted:
    new coordinate j is old coordinate ``perm[j]``; the counted one stays
    last."""

    def move(vec):
        return tuple(vec[i] for i in perm) + (vec[-1],)

    components = tuple(
        LinearSetPresentation(move(c.base), tuple(move(p) for p in c.periods), c.domain)
        for c in (presentation.components[i] for i in order)
    )
    return SemilinearPresentation(components, asserted_disjoint=True, asserted_simple=True)


class TestMetamorphic:
    def test_reordering_and_renaming_keep_the_count_values(self):
        rng = random.Random(67)
        corpus = [parse_presentation(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.sl"))]
        for domain in (DomainTag.Z, DomainTag.N):
            corpus += [random_disjoint_presentation(rng, domain, max_dimension=4) for _ in range(40)]
        moved = hits = 0
        for presentation in corpus:
            try:
                result = eliminate(presentation, "y")
            except UnsupportedPresentationError:
                continue  # nonsimple.sl
            n, k = presentation.dimension, len(presentation.components)
            order, perm = list(range(k))[::-1], rng.sample(range(n - 1), n - 1)
            other = eliminate(_permuted(presentation, order, perm), "y")
            moved += k > 1 or perm != sorted(perm)
            names = coordinate_names(n)
            for _ in range(5):
                assignment = verify.random_assignment(rng, names[:-1], 20, presentation.domain)
                renamed = {names[j]: assignment[names[i]] for j, i in enumerate(perm)}
                tested = range(12)
                domain = presentation.domain
                got = PinnedProgram(result.formula, domain).count_values(assignment, "y", tested)
                assert PinnedProgram(other.formula, domain).count_values(renamed, "y", tested) == got, (
                    presentation,
                    order,
                    perm,
                    assignment,
                )
                hits += bool(got) and got != [0]
        assert moved >= 40 and hits >= 40, (moved, hits)


def _chosen(name, g):
    """``E name . ((g | false) & (name <= y & y <= name | false))``: the
    chain splits on both disjunctions, as it splits on the eliminator's
    branch counts.  The disjunctions keep a conjunction ``g`` from being
    flattened into the chain, and keep the window ``name <= y & y <= name``,
    which leaves one value, out of the chain's first plan: ``g`` is planned
    first, and the second disjunction pins ``name`` only where ``g`` leaves
    no equation and no single-value window."""
    v, y = variable(name), variable("y")
    return Exists(name, And((Or((g, FALSE)), Or((And((Le(v, y), Le(y, v))), FALSE)))))


class TestFloorPairPin:
    def test_progression_counts_over_z(self):
        rng = random.Random(53)
        shapes = {"step>=40": 0, "empty": 0, "one point": 0, "negative": 0}
        for draw in range(240):
            step = 40 if draw % 12 == 0 else rng.randint(1, 50)
            lo = rng.randint(-60, 60)
            hi = lo + rng.choice((-rng.randint(1, 5), 0, rng.randint(1, 120)))
            f = progression_count_formula(variable("a"), [variable("b")], step, "u")
            expected = count_in_progression(lo, hi, lo, step)
            got = PinnedProgram(_chosen("u", f)).count_values({"a": lo, "b": hi}, "y", range(-2, expected + 4))
            assert got == [expected], (step, lo, hi)
            shapes["step>=40"] += step >= 40
            shapes["empty"] += hi < lo
            shapes["one point"] += hi == lo
            shapes["negative"] += hi < 0
        assert min(shapes.values()) >= 10, shapes

    def test_progression_counts_over_n(self):
        # From y1 - y2 to z2 - z1, normalised: the first term may be negative.
        rng = random.Random(59)
        shapes = {"step>=40": 0, "empty": 0, "one point": 0, "negative first": 0}
        for draw in range(240):
            step = 40 if draw % 12 == 0 else rng.randint(1, 50)
            y1, y2, z1 = (rng.randint(0, 60) for _ in range(3))
            first = y1 - y2
            z2 = z1 + first + rng.choice((-rng.randint(1, 5), 0, rng.randint(1, 120)))
            if z2 < 0:
                z1, z2 = z1 - z2, 0
            y1v, y2v, z1v, z2v = map(variable, ("y1", "y2", "z1", "z2"))
            f = normalize_for_nat(progression_count_formula(y1v - y2v, [z2v - z1v], step, "u"))
            expected = count_in_progression(first, z2 - z1, first, step)
            program = PinnedProgram(_chosen("u", f), DomainTag.N)
            got = program.count_values({"y1": y1, "y2": y2, "z1": z1, "z2": z2}, "y", range(expected + 4))
            assert got == [expected], (step, y1, y2, z1, z2)
            shapes["step>=40"] += step >= 40
            shapes["empty"] += z2 - z1 < first
            shapes["one point"] += z2 - z1 == first
            shapes["negative first"] += first < 0
        assert min(shapes.values()) >= 10, shapes

    def test_floor_pair_pins_and_empty_window_fails(self):
        x, u = variable("x"), variable("u")
        # 2u <= x + 2 and x < 2u: u = floor(x/2) + 1
        pair = And((Le(2 * u, x + 2), Lt(x, 2 * u)))
        assert PinnedProgram(_chosen("u", pair)).count_values({"x": 5}, "y", range(-4, 8)) == [3]
        # x - 1 < 2u <= x leaves no integer when x is odd
        odd = And((Le(2 * u, x), Lt(x - 1, 2 * u)))
        assert PinnedProgram(_chosen("u", odd)).evaluate({"x": 5, "y": 2}) is False
        assert PinnedProgram(_chosen("u", odd)).evaluate({"x": 6, "y": 3}) is True

    def test_window_of_two_integers_is_rejected(self):
        x, u = variable("x"), variable("u")
        wide = Or((And((Le(x, 2 * u), Le(2 * u, x + 3))), And((Lt(x, constant(0)), Eq(u, constant(0))))))
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(Exists("u", wide)).evaluate({"x": 4})
        # Beside u <= y & y <= u, which pins u = y, the formula decides.
        assert PinnedProgram(_chosen("u", wide)).evaluate({"x": 4, "y": 2}) is True
        assert evaluate(_chosen("u", wide), {"x": 4, "y": 2}, quant_bound=8) is True

    def test_one_sided_bound_is_rejected(self):
        x, u = variable("x"), variable("u")
        below = And((Le(x, 2 * u), Cong(x, 0, 2)))
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(Exists("u", below)).evaluate({"x": 4})
        assert PinnedProgram(_chosen("u", below)).evaluate({"x": 4, "y": 2}) is True
        assert evaluate(_chosen("u", below), {"x": 4, "y": 2}, quant_bound=8) is True

    def test_floor_pair_in_a_chain_body(self):
        # The chain body's order atoms bound u on both sides: a window step
        # pins u = floor(x/2) + 1, which y <= u <= y then checks.
        x, u, y = variable("x"), variable("u"), variable("y")
        f = Exists("u", And((Le(2 * u, x + 2), Lt(x, 2 * u), Le(u, y), Le(y, u))))
        program = PinnedProgram(f)
        for value in range(-3, 5):
            assert program.count_values({"x": value}, "y", range(-5, 8)) == [value // 2 + 1]

    def test_atom_where_the_windowed_name_cancels_is_checked(self):
        # u + x <= u + 3 reads u but does not bound it: it is left out of the
        # window and checked once u is pinned, so it still requires x <= 3.
        x, u = variable("x"), variable("u")
        f = Exists("u", And((Le(x, 2 * u), Le(2 * u, x + 1), Le(u + x, u + constant(3)))))
        assert [PinnedProgram(f).evaluate({"x": value}) for value in (2, 3, 4, 5)] == [True, True, False, False]

    def test_window_merges_congruences(self):
        # 0 <= t < w with t = 1 (mod 4) and 2t = 4 (mod 6): t = 5 (mod 12) by
        # the Chinese remainder theorem; t = 0 (mod 6) contradicts t = 1
        # (mod 4).  Twelve values hold the coset once, eighteen hold 5 and 17.
        t, y = variable("t"), variable("y")

        def coset(*atoms):
            return Exists("t", And((Le(constant(0), t), Lt(t, variable("w"))) + atoms))

        congruences = (Cong(t, 1, 4), Cong(2 * t, 4, 6))
        pinned = coset(*congruences, Le(y, t), Le(t, y))
        assert PinnedProgram(pinned).count_values({"w": 12}, "y", range(-12, 24)) == [5]
        assert PinnedProgram(coset(*congruences)).evaluate({"w": 12}) is True
        assert PinnedProgram(coset(Cong(t, 1, 4), Cong(t, 0, 6))).evaluate({"w": 12}) is False
        with pytest.raises(PinnedEvaluationError):
            PinnedProgram(coset(*congruences)).evaluate({"w": 18})

    def test_window_below_zero_fails_over_n(self):
        t = variable("t")
        first = Exists("t", And((Le(variable("x") - 7, 2 * t), Lt(2 * t, variable("x") - 1), Cong(t, 0, 3))))
        # t in [x/2 - 3.5, x/2 - 0.5) with t = 0 (mod 3): -3 for x = 0, 0 for x = 2
        assert PinnedProgram(first).evaluate({"x": 0}) is True
        assert PinnedProgram(first, DomainTag.N).evaluate({"x": 0}) is False
        assert PinnedProgram(first, DomainTag.N).evaluate({"x": 2}) is True

    def test_equation_takes_precedence_over_a_window(self):
        # The order atoms leave u two values; the equation pins it first.
        x, u = variable("x"), variable("u")
        pinned = And((Eq(u, x + 1), Le(x, u), Le(u, x + 1)))
        assert PinnedProgram(_chosen("u", pinned)).count_values({"x": 4}, "y", range(8)) == [5]


class TestSingleValueWindowFirst:
    """A window whose atoms prove it leaves at most one value is taken
    before a split; any other window only when no split applies."""

    @staticmethod
    def _first_witness(m, period, lo):
        # lo <= m*t < lo + m*period with t = x (mod period)
        t = variable("t")
        return [Le(lo, m * t), Lt(m * t, lo + m * period), Cong(t - variable("x"), 0, period)]

    @staticmethod
    def _single(atoms):
        # The program's pins are keyed by node, so the atoms are its own.
        return PinnedProgram(Exists("t", And(tuple(atoms))))._at_most_one(atoms, "t")

    def test_first_witness_window_is_single(self):
        x, z = variable("x"), variable("z")
        for m in range(1, 5):
            for period in range(1, 6):
                for lo in (x, 3 * x - 2 * z + 1, constant(7)):
                    atoms = self._first_witness(m, period, lo)
                    assert self._single(atoms), (m, period, lo)
                    wider = [atoms[0], Lt(atoms[1].lhs, atoms[1].rhs + m), atoms[2]]
                    assert not self._single(wider), (m, period, lo)

    def test_windows_without_a_constant_width_are_not_single(self):
        t, x, y = variable("t"), variable("x"), variable("y")
        assert not self._single([Le(x, t), Le(t, y)])
        assert not self._single([Le(x, 2 * t), Le(t, x)])
        assert not self._single([Le(y - 2, t), Le(t, y)])  # three values
        assert self._single([Le(y - 2, t), Le(t, y), Cong(t, 1, 3)])
        assert self._single([Le(2 * t, x + 2), Lt(x, 2 * t)])  # a floor pair

    def test_pins_of_freed_atoms_are_not_read(self):
        # Pins are cached by the atom's id: unless the cache holds the atom,
        # a new atom at a freed atom's address reads that atom's pin.
        t, y = variable("t"), variable("y")
        program = PinnedProgram(Exists("t", And((Le(y, t), Le(t, y)))))
        for _ in range(2000):
            assert program._at_most_one([Le(y, t), Le(t, y)], "t")  # one value
            assert not program._at_most_one([Le(y - 2, t), Le(t, y)], "t")  # three values

    def test_window_before_the_count_disjunction(self):
        # The chain body of a two-sided core without a zero case: the count
        # disjunction bounds t on one side only, so t comes from the window.
        t, x, y = variable("t"), variable("x"), variable("y")
        count = progression_count_formula(2 * t, [x + 9], 6, "y")
        f = Exists("t", And(tuple(self._first_witness(2, 3, x)) + (count,)))
        program = PinnedProgram(f)
        steps = program._chain_plan(f)[0]
        assert steps[0][:2] == (verify._BIND, "t")
        for value in range(-6, 9):
            # t = value (mod 3) in [value/2, value/2 + 3): members t, t + 3,
            # ... with 2*t <= value + 9.
            first = next(k for k in range(-10, 20) if value <= 2 * k < value + 6 and (k - value) % 3 == 0)
            expected = count_in_progression(2 * first, value + 9, 2 * first, 6)
            assert program.count_values({"x": value}, "y", range(-2, 8)) == [expected], value

    def test_eliminated_cores_without_a_zero_case(self):
        # Over Z, a core without sign atoms or dropped rows whose congruences
        # always have a solution has no zero case: "E t0 . W(t0) & C".
        rng = random.Random(131)
        folded = 0
        while folded < 12:
            presentation, result = random_two_sided(rng, DomainTag.Z)
            (plan,) = plan_elimination(presentation).components
            if plan.bounds.sign_rows or plan.solvable or plan.relations:
                continue
            assert not any(type(g) is Not for g in traverse(result.formula)[0]), presentation
            outcome = run_check(presentation, trials=10, box_radius=12, seed=folded)
            assert (outcome.mismatches, outcome.unstable_bad) == (0, 0), presentation
            folded += 1


class TestSplit:
    """A disjunction that reads an undefined chain name is split: each
    disjunct is planned together with the conjuncts beside it."""

    def test_disjunct_without_the_name_pins_nothing(self):
        # At x = 0 the disjunct x = 0 holds for every t, and t = 5 (t = 7 in
        # the third) satisfies the rest; at x = 1 no t does.
        for text in (
            "E t . ((t = 3 | x = 0) & t >= 5)",
            "E t . ((t = 3 | x = 0) & 5 <= t & t <= 9)",
            "E t . ((2*t = x | x = 0) & 0 <= t - 7)",
        ):
            f = parse_formula(text)
            assert evaluate(f, {"x": 0}) is True and evaluate(f, {"x": 1}) is False
            program = PinnedProgram(f)
            assert program.evaluate({"x": 1}) is False
            assert program.count_values({}, "x", [1]) == []
            for decide in (lambda: program.evaluate({"x": 0}), lambda: program.count_values({}, "x", [0, 1]) == [0]):
                try:
                    assert decide() is True, text
                except PinnedEvaluationError:
                    pass

    def test_600_nested_two_name_disjunctions(self):
        # Each (u_i = 0 & v_i = 0) | (u_i = 1 & v_i = 1) reads two undefined
        # names, so the chain splits 600 times, each split nested in the last.
        n = 600
        parts = []
        for i in range(n):
            u, v = variable(f"u{i}"), variable(f"v{i}")
            parts.append(Or((And((Eq(u, constant(0)), Eq(v, constant(0)))), And((Eq(u, constant(1)), Eq(v, constant(1)))))))
        parts.append(Eq(sum((variable(f"u{i}") for i in range(n)), constant(0)), variable("y")))
        body = And(tuple(parts))
        for i in reversed(range(n)):
            body = Exists(f"u{i}", Exists(f"v{i}", body))
        assert PinnedProgram(body).count_values({}, "y", [0, 1, 2]) == [0, 1, 2]

    @staticmethod
    def _split_shapes(rng):
        """``E t . ((a*t = x + c | G) & L)``: G an atom that does not read t,
        L one or two order atoms on t."""
        t, x = variable("t"), variable("x")
        while True:
            guard = helpers.random_atom(rng, ["x", "z"])
            bounds = tuple(
                rng.choice((Le, Lt))(*rng.sample((rng.randint(1, 3) * t, helpers.random_term(rng, ["x", "z"])), 2))
                for _ in range(rng.randint(1, 2))
            )
            yield Exists("t", And((Or((Eq(rng.randint(1, 3) * t, x + rng.randint(-4, 4)), guard)),) + bounds))

    @staticmethod
    def _random_asts(rng):
        """``random_ast`` draws without ``Forall`` or ``CountEq`` and with one
        or two binders."""
        while True:
            f = random_ast(rng, rng.randint(1, 4))
            kinds = [type(g) for g in traverse(f)[0]]
            if Forall not in kinds and CountEq not in kinds and 1 <= kinds.count(Exists) <= 2:
                yield f

    @pytest.mark.parametrize("domain", [DomainTag.Z, DomainTag.N])
    def test_agrees_with_the_bounded_evaluator(self, domain):
        # Free values lie in [-4, 4] (over N, [0, 4]) and constants and
        # coefficients are small: a bound of 60 covers every value that an
        # equation or window pins in these draws.
        rng = random.Random(307 + (domain is DomainTag.N))
        low = 0 if domain is DomainTag.N else -4
        outcomes = {"true": 0, "false": 0, "raised": 0}
        for source, draws in ((self._split_shapes(rng), 150), (self._random_asts(rng), 150)):
            for _ in range(draws):
                f = next(source)
                program = PinnedProgram(f, domain)
                for _ in range(3):
                    assignment = {name: rng.randint(low, 4) for name in helpers.AST_NAMES + ["z"]}
                    try:
                        got = program.evaluate(assignment)
                    except PinnedEvaluationError:
                        outcomes["raised"] += 1
                        continue
                    assert got == evaluate(f, assignment, domain, quant_bound=60), (f, assignment)
                    outcomes[str(got).lower()] += 1
        assert min(outcomes.values()) >= 100, outcomes


# --- the oracle scan this module's differential test compares against --------
#
# count_set_witnesses as it was before the closed-form count: the profile
# solved the Cramer rows by hand, the scan asked contains() for every point
# of a window widened by margins of 2*(D + 1), and a witness within a margin
# of a truncating edge made the count unstable.  Its profile has the later
# rule that a component whose counted coordinate is a leftover row is empty
# when another leftover row misses the line.


def _reference_component_profile(comp, tester, values):
    n = comp.dimension
    counted = n - 1
    if tester.cramer is None:
        matches = tuple(values) == comp.base[:-1]
        v = comp.base[-1]
        return (not matches, v if matches else None, v if matches else None)
    if counted not in tester.selection:
        point = [values[i] for i in tester.selection]
        nums = tester.cramer.numerators(point)
        d = tester.cramer.denom
        if any(num % d != 0 or num < 0 for num in nums):
            return (True, None, None)
        coeffs = [num // d for num in nums]
        forced = [
            comp.base[r] + sum(period[r] * c for period, c in zip(comp.periods, coeffs))
            for r in range(n)
        ]
        # Another leftover row off the line: the component cannot meet it.
        if any(forced[r] != values[r] for r in tester.rest_rows if r != counted):
            return (True, None, None)
        return (False, forced[counted], forced[counted])
    d = tester.cramer.denom
    pos = tester.selection.index(counted)
    lo = hi = None
    for row, gamma in zip(tester.cramer.matrix, tester.cramer.offset):
        lam = row[pos]
        part = gamma
        for k, sel in enumerate(tester.selection):
            if sel == counted:
                continue
            part += row[k] * values[sel]
        if lam == 0:
            if part < 0 or part % d != 0:
                return (True, None, None)
        elif lam > 0:
            bound = -(part // lam)
            lo = bound if lo is None else max(lo, bound)
        else:
            bound = part // (-lam)
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return (True, None, None)
    return (False, lo, hi)


def _range_corpus():
    """Seeded (component, tester, prefix) lines over Z and N, dims 1-5; half
    of the prefixes are taken from a member point, so that many lines meet
    the set."""
    rng = random.Random(43)
    for _ in range(600):
        domain = rng.choice([DomainTag.Z, DomainTag.N])
        n = rng.randint(1, 5)
        comp = helpers.random_simple_component(rng, n, rng.randint(0, n), domain)
        tester = MembershipTester(comp)
        for _ in range(4):
            if rng.random() < 0.5:
                point = comp.point_at([rng.randint(0, 4) for _ in range(comp.num_periods)])
            else:
                point = [rng.randint(-12, 12) for _ in range(n)]
            yield comp, tester, list(point[:-1])


class TestProgressionOnLine:
    def test_matches_contains_and_reference_profile(self):
        seen = dict(empty=0, bounded=0, one_side=0, forced=0, members=0, residual_off=0)
        for comp, tester, prefix in _range_corpus():
            empty, ref_lo, ref_hi = _reference_component_profile(comp, tester, prefix)
            # The reference range holds every member, so a window reaching
            # past its finite ends holds every member on a bounded line; an
            # open side is checked far out.
            finite = [] if empty else [b for b in (ref_lo, ref_hi) if b is not None]
            lo, hi = min(finite, default=0) - 24, max(finite, default=0) + 24
            found = helpers.check_progression_on_line(tester, prefix, lo, hi)
            seen["members"] += bool(helpers.members_in(found, lo, hi))
            residuals = tester.line(prefix)[1]
            if not empty and comp.dimension - 1 not in tester.rest_rows and any(v for v, _ in residuals):
                # A leftover row that misses the line, read as a range by the
                # reference.
                assert found is None, (comp, prefix)
                seen["residual_off"] += 1
                continue
            # The reference range may also hold no member of the coset.
            assert found is None or not empty, (comp, prefix)
            if found is None:
                seen["empty"] += 1
                continue
            assert (found.lo is None, found.hi is None) == (ref_lo is None, ref_hi is None)
            if comp.dimension - 1 in tester.rest_rows:
                assert found.lo == found.hi == ref_lo == ref_hi
                seen["forced"] += 1
            elif found.bounded:
                seen["bounded"] += 1
            else:
                seen["one_side"] += 1
        assert seen.pop("residual_off") == 16
        assert all(count >= 50 for count in seen.values()), seen

    def test_worked_examples(self):
        # v = 2k: open above from 0; v = 5 forced by a leftover row.
        half = MembershipTester(LinearSetPresentation((0,), ((2,),)))
        assert half.progression_on_line([]) == (0, None, 0, 2)
        forced = MembershipTester(LinearSetPresentation((0, 5), ((1, 0),)))
        assert forced.progression_on_line([3]) == (5, 5, 0, 1)
        # (x, v) = (k1 + k2, k1 - k2): v runs from -x to x in steps of 2.
        box = MembershipTester(LinearSetPresentation((0, 0), ((1, 1), (1, -1))))
        assert box.progression_on_line([4]) == (-4, 4, 0, 2)
        assert box.progression_on_line([-1]) is None
        with pytest.raises(DimensionError):
            forced.progression_on_line([])


def _reference_count_set_witnesses(presentation, assignment):
    n = presentation.dimension
    names = coordinate_names(n)
    values = [assignment[name] for name in names[:-1]]
    testers = [MembershipTester(c) for c in presentation.components]
    profiles = [
        _reference_component_profile(comp, tester, values)
        for comp, tester in zip(presentation.components, testers)
    ]
    margin = 2 * (max((t.cramer.denom for t in testers if t.cramer is not None), default=1) + 1)
    live = [(lo, hi) for empty, lo, hi in profiles if not empty]
    finite = [b for bounds in live for b in bounds if b is not None]
    if not live:
        return verify.WitnessCount(0, True, False, (0, 0), (0,) * len(profiles))
    anchor_lo = min(finite) if finite else 0
    anchor_hi = max(finite) if finite else 0
    lo = anchor_lo - (3 * margin if any(b[0] is None for b in live) else 2 * margin)
    hi = anchor_hi + (3 * margin if any(b[1] is None for b in live) else 2 * margin)
    lower_truncates = True
    if presentation.domain is DomainTag.N and lo <= 0:
        lo = 0
        lower_truncates = False
    if hi < lo:
        hi = lo
    per_component = []
    witnesses = set()
    point = values + [0]
    for (empty, _, _), tester in zip(profiles, testers):
        mine = 0
        if not empty:
            for v in range(lo, hi + 1):
                point[-1] = v
                if tester.contains(point):
                    mine += 1
                    witnesses.add(v)
        per_component.append(mine)
    stable = all(
        hi - v >= margin and not (lower_truncates and v - lo < margin) for v in witnesses
    )
    return verify.WitnessCount(
        len(witnesses),
        stable,
        sum(per_component) != len(witnesses),
        (lo, hi),
        tuple(per_component),
    )


def _oracle_corpus(radius):
    """Seeded (presentation, assignment) pairs: single components over Z and
    N in dims 1-5, disjoint pairs, and the fixtures other than nonsimple."""
    rng = random.Random(radius)
    presentations = [
        parse_presentation(path.read_text(encoding="utf-8"))
        for path in sorted(FIXTURES.glob("*.sl"))
        if path.stem != "nonsimple"
    ]
    for _ in range(200):
        domain = rng.choice([DomainTag.Z, DomainTag.N])
        n = rng.randint(1, 5)
        comp = helpers.random_simple_component(rng, n, rng.randint(0, n), domain)
        presentations.append(union(comp))
    for _ in range(40):
        presentations.append(random_disjoint_presentation(rng, rng.choice([DomainTag.Z, DomainTag.N])))
    for pres in presentations:
        lo = 0 if pres.domain is DomainTag.N else -radius
        names = coordinate_names(pres.dimension)[:-1]
        for _ in range(5):
            yield pres, {name: rng.randint(lo, radius) for name in names}


class TestCountSetWitnesses:
    @pytest.mark.parametrize("radius", [5, 100])
    def test_matches_reference_per_point_scan(self, radius):
        # The scan sees only its window, so its count stands for the exact
        # one only where it is stable.
        seen = dict(positive=0, unstable=0, overlap=0)
        for pres, assignment in _oracle_corpus(radius):
            oracle = count_set_witnesses(pres, assignment)
            scan = _reference_count_set_witnesses(pres, assignment)
            assert (oracle.stable, oracle.overlap) == (scan.stable, scan.overlap), (pres, assignment)
            if scan.stable:
                assert (oracle.count, oracle.per_component) == (scan.count, scan.per_component), (
                    pres, assignment
                )
            seen["positive"] += oracle.count > 0
            seen["unstable"] += not oracle.stable
            seen["overlap"] += oracle.overlap
        assert seen["positive"] >= 100 and seen["unstable"] >= 50 and seen["overlap"] >= 1, seen

    def test_leftover_row_off_the_line_leaves_the_component_empty(self):
        # The counted coordinate and x2 are leftover rows of both components;
        # x2 = 5 is neither base's, so no point of the line is a member.
        first = LinearSetPresentation(base=(0, 0, 0), periods=((1, 0, 0),))
        second = LinearSetPresentation(base=(0, 0, 40), periods=((1, 0, 0),))
        oracle = count_set_witnesses(union(first, second), {"x1": 2, "x2": 5})
        assert oracle == verify.WitnessCount(0, True, False, (0, 0), (0, 0))
        on_line = count_set_witnesses(union(first, second), {"x1": 2, "x2": 0})
        assert (on_line.count, on_line.per_component) == (2, (1, 1))

    def test_scans_without_point_queries(self, monkeypatch):
        corpus = list(_oracle_corpus(5))[:60]  # the fixtures come first
        expected = [count_set_witnesses(pres, assignment) for pres, assignment in corpus]

        def refuse(self, point):
            raise AssertionError("the oracle asked for a single point")

        monkeypatch.setattr(verify.MembershipTester, "coefficients_for", refuse)
        assert [count_set_witnesses(p, a) for p, a in corpus] == expected

    def test_bounded_component(self):
        # x2 even in [0, 2*x1]
        comp = LinearSetPresentation(base=(0, 0), periods=((1, 0), (1, 2)))
        s = union(comp)
        oracle = count_set_witnesses(s, {"x1": 6})
        assert oracle.count == brute_count(s, {"x1": 6})
        assert oracle.stable is True
        assert oracle.overlap is False

    def test_unbounded_component_flags_unstable(self):
        half = LinearSetPresentation(base=(0,), periods=((1,),))
        oracle = count_set_witnesses(union(half), {})
        assert oracle.stable is False

    def test_empty_slice(self):
        comp = LinearSetPresentation(base=(0, 0), periods=((2, 1),))
        oracle = count_set_witnesses(union(comp), {"x1": 3})
        assert oracle.count == 0
        assert oracle.stable is True

    def test_overlap_detected(self):
        a = LinearSetPresentation(base=(0,), periods=((1,),))
        b = LinearSetPresentation(base=(5,), periods=((1,),))
        oracle = count_set_witnesses(union(a, b), {})
        assert oracle.overlap is True

    def test_40_identical_components(self):
        # Each distinct intersection is counted once with its signed number
        # of subsets, so 40 copies of a two-sided component cost about 40
        # meets, not one per subset of the copies.
        comp = LinearSetPresentation(base=(0, 0), periods=((1, 1), (1, -1)))
        one = count_set_witnesses(union(comp), {"x1": 6})
        start = time.perf_counter()
        many = count_set_witnesses(union(*[comp] * 40), {"x1": 6})
        assert time.perf_counter() - start < 1.0
        assert one.count == 7 and not one.overlap
        assert (many.count, many.overlap, many.per_component) == (7, True, (7,) * 40)

    def test_union_size_matches_a_scan(self):
        # Bounded progressions drawn with repeats, shared ends and nested
        # ranges, against the members listed one by one.
        rng = random.Random(53)
        for _ in range(300):
            drawn = []
            for _ in range(rng.randint(1, 7)):
                if drawn and rng.random() < 0.3:
                    drawn.append(rng.choice(drawn))
                    continue
                lo, step = rng.randint(-20, 20), rng.randint(1, 6)
                drawn.append(Progression.of([lo], [lo + rng.randint(0, 30)], rng.randint(0, step - 1), step))
            drawn = [p for p in drawn if p is not None]
            members = {v for p in drawn for v in range(p.lo, p.hi + 1, p.step)}
            assert verify._union_size(drawn) == len(members), drawn

    def test_matches_brute_force_randomised(self):
        rng = random.Random(7)
        done = 0
        while done < 40:
            n = rng.randint(1, 3)
            p = rng.randint(0, n)
            comp = LinearSetPresentation(
                base=tuple(rng.randint(-3, 3) for _ in range(n)),
                periods=tuple(
                    tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(p)
                ),
            )
            from countqe.sets import check_simple

            if not check_simple(comp):
                continue
            done += 1
            s = union(comp)
            asg = {f"x{i+1}": rng.randint(-8, 8) for i in range(n - 1)}
            oracle = count_set_witnesses(s, asg)
            if oracle.stable:
                assert oracle.count == brute_count(s, asg), (comp, asg)


class TestRunCheck:
    def test_worked_example_agrees(self):
        s = union(THREE_PERIOD_SET)
        outcome = run_check(s, trials=40, box_radius=30, seed=0)
        assert outcome.mismatches == 0
        assert outcome.overlaps == 0
        assert outcome.ok()

    def test_union_of_singletons(self):
        s = union(
            LinearSetPresentation(base=(3,), periods=()),
            LinearSetPresentation(base=(7,), periods=()),
        )
        outcome = run_check(s, trials=5, box_radius=10, seed=1)
        assert outcome.ok()
        assert all(r.oracle.count == 2 for r in outcome.records)

    def test_natural_domain(self):
        comp = LinearSetPresentation(
            base=(0, 0), periods=((1, 2), (2, 1)), domain=DomainTag.N
        )
        outcome = run_check(union(comp), trials=30, box_radius=25, seed=2)
        assert outcome.mismatches == 0

    def test_detects_corrupted_count_formula(self, monkeypatch):
        healthy = countqe.elim.progression_count_formula

        def corrupted(first, hi, step, count_var):
            # start the progression one step early: every nonempty count
            # comes out one too large
            return healthy(first - step, hi, step, count_var)

        monkeypatch.setattr(countqe.elim, "progression_count_formula", corrupted)
        comp = LinearSetPresentation(base=(0, 0), periods=((1, 0), (1, 2)))
        mutated = eliminate(union(comp), "y")
        monkeypatch.undo()
        plan = dataclasses.replace(plan_elimination(union(comp)), result=mutated)
        outcome = run_check(plan, trials=30, box_radius=20, seed=3)
        assert outcome.mismatches > 0
        assert not outcome.ok()

    def test_half_line_blocks(self):
        # Periods (1, 1) and (0, 100): for x1 < 0 the slice is empty and the
        # sign atom 0 <= 100*x1 fails; for x1 >= 0 the coset witness exists,
        # the slice is infinite and the oracle reports an unstable point.
        s = union(LinearSetPresentation(base=(0, 0), periods=((1, 1), (0, 100))))
        decided = []
        for seed in range(3):
            outcome = run_check(s, trials=4, box_radius=100, seed=seed)
            assert outcome.mismatches == 0
            assert outcome.ok(strict=True)
            decided += [r for r in outcome.records if r.verdict == "ok"]
        assert decided and all(r.assignment["x1"] < 0 for r in decided)

    def test_half_line_at_a_large_period(self):
        # Periods (1, 1) and (0, 10**7): a trial reads one progression, whose
        # cost does not depend on the period.
        s = union(LinearSetPresentation(base=(0, 0), periods=((1, 1), (0, 10**7))))
        outcome = run_check(s, trials=20, box_radius=30, seed=0)
        assert outcome.ok(strict=True)
        assert {r.verdict for r in outcome.records} == {"ok", "unstable-ok"}

    def test_points_far_apart(self):
        s = union(
            LinearSetPresentation(base=(2,), periods=(), domain=DomainTag.N),
            LinearSetPresentation(base=(10**7,), periods=(), domain=DomainTag.N),
        )
        outcome = run_check(s, trials=20, box_radius=30, seed=0)
        assert outcome.ok(strict=True)
        assert {r.oracle for r in outcome.records} == {
            verify.WitnessCount(2, True, False, (2, 10**7), (1, 1))
        }

    def test_vacuous_case_binders(self):
        # D = 32 one-sided core whose dropped row reads x3 = -2: off that
        # plane the count is 0, on it one coset witness of period 16
        # decides.  (The 1,024 residue cases it once split into each bound
        # a variable, vacuous off the plane.)
        comp = LinearSetPresentation(
            base=(-2, 0, -2, 3), periods=((0, -2, 0, -2), (-3, 1, 0, 0), (1, 3, 0, -2))
        )
        result = eliminate(union(comp), "y")
        report = result.report.components[0]
        assert (report.denom, report.coset_period) == (32, 16)
        outcome = run_check(union(comp), trials=5, box_radius=50, seed=4)
        assert outcome.mismatches == 0 and outcome.ok(strict=True)
        on_plane = {"x1": -3, "x2": 0, "x3": -2}  # empty slice
        assert PinnedProgram(result.formula).count_values(on_plane, result.count_var, range(4)) == [0]
        on_plane["x1"] = 0  # infinite slice: no count holds
        assert PinnedProgram(result.formula).count_values(on_plane, result.count_var, range(16)) == []

    def test_formula_count_values_scan(self):
        result = eliminate(union(THREE_PERIOD_SET), "y")
        oracle = count_set_witnesses(union(THREE_PERIOD_SET), {"x1": 4, "x2": 8, "x3": 5})
        hits = PinnedProgram(result.formula).count_values(
            {"x1": 4, "x2": 8, "x3": 5}, result.count_var, list(range(0, 12))
        )
        assert oracle.stable
        assert hits == [oracle.count]
