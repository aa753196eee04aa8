"""Shared generators for randomised and acceptance tests."""

import random

from countqe.elim import estimate_result_nodes
from countqe.errors import ParameterError
from countqe.formula import (
    And,
    Cong,
    CountEq,
    Eq,
    Exists,
    FALSE,
    Forall,
    Le,
    Lt,
    Not,
    Or,
    TRUE,
    Term,
)
from countqe.linalg import IntMatrix, rank_over_rationals
from countqe.sets import DomainTag, LinearSetPresentation, SemilinearPresentation

AST_NAMES = ["x", "y", "z1", "w_2", "E"]


def print_presentation(presentation: SemilinearPresentation) -> str:
    """Render a presentation in the syntax of
    :func:`countqe.textio.parse_presentation`, which reads it back."""
    lines = [
        f"domain {presentation.domain.value}",
        f"dim {presentation.dimension}",
    ]
    if presentation.asserted_disjoint:
        lines.append("disjoint")
    if presentation.asserted_simple:
        lines.append("simple")
    for comp in presentation.components:
        lines.append("component")
        lines.append("base " + " ".join(str(v) for v in comp.base))
        for period in comp.periods:
            lines.append("period " + " ".join(str(v) for v in period))
    return "\n".join(lines) + "\n"


def count_in_progression(lo: int, hi: int, residue: int, modulus: int) -> int:
    """Number of integers t in [lo, hi] with t = residue (mod modulus): the
    closed form that progression count formulas are checked against."""
    if modulus < 1:
        raise ParameterError("modulus must be positive")
    if hi < lo:
        return 0
    r = residue % modulus
    return (hi - r) // modulus - (lo - 1 - r) // modulus


def members_in(progression, lo: int, hi: int) -> list[int]:
    """The members of a :class:`countqe.sets.Progression` (or None) in
    ``lo..hi``, ascending."""
    if progression is None:
        return []
    first = lo if progression.lo is None else max(lo, progression.lo)
    last = hi if progression.hi is None else min(hi, progression.hi)
    first += (progression.start - first) % progression.step
    return list(range(first, last + 1, progression.step))


def check_progression_on_line(tester, prefix: list, lo: int, hi: int):
    """Check ``tester.progression_on_line(prefix)`` against
    ``tester.contains``: its members in ``lo..hi`` are the points found
    there, each finite end is a member, and an open side has a member
    ``10**6`` steps past the window.  Returns the progression."""
    found = tester.progression_on_line(prefix)
    expected = [v for v in range(lo, hi + 1) if tester.contains(prefix + [v])]
    assert members_in(found, lo, hi) == expected, (tester.presentation, prefix, found)
    if found is None:
        return None
    far = 10**6 * found.step
    ends = [
        lo - far - (lo - found.start) % found.step if found.lo is None else found.lo,
        hi + far + (found.start - hi) % found.step if found.hi is None else found.hi,
    ]
    assert all(tester.contains(prefix + [v]) for v in ends), (tester.presentation, prefix, found)
    return found


def random_term(rng: random.Random, names=AST_NAMES) -> Term:
    coeffs = {}
    for name in rng.sample(names, rng.randint(0, min(3, len(names)))):
        coeffs[name] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Term(rng.randint(-9, 9), coeffs)


def random_atom(rng: random.Random, names=AST_NAMES):
    kind = rng.randrange(4)
    if kind == 3:
        modulus = rng.randint(1, 7)
        return Cong(random_term(rng, names), rng.randrange(modulus), modulus)
    ctor = (Le, Lt, Eq)[kind]
    return ctor(random_term(rng, names), random_term(rng, names))


def random_ast(rng: random.Random, depth: int, names=AST_NAMES):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return TRUE
        if roll < 0.1:
            return FALSE
        return random_atom(rng, names)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_ast(rng, depth - 1, names))
    if kind == 1:
        return And(
            tuple(random_ast(rng, depth - 1, names) for _ in range(rng.randint(2, 3)))
        )
    if kind == 2:
        return Or(
            tuple(random_ast(rng, depth - 1, names) for _ in range(rng.randint(2, 3)))
        )
    if kind == 3:
        return Exists(rng.choice(names), random_ast(rng, depth - 1, names))
    if kind == 4:
        return Forall(rng.choice(names), random_ast(rng, depth - 1, names))
    counted, count = rng.sample(names, 2)
    return CountEq(counted, count, random_ast(rng, depth - 1, names))


def random_simple_component(
    rng: random.Random,
    dimension: int,
    num_periods: int,
    domain: DomainTag,
    even_coordinate=None,
    base_parity=0,
) -> LinearSetPresentation:
    """A random simple component; optionally pins one coordinate's parity.

    With ``even_coordinate`` set, every period is even there and the base
    carries ``base_parity``, so two components with opposite parities are
    disjoint by construction.
    """
    lo_entry = 0 if domain is DomainTag.N else -3
    lo_base = 0 if domain is DomainTag.N else -5
    while True:
        periods = []
        for _ in range(num_periods):
            vec = [rng.randint(lo_entry, 3) for _ in range(dimension)]
            if even_coordinate is not None:
                vec[even_coordinate] = rng.choice(
                    [0, 2] if domain is DomainTag.N else [-2, 0, 2]
                )
            periods.append(tuple(vec))
        base = [rng.randint(lo_base, 5) for _ in range(dimension)]
        if even_coordinate is not None:
            if base[even_coordinate] % 2 != base_parity:
                base[even_coordinate] += 1 if domain is DomainTag.N else -1
        candidate = LinearSetPresentation(
            base=tuple(base), periods=tuple(periods), domain=domain
        )
        if num_periods == 0:
            return candidate
        matrix = IntMatrix.from_columns(periods)
        if rank_over_rationals(matrix) == num_periods:
            return candidate


def random_disjoint_presentation(
    rng: random.Random,
    domain: DomainTag,
    max_dimension: int = 3,
    node_budget: int = 60_000,
) -> SemilinearPresentation:
    """Random disjoint simple presentation within an output-size budget.

    Two-component presentations split on the parity of one coordinate, which
    keeps them disjoint without any search.  Candidates whose estimated
    eliminated formula exceeds the node budget are resampled, mirroring the
    command-line driver's node-budget guard.
    """
    while True:
        dimension = rng.randint(1, max_dimension)
        two = dimension >= 1 and rng.random() < 0.4
        components = []
        if two:
            coord = rng.randrange(dimension)
            for parity in (0, 1):
                components.append(
                    random_simple_component(
                        rng,
                        dimension,
                        rng.randint(0, dimension),
                        domain,
                        even_coordinate=coord,
                        base_parity=parity,
                    )
                )
        else:
            components.append(
                random_simple_component(
                    rng, dimension, rng.randint(0, dimension), domain
                )
            )
        candidate = SemilinearPresentation(
            components=tuple(components),
            asserted_disjoint=True,
            asserted_simple=True,
        )
        if estimate_result_nodes(candidate) <= node_budget:
            return candidate


def random_presentation(rng: random.Random, max_dimension: int = 4) -> SemilinearPresentation:
    """Arbitrary (not necessarily simple or disjoint) presentation, for
    syntax roundtrips."""
    domain = rng.choice([DomainTag.Z, DomainTag.N])
    dimension = rng.randint(1, max_dimension)
    lo = 0 if domain is DomainTag.N else -9
    components = []
    for _ in range(rng.randint(1, 3)):
        periods = tuple(
            tuple(rng.randint(lo, 9) for _ in range(dimension))
            for _ in range(rng.randint(0, 4))
        )
        base = tuple(rng.randint(lo, 9) for _ in range(dimension))
        components.append(
            LinearSetPresentation(base=base, periods=periods, domain=domain)
        )
    return SemilinearPresentation(
        components=tuple(components),
        asserted_disjoint=rng.random() < 0.5,
        asserted_simple=rng.random() < 0.5,
    )
