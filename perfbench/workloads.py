"""The benchmark's inputs: three workloads of presentation files.

Nothing here imports ``countqe``.  The sweep generator uses only the seed
and its own exact arithmetic, so the sample stays the same when the
program's own size estimate or case analysis changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Presentation:
    """One input file: a name, its text and its number of components."""

    name: str
    text: str
    components: int


@dataclass(frozen=True)
class Workload:
    """A set of presentations plus the fixed ``check`` settings."""

    name: str
    presentations: tuple[Presentation, ...]
    trials: int
    check_seed: int = 0


def presentation_text(domain: str, components) -> str:
    """The presentation file for ``components``: (base, periods) pairs."""
    dim = len(components[0][0])
    lines = [f"domain {domain}", f"dim {dim}", "disjoint", "simple"]
    for base, periods in components:
        lines.append("component")
        lines.append("base " + " ".join(map(str, base)))
        lines.extend("period " + " ".join(map(str, p)) for p in periods)
    return "\n".join(lines) + "\n"


def _presentation(name: str, domain: str, components) -> Presentation:
    return Presentation(name, presentation_text(domain, components), len(components))


# --- fixed workloads -----------------------------------------------------------

# The repository's two eliminable fixtures with two-sided cores, plus one
# 3-dim full-rank component with D = 8 and m = 2.
TWOSIDED = (
    _presentation(
        "three_periods", "Z", [((0, 0, 0, 0), [(1, 2, 2, 1), (2, 4, 1, 1), (-1, -2, 0, -1)])]
    ),
    _presentation("natural", "N", [((0, 0), [(1, 2), (2, 1)])]),
    _presentation("d8_m2", "Z", [((2, 3, 0), [(1, 2, -1), (0, 1, -3), (0, 2, 2)])]),
)

# Periods (1, 1) and (0, D): one-sided cores, D feasible of D^2 residue cases,
# an output D binders deep.
HALFLINE = tuple(
    _presentation(f"halfline_{d}", "Z", [((0, 0), [(1, 1), (0, d)])]) for d in (100, 400)
)

# check trials per presentation; the check seed is 0 everywhere.
TRIALS = {"twosided": 2, "halfline": 1, "sweep": 10}


# --- the sweep -------------------------------------------------------------------


def rank(vectors) -> int:
    """Rank over the rationals of a list of integer vectors."""
    basis: list[list[Fraction]] = []
    for vec in vectors:
        work = [Fraction(v) for v in vec]
        for row in basis:
            lead = next(i for i, v in enumerate(row) if v)
            if work[lead]:
                factor = work[lead] / row[lead]
                work = [a - factor * b for a, b in zip(work, row)]
        if any(work):
            basis.append(work)
    return len(basis)


def _det(m) -> Fraction:
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


def _greedy_rows(periods, limit: int) -> list[int]:
    """Lexicographically least independent rows among the first ``limit``."""
    chosen: list[int] = []
    for i in range(limit):
        rows = [[p[r] for p in periods] for r in chosen + [i]]
        if rank(rows) == len(rows):
            chosen.append(i)
    return chosen


def _entries(rng: random.Random, n: int, nat: bool, lo: int = -2, hi: int = 2):
    return tuple(rng.randint(0 if nat else lo, hi) for _ in range(n))


def _unimodular_block(rng, n, nat, p):
    """p periods whose non-counted rows have rank p, with determinant +-1 on
    the rows the program selects; this keeps the oracle window small."""
    while True:
        periods = [_entries(rng, n - 1, nat, -1, 1) for _ in range(p)]
        if rank(periods) != p:
            continue
        rows = _greedy_rows(periods, n - 1)
        if abs(_det([[q[r] for q in periods] for r in rows])) == 1:
            return periods


def _single(rng, n, nat):
    """Periods independent on the non-counted rows: the count is 0 or 1."""
    block = _unimodular_block(rng, n, nat, n - 1)
    return [q + (rng.randint(0 if nat else -2, 2),) for q in block]


def _one_sided(rng, n, nat):
    """Free periods plus k = 2 times the counted unit vector.

    The core determinant is k, so the residue split is k^p cases of which
    k^(p-1) are feasible, and only the last period bounds the counted
    coordinate.
    """
    k = 2
    p = min(n, 2)
    free = [q + (rng.randint(0 if nat else -1, 1),) for q in _unimodular_block(rng, n, nat, p - 1)]
    sign = 1 if nat or rng.random() < 0.5 else -1
    return free + [(0,) * (n - 1) + (sign * k,)]


def _two_sided(rng, n, nat, step_pair):
    """Two periods equal off the counted row up to scale: one upper and one
    lower bound.  ``step_pair`` fixes the determinant (and so the size)."""
    lead = rng.randrange(n - 1)
    tail = _entries(rng, n - 2 - lead, nat, -1, 1)
    shape = (0,) * lead + (1,) + tail
    if nat:
        a, b, s, t = step_pair
        return [tuple(a * v for v in shape) + (s,), tuple(b * v for v in shape) + (t,)]
    s, t = step_pair
    sign = rng.choice((1, -1))
    return [tuple(sign * v for v in shape) + (s,), tuple(sign * v for v in shape) + (-t,)]


def _split(base, periods):
    """Two disjoint components: the first period's coefficient even or odd."""
    doubled = [tuple(2 * v for v in periods[0])] + list(periods[1:])
    shifted = tuple(b + v for b, v in zip(base, periods[0]))
    return [(base, doubled), (shifted, doubled)]


def _sweep_item(rng: random.Random, kind: str, n: int, domain: str, split: bool):
    nat = domain == "N"
    base = _entries(rng, n, nat, -3, 3)
    if kind == "point":
        if not split:
            return [(base, [])]
        other = tuple(v + rng.randint(1, 3) for v in base)
        return [(base, []), (other, [])]
    if kind == "single":
        periods = _single(rng, n, nat)
    elif kind == "onesided":
        periods = _one_sided(rng, n, nat)
    elif nat:
        # D = |a t - b s| = 3 and m = 2, as in the natural fixture.
        periods = _two_sided(rng, n, nat, rng.choice(((1, 2, 2, 1), (2, 1, 1, 2))))
    else:
        periods = _two_sided(rng, n, nat, (1, 1) if split else rng.choice(((1, 2), (2, 1))))
    return _split(base, periods) if split else [(base, periods)]


def _sweep_plan():
    """Fixed strata: (kind, dim, domain, two components?).

    Each dim and domain gets points, single-witness and one-sided components,
    alone and parity-split; dims 2-4 add a few small two-sided ones.
    """
    plan = []
    for n in range(1, 5):
        for domain in ("Z", "N"):
            kinds = ["point", "onesided"] + (["single"] if n > 1 else [])
            for kind in kinds:
                plan.append((kind, n, domain, False))
                plan.append((kind, n, domain, True))
        if n > 1:
            plan.append(("twosided", n, "Z", False))
            plan.append(("twosided", n, "Z", True))
            plan.append(("twosided", n, "N", False))
    return plan


def sweep(seed: int) -> tuple[Presentation, ...]:
    """A seeded sample of disjoint simple presentations, dims 1-4, Z and N."""
    rng = random.Random(seed)
    out = []
    for index, (kind, n, domain, split) in enumerate(_sweep_plan()):
        comps = _sweep_item(rng, kind, n, domain, split)
        tag = f"{index:02d}_{kind}_{domain}{n}" + ("_split" if split else "")
        out.append(_presentation(tag, domain, comps))
    return tuple(out)


WORKLOADS = ("twosided", "halfline", "sweep")


def make_workload(name: str, seed: int) -> Workload:
    """The workload's inputs; only the sweep depends on ``seed``."""
    if name == "twosided":
        presentations = TWOSIDED
    elif name == "halfline":
        presentations = HALFLINE
    elif name == "sweep":
        presentations = sweep(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, presentations, TRIALS[name])
