"""Where each layer of ``countqe`` is traced, and its per-round metrics.

Every patch names the module attribute the package calls the function
through; the layer names are those of the per-layer metrics in
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib

from tracing import RoundStats, Tracer


def _formula_shapes(fm):
    """Iterative walkers over the formula AST (no recursion, so deep
    existential prefixes cannot overflow the stack)."""
    leaves = (fm.TrueF, fm.FalseF)
    comparisons = (fm.Le, fm.Lt, fm.Eq)
    kind_of = {
        fm.Cong: "cong",
        fm.Eq: "eq",
        fm.Le: "order",
        fm.Lt: "order",
        fm.And: "connective",
        fm.Or: "connective",
        fm.Not: "connective",
        fm.Exists: "exists",
    }

    def children(f):
        if isinstance(f, (fm.And, fm.Or)):
            return f.parts
        if isinstance(f, (fm.Not, fm.Exists, fm.Forall, fm.CountEq)):
            return (f.body,)
        return ()

    def size(f) -> int:
        """The same measure as ``formula.node_count``."""
        total = 0
        todo = [f]
        while todo:
            g = todo.pop()
            total += 1
            if isinstance(g, comparisons):
                total += len(g.lhs.coeffs) + len(g.rhs.coeffs)
            elif isinstance(g, fm.Cong):
                total += len(g.term.coeffs)
            elif not isinstance(g, leaves):
                todo.extend(children(g))
        return total

    def kinds(f) -> dict:
        counts = dict.fromkeys(("cong", "eq", "order", "connective", "exists"), 0)
        todo = [f]
        while todo:
            g = todo.pop()
            kind = kind_of.get(type(g))
            if kind is not None:
                counts[kind] += 1
            todo.extend(children(g))
        return counts

    def prefix_depth(f) -> int:
        depth = 0
        while isinstance(f, fm.Exists):
            depth += 1
            f = f.body
        return depth

    return size, kinds, prefix_depth


def install(tracer: Tracer) -> None:
    """Patch every traced call site of the already-imported package."""
    cli, elim, fm, sets, verify = (
        importlib.import_module(f"countqe.{name}")
        for name in ("cli", "elim", "formula", "sets", "verify")
    )
    size, kinds, prefix_depth = _formula_shapes(fm)
    state = {"estimate": None, "simplify_input": (None, 0)}

    def stats() -> RoundStats:
        return tracer.stats

    def parsed_bytes(args, kwargs):
        stats().counts["textio.parse_formula.bytes"] += len(args[0].encode("utf-8"))

    def printed_bytes(args, kwargs, result):
        stats().counts["textio.print_formula.bytes"] += len(result.encode("utf-8"))

    def remember_estimate(args, kwargs, result):
        state["estimate"] = result

    def eliminated(args, kwargs, result):
        s = stats()
        for kind, n in kinds(result.formula).items():
            s.counts[f"elim.nodes.{kind}"] += n
        depth = prefix_depth(result.formula)
        s.maxima["elim.prefix_depth"] = max(s.maxima["elim.prefix_depth"], depth)
        if state["estimate"] is not None:
            ratio = state["estimate"] / result.report.nodes
            s.samples["elim.estimate_ratio"].append(ratio)
            state["estimate"] = None

    def feasible(args, kwargs, result):
        if result:
            stats().counts["elim.residue.feasible"] += 1

    def branches(args, kwargs, result):
        stats().counts["elim.branches.built"] += len(result)

    def unknowns(args, kwargs):
        rows = args[0]
        s = stats()
        s.maxima["linalg.solve_unique.unknowns"] = max(
            s.maxima["linalg.solve_unique.unknowns"], len(rows[0]) if rows else 0
        )

    def folded(args, kwargs, result):
        source = args[0]
        cached, n = state["simplify_input"]
        if cached is not source:
            n = size(source)
            state["simplify_input"] = (source, n)
        stats().counts["formula.simplify.nodes_folded"] += n - size(result)

    def oracle(args, kwargs, result):
        s = stats()
        live = sum(1 for c in result.per_component if c)
        lo, hi = result.window
        s.counts["verify.oracle.points_tested"] += (hi - lo + 1) * live
        s.counts["verify.oracle.stable"] += int(result.stable)

    tally = dict(record=False)
    tracer.patch(cli, "parse_presentation", "textio.parse_presentation")
    tracer.patch(cli, "parse_formula", "textio.parse_formula", pre=parsed_bytes)
    tracer.patch(cli, "print_formula", "textio.print_formula", post=printed_bytes)
    tracer.patch(cli, "estimate_result_nodes", "elim.estimate", post=remember_estimate)
    tracer.patch(cli, "eliminate", "elim.eliminate", post=eliminated)
    tracer.patch(cli, "run_check", "verify.run_check")

    tracer.patch(elim, "check_simple", "sets.check_simple")
    tracer.patch(elim, "find_full_rank_submatrix", "linalg.rank")
    tracer.patch(elim, "greedy_row_basis", "linalg.rank")
    tracer.patch(elim, "cramer_solve", "linalg.cramer_solve")
    tracer.patch(elim, "solve_unique", "linalg.solve_unique", pre=unknowns, **tally)
    tracer.patch(elim, "residue_case_feasible", "elim.residue", post=feasible, **tally)
    tracer.patch(elim, "build_permutation_branches", "elim.branches", post=branches)
    tracer.patch(elim, "progression_count_formula", "elim.progression", **tally)
    tracer.patch(elim, "progression_count_formula_nat", "elim.progression", **tally)

    tracer.patch(fm, "node_count", "formula.node_count", outermost=True)
    tracer.patch(fm, "simplify", "formula.simplify", post=folded)

    tracer.patch(sets, "check_simple", "sets.check_simple")
    tracer.patch(sets, "rank_over_rationals", "linalg.rank")
    tracer.patch(sets, "find_full_rank_submatrix", "linalg.rank")
    tracer.patch(sets, "cramer_solve", "linalg.cramer_solve")

    tracer.patch(verify, "eliminate", "elim.eliminate")
    tracer.patch(verify, "MembershipTester", "sets.membership_tester")
    tracer.patch(verify, "solve_unique", "linalg.solve_unique", pre=unknowns, **tally)
    tracer.patch(verify, "evaluate_pinned", "verify.pinned", **tally)
    tracer.patch(verify, "count_set_witnesses", "verify.oracle", post=oracle, **tally)


def layer_metrics(s: RoundStats) -> dict:
    """Per-layer values for one round: name -> (value, unit)."""

    def share(part, whole):
        return part / whole if whole else 0.0

    def rate(key, layer):
        return share(s.counts[key], s.seconds[layer])

    ratios = s.samples["elim.estimate_ratio"] or [0.0]
    tested = s.calls["elim.residue"]
    oracle_calls = s.calls["verify.oracle"]
    m = {
        "cli.self_s": (s.self_seconds["cli.main"], "s"),
        "textio.parse_presentation.s": (s.seconds["textio.parse_presentation"], "s"),
        "textio.print_formula.s": (s.seconds["textio.print_formula"], "s"),
        "textio.print_formula.bytes_per_s": (
            rate("textio.print_formula.bytes", "textio.print_formula"), "B/s"),
        "textio.parse_formula.s": (s.seconds["textio.parse_formula"], "s"),
        "textio.parse_formula.bytes_per_s": (
            rate("textio.parse_formula.bytes", "textio.parse_formula"), "B/s"),
        "elim.eliminate.self_s": (s.self_seconds["elim.eliminate"], "s"),
        "elim.estimate.s": (s.seconds["elim.estimate"], "s"),
        "elim.estimate_ratio.min": (min(ratios), "ratio"),
        "elim.estimate_ratio.max": (max(ratios), "ratio"),
        "elim.residue.tested": (tested, "count"),
        "elim.residue.feasible": (s.counts["elim.residue.feasible"], "count"),
        "elim.residue.useful_ratio": (share(s.counts["elim.residue.feasible"], tested), "ratio"),
        "elim.residue.s": (s.seconds["elim.residue"], "s"),
        "elim.branches.built": (s.counts["elim.branches.built"], "count"),
        "elim.branches.s": (s.seconds["elim.branches"], "s"),
        "elim.progression.calls": (s.calls["elim.progression"], "count"),
        "elim.progression.s": (s.seconds["elim.progression"], "s"),
        "elim.prefix_depth.max": (s.maxima["elim.prefix_depth"], "count"),
    }
    for kind in ("cong", "eq", "order", "connective", "exists"):
        m[f"elim.nodes.{kind}"] = (s.counts[f"elim.nodes.{kind}"], "count")
    for layer in ("linalg.cramer_solve", "linalg.rank", "linalg.solve_unique"):
        m[f"{layer}.calls"] = (s.calls[layer], "count")
        m[f"{layer}.s"] = (s.seconds[layer], "s")
    m["linalg.solve_unique.unknowns_max"] = (s.maxima["linalg.solve_unique.unknowns"], "count")
    m["sets.check_simple.calls"] = (s.calls["sets.check_simple"], "count")
    m["sets.check_simple.per_component"] = (
        share(s.calls["sets.check_simple"], s.counts["sets.components"]), "ratio")
    m["sets.membership_tester.builds"] = (s.calls["sets.membership_tester"], "count")
    m["formula.simplify.calls"] = (s.calls["formula.simplify"], "count")
    m["formula.simplify.s"] = (s.seconds["formula.simplify"], "s")
    m["formula.simplify.nodes_folded"] = (s.counts["formula.simplify.nodes_folded"], "count")
    m["formula.node_count.calls"] = (s.calls["formula.node_count"], "count")
    m["formula.node_count.s"] = (s.seconds["formula.node_count"], "s")
    m["verify.run_check.self_s"] = (s.self_seconds["verify.run_check"], "s")
    m["verify.oracle.calls"] = (oracle_calls, "count")
    m["verify.oracle.s"] = (s.seconds["verify.oracle"], "s")
    m["verify.oracle.points_tested"] = (s.counts["verify.oracle.points_tested"], "count")
    m["verify.pinned.calls"] = (s.calls["verify.pinned"], "count")
    m["verify.pinned.s"] = (s.seconds["verify.pinned"], "s")
    m["verify.stable_share"] = (share(s.counts["verify.oracle.stable"], oracle_calls), "ratio")
    return m
