"""Command-line driver.

Subcommands:

* ``parse``     validate and pretty-print a formula (``--roundtrip`` checks
                print/parse stability, ``--unicode`` renders a display form)
* ``eval``      evaluate a formula under ``--assign`` with bounded quantifiers
* ``count``     brute-force witness count of a variable with stability flag
* ``eliminate`` rewrite a presentation's counting quantifier to plain logic
* ``check``     eliminate, then cross-check against the counting oracle on
                seeded random assignments

Eliminated atoms print with each name on the side of its positive
coefficient, in both domains, so none prints a subtraction.

``eliminate --report`` appends one comment line per component and the total
node count.  Its ``count-var=`` names the component's part count: a fresh
``_y<k>`` bound for it, the count variable itself for the last component
with a count (built with the count variable less the constant counts and
the other parts), or ``-`` for a component whose count is one constant
wherever it is finite (a one-sided core, 0; a point in dimension 1, 1),
which has no part count.  Single-witness components that exclude each
other share one 0/1 count: each member of such a group shows the group's
``count-var=``, and its ``nodes=`` is the node count of the whole group's
body, the same on every member; other components report their own body.
Components that are the residue classes of one simple linear set are
eliminated as that set: each of them shows the merged component's fields
and ``nodes=``, and ``merged=`` lists the 1-based indices of all of them;
a component that stands alone prints no ``merged=``.

``eliminate`` and ``check`` plan first, which builds the formula once; when
its node count exceeds ``--node-budget`` (default 10**6) they refuse with
exit 2 and a one-line error, before printing or checking anything.

Exit codes: 0 success, 1 syntax error, 2 contract/precondition violation
(including an out-of-range numeric option such as a negative ``--box-radius``,
``--trials``, ``--node-budget`` or ``--disjoint-radius`` or a ``--quant-bound``
below 1, a ``--count-var`` that is not an identifier, an ``--assign`` that
names a variable twice or assigns a name that is not an identifier, and a
``count`` ``--assign`` to its ``--var``), 3 verification failure, 4 internal error (an input nested too
deeply for the interpreter's recursion limit; reported on one line, without
a traceback).
Diagnostics go to stderr; stdout is deterministic for fixed inputs, flags and
seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .elim import eliminate, estimate_result_nodes, plan_elimination
from .errors import ContractError, CountQEError, ParameterError
from .formula import count_witnesses, evaluate, free_vars
from .sets import (
    IntBox,
    LinearSetPresentation,
    SemilinearPresentation,
    check_disjoint_in_box,
    coordinate_names,
)
from .textio import ParseError, is_identifier, parse_formula, parse_presentation, print_formula
from .verify import run_check

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_CONTRACT = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4


def _read_input(path_or_expr: str, is_path: bool) -> str:
    if not is_path:
        return path_or_expr
    if path_or_expr == "-":
        return sys.stdin.read()
    with open(path_or_expr, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(text: str, path: Optional[str]) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_assignment(spec: str) -> dict:
    assignment = {}
    if not spec:
        return assignment
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, value = piece.partition("=")
        name = name.strip()
        value = value.strip()
        if not name or not value:
            raise ContractError(f"malformed assignment entry {piece!r}")
        if not is_identifier(name):
            raise ContractError(f"assigned name {name!r} is not an identifier")
        if name in assignment:
            raise ContractError(f"variable {name!r} is assigned more than once")
        try:
            assignment[name] = int(value)
        except ValueError:
            raise ContractError(f"assignment value for {name!r} is not an integer") from None
    return assignment


def _permute_counted_last(
    presentation: SemilinearPresentation, counted: str
) -> tuple[SemilinearPresentation, list]:
    """Move the counted coordinate to the last position.

    Coordinates are named x1..xn; returns the permuted presentation and the
    variable names in their new order.
    """
    names = coordinate_names(presentation.dimension)
    if counted not in names:
        raise ContractError(
            f"counted variable {counted!r} is not one of {', '.join(names)}"
        )
    idx = names.index(counted)
    if idx == presentation.dimension - 1:
        return presentation, names

    def permute(vec: Sequence[int]) -> tuple:
        rest = list(vec[:idx]) + list(vec[idx + 1 :])
        return tuple(rest + [vec[idx]])

    components = tuple(
        LinearSetPresentation(
            base=permute(comp.base),
            periods=tuple(permute(p) for p in comp.periods),
            domain=comp.domain,
        )
        for comp in presentation.components
    )
    permuted = SemilinearPresentation(
        components=components,
        asserted_disjoint=presentation.asserted_disjoint,
        asserted_simple=presentation.asserted_simple,
    )
    return permuted, [n for n in names if n != counted] + [counted]


def _format_report(result, estimated: int) -> str:
    lines = [f"# count variable: {result.count_var}"]
    for comp in result.report.components:
        fields = [f"component {comp.index}:", f"case={comp.case}"]
        if comp.denom is not None:
            fields.append(f"D={comp.denom}")
        if comp.case == "single-witness" and comp.selected_rows:
            fields.append("rows=" + ",".join(map(str, comp.selected_rows)))
        elif comp.case == "interval-count":
            fields.append(f"m={comp.multiplier}")
            fields.append("core-rows=" + ",".join(map(str, comp.selected_rows)))
            dropped = ",".join(map(str, comp.dropped_rows)) or "-"
            fields.append(f"dropped-rows={dropped}")
            fields.append("uppers=" + (",".join(map(str, comp.upper_rows)) or "-"))
            fields.append("lowers=" + (",".join(map(str, comp.lower_rows)) or "-"))
            fields.append("signs=" + (",".join(map(str, comp.sign_rows)) or "-"))
            fields.append(f"coset-period={comp.coset_period}")
        fields.append(f"count-var={comp.count_var or '-'}")
        fields.append(f"nodes={comp.nodes}")
        if comp.merged:
            fields.append("merged=" + ",".join(map(str, comp.merged)))
        lines.append("# " + " ".join(fields))
    lines.append(f"# total nodes: {result.report.nodes} (estimated {estimated})")
    return "\n".join(lines) + "\n"


def cmd_parse(args) -> int:
    text = _read_input(args.input, args.file)
    formula = parse_formula(text)
    rendered = print_formula(formula)
    if args.roundtrip:
        again = parse_formula(rendered)
        if again != formula:
            print("roundtrip mismatch", file=sys.stderr)
            return EXIT_VERIFICATION
    if args.unicode:
        rendered = print_formula(formula, unicode_mode=True)
    _write_output(rendered + "\n", args.output)
    return EXIT_OK


def cmd_eval(args) -> int:
    formula = parse_formula(_read_input(args.input, args.file))
    assignment = _parse_assignment(args.assign)
    value = evaluate(
        formula,
        assignment,
        domain=args.domain,
        quant_bound=args.quant_bound,
    )
    _write_output(("true" if value else "false") + "\n", args.output)
    return EXIT_OK


def cmd_count(args) -> int:
    body = parse_formula(_read_input(args.input, args.file))
    assignment = _parse_assignment(args.assign)
    if args.var in assignment:
        raise ContractError(f"the counted variable {args.var!r} cannot be assigned")
    missing = free_vars(body) - set(assignment) - {args.var}
    if missing:
        raise ContractError(f"unassigned variable(s): {', '.join(sorted(missing))}")
    result = count_witnesses(
        body,
        args.var,
        assignment,
        domain=args.domain,
        window=(-args.box_radius, args.box_radius),
        margin=args.margin,
        quant_bound=args.quant_bound,
    )
    _write_output(
        f"{result.count} {'stable' if result.stable else 'unstable'}\n", args.output
    )
    return EXIT_OK


def _plan_input(args):
    """Load, put the counted coordinate last and plan for ``--count-var``;
    returns the plan and the size of the formula it built, or refuses when
    that size exceeds ``--node-budget``."""
    if args.node_budget < 0:
        raise ParameterError(f"--node-budget must be nonnegative, got {args.node_budget}")
    radius = getattr(args, "disjoint_radius", 0)
    if radius < 0:
        raise ParameterError(f"--disjoint-radius must be nonnegative, got {radius}")
    presentation = parse_presentation(_read_input(args.input, is_path=True))
    counted = args.counted_var or coordinate_names(presentation.dimension)[-1]
    permuted, names = _permute_counted_last(presentation, counted)
    if getattr(args, "verify_disjoint", False):
        box = IntBox.cube(permuted.dimension, -args.disjoint_radius, args.disjoint_radius)
        if not check_disjoint_in_box(permuted, box):
            raise ContractError(
                f"components overlap inside the radius-{args.disjoint_radius} box"
            )
    plan = plan_elimination(permuted, names, args.count_var)
    estimated = estimate_result_nodes(plan)
    if estimated > args.node_budget:
        raise ContractError(
            f"estimated output size {estimated} exceeds node budget {args.node_budget}"
        )
    return plan, estimated


def cmd_eliminate(args) -> int:
    plan, estimated = _plan_input(args)
    result = eliminate(plan, args.count_var)
    out = print_formula(result.formula) + "\n"
    if args.report:
        out += _format_report(result, estimated)
    _write_output(out, args.output)
    return EXIT_OK


def _format_assignment(assignment: dict) -> str:
    return " ".join(f"{name}={value}" for name, value in assignment.items())


def cmd_check(args) -> int:
    plan, _ = _plan_input(args)
    outcome = run_check(
        plan,
        count_var=args.count_var,
        trials=args.trials,
        box_radius=args.box_radius,
        seed=args.seed,
    )
    lines = ["trial | assignment | oracle | stable | formula | verdict"]
    for record in outcome.records:
        formula_says = ",".join(map(str, record.satisfied)) or "-"
        lines.append(
            f"{record.index} | {_format_assignment(record.assignment)} | "
            f"{record.oracle.count} | {'yes' if record.oracle.stable else 'no'} | "
            f"{formula_says} | {record.verdict}"
        )
    lines.append(
        f"summary: trials={len(outcome.records)} mismatches={outcome.mismatches} "
        f"overlaps={outcome.overlaps} unstable={outcome.unstable}"
    )
    _write_output("\n".join(lines) + "\n", args.output)
    if outcome.overlaps:
        first = next(r for r in outcome.records if r.verdict == "overlap")
        print(
            "components overlap at " + _format_assignment(first.assignment),
            file=sys.stderr,
        )
        return EXIT_CONTRACT
    if outcome.mismatches or (args.strict and outcome.unstable_bad):
        first = next(
            r
            for r in outcome.records
            if r.verdict == "mismatch" or (args.strict and r.verdict == "unstable-bad")
        )
        print(
            "counterexample at " + _format_assignment(first.assignment)
            + f": oracle={first.oracle.count} formula={list(first.satisfied)}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="countqe",
        description="Counting-quantifier elimination over semilinear presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, input_help):
        p.add_argument("input", help=input_help)
        p.add_argument(
            "--file",
            action="store_true",
            help="treat the input as a path ('-' for stdin) instead of an inline expression",
        )
        p.add_argument("--output", default="-", help="output path (default stdout)")

    p_parse = sub.add_parser("parse", help="validate and pretty-print a formula")
    add_io(p_parse, "formula text or path with --file")
    p_parse.add_argument("--roundtrip", action="store_true", help="check print/parse stability")
    p_parse.add_argument("--unicode", action="store_true", help="display-only unicode rendering")

    p_eval = sub.add_parser("eval", help="evaluate a formula under an assignment")
    add_io(p_eval, "formula text or path with --file")
    p_eval.add_argument("--assign", default="", help='assignment, e.g. "x1=0,x3=2"')
    p_eval.add_argument("--domain", choices=["Z", "N"], default="Z")
    p_eval.add_argument("--quant-bound", type=int, default=64)

    p_count = sub.add_parser("count", help="brute-force witness count with stability flag")
    add_io(p_count, "formula text or path with --file")
    p_count.add_argument("--var", required=True, help="counted variable")
    p_count.add_argument("--assign", default="", help="values for the remaining free variables")
    p_count.add_argument("--domain", choices=["Z", "N"], default="Z")
    p_count.add_argument("--box-radius", type=int, default=100)
    p_count.add_argument("--margin", type=int, default=None, help="stability margin (default: auto)")
    p_count.add_argument("--quant-bound", type=int, default=64)

    p_elim = sub.add_parser("eliminate", help="eliminate the counting quantifier of a presentation")
    p_elim.add_argument("input", help="presentation path ('-' for stdin)")
    p_elim.add_argument("--output", default="-", help="output path (default stdout)")
    p_elim.add_argument("--counted-var", default=None, help="coordinate to count (default: last)")
    p_elim.add_argument("--count-var", default="y", help="name of the count variable")
    p_elim.add_argument("--report", action="store_true", help="append the construction trace")
    p_elim.add_argument("--node-budget", type=int, default=10**6)

    p_check = sub.add_parser("check", help="cross-check an elimination against the oracle")
    p_check.add_argument("input", help="presentation path ('-' for stdin)")
    p_check.add_argument("--output", default="-", help="output path (default stdout)")
    p_check.add_argument("--counted-var", default=None)
    p_check.add_argument("--count-var", default="y")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--box-radius", type=int, default=100)
    p_check.add_argument("--strict", action="store_true", help="fail on unstable points the formula does not refute")
    p_check.add_argument("--verify-disjoint", action="store_true", help="pre-check disjointness inside a small box")
    p_check.add_argument("--disjoint-radius", type=int, default=5)
    p_check.add_argument("--node-budget", type=int, default=10**6)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Looked up on each call, so that a replaced cmd_* function is used.
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except CountQEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except RecursionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
