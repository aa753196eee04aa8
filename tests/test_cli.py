import os

import pytest

from countqe import cli, elim
from countqe.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_pretty_print(self, capsys):
        code, out, err = run(
            capsys, "parse", "C x = y . (-1 <= x & x <= 3)", "--roundtrip"
        )
        assert code == 0
        assert out == "C x = y . (-1 <= x & x <= 3)\n"

    def test_syntax_error_exit_code(self, capsys):
        code, out, err = run(capsys, "parse", "x <= ?")
        assert code == 1
        assert "syntax error" in err

    def test_roundtrip_of_deep_binder_chain(self, capsys):
        text = "".join(f"E c{i} . " for i in range(400)) + "c0 = c399"
        code, out, err = run(capsys, "parse", text, "--roundtrip")
        assert code == 0, err
        assert out == text + "\n"

    def test_file_roundtrip_of_5000_binders(self, capsys, tmp_path):
        text = "".join(f"{'EA'[i % 2]} c{i} . " for i in range(5000)) + "c0 = c4999"
        path = tmp_path / "chain.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "parse", str(path), "--file", "--roundtrip")
        assert (code, out, err) == (0, text + "\n", "")

    def test_roundtrip_of_1200_mixed_heads(self, capsys):
        heads = ("E c{} . ", "A c{} . ", "!", "C c{} = n . ")
        text = "".join(heads[i % 4].format(i) for i in range(1200)) + "c0 = n"
        code, out, err = run(capsys, "parse", text, "--roundtrip")
        assert (code, out, err) == (0, text + "\n", "")

    def test_recursion_error_is_an_internal_error(self, capsys, monkeypatch):
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_parse", too_deep)
        code, out, err = run(capsys, "parse", "x = 1")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: maximum recursion depth exceeded\n"

    def test_unicode_display(self, capsys):
        code, out, err = run(capsys, "parse", "x = 1 & y = 2", "--unicode")
        assert code == 0
        assert "∧" in out


class TestEvalCommand:
    def test_counting_example_true(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "C x = y . (-1 <= x & x <= 3)",
            "--assign",
            "y=5",
        )
        assert code == 0 and out == "true\n"

    def test_counting_example_false(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "C x = y . (-1 <= x & x <= 3)",
            "--assign",
            "y=4",
        )
        assert code == 0 and out == "false\n"

    def test_unbound_variable(self, capsys):
        code, _, err = run(capsys, "eval", "x = 1")
        assert code == 2
        assert "error" in err


class TestCountCommand:
    def test_bounded(self, capsys):
        code, out, _ = run(capsys, "count", "-1 <= x & x <= 3", "--var", "x")
        assert code == 0 and out == "5 stable\n"

    def test_unbounded(self, capsys):
        code, out, _ = run(capsys, "count", "x >= 0", "--var", "x")
        assert code == 0
        assert out.endswith("unstable\n")

    def test_false_body(self, capsys):
        code, out, _ = run(capsys, "count", "false", "--var", "x")
        assert code == 0 and out == "0 stable\n"

    def test_missing_assignment(self, capsys):
        code, _, err = run(capsys, "count", "x <= w", "--var", "x")
        assert code == 2
        assert "w" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "x = 1", "--assign", "x=1,x=2"),
            ("count", "x <= w", "--var", "x", "--assign", "w=3, w=3"),
        ],
    )
    def test_repeated_assignment_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "more than once" in err

    def test_negative_box_radius_exit_2(self, capsys):
        # The window (4, -4) is empty: counting in it would report "0 stable".
        code, out, err = run(capsys, "count", "x = 1", "--var", "x", "--box-radius", "-4")
        assert (code, out) == (2, "")
        assert "parameter error" in err


def half_line(tmp_path, denom):
    """A presentation file with periods (1, 1) and (0, denom)."""
    path = tmp_path / f"half_line_{denom}.sl"
    path.write_text(
        f"domain Z\ndim 2\ndisjoint\nsimple\ncomponent\nbase 0 0\nperiod 1 1\nperiod 0 {denom}\n",
        encoding="utf-8",
    )
    return str(path)


class TestEliminateCommand:
    def test_worked_example_report(self, capsys):
        code, out, _ = run(
            capsys,
            "eliminate",
            fixture("three_periods.sl"),
            "--counted-var",
            "x4",
            "--report",
        )
        assert code == 0
        assert "case=interval-count" in out
        assert "D=2" in out
        assert "m=6" in out
        assert "coset-period=2 count-var=y " in out

    @pytest.mark.parametrize("denom", [100, 400, 1200])
    def test_half_line_without_budget_warning(self, capsys, tmp_path, denom):
        code, out, err = run(capsys, "eliminate", half_line(tmp_path, denom), "--report")
        assert (code, err) == (0, "")
        # No binder, whatever the denominator: 6 nodes.
        assert f"coset-period={denom} count-var=y nodes=6\n" in out

    def test_d8_m2_without_budget_warning(self, capsys, tmp_path):
        # A two-sided core with D = 8 and m = 2, whose first witness has
        # coset period 8.
        path = tmp_path / "d8_m2.sl"
        path.write_text(
            "domain Z\ndim 3\ndisjoint\nsimple\ncomponent\nbase 2 3 0\n"
            "period 1 2 -1\nperiod 0 1 -3\nperiod 0 2 2\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eliminate", str(path), "--report")
        assert (code, err) == (0, "")
        assert "coset-period=8 count-var=y " in out

    def test_singleton_report(self, capsys):
        code, out, _ = run(capsys, "eliminate", fixture("singleton.sl"), "--report")
        assert code == 0
        assert "case=single-witness count-var=y " in out

    def test_single_witness_report(self, capsys, tmp_path):
        # x1 = 1 + 2a and x2 = a + 3b: rows 1 and 2 give D = 6; row 3 is
        # dropped and its row equation reads x3 = 2.
        path = tmp_path / "single.sl"
        path.write_text(
            "domain Z\ndim 4\ndisjoint\nsimple\ncomponent\nbase 1 0 2 5\n"
            "period 2 1 0 3\nperiod 0 3 0 1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eliminate", str(path), "--report")
        assert (code, err) == (0, "")
        assert "Exists" not in out and "E " not in out
        assert "x3 = 2" in out
        assert "# component 1: case=single-witness D=6 rows=1,2 count-var=y nodes=33\n" in out
        assert "# total nodes: 33 (estimated 33)\n" in out

    def test_non_simple_exit_2(self, capsys):
        code, _, err = run(capsys, "eliminate", fixture("nonsimple.sl"))
        assert code == 2
        assert "simple" in err

    def test_missing_assertions_exit_2(self, capsys, tmp_path):
        path = tmp_path / "plain.sl"
        path.write_text("domain Z\ndim 1\ncomponent\nbase 0\n")
        code, _, err = run(capsys, "eliminate", str(path))
        assert code == 2

    def test_bad_file_syntax_exit_1(self, capsys, tmp_path):
        path = tmp_path / "broken.sl"
        path.write_text("domain Q\n")
        code, _, err = run(capsys, "eliminate", str(path))
        assert code == 1

    def test_output_parses_back(self, capsys):
        from countqe.textio import parse_formula

        code, out, _ = run(capsys, "eliminate", fixture("singleton.sl"))
        assert code == 0
        parse_formula(out.strip())

    def test_counted_var_permutation(self, capsys):
        from countqe.formula import free_vars
        from countqe.textio import parse_formula

        code, out, _ = run(
            capsys,
            "eliminate",
            fixture("singleton.sl"),
            "--counted-var",
            "x1",
        )
        assert code == 0
        # counting x1: the free variables are x2 and the count variable
        assert free_vars(parse_formula(out.strip())) == {"x2", "y"}

    def test_unknown_counted_var(self, capsys):
        code, _, err = run(
            capsys, "eliminate", fixture("singleton.sl"), "--counted-var", "x9"
        )
        assert code == 2

    @pytest.mark.parametrize("name", ["y+1", "1y", "a b", "mod", "true", "false", ""])
    def test_count_var_must_be_an_identifier(self, capsys, name):
        code, out, err = run(capsys, "eliminate", fixture("natural.sl"), "--count-var", name)
        assert (code, out) == (2, "")
        assert "not an identifier" in err

    @pytest.mark.parametrize("name", ["E", "A", "C", "_c", "n2"])
    def test_count_var_reads_back(self, capsys, name):
        from countqe.formula import free_vars
        from countqe.textio import parse_formula

        code, out, _ = run(capsys, "eliminate", fixture("natural.sl"), "--count-var", name)
        assert code == 0
        assert free_vars(parse_formula(out.strip())) == {"x1", name}

    def test_negative_node_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "eliminate", fixture("natural.sl"), "--node-budget", "-1")
        assert (code, out) == (2, "")
        assert "parameter error: --node-budget" in err

    def test_over_budget_refused_before_building(self, capsys, monkeypatch):
        # natural.sl's formula has 36 nodes: a budget of 35 refuses before
        # anything is printed, 36 prints it.
        def refuse(*args, **kwargs):
            raise AssertionError("eliminate ran over budget")

        monkeypatch.setattr(cli, "eliminate", refuse)
        code, out, err = run(capsys, "eliminate", fixture("natural.sl"), "--node-budget", "35")
        assert (code, out, err) == (2, "", "error: estimated output size 36 exceeds node budget 35\n")
        monkeypatch.undo()
        code, out, err = run(capsys, "eliminate", fixture("natural.sl"), "--node-budget", "36")
        assert (code, err) == (0, "")

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "eliminate", fixture("three_periods.sl"))
        code2, out2, _ = run(capsys, "eliminate", fixture("three_periods.sl"))
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "name, argv, expected",
        [
            (
                "three_periods.sl",
                [],
                "E _t0 . (x2 = 2*x1 & x1 - x3 <= _t0 & _t0 < x1 - x3 + 2 & _t0 + x1 + x3 == 0 mod 2"
                " & ((x1 < _t0 | x1 + x3 < 3*_t0) & y = 0 | _t0 <= x1 & 3*_t0 <= x1 + x3"
                " & 2*y <= -_t0 + x1 + 2 & 6*y <= -3*_t0 + x1 + x3 + 6"
                " & (2*y <= -_t0 + x1 + 2 & -_t0 + x1 < 2*y"
                " | 6*y <= -3*_t0 + x1 + x3 + 6 & -3*_t0 + x1 + x3 < 6*y)) | !x2 = 2*x1 & y = 0)",
            ),
            (
                "three_periods.sl",
                ["--counted-var", "x1"],
                "0 <= -x2 + 2*x3 + 2*x4 & 0 <= x2 - 2*x4 & 0 <= x2 + 2*x3 - 6*x4"
                " & 3*x2 + 2*x3 + 2*x4 == 0 mod 4 & 2*x2 == 0 mod 4 & x2 + 2*x3 + 2*x4 == 0 mod 4 & y = 1"
                " | !(0 <= -x2 + 2*x3 + 2*x4 & 0 <= x2 - 2*x4 & 0 <= x2 + 2*x3 - 6*x4"
                " & 3*x2 + 2*x3 + 2*x4 == 0 mod 4 & 2*x2 == 0 mod 4 & x2 + 2*x3 + 2*x4 == 0 mod 4) & y = 0",
            ),
            (
                "natural.sl",
                [],
                "E _t0 . (x1 <= 2*_t0 & 2*_t0 < x1 + 6 & 2*_t0 + 2*x1 == 0 mod 3"
                " & (2*x1 < _t0 & y = 0 | _t0 <= 2*x1 & _t0 + 3*y <= 2*x1 + 3 & 2*x1 < _t0 + 3*y)"
                " | x1 < 0 & y = 0)",
            ),
            (
                "natural.sl",
                ["--counted-var", "x1"],
                "E _t0 . (x2 <= 2*_t0 & 2*_t0 < x2 + 6 & 2*_t0 + 2*x2 == 0 mod 3"
                " & (2*x2 < _t0 & y = 0 | _t0 <= 2*x2 & _t0 + 3*y <= 2*x2 + 3 & 2*x2 < _t0 + 3*y)"
                " | x2 < 0 & y = 0)",
            ),
        ],
    )
    def test_exact_output(self, capsys, name, argv, expected):
        code, out, err = run(capsys, "eliminate", fixture(name), *argv)
        assert (code, out, err) == (0, expected + "\n", "")


class TestCheckCommand:
    def test_worked_example_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture("three_periods.sl"),
            "--trials",
            "25",
            "--box-radius",
            "25",
        )
        assert code == 0
        assert "mismatches=0" in out

    def test_natural_domain_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture("natural.sl"),
            "--trials",
            "20",
            "--box-radius",
            "20",
        )
        assert code == 0

    @pytest.mark.parametrize("option", [("--box-radius", "-5"), ("--trials", "-3")])
    def test_negative_option_exit_2(self, capsys, option):
        code, out, err = run(capsys, "check", fixture("natural.sl"), *option)
        assert (code, out) == (2, "")
        assert "parameter error" in err

    @pytest.mark.parametrize(
        "option", [("--node-budget", "-1"), ("--verify-disjoint", "--disjoint-radius", "-1")]
    )
    def test_negative_budget_or_radius_exit_2(self, capsys, option):
        code, out, err = run(capsys, "check", fixture("natural.sl"), *option)
        assert (code, out) == (2, "")
        assert f"parameter error: {option[-2]}" in err

    def test_over_budget_refused_before_building(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check ran over budget")

        monkeypatch.setattr(cli, "run_check", refuse)
        code, out, err = run(capsys, "check", fixture("three_periods.sl"), "--node-budget", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: estimated output size ") and err.endswith(" exceeds node budget 10\n")
        assert err.count("\n") == 1

    def test_count_var_must_be_an_identifier(self, capsys):
        code, out, err = run(capsys, "check", fixture("natural.sl"), "--count-var", "y+1")
        assert (code, out) == (2, "")
        assert "not an identifier" in err

    def test_half_line_1200(self, capsys, tmp_path):
        # A coset witness of period 1,200: one window step decides it.
        code, out, err = run(capsys, "check", half_line(tmp_path, 1200), "--trials", "2")
        assert (code, err) == (0, "")
        assert "summary: trials=2 mismatches=0 " in out

    def test_vacuous_case_binders(self, capsys, tmp_path):
        # One-sided core with D = 32 (coset period 16) and dropped row 3
        # (x3 = -2).  Its 1,024 residue cases once bound a variable each,
        # which no conjunct read where that relation fails; deciding them
        # crashed with RecursionError.
        path = tmp_path / "d32.sl"
        path.write_text(
            "domain Z\ndim 4\ndisjoint\nsimple\ncomponent\nbase -2 0 -2 3\n"
            "period 0 -2 0 -2\nperiod -3 1 0 0\nperiod 1 3 0 -2\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check", str(path), "--trials", "20")
        assert (code, err) == (0, "")
        assert "summary: trials=20 mismatches=0 " in out

    def test_overlap_with_verify_disjoint(self, capsys):
        code, _, err = run(
            capsys,
            "check",
            fixture("overlap.sl"),
            "--verify-disjoint",
            "--trials",
            "2",
        )
        assert code == 2
        assert "overlap" in err

    def test_deterministic_output(self, capsys):
        args = ("check", fixture("singleton.sl"), "--trials", "8", "--seed", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        import io
        import sys

        text = open(fixture("singleton.sl")).read()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "check", "-", "--trials", "3")
        assert code == 0


TWO_CORES = (
    "domain Z\ndim 2\ndisjoint\nsimple\n"
    "component\nbase 0 0\nperiod 1 1\nperiod 0 2\n"
    "component\nbase 0 1\nperiod 1 1\nperiod 0 2\n"
)


@pytest.mark.parametrize("name, cores", [("three_periods.sl", 1), ("two_cores.sl", 2)])
def test_each_command_plans_each_component_once(capsys, monkeypatch, tmp_path, name, cores):
    # One Cramer solution per interval-count component and command: the CLI
    # plans once and passes the plan on to the estimate and the elimination.
    (tmp_path / "two_cores.sl").write_text(TWO_CORES, encoding="utf-8")
    path = str(tmp_path / name) if name == "two_cores.sl" else fixture(name)
    calls = []
    solve = elim.cramer_solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(elim, "cramer_solve", counting)
    code, out, err = run(capsys, "eliminate", path, "--report")
    assert (code, err) == (0, "")
    assert out.count("case=interval-count") == cores
    assert len(calls) == cores
    calls.clear()
    code, _, err = run(capsys, "check", path, "--trials", "3")
    assert (code, err) == (0, "")
    assert len(calls) == cores


# A singleton beside a core, outside it (its second coordinate is negative).
CORE_AND_POINT = (
    "domain Z\ndim 2\ndisjoint\nsimple\n"
    "component\nbase 0 0\nperiod 1 1\nperiod 0 2\n"
    "component\nbase 5 -1\n"
)


@pytest.mark.parametrize(
    "name, components",
    [("singleton.sl", 1), ("three_periods.sl", 1), ("two_cores.sl", 2), ("core_and_point.sl", 2)],
)
def test_each_command_builds_each_component_once(capsys, monkeypatch, tmp_path, name, components):
    # Planning builds the formula; the size check, the elimination and the
    # check read what it built.
    (tmp_path / "two_cores.sl").write_text(TWO_CORES, encoding="utf-8")
    (tmp_path / "core_and_point.sl").write_text(CORE_AND_POINT, encoding="utf-8")
    path = fixture(name) if os.path.exists(fixture(name)) else str(tmp_path / name)
    built = []
    for builder in ("_case_single", "_case_interval"):
        def counting(plan, *args, build=getattr(elim, builder)):
            built.append(plan)
            return build(plan, *args)

        monkeypatch.setattr(elim, builder, counting)
    for argv in (["eliminate", path, "--report"], ["check", path, "--trials", "3"]):
        built.clear()
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(built) == len({id(plan) for plan in built}) == components


@pytest.mark.parametrize("command", ["eliminate", "check"])
def test_planning_refuses_before_printing(capsys, tmp_path, command):
    # The assertion flags and the count variable are checked while planning,
    # with the messages they had when the elimination checked them.
    path = tmp_path / "plain.sl"
    path.write_text("domain Z\ndim 1\ncomponent\nbase 0\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: presentation must be asserted disjoint and simple for elimination\n"
    code, out, err = run(capsys, command, fixture("natural.sl"), "--count-var", "x1")
    assert (code, out) == (2, "")
    assert err == "error: count variable clashes with a coordinate name\n"


def _move_to_end(text, k):
    """The presentation file ``text`` with coordinate ``k`` (0-based) moved
    last on every base and period line."""
    lines = []
    for line in text.splitlines():
        head, *entries = line.split()
        if head in ("base", "period"):
            entries = entries[:k] + entries[k + 1 :] + [entries[k]]
            line = " ".join([head] + entries)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _check_rows(out):
    """The trial rows of ``check`` output, each assignment by value only,
    and the summary line."""
    *rows, summary = out.splitlines()[1:]
    parsed = []
    for row in rows:
        index, assignment, *rest = row.split(" | ")
        parsed.append((index, [pair.split("=")[1] for pair in assignment.split()], rest))
    return parsed, summary


def test_counted_var_agrees_with_a_hand_permuted_file(capsys, tmp_path):
    # Counting x_k of a file is counting the last coordinate of the same file
    # with x_k moved last by hand: at matching assignments (the same values
    # in the same order), check reports the same count values.
    import random
    from pathlib import Path

    from helpers import print_presentation, random_disjoint_presentation
    from countqe.sets import DomainTag

    rng = random.Random(4099)
    texts = [
        Path(fixture(name)).read_text(encoding="utf-8")
        for name in ("three_periods.sl", "natural.sl", "singleton.sl")
    ]
    texts += [
        print_presentation(random_disjoint_presentation(rng, domain, max_dimension=4))
        for domain in (DomainTag.Z, DomainTag.N) * 8
    ]
    compared = hits = 0
    for number, text in enumerate(texts):
        dim = int(next(line for line in text.splitlines() if line.startswith("dim")).split()[1])
        for k in range(dim - 1):
            original, moved = tmp_path / f"{number}.sl", tmp_path / f"{number}_{k}.sl"
            original.write_text(text, encoding="utf-8")
            moved.write_text(_move_to_end(text, k), encoding="utf-8")
            options = ("--trials", "12", "--box-radius", "6", "--seed", str(number))
            code, out, err = run(capsys, "check", str(original), "--counted-var", f"x{k + 1}", *options)
            assert (code, err) == (0, ""), text
            code, expected, err = run(capsys, "check", str(moved), *options)
            assert (code, err) == (0, ""), text
            rows, summary = _check_rows(out)
            assert (rows, summary) == _check_rows(expected), (text, k)
            assert " mismatches=0 " in summary
            compared += 1
            hits += sum(row[2][-2] not in ("-", "0") for row in rows)
    assert compared >= 25 and hits >= 20, (compared, hits)
