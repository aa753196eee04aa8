import hashlib
import os
import random
from pathlib import Path

import pytest

from countqe import cli, elim
from countqe.cli import main
from countqe.formula import node_count
from countqe.sets import DomainTag
from countqe.textio import parse_presentation, print_formula
from helpers import is_subtraction_free, random_disjoint_presentation

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eval", "x = 1", "--assign", "x=1,1x=2"), "'1x' is not an identifier"),
            (("eval", "x = 1", "--assign", "x=1,mod=2"), "'mod' is not an identifier"),
            (("count", "x <= w", "--var", "x", "--assign", "w=3,a b=1"), "'a b' is not an identifier"),
            (("count", "x = y", "--var", "x", "--assign", "y=3,x=5"), "'x' cannot be assigned"),
        ],
    )
    def test_malformed_assignment_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "C x = y . (0 <= x & x <= 3)", "--assign", "y=4", "--quant-bound", "-5"),
            ("eval", "x = 1", "--assign", "x=1", "--quant-bound", "0"),
            ("count", "x <= 3 & 0 <= x", "--var", "x", "--quant-bound", "0"),
        ],
    )
    def test_quant_bound_below_1_exit_2(self, capsys, argv):
        # Refused even where no E or A is evaluated under the bound.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "quantifier bound must be positive" in err

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
        # No binder, whatever the denominator: 5 nodes.  The count of a
        # one-sided core is 0 wherever it is finite, so it has no part count:
        # its guard "x1 < 0" stands beside "y = 0".
        assert f"coset-period={denom} count-var=- nodes=2\n" in out
        assert "# total nodes: 5 (estimated 5)\n" in out

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
        # dropped and its row equation reads x3 = 2.  Of the congruences,
        # "3*x1 == 3 mod 6" is 3 times "5*x1 + 2*x2 == 5 mod 6", so it is
        # left out.
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
        assert "5*x1 + 2*x2 == 5 mod 6" in out and "3*x1 == 3 mod 6" not in out
        assert "# component 1: case=single-witness D=6 rows=1,2 count-var=y nodes=29\n" in out
        assert "# total nodes: 29 (estimated 29)\n" in out

    def test_union_report(self, capsys, tmp_path):
        # Three components split on x1 mod 3: a two-sided core binds the part
        # count _y0; a one-sided core counts 0 wherever it is finite, so it
        # has no part count ("-") and only its guard stands; the last
        # component with a count reads y less the other part, "y = _y0 + 1".
        path = tmp_path / "mixed.sl"
        path.write_text(
            "domain Z\ndim 2\ndisjoint\nsimple\n"
            "component\nbase 0 0\nperiod 3 1\nperiod 3 -7\n"
            "component\nbase 1 0\nperiod 3 1\nperiod 0 7\n"
            "component\nbase 2 0\nperiod 3 7\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eliminate", str(path), "--report")
        assert (code, err) == (0, "")
        assert out == (
            "E _t1 . E _y0 . ((0 <= 3*_t1 + 7*x1 & 3*_t1 + 7*x1 < 24 & 3*_t1 + 7*x1 == 0 mod 24"
            " & 0 <= _y0 & x1 < 3*_t1 + 24*_y0 & (_y0 = 0 | 3*_t1 + 24*_y0 <= x1 + 24)"
            " | !x1 == 0 mod 3 & _y0 = 0) & !(1 <= x1 & 2*x1 == 2 mod 3)"
            " & (2 <= x1 & x1 == 2 mod 3 & y = _y0 + 1 | !(2 <= x1 & x1 == 2 mod 3) & y = _y0))\n"
            "# count variable: y\n"
            "# component 1: case=interval-count D=24 m=3 core-rows=1,2 dropped-rows=- uppers=2 lowers=1"
            " signs=- coset-period=8 count-var=_y0 nodes=31\n"
            "# component 2: case=interval-count D=21 m=3 core-rows=1,2 dropped-rows=- uppers=- lowers=2"
            " signs=1 coset-period=7 count-var=- nodes=6\n"
            "# component 3: case=single-witness D=3 rows=1 count-var=y nodes=19\n"
            "# total nodes: 58 (estimated 58)\n"
        )
        code, out, err = run(capsys, "check", str(path), "--trials", "40")
        assert (code, err) == (0, "")
        assert " mismatches=0 " in out

    def test_group_report(self, capsys, tmp_path):
        # Components 1 and 3 are single-witness, x1 = 0 and x1 = 2 (mod 3):
        # they exclude each other and share the one 0/1 count _y0.  Each
        # names it, and each reports the 30 nodes of the group's one body.
        # The two-sided core binds _t1 (its multiplier 6 does not divide the
        # coefficient of x1 in its lower term) and reads y less the group's
        # count.
        path = tmp_path / "group.sl"
        path.write_text(
            "domain Z\ndim 2\ndisjoint\nsimple\n"
            "component\nbase 0 0\nperiod 3 1\n"
            "component\nbase 1 0\nperiod 3 1\nperiod 0 7\n"
            "component\nbase 2 0\nperiod 3 7\n"
            "component\nbase 3 5\nperiod 6 1\nperiod 6 -1\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eliminate", str(path), "--report")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "# count variable: y",
            "# component 1: case=single-witness D=3 rows=1 count-var=_y0 nodes=30",
            "# component 2: case=interval-count D=21 m=3 core-rows=1,2 dropped-rows=- uppers=- lowers=2"
            " signs=1 coset-period=7 count-var=- nodes=6",
            "# component 3: case=single-witness D=3 rows=1 count-var=_y0 nodes=30",
            "# component 4: case=interval-count D=12 m=6 core-rows=1,2 dropped-rows=- uppers=2 lowers=1"
            " signs=- coset-period=2 count-var=y nodes=36",
            "# total nodes: 74 (estimated 74)",
        ]
        assert out.startswith(
            "E _y0 . E _t1 . (((0 <= x1 & x1 == 0 mod 3 | 2 <= x1 & x1 == 2 mod 3) & _y0 = 1"
            " | !(0 <= x1 & x1 == 0 mod 3) & !(2 <= x1 & x1 == 2 mod 3) & _y0 = 0)"
        )
        code, out, err = run(capsys, "check", str(path), "--trials", "40")
        assert (code, err) == (0, "")
        assert " mismatches=0 " in out

    def test_merged_report(self, capsys, tmp_path):
        # Components 1 and 3 are the two classes of the period (6, 1) of one
        # two-sided core, (3, 5) + N(6, 1) + N(6, -1), modulo 2: they are
        # eliminated as that core.  Each shows its fields, its count _y0 and
        # its 31 nodes, and both list merged=1,3; the point 2 stands alone.
        core = "period 12 2\nperiod 6 -1\n"
        split = tmp_path / "split.sl"
        split.write_text(
            "domain Z\ndim 2\ndisjoint\nsimple\n"
            f"component\nbase 3 5\n{core}component\nbase -1 0\ncomponent\nbase 9 6\n{core}",
            encoding="utf-8",
        )
        whole = tmp_path / "whole.sl"
        whole.write_text(
            "domain Z\ndim 2\ndisjoint\nsimple\n"
            "component\nbase 3 5\nperiod 6 1\nperiod 6 -1\ncomponent\nbase -1 0\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "eliminate", str(split), "--report")
        assert (code, err) == (0, "")
        core_line = (
            "case=interval-count D=12 m=6 core-rows=1,2 dropped-rows=- uppers=2 lowers=1"
            " signs=- coset-period=2 count-var=_y0 nodes=31"
        )
        assert out.splitlines()[1:] == [
            "# count variable: y",
            f"# component 1: {core_line} merged=1,3",
            "# component 2: case=single-witness count-var=y nodes=14",
            f"# component 3: {core_line} merged=1,3",
            "# total nodes: 47 (estimated 47)",
        ]
        _, unsplit, _ = run(capsys, "eliminate", str(whole))
        assert out.splitlines()[0] == unsplit.rstrip("\n")
        code, out, err = run(capsys, "check", str(split), "--trials", "40")
        assert (code, err) == (0, "")
        assert " mismatches=0 " in out

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
        # natural.sl's formula has 22 nodes: a budget of 21 refuses before
        # anything is printed, 22 prints it.
        def refuse(*args, **kwargs):
            raise AssertionError("eliminate ran over budget")

        monkeypatch.setattr(cli, "eliminate", refuse)
        code, out, err = run(capsys, "eliminate", fixture("natural.sl"), "--node-budget", "21")
        assert (code, out, err) == (2, "", "error: estimated output size 22 exceeds node budget 21\n")
        monkeypatch.undo()
        code, out, err = run(capsys, "eliminate", fixture("natural.sl"), "--node-budget", "22")
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
                "x2 = 2*x1 & 0 <= y & (x3 < 2*y | 2*x3 < x1 + 3*y)"
                " & (y = 0 | 2*y <= x3 + 2 & x1 + 3*y <= 2*x3 + 3) | !x2 = 2*x1 & y = 0",
            ),
            (
                "three_periods.sl",
                ["--counted-var", "x1"],
                "x2 <= 2*x3 + 2*x4 & 2*x4 <= x2 & 6*x4 <= x2 + 2*x3"
                " & 3*x2 + 2*x3 + 2*x4 == 0 mod 4 & y = 1"
                " | !(x2 <= 2*x3 + 2*x4 & 2*x4 <= x2 & 6*x4 <= x2 + 2*x3"
                " & 3*x2 + 2*x3 + 2*x4 == 0 mod 4) & y = 0",
            ),
            (
                "natural.sl",
                [],
                "E _t0 . (x1 <= 2*_t0 & 2*_t0 < x1 + 6 & 2*_t0 + 2*x1 == 0 mod 3"
                " & 2*x1 < _t0 + 3*y & (y = 0 | _t0 + 3*y <= 2*x1 + 3))",
            ),
            (
                "natural.sl",
                ["--counted-var", "x1"],
                "E _t0 . (x2 <= 2*_t0 & 2*_t0 < x2 + 6 & 2*_t0 + 2*x2 == 0 mod 3"
                " & 2*x2 < _t0 + 3*y & (y = 0 | _t0 + 3*y <= 2*x2 + 3))",
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


# Two cores with the periods (1, 1), (0, 2): x2 - x1 even and at least 0, or
# odd and at least 3.  They are no residue split of one set (the class of
# base (0, 1) is missing), so each is planned.
TWO_CORES = (
    "domain Z\ndim 2\ndisjoint\nsimple\n"
    "component\nbase 0 0\nperiod 1 1\nperiod 0 2\n"
    "component\nbase 0 3\nperiod 1 1\nperiod 0 2\n"
)

# The two classes of (0, 0) + N(1, 1) + N(0, 1) modulo 2 in its second
# period: one one-sided core.
SPLIT_CORE = (
    "domain Z\ndim 2\ndisjoint\nsimple\n"
    "component\nbase 0 0\nperiod 1 1\nperiod 0 2\n"
    "component\nbase 0 1\nperiod 1 1\nperiod 0 2\n"
)


def test_a_split_core_is_planned_once(capsys, monkeypatch, tmp_path):
    # The two components of SPLIT_CORE are planned and built as one core of
    # constant count: one Cramer solution and one guard per command, and
    # no part count.
    path = tmp_path / "split_core.sl"
    path.write_text(SPLIT_CORE, encoding="utf-8")
    calls, built = [], []
    solve, guard = elim.cramer_solve, elim._guard

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    def counting_guard(plan):
        built.append(plan)
        return guard(plan)

    monkeypatch.setattr(elim, "cramer_solve", counting_solve)
    monkeypatch.setattr(elim, "_guard", counting_guard)
    code, out, err = run(capsys, "eliminate", str(path), "--report")
    assert (code, err) == (0, "")
    assert out.count("count-var=- nodes=2 merged=1,2") == 2
    assert (len(calls), len(built)) == (1, 1)
    calls.clear()
    built.clear()
    code, _, err = run(capsys, "check", str(path), "--trials", "3")
    assert (code, err) == (0, "")
    assert (len(calls), len(built)) == (1, 1)


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
    # check read what it built.  A component of constant count is built as
    # its guard, any other by its case's builder.
    (tmp_path / "two_cores.sl").write_text(TWO_CORES, encoding="utf-8")
    (tmp_path / "core_and_point.sl").write_text(CORE_AND_POINT, encoding="utf-8")
    path = fixture(name) if os.path.exists(fixture(name)) else str(tmp_path / name)
    built = []
    for builder in ("_guard", "_case_single", "_case_interval"):
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


def test_output_hashes_are_pinned(capsys):
    # Changes to the oracle or the pinned evaluator must leave these bytes
    # as they are: the eliminated formulas of the fixtures and of 300 seeded
    # draws (Z and N alternating), hashed per domain, and the check tables
    # of three fixtures on which every trial is stable.  The draws' node
    # total is pinned too, so a change of size reads as a number.  Every
    # formula is subtraction-free, over Z and over N.
    presentations = [
        parse_presentation(path.read_text(encoding="utf-8"))
        for path in sorted(Path(FIXTURES).glob("*.sl"))
        if path.stem != "nonsimple"
    ]
    fixtures = len(presentations)
    rng = random.Random(11)
    presentations += [
        random_disjoint_presentation(rng, (DomainTag.Z, DomainTag.N)[i % 2]) for i in range(300)
    ]
    formulas = [elim.plan_elimination(p).result.formula for p in presentations]
    assert sum(node_count(f) for f in formulas[fixtures:]) == 4876
    assert all(is_subtraction_free(f) for f in formulas)
    expected = {
        DomainTag.Z: "e3a07672b3e7c2a5679f3a983f6989928402a5c6028c39329d155db9620465ca",
        DomainTag.N: "3a4e012c723e98aa0fac5c0af02d8b12372e5e44e34bbc5b102abb24a0fe4b52",
    }
    for domain, digest in expected.items():
        printed = "".join(print_formula(f) + "\n" for p, f in zip(presentations, formulas) if p.domain is domain)
        assert hashlib.sha256(printed.encode()).hexdigest() == digest, domain
    for name in ("three_periods", "natural", "singleton"):
        assert main(["check", fixture(f"{name}.sl"), "--trials", "100"]) == 0
    tables = capsys.readouterr().out
    assert tables.count("| ok\n") == 300
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "c3c23835ef5e8c0d431c0e4f932c7f5e825cf8bc61fa18827e67b7cbcb178958"
    )
