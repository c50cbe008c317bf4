import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import henkin
from henkin import (
    Budget,
    Equation,
    Presentation,
    ceitin_h12,
    compile_instance,
    evaluate,
    format_formula,
    format_tables,
    infinity_sentence,
    parse_formula,
    witness_tables,
)
from henkin.budget import whole
from henkin.cli import _read_formula_text, main

from _corpus import CROSSCHECK_INSTANCES, HANDWRITTEN, without_separation

CANON_TEXT = "aa = a\nbb = b\n"


@pytest.fixture
def canon_file(tmp_path):
    path = tmp_path / "canon.txt"
    path.write_text(CANON_TEXT, encoding="ascii")
    return str(path)


class TestEval:
    def test_true_expr(self, capsys):
        assert main(["eval", "--expr", "forall x . x = x", "--size", "3"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_false_expr(self, capsys):
        assert main(["eval", "--expr", "exists x . x != x", "--size", "3"]) == 1
        assert capsys.readouterr().out == "false\n"

    def test_naive_engine(self, capsys):
        code = main(["eval", "--naive", "--expr", "H{ forall x ; y(x) } . y = x", "--size", "2"])
        assert code == 0
        assert capsys.readouterr().out == "true\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("exists a b . a != b"))
        assert main(["eval", "-", "--size", "2"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_file_source(self, capsys, tmp_path):
        src = tmp_path / "f.hf"
        src.write_text("forall x . exists y . y = x\n", encoding="ascii")
        assert main(["eval", str(src), "--size", "3"]) == 0

    def test_show_witness(self, capsys):
        code = main(
            ["eval", "--show-witness", "--expr", "H{ forall x ; y(x) } . y = x", "--size", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["true", "y: (0)->0 (1)->1"]

    def test_show_witness_without_spine(self, capsys):
        code = main(["eval", "--show-witness", "--expr", "forall x . x = x", "--size", "2"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["true", "witness: (no outer existential spine to tabulate)"]

    def test_show_witness_fits_the_budget_of_one_search(self, capsys):
        f = compile_instance(
            Presentation.of([Equation("aa", "a"), Equation("bb", "b")]), Equation("ab", "ba")
        )
        budget = Budget()
        assert evaluate(f, 2, budget=budget)
        argv = ["eval", "--show-witness", "--expr", format_formula(f), "--size", "2", "--budget"]
        assert main(argv + [str(budget.spent)]) == 0
        tables = format_tables(witness_tables(f, 2))
        assert capsys.readouterr().out == f"true\n{tables}\n"
        assert main(argv + [str(budget.spent - 1)]) == 4

    def test_budget_exhausted(self, capsys):
        code = main(["eval", "--expr", "forall a b c d . a = a", "--size", "3", "--budget", "5"])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_negative_budget_is_a_usage_error(self, capsys):
        assert main(["eval", "--expr", "true", "--size", "1", "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget must be at least 0\n"

    def test_naive_budget_bounds_table_cells(self, capsys):
        # 10^6 cells at m=1000: the budget must stop the naive engine before
        # it lists them all.
        argv = ["eval", "--naive", "--expr", "H{ forall x y ; w(x y) } . true"]
        tracemalloc.start()
        try:
            code = main(argv + ["--size", "1000", "--budget", "10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "budget of 10 nodes exceeded" in capsys.readouterr().err
        assert peak < 5_000_000

    @pytest.mark.parametrize(
        "argv",
        [
            ["--naive", "--expr", "forall x . x = x", "--size", "1000000", "--budget", "100"],
            ["--expr", "H{ forall x ; y(x) } . y = x", "--size", "1000000", "--budget", "100"],
            ["--show-witness", "--expr", "H{ forall x ; y(x) } . true", "--size", "1000000"],
            ["--show-witness", "--expr", "H{ forall x y ; w(x y) } . true", "--size", "1000"],
            # 3,000 cells, each charged: the fillings of all of them must
            # still come one at a time, in memory linear in the cells.
            ["--naive", "--expr", "H{ forall x ; y(x) } . y = x", "--size", "3000", "--budget", "4000"],
        ],
        ids=["naive-block", "ground", "unread-cells", "unread-cells-arity-2", "naive-fillings"],
    )
    def test_budget_stops_before_listing_the_domain(self, capsys, argv):
        # Neither engine may build a range of the domain, nor witness_tables
        # a table, nor the reference engine its table fillings, ahead of the
        # nodes it charges.
        budget = ["--budget", "10"] if "--budget" not in argv else []
        tracemalloc.start()
        try:
            code = main(["eval"] + argv + budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "nodes exceeded" in capsys.readouterr().err
        assert peak < 5_000_000

    def test_naive_fillings_rewrite_only_changed_cells(self, capsys):
        # 30,000 cells: rewriting all of them per filling made this budget
        # allow about 10^8 cell writes, several seconds of work.
        argv = ["eval", "--naive", "--expr", "H{ forall x ; y(x) } . y = x"]
        start = time.perf_counter()
        code = main(argv + ["--size", "30000", "--budget", "40000"])
        assert time.perf_counter() - start < 2
        assert code == 4
        assert "budget of 40000 nodes exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "forall " + " ".join(f"x{i}" for i in range(1200)) + " . true",
            "H{ forall x ; " + ", ".join(f"y{i}()" for i in range(1200)) + " } . true",
        ],
        ids=["block", "prefix"],
    )
    def test_naive_engine_on_1200_variables(self, capsys, text):
        assert main(["eval", "--naive", "--expr", text, "--size", "1"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_parse_error(self, capsys):
        assert main(["eval", "--expr", "forall x .", "--size", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unbound_free_variable(self, capsys):
        assert main(["eval", "--expr", "x = y", "--size", "2"]) == 2
        assert "unbound free variables" in capsys.readouterr().err

    def test_size_zero(self, capsys):
        assert main(["eval", "--expr", "true", "--size", "0"]) == 2
        assert "--size must be at least 1" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["eval", "/nonexistent/path.hf", "--size", "2"]) == 2

    def test_expr_and_file_conflict(self, capsys, tmp_path):
        src = tmp_path / "f.hf"
        src.write_text("true", encoding="ascii")
        assert main(["eval", str(src), "--expr", "true", "--size", "2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_usage_errors_are_plain_value_errors(self):
        # Neither has a position in any text, so neither is a ParseError.
        both = argparse.Namespace(expr="true", source="f.hf")
        for call in (lambda: whole(0, "--size", 1), lambda: _read_formula_text(both)):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError


DEEP_INPUTS = {
    "not": "~" * 3000 + "true",
    "parens": "(" * 2000 + "true" + ")" * 2000,
    "implies": "true -> " * 3000 + "true",
    "forall": "forall x . " * 1500 + "x = x",
}


@pytest.mark.parametrize("text", DEEP_INPUTS.values(), ids=DEEP_INPUTS.keys())
def test_deep_formula_is_a_usage_error(capsys, text):
    assert main(["eval", "--expr", text, "--size", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 1:") and "levels deep" in err
    assert "Traceback" not in err


class TestRepeatedCalls:
    def test_calls_leave_no_trace_on_later_calls(self, capsys, canon_file):
        calls = [
            (["eval", "--naive", "--show-witness", "--budget", "5",
              "--expr", "exists t . t = t", "--size", "2"], 0, "true\nt: ()->0\n"),
            (["eval", "--expr", "true"], 2, ""),
            # Would run out of a leaked --budget 5, or print a leaked witness.
            (["eval", "--expr", "forall a b c . a = a", "--size", "3"], 0, "true\n"),
            (["sat", "--expr", "true", "--max-size", "x"], 2, ""),
            (["sat", "--expr", "exists a b . a != b", "--max-size", "3"], 0, "2\n"),
            (["nonesuch"], 2, ""),
            (["compile", "--presentation", canon_file, "--query", "ab ="], 2, ""),
            (["fixture", "nonesuch"], 2, ""),
            (["oracle", "--presentation", canon_file, "--query", "ab = ba", "--max-size", "1"],
             1, "none up to 1\n"),
        ]
        for _ in range(2):
            for argv, code, out in calls:
                assert main(argv) == code, argv
                assert capsys.readouterr().out == out, argv


class TestSat:
    def test_found(self, capsys):
        assert main(["sat", "--expr", "exists a b . a != b", "--max-size", "4"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_none(self, capsys):
        assert main(["sat", "--expr", "exists x . x != x", "--max-size", "3"]) == 1
        assert capsys.readouterr().out == "none up to 3\n"

    def test_budget_bounds_sizes_without_search(self, capsys):
        # ``false`` runs no quantifier; each size tried still costs a node.
        argv = ["sat", "--expr", "false", "--max-size", "1000000000", "--budget", "10"]
        assert main(argv) == 4
        assert "at domain size 11" in capsys.readouterr().err


class TestCompile:
    def test_output_reparses(self, capsys, canon_file):
        assert main(["compile", "--presentation", canon_file, "--query", "ab = ba"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# rows: 8"
        body = "\n".join(lines[1:])
        expected = compile_instance(
            Presentation.of([Equation("aa", "a"), Equation("bb", "b")]), Equation("ab", "ba")
        )
        assert parse_formula(body) == expected

    def test_bad_query(self, capsys, canon_file):
        assert main(["compile", "--presentation", canon_file, "--query", "ab ="]) == 2


class TestOracle:
    def test_found(self, capsys, canon_file):
        code = main(
            ["oracle", "--presentation", canon_file, "--query", "ab = ba", "--max-size", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["size: 2", "a: 0->0 1->0", "b: 0->1 1->1", "point: 0"]

    def test_none(self, capsys, tmp_path):
        path = tmp_path / "comm.txt"
        path.write_text("ab = ba\n", encoding="ascii")
        code = main(["oracle", "--presentation", str(path), "--query", "ab = ba", "--max-size", "3"])
        assert code == 1
        assert capsys.readouterr().out == "none up to 3\n"

    def test_budget_exhausted(self, capsys, canon_file):
        argv = ["--presentation", canon_file, "--query", "ab = ba", "--max-size", "3"]
        assert main(["oracle"] + argv + ["--budget", "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search budget of 5 nodes exceeded at domain size 2\n"


class TestCrosscheck:
    def test_agreement(self, capsys, canon_file):
        code = main(
            ["crosscheck", "--presentation", canon_file, "--query", "ab = ba", "--max-size", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "m=1: eval=false oracle=none agree",
            "m=2: eval=true oracle=witness agree",
            "m=3: eval=true oracle=witness agree",
        ]

    @pytest.mark.parametrize("equations, query, smallest", CROSSCHECK_INSTANCES)
    def test_every_instance_agrees_up_to_size_four(
        self, capsys, tmp_path, equations, query, smallest
    ):
        path = tmp_path / "presentation.txt"
        path.write_text("".join(f"{a} = {b}\n" for a, b in equations), encoding="ascii")
        argv = ["--presentation", str(path), "--query", " = ".join(query), "--max-size", "4"]
        assert main(["crosscheck"] + argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.endswith(" agree") for line in lines), lines
        if smallest is not None:
            assert lines[smallest - 1].startswith(f"m={smallest}: eval=true")

    def test_budget_exhausted_keeps_the_sizes_before(self, capsys, canon_file):
        argv = ["--presentation", canon_file, "--query", "ab = ba", "--max-size", "4"]
        assert main(["crosscheck"] + argv + ["--budget", "120"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "m=1: eval=false oracle=none agree",
            "m=2: eval=true oracle=witness agree",
        ]
        # evaluate spends 21 / 87 / 180 nodes at m = 1..3, find_witness 2 / 5 / 15.
        assert captured.err == (
            "error: search budget of 120 nodes exceeded at domain size 3 in evaluate\n"
        )

    def test_budget_exhausted_names_the_oracle_route(self, capsys, tmp_path):
        # At m=3 evaluate spends 252 nodes and find_witness 756.
        path = tmp_path / "presentation.txt"
        path.write_text("ab = a\n", encoding="ascii")
        argv = ["--presentation", str(path), "--query", "ab = a", "--max-size", "3"]
        assert main(["crosscheck"] + argv + ["--budget", "300"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "m=1: eval=false oracle=none agree",
            "m=2: eval=false oracle=none agree",
        ]
        assert captured.err == (
            "error: search budget of 300 nodes exceeded at domain size 3 in find_witness\n"
        )

    def test_mismatch_exits_3(self, capsys, canon_file, monkeypatch):
        monkeypatch.setattr(henkin.cli, "find_witness", lambda *a, **k: None)
        argv = ["--presentation", canon_file, "--query", "ab = ba", "--max-size", "2"]
        assert main(["crosscheck"] + argv) == 3
        assert capsys.readouterr().out.splitlines() == [
            "m=1: eval=false oracle=none agree",
            "m=2: eval=true oracle=none MISMATCH",
        ]

    @pytest.mark.parametrize("equations, query, smallest", CROSSCHECK_INSTANCES)
    def test_corrupt_reports_mismatch_on_every_instance(
        self, capsys, tmp_path, monkeypatch, equations, query, smallest
    ):
        # A stand-in reducer hands crosscheck the sentence without `separate`.
        stand_in = types.SimpleNamespace(
            compile=lambda p, q: without_separation(compile_instance(p, q))
        )
        monkeypatch.setattr(henkin.cli, "reducer", stand_in)
        path = tmp_path / "presentation.txt"
        path.write_text("".join(f"{a} = {b}\n" for a, b in equations), encoding="ascii")
        argv = ["--presentation", str(path), "--query", " = ".join(query), "--max-size", "1"]
        assert main(["crosscheck"] + argv) == 3
        assert capsys.readouterr().out == "m=1: eval=true oracle=none MISMATCH\n"


class TestFixture:
    @pytest.mark.parametrize(
        "name",
        ["ceitin-h12", "ceitin-e10", "ceitin-presentation", "ehrenfeucht", "infinity"],
    )
    def test_prints_parseable_text(self, capsys, name):
        assert main(["fixture", name]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        if name == "ceitin-presentation":
            from henkin import parse_presentation

            assert len(parse_presentation(out).equations) == 7
        else:
            parse_formula(out)

    def test_h12_round_trips_exactly(self, capsys):
        main(["fixture", "ceitin-h12"])
        out = capsys.readouterr().out
        assert parse_formula(out) == ceitin_h12()

    def test_unknown_name(self, capsys):
        assert main(["fixture", "nonesuch"]) == 2


class TestInstalledEntryPoint:
    """``python -m henkin`` runs ``cli.entry``, which exits with ``main``'s code."""

    def run(self, *argv):
        src = str(Path(henkin.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-m", "henkin", *argv], capture_output=True, text=True, env=env
        )

    def test_fixture_prints_a_parseable_sentence(self):
        done = self.run("fixture", "infinity")
        assert done.returncode == 0
        assert parse_formula(done.stdout) == infinity_sentence()

    def test_parse_error_exits_2(self):
        done = self.run("eval", "--expr", "(", "--size", "1")
        assert done.returncode == 2
        assert done.stderr.startswith("error: 1:2:")

    def test_budget_exhausted_exits_4(self):
        done = self.run("sat", "--expr", "false", "--max-size", "100", "--budget", "10")
        assert done.returncode == 4
        assert done.stderr == "error: search budget of 10 nodes exceeded at domain size 11\n"


def _readme_sessions() -> list[tuple[str, str]]:
    """Each ``$ command`` line of README's ``sh`` blocks, with the text
    printed after it up to the next command or the end of the block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sessions = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for session in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, out = session.partition("\n")
            sessions.append((command, out))
    return sessions


def test_readme_examples_print_what_readme_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sessions = _readme_sessions()
    assert len(sessions) == 6
    got = []
    for command, _ in sessions:
        argv = shlex.split(command)
        if argv[0] == "printf":
            # printf FORMAT > FILE
            assert argv[2] == ">"
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"), encoding="ascii")
        else:
            assert argv[0] == "henkin"
            main(argv[1:])
        got.append((command, capsys.readouterr().out))
    assert got == sessions


# Every command reads its integers through ``budget.whole``, so a budget
# below 0 is the same usage error wherever ``--budget`` is taken.
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--expr", "true", "--size", "1"],
        ["sat", "--expr", "true", "--max-size", "1"],
        ["oracle", "--query", "a = b", "--max-size", "1"],
        ["crosscheck", "--query", "a = b", "--max-size", "1"],
    ],
    ids=["eval", "sat", "oracle", "crosscheck"],
)
def test_every_budget_is_checked_by_the_one_rule(capsys, canon_file, argv):
    if argv[0] in ("oracle", "crosscheck"):
        argv = argv + ["--presentation", canon_file]
    assert main(argv + ["--budget", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: budget must be at least 0\n")


# Sizes and budgets: out of range, huge, fine, and not integers at all.
NUMBERS = ["-1", "0", "1", "2", "3", "1000000", "2.5", "x"]
FORMULAS = [text for _, text in HANDWRITTEN]
PRESENTATIONS = [CANON_TEXT, "ab = ba\n", "", "# none\nabc = cba\n"]
QUERIES = ["ab = ba", "a = b", "aa = a", "ab = a"]
FIXTURE_NAMES = ["ceitin-h12", "ceitin-e10", "ceitin-presentation", "ehrenfeucht", "infinity", "no"]
COMMANDS = ["eval", "sat", "compile", "oracle", "crosscheck", "fixture", "frob"]
# Symbols of both grammars, a blank, a newline and a non-ASCII letter.
EDITS = ["", "a", "x", "=", "!", " ", "\n", "(", ")", ".", ";", "{", "}", "~", "&", "->", "\u00e9"]


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with up to three spans cut and replaced."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.sampled_from(EDITS)) + text[i + cut :]
    return text


@st.composite
def cli_calls(draw):
    """``(argv, formula file text, presentation file text)`` for one call."""
    command = draw(st.sampled_from(COMMANDS))
    number = st.sampled_from(NUMBERS)
    formula = presentation = None
    if command in ("eval", "sat"):
        formula = draw(mutated(FORMULAS))
        argv = ["--expr", formula] if draw(st.booleans()) else ["FORMULA"]
        size = "--size" if command == "eval" else "--max-size"
        argv += [size, draw(number), "--budget", draw(number)]
        if command == "eval":
            argv += draw(st.sampled_from([[], ["--naive"], ["--show-witness"]]))
    elif command in ("compile", "oracle", "crosscheck"):
        presentation = draw(mutated(PRESENTATIONS))
        argv = ["--presentation", "PRESENTATION", "--query", draw(mutated(QUERIES))]
        if command != "compile":
            argv += ["--max-size", draw(number), "--budget", draw(number)]
    else:
        argv = [draw(st.sampled_from(FIXTURE_NAMES))]
    return [command, *argv], formula, presentation


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(call=cli_calls())
def test_fuzzed_calls_exit_with_a_documented_code(fuzz_dir, call):
    # Whatever the input, main returns 0-4 and raises nothing: bad numbers,
    # texts and commands are usage errors, big searches hit their budget.
    argv, formula, presentation = call
    files = {"FORMULA": formula, "PRESENTATION": presentation}
    for name, text in files.items():
        if text is not None:
            (fuzz_dir / name).write_text(text, encoding="utf-8")
    argv = [str(fuzz_dir / a) if a in files else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5)
