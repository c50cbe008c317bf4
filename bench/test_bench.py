"""Tests of the benchmark's reference computations and output checks.

Run with ``python -m pytest bench``.  Each check is shown to pass on the
real CLI output and to catch the same output with one answer altered.
"""

import contextlib
import io
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import reference
import run
import workloads
from henkin.cli import main as cli_main
from henkin.text import parse_formula


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def op_output(op):
    code, out = call(op.argv)
    if op.save_to is not None:
        op.save_to.write_text(out, encoding="ascii")
    return code, out


@pytest.mark.parametrize("equations, query, smallest", workloads.CROSSCHECK_INSTANCES)
def test_reference_finds_the_corpus_minima(equations, query, smallest):
    assert reference.smallest_separating_size(equations, query, 3) == smallest


def test_reference_models_separate():
    for equations, query, smallest in workloads.CROSSCHECK_INSTANCES:
        if smallest is not None:
            tables, point = reference.separating_model(equations, query, smallest)
            assert reference.letter_table_problems(equations, query, smallest, tables, point) == []


def test_letter_table_checker():
    equations = [("aa", "a")]
    # a: constant 0, b: swap; ab(0) = a(1) = 0, ba(0) = b(0) = 1.
    tables = {"a": (0, 0), "b": (1, 0)}
    assert reference.letter_table_problems(equations, ("ab", "ba"), 2, tables, 0) == []
    assert reference.letter_table_problems(equations, ("ab", "ba"), 2, {"a": (0, 0), "b": (0, 0)}, 0)
    assert reference.letter_table_problems(equations, ("ab", "ba"), 2, {"a": (1, 0), "b": (1, 0)}, 0)
    assert reference.letter_table_problems(equations, ("ab", "ba"), 2, {"a": (0, 0)}, 0)


def test_plain_evaluator():
    assert reference.holds(parse_formula("exists a b . a != b"), 1) is False
    assert reference.holds(parse_formula("exists a b . a != b"), 2) is True
    assert reference.holds(parse_formula("H{ forall x ; y(x) } . y = x"), 3) is True
    assert reference.holds(parse_formula("H{ forall x ; y() } . y = x"), 2) is False
    pairing = parse_formula("H{ forall x z ; y(x), w(z) } . (y = w <-> x = z)")
    assert all(reference.holds(pairing, m) for m in (1, 2, 3))
    for m in (1, 2, 3):
        assert reference.holds(workloads.build_fixture("infinity"), m) is False
        assert reference.holds(workloads.build_fixture("ehrenfeucht"), m) is True


def test_choice_table_checker():
    h12 = workloads.build_fixture("ceitin-h12")
    assert reference.choice_table_problems(h12, 3, reference.identity_tables(h12, 3)) == []
    pairing = parse_formula("H{ forall x z ; y(x), w(z) } . (y = w <-> x = z)")
    constant = {"y": {(0,): 0, (1,): 0}, "w": {(0,): 0, (1,): 0}}
    assert reference.choice_table_problems(pairing, 2, constant)
    assert reference.choice_table_problems(pairing, 2, {"y": {(0,): 0}, "w": {(0,): 0, (1,): 1}})


def one_pass(results):
    p = run.Pass()
    p.results = results
    return p


def test_crosscheck_check_catches_a_flipped_verdict(tmp_path):
    workload = workloads.crosscheck(1, tmp_path)
    op = next(op for op in workload.ops if "a = b" in op.argv)
    code, out = op_output(op)
    assert op.check(code, out) == []
    flipped = out.replace("m=2: eval=true", "m=2: eval=false", 1)
    assert op.check(code, flipped)
    assert op.check(3, out)

    # Through the harness: a wrong output is a failed call and an incorrect
    # run; an exception is a failed call only.
    only = workloads.Workload([op])
    passes = [one_pass([(code, out, None)]), one_pass([(code, flipped, None)])]
    failed, wrong, raised = run.check_passes(only, passes)
    assert (failed, len(wrong), raised) == (1, 1, [])
    failed, wrong, raised = run.check_passes(only, [one_pass([(None, "", "RecursionError: deep")])] * 3)
    assert (failed, wrong, len(raised)) == (3, [], 1)


def test_witness_check_catches_a_changed_cell(tmp_path):
    workload = workloads.ceitin(1, tmp_path)
    for op in workload.ops:
        if op.argv[0] == "fixture":
            code, out = op_output(op)
            assert op.check(code, out) == []
    op = next(op for op in workload.ops
              if "ceitin-h12.txt" in op.argv[1] and op.argv[3] == "2" and "--show-witness" in op.argv)
    code, out = op_output(op)
    assert op.check(code, out) == []
    # One-function clause for a: y_a and y'_a must agree wherever their
    # arguments do, so changing one cell of y_a alone breaks any witness.
    line = next(l for l in out.splitlines() if l.startswith("y_a: "))
    value = line.split()[1][-1]
    changed = line.replace(f"(0)->{value}", f"(0)->{1 - int(value)}", 1)
    assert op.check(code, out.replace(line, changed))
    assert op.check(code, out.replace("true", "false", 1))


def test_fixture_eval_check_catches_a_flipped_verdict(tmp_path):
    workload = workloads.ceitin(1, tmp_path)
    for op in workload.ops[:4]:
        op_output(op)
    op = next(op for op in workload.ops if "infinity.txt" in op.argv[1] and op.argv[3] == "3")
    code, out = op_output(op)
    assert op.check(code, out) == []
    assert op.check(0, "true\n")


def test_oracle_check_catches_a_wrong_witness(tmp_path):
    workload = workloads.oracle_exhaust(1, tmp_path)
    for op in workload.ops:
        query = op.argv[op.argv.index("--query") + 1]
        if op.argv[2].endswith("ceitin-presentation.txt") and query in ("ab = ba", "ae = ea", "ce = ec"):
            code, out = op_output(op)
            assert op.check(code, out) == []
            assert op.check(1, "none up to 3\n")
            assert op.check(code, out.replace("point: ", "point: 9"))
    good = "size: 2\na: 0->0 1->0\nb: 0->1 1->0\nc: 0->0 1->1\nd: 0->0 1->1\ne: 0->0 1->0\npoint: 0\n"
    check = partial(workloads.check_oracle, workloads.CEITIN_EQUATIONS, ("ab", "ba"), 3, True)
    assert check(0, good) == []
    assert check(0, good.replace("b: 0->1", "b: 0->0"))


def test_sat_and_compile_checks_catch_wrong_answers(tmp_path):
    workload = workloads.many_small(5, tmp_path)
    sat = [op for op in workload.ops if op.argv[0] == "sat"][:8]
    for op in sat:
        code, out = op_output(op)
        assert op.check(code, out) == []
        wrong = "none up to 3\n" if code == 0 else "1\n"
        assert op.check(1 - code, wrong)
    compile_op = next(op for op in workload.ops if op.argv[0] == "compile")
    code, out = op_output(compile_op)
    assert compile_op.check(code, out) == []
    rows = int(out.splitlines()[0].split(": ")[1])
    assert compile_op.check(code, out.replace(f"# rows: {rows}", f"# rows: {rows + 1}", 1))


def test_pair_check_catches_disagreeing_forms(tmp_path):
    workload = workloads.many_small(5, tmp_path)
    a, b = workload.same_output[0]
    p = one_pass([(0, "1\n", None)] * len(workload.ops))
    p.results[b] = (0, "2\n", None)
    always_fine = workloads.Workload(
        [workloads.Op(op.argv, lambda code, out: []) for op in workload.ops], workload.same_output
    )
    _, wrong, _ = run.check_passes(always_fine, [p])
    assert len(wrong) == 1


def test_generators_follow_the_seed(tmp_path):
    def argvs(builder, seed):
        return [op.argv for op in builder(seed, tmp_path).ops]

    for builder in workloads.BUILDERS.values():
        assert argvs(builder, 7) == argvs(builder, 7)
    assert argvs(workloads.many_small, 7) != argvs(workloads.many_small, 8)
    assert sorted(map(str, argvs(workloads.crosscheck, 7))) == sorted(map(str, argvs(workloads.crosscheck, 8)))


def test_many_small_make_up(tmp_path):
    workload = workloads.many_small(3, tmp_path)
    kinds = [op.argv[0] for op in workload.ops]
    assert kinds.count("sat") == 4 * workloads.SAT_CASES
    assert kinds.count("compile") == workloads.PRESENTATIONS * workloads.QUERIES_PER_PRESENTATION
    for op in workload.ops:
        if op.argv[0] == "sat":
            f = parse_formula(op.argv[2])
            if type(f).__name__ == "Branch":
                assert len(f.prefix.universals) <= 3 and len(f.prefix.existentials) <= 3
                assert all(len(ds) <= 2 for ds in f.prefix.deps)


def test_one_run_prints_the_result_line():
    script = Path(run.__file__)
    child = subprocess.run(
        [sys.executable, str(script), "--workload", "oracle-exhaust", "--seed", "4", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * 11
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    assert result["metrics"]["oracle.find_witness_nodes"]["value"] > 0
