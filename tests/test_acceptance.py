"""End-to-end checks, one per advertised guarantee.

Each test prints a [PASS]/[FAIL] line naming the guarantee, so a plain
``pytest -s tests/test_acceptance.py`` doubles as a checklist run.
"""

from contextlib import contextmanager

import pytest

from henkin import (
    Branch,
    Budget,
    BudgetExceeded,
    Equation,
    Exists,
    ForAll,
    Presentation,
    Variable,
    build_en,
    build_hn,
    ceitin_e10,
    ceitin_h12,
    compile_instance,
    ehrenfeucht_finiteness,
    evaluate,
    evaluate_naive,
    format_formula,
    identity_check_failures,
    infinity_sentence,
    mk_prefix,
    parse_formula,
)
from henkin.cli import main as cli_main
from henkin.fixtures import (
    ceitin_e10_clauses,
    ceitin_e10_prefix,
    ceitin_h12_clauses,
    ceitin_h12_prefix,
)
from henkin.reducer import plan_rows, same_letter_constraint

from _corpus import CROSSCHECK_INSTANCES, agreement_corpus, all_suite_formulas, collapse_cases


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}", flush=True)
        raise
    print(f"[PASS] {name}", flush=True)


def test_fixture_prefix_sizes():
    with criterion("fixture-prefix-sizes"):
        h = ceitin_h12_prefix()
        assert len(h.universals) == 12
        assert len(h.existentials) == 12
        assert all(len(d) == 1 for d in h.deps)
        assert len(ceitin_h12_clauses()) == 14

        e = ceitin_e10_prefix()
        assert [v.name for v in e.universals] == ["x1", "x2"]
        assert len(e.existentials) == 18
        deps = [tuple(v.name for v in d) for d in e.deps]
        assert deps == [("x1",)] * 10 + [("x2",)] * 8
        assert len(ceitin_e10_clauses()) == 17

        for n in (1, 2, 5):
            hn = build_hn(n)
            assert len(hn.universals) == n and len(hn.existentials) == n
            en = build_en(n)
            assert len(en.universals) == 2

        canon = Presentation.of([Equation("aa", "a"), Equation("bb", "b")])
        assert plan_rows(canon, Equation("ab", "ba")).n == 8
        assert plan_rows(Presentation.of([]), Equation("a", "a")).n == 1
        assert len(same_letter_constraint(plan_rows(canon, Equation("ab", "ba"))).items) == 12


def test_finiteness_sentence():
    with criterion("finiteness-sentence"):
        fin = ehrenfeucht_finiteness()
        inf = infinity_sentence()
        for m in range(1, 5):
            assert evaluate(fin, m) is True
            assert evaluate(inf, m) is False
            assert evaluate_naive(fin, m, budget=Budget(5_000_000)) is True
            assert evaluate_naive(inf, m, budget=Budget(5_000_000)) is False


def test_engine_agreement():
    with criterion("engine-agreement"):
        corpus = agreement_corpus()
        assert len(corpus) >= 30
        skipped = []
        for name, f in corpus:
            for m in (1, 2, 3):
                fast = evaluate(f, m)
                try:
                    slow = evaluate_naive(f, m, budget=Budget(500_000))
                except BudgetExceeded:
                    assert m >= 3, f"naive must handle {name} at m={m}"
                    skipped.append((name, m))
                    continue
                assert fast == slow, f"engines disagree on {name} at m={m}"
        assert len(skipped) < len(corpus)


def test_collapse_laws():
    with criterion("collapse-laws"):
        budget = lambda: Budget(5_000_000)
        for name, n, matrix in collapse_cases(20, seed=77):
            uni = tuple(Variable(f"x{j}") for j in range(1, n + 1))
            exi = tuple(Variable(f"y{j}") for j in range(1, n + 1))
            full = Branch(mk_prefix(uni, exi, {e: uni for e in exi}), matrix)
            tri = Branch(
                mk_prefix(uni, exi, {exi[j]: uni[: j + 1] for j in range(n)}), matrix
            )
            linear = ForAll(uni, Exists(exi, matrix))
            alternating = matrix
            for j in range(n - 1, -1, -1):
                alternating = ForAll((uni[j],), Exists((exi[j],), alternating))
            for m in (1, 2, 3):
                want = evaluate(linear, m, budget=budget())
                assert evaluate(full, m, budget=budget()) == want, f"{name} full dep m={m}"
                stepwise = evaluate(alternating, m, budget=budget())
                assert (
                    evaluate(tri, m, budget=budget()) == stepwise
                ), f"{name} triangular m={m}"


def test_reduction_crosscheck(tmp_path, capsys):
    with criterion("reduction-crosscheck"):
        assert len(CROSSCHECK_INSTANCES) >= 10
        for i, (eqs, query, minimum) in enumerate(CROSSCHECK_INSTANCES):
            pres_file = tmp_path / f"pres{i}.txt"
            pres_file.write_text(
                "".join(f"{l} = {r}\n" for l, r in eqs), encoding="ascii"
            )
            qtext = f"{query[0]} = {query[1]}"
            code = cli_main(
                [
                    "crosscheck",
                    "--presentation",
                    str(pres_file),
                    "--query",
                    qtext,
                    "--max-size",
                    "3",
                ]
            )
            assert code == 0, f"instance {i}: {eqs} / {qtext}"

            sentence = compile_instance(
                Presentation.of([Equation(l, r) for l, r in eqs]), Equation(*query)
            )
            found = next((m for m in (1, 2, 3) if evaluate(sentence, m)), None)
            assert found == minimum, f"instance {i}: minimum {found} != {minimum}"

        # A deliberately damaged sentence must be caught, or agreement above
        # would be vacuous.
        pres_file = tmp_path / "pres0.txt"
        code = cli_main(
            [
                "crosscheck",
                "--presentation",
                str(pres_file),
                "--query",
                "ab = ba",
                "--max-size",
                "1",
                "--corrupt",
            ]
        )
        assert code == 3
        capsys.readouterr()


def test_ceitin_satisfiable_small():
    with criterion("ceitin-satisfiable-small"):
        for m in (1, 2):
            assert evaluate(ceitin_h12(), m) is True
            assert evaluate(ceitin_e10(), m) is True
        assert identity_check_failures(ceitin_h12_clauses(), ceitin_h12_prefix(), 3) == []
        assert identity_check_failures(ceitin_e10_clauses(), ceitin_e10_prefix(), 3) == []


def test_parse_print_round_trip():
    with criterion("parse-print-round-trip"):
        formulas = all_suite_formulas()
        assert len(formulas) > 100
        for name, f in formulas:
            assert parse_formula(format_formula(f)) == f, name
