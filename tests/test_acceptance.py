"""End-to-end checks, one per advertised guarantee.

Each test prints a [PASS]/[FAIL] line naming the guarantee, so a plain
``pytest -s tests/test_acceptance.py`` doubles as a checklist run.
"""

from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from hypothesis import given, strategies as st

from henkin import (
    Branch,
    Budget,
    Equation,
    Exists,
    ForAll,
    Presentation,
    Variable,
    build_en,
    build_hn,
    ceitin_e10,
    ceitin_h12,
    ceitin_h12_with_query,
    ceitin_presentation,
    check_witness,
    compile_instance,
    ehrenfeucht_finiteness,
    evaluate,
    evaluate_naive,
    find_min_model,
    find_witness,
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
from henkin.reducer import clauses, plan_rows

from _corpus import (
    CROSSCHECK_INSTANCES,
    agreement_corpus,
    all_suite_formulas,
    collapse_cases,
    without_separation,
)


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
            hn = build_hn((f"x{i}", f"y{i}") for i in range(1, n + 1))
            assert len(hn.universals) == n and len(hn.existentials) == n
            en = build_en([f"y{i}" for i in range(1, n + 1)], [f"z{i}" for i in range(1, n + 1)])
            assert len(en.universals) == 2

        canon = Presentation.of([Equation("aa", "a"), Equation("bb", "b")])
        plan = plan_rows(canon, Equation("ab", "ba"))
        assert len(plan.rows) == 8
        assert len(plan_rows(Presentation.of([]), Equation("a", "a")).rows) == 1
        labels = [label for label, _ in clauses(plan)]
        assert sum(label.startswith("same-letter:") for label in labels) == 6


def test_finiteness_sentence():
    with criterion("finiteness-sentence"):
        fin = ehrenfeucht_finiteness()
        inf = infinity_sentence()
        for m in range(1, 5):
            assert evaluate(fin, m) is True
            assert evaluate(inf, m) is False
            assert evaluate_naive(fin, m, budget=Budget(5_000_000)) is True
            assert evaluate_naive(inf, m, budget=Budget(5_000_000)) is False


# Pairs of the agreement corpus on which the naive engine exhausts its
# budget of 500,000 nodes.  Other routes decide them instead.
NAIVE_OUT_OF_REACH = {
    ("ceitin-h12", 3),
    ("compiled:{aa=a}:a=a", 3),
    ("compiled:{aa=a}:aa=a", 3),
}


def test_engine_agreement():
    with criterion("engine-agreement"):
        corpus = agreement_corpus()
        assert len(corpus) >= 30
        fast = {}
        for name, f in corpus:
            for m in (1, 2, 3):
                fast[name, m] = evaluate(f, m)
                if (name, m) in NAIVE_OUT_OF_REACH:
                    continue
                slow = evaluate_naive(f, m, budget=Budget(500_000))
                assert fast[name, m] == slow, f"engines disagree on {name} at m={m}"
        assert fast["ceitin-h12", 3] is True
        assert identity_check_failures(ceitin_h12_clauses(), ceitin_h12_prefix(), 3) == []
        aa = Presentation.of([Equation("aa", "a")])
        for query in (Equation("a", "a"), Equation("aa", "a")):
            name = f"compiled:{{aa=a}}:{query.lhs}={query.rhs}"
            assert (name, 3) in NAIVE_OUT_OF_REACH
            witness = find_witness(aa, query, 3)
            assert fast[name, 3] == (witness is not None), f"{name} against the oracle at m=3"


def _map_variables(node, fn):
    """``node`` rebuilt with every ``Variable`` in it replaced by ``fn`` of it."""
    if isinstance(node, Variable):
        return fn(node)
    if isinstance(node, tuple):
        return tuple(_map_variables(x, fn) for x in node)
    if is_dataclass(node):
        return type(node)(*(_map_variables(getattr(node, fl.name), fn) for fl in fields(node)))
    return node


def test_renaming_bound_variables():
    # Every name of a closed formula is bound, so an injective renaming of
    # all of them renames each binder with its uses.  This one reverses the
    # names' sort order, which must not reach the verdicts or the cost.
    with criterion("renaming-invariance"):
        for name, f in agreement_corpus():
            seen = set()
            _map_variables(f, lambda v: seen.add(v.name) or v)
            to = {n: f"r{k:03d}" for k, n in enumerate(sorted(seen, reverse=True))}
            g = _map_variables(f, lambda v: Variable(to[v.name]))
            assert len(seen) < 2 or sorted(seen, key=to.get) != sorted(seen)
            for m in (1, 2, 3):
                before, after = Budget(), Budget()
                verdict = evaluate(f, m, budget=before)
                assert evaluate(g, m, budget=after) == verdict, (name, m)
                assert after.spent == before.spent, (name, m)
                if (name, m) not in NAIVE_OUT_OF_REACH:
                    naive = evaluate_naive(f, m, budget=Budget(500_000))
                    assert evaluate_naive(g, m, budget=Budget(500_000)) == naive, (name, m)


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
        eqs, query, _ = CROSSCHECK_INSTANCES[0]
        presentation = Presentation.of([Equation(l, r) for l, r in eqs])
        damaged = without_separation(compile_instance(presentation, Equation(*query)))
        assert evaluate(damaged, 1) is True
        assert find_witness(presentation, Equation(*query), 1) is None
        capsys.readouterr()


# Queries over Ceitin's presentation: (lhs, rhs, smallest separating size
# or None, largest size decided).  Both sentence routes run to the largest
# size; the oracle, dear beyond m=3 here, runs up to 3.
SINGLE_QUANTIFIER_QUERIES = [
    ("ab", "ba", 2, 5),
    ("a", "b", 2, 5),
    ("ac", "ca", None, 5),
    ("ce", "ec", 3, 4),
]


def test_single_quantifier_route():
    """The paper's construction, one fixed twelve-row prefix plus a spine
    per query, agrees with the compiled sentence and with the oracle."""
    with criterion("single-quantifier-route"):
        presentation = ceitin_presentation()
        for lhs, rhs, smallest, top in SINGLE_QUANTIFIER_QUERIES:
            query = Equation(lhs, rhs)
            h12 = ceitin_h12_with_query(query)
            compiled = compile_instance(presentation, query)
            for m in range(1, top + 1):
                expected = smallest is not None and m >= smallest
                assert evaluate(h12, m) is expected, (lhs, rhs, m)
                assert evaluate(compiled, m) is expected, (lhs, rhs, m)
                if m <= 3:
                    witness = find_witness(presentation, query, m)
                    assert (witness is not None) is expected, (lhs, rhs, m)


# {a^n = a} |- aa = a: in a separating model a permutes its image with an
# order that divides n-1, so the first separating size is the least prime
# factor of n-1.  For n=12 that is 11, where the oracle would try 11^11
# tables; the compiled sentence decides it, and the oracle checks m <= 4.
KNOWN_ANSWERS = [(3, 2), (4, 3), (5, 2), (7, 2), (10, 3), (12, 11)]


def test_known_answer_family():
    with criterion("known-answer-family"):
        query = Equation("aa", "a")
        for n, first in KNOWN_ANSWERS:
            presentation = Presentation.of([Equation("a" * n, "a")])
            assert find_min_model(compile_instance(presentation, query), first) == first, n
            for m in range(1, 5):
                witness = find_witness(presentation, query, m)
                assert (witness is not None) is (m >= first), (n, m)


_WORDS = st.text(alphabet="abc", min_size=1, max_size=3)
_EQUATIONS = st.builds(Equation, _WORDS, _WORDS)


@given(st.lists(_EQUATIONS, max_size=3), _EQUATIONS, st.integers(1, 3))
def _routes_agree(equations, query, m):
    presentation = Presentation(tuple(equations))
    witness = find_witness(presentation, query, m)
    assert evaluate(compile_instance(presentation, query), m) is (witness is not None)
    if witness is not None:
        assert check_witness(presentation, query, witness)


def test_random_presentation_agreement():
    """On random presentations over abc, the compiled sentence holds at a
    size exactly when the oracle finds a separating model there, and every
    model it finds checks."""
    with criterion("random-presentation-agreement"):
        _routes_agree()


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
