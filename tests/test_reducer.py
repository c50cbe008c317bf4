import random

import pytest
from hypothesis import given, strategies as st

from henkin import (
    And,
    Branch,
    Budget,
    Equation,
    Exists,
    EqualAtom,
    Implies,
    Not,
    Presentation,
    TRUE,
    build_hn,
    ceitin_presentation,
    compile_instance,
    equal,
    evaluate,
    format_formula,
    identity_check_failures,
    not_equal,
    parse_formula,
    validate,
    witness_tables,
)
from henkin.reducer import clauses, plan_rows, sentence, separation_clauses

from _corpus import CROSSCHECK_INSTANCES, TINY_INSTANCES


CANON = Presentation.of([Equation("aa", "a"), Equation("bb", "b")])
CANON_QUERY = Equation("ab", "ba")

CEITIN = Presentation.of(
    [
        Equation("ac", "ca"),
        Equation("ad", "da"),
        Equation("bc", "cb"),
        Equation("bd", "db"),
        Equation("eca", "ce"),
        Equation("edb", "de"),
        Equation("cca", "ccae"),
    ]
)

# Every instance the suite compiles, plus the Ceitin presentation with a
# commutation query.
_PAIRS = dict.fromkeys(
    [(tuple(e), q) for e, q, _ in CROSSCHECK_INSTANCES] + [(tuple(e), q) for e, q in TINY_INSTANCES]
)
INSTANCES = [(Presentation.of(list(e)), Equation(*q)) for e, q in _PAIRS] + [
    (ceitin_presentation(), Equation("ab", "ba"))
]


def labeled(plan, kind: str):
    """The formulas of ``clauses(plan)`` whose label starts with ``kind:``."""
    return [f for label, f in clauses(plan) if label.startswith(kind + ":")]


def designated(plan):
    return {r.letter: (r.universal, r.existential) for r in plan.designated}


class TestPlan:
    def test_row_counts(self):
        assert len(plan_rows(CANON, CANON_QUERY).rows) == 8
        assert len(plan_rows(Presentation.of([]), Equation("a", "a")).rows) == 1
        assert len(plan_rows(CEITIN, Equation("a", "b")).rows) == 35

    def test_equation_row_names_and_letters(self):
        plan = plan_rows(CEITIN, Equation("a", "b"))
        first, right = plan.equations[0]
        assert [r.universal.name for r in first] == ["x1_1", "x1_2"]
        assert [r.existential.name for r in first] == ["y1_1", "y1_2"]
        assert [r.letter for r in first] == ["a", "c"]
        assert [r.universal.name for r in right] == ["z1_1", "z1_2"]
        assert [r.letter for r in right] == ["c", "a"]

    def test_origins(self):
        # A row's names say where it comes from: equation i's left (x, y) or
        # right (z, r) word at position j, or a query letter (u, e).
        plan = plan_rows(CANON, CANON_QUERY)
        assert plan.equations[0][0][0].universal.name == "x1_1"
        assert plan.equations[1][1][0].existential.name == "r2_1"
        assert plan.rows[-1].universal.name in ("u_a", "u_b")

    def test_designated_rows_follow_first_occurrence(self):
        ab = plan_rows(Presentation.of([]), Equation("ab", "ba"))
        assert [r.letter for r in ab.designated] == ["a", "b"]
        ba = plan_rows(Presentation.of([]), Equation("ba", "ab"))
        assert [r.letter for r in ba.designated] == ["b", "a"]
        assert [(r.universal.name, r.existential.name) for r in ba.designated] == [
            ("u_b", "e_b"),
            ("u_a", "e_a"),
        ]

    def test_designated_missing_letter(self):
        # A letter of the presentation that the query does not use gets no
        # designated row.
        plan = plan_rows(Presentation.of([Equation("cc", "c")]), Equation("a", "b"))
        assert [r.letter for r in plan.designated] == ["a", "b"]

    def test_spine_lengths_follow_query(self):
        plan = plan_rows(CANON, CANON_QUERY)
        spine, _ = separation_clauses(CANON_QUERY, designated(plan))
        assert [v.name for v in spine] == ["t0", "t1", "t2", "s0", "s1", "s2"]
        short = plan_rows(Presentation.of([]), Equation("a", "a"))
        spine, _ = separation_clauses(Equation("a", "a"), designated(short))
        assert [v.name for v in spine] == ["t0", "t1", "s0", "s1"]


class TestSameLetter:
    def test_pair_count_for_canonical_instance(self):
        assert len(labeled(plan_rows(CANON, CANON_QUERY), "same-letter")) == 6

    def test_single_row_has_no_pairs(self):
        plan = plan_rows(Presentation.of([]), Equation("a", "b"))
        assert labeled(plan, "same-letter") == []

    def test_pairs_within_one_letter(self):
        plan = plan_rows(Presentation.of([Equation("aa", "a")]), Equation("a", "a"))
        links = labeled(plan, "same-letter")
        # four rows share letter a: one link per row after the first
        assert len(links) == 3
        first = links[0]
        assert isinstance(first, Implies)
        assert isinstance(first.antecedent, EqualAtom)
        assert isinstance(first.consequent, EqualAtom)
        for plan in (plan, plan_rows(CEITIN, Equation("ab", "ba"))):
            rows = plan.rows
            place = {r.universal: i for i, r in enumerate(rows)}
            ends = []
            for f in labeled(plan, "same-letter"):
                i, j = place[f.antecedent.left], place[f.antecedent.right]
                assert f.consequent == equal(rows[i].existential, rows[j].existential)
                # rows[i] is the last row before rows[j] that carries its letter
                between = [r.letter for r in rows[i + 1 : j]]
                assert i < j and rows[i].letter == rows[j].letter not in between
                ends.append(j)
            repeats = [j for j, r in enumerate(rows) if r.letter in {q.letter for q in rows[:j]}]
            assert ends == repeats

    def test_label_names_letter_and_both_rows(self):
        plan = plan_rows(Presentation.of([Equation("aa", "a")]), Equation("a", "a"))
        for label, f in clauses(plan):
            if label.startswith("same-letter:"):
                _, letter, rows = label.split(":")
                assert letter == "a"
                assert rows.split(",") == [f.antecedent.left.name, f.antecedent.right.name]
        assert clauses(plan)[0][0] == "same-letter:a:x1_1,x1_2"


def equation_clauses(presentation: Presentation, query: Equation):
    """The ``equation:i`` clauses, in presentation order."""
    return labeled(plan_rows(presentation, query), "equation")


def names_in(f) -> set[str]:
    if isinstance(f, EqualAtom):
        return {f.left.name, f.right.name}
    if isinstance(f, And):
        return set().union(*(names_in(g) for g in f.items))
    if isinstance(f, Implies):
        return names_in(f.antecedent) | names_in(f.consequent)
    return set()


class TestEquationConstraint:
    def test_short_equation_keeps_bare_inner(self):
        (phi,) = equation_clauses(Presentation.of([Equation("a", "a")]), Equation("a", "a"))
        # one letter per side: no chaining conjuncts, inner implication bare
        assert isinstance(phi, Implies)
        assert isinstance(phi.antecedent, EqualAtom)
        assert isinstance(phi.consequent, EqualAtom)

    def test_two_letter_equation_has_chain(self):
        (phi,) = equation_clauses(Presentation.of([Equation("aa", "a")]), Equation("a", "a"))
        assert isinstance(phi, Implies)
        assert isinstance(phi.antecedent, EqualAtom)  # single chain link on the left side
        inner = phi.consequent
        assert isinstance(inner, Implies)
        assert isinstance(inner.antecedent, EqualAtom)
        assert isinstance(inner.consequent, EqualAtom)

    def test_balanced_equation_chains_both_sides(self):
        (phi,) = equation_clauses(Presentation.of([Equation("ab", "ba")]), Equation("a", "a"))
        assert isinstance(phi.antecedent, And)
        assert len(phi.antecedent.items) == 2

    def test_duplicate_equations_keep_their_own_rows(self):
        pres = Presentation.of([Equation("aa", "a"), Equation("aa", "a")])
        first, second = equation_clauses(pres, Equation("a", "a"))
        assert names_in(first) == {"x1_1", "x1_2", "y1_1", "y1_2", "z1_1", "r1_1"}
        assert names_in(second) == {"x2_1", "x2_2", "y2_1", "y2_2", "z2_1", "r2_1"}


class TestSeparation:
    def test_clause_count_and_shape(self):
        plan = plan_rows(CANON, CANON_QUERY)
        _, trace = separation_clauses(CANON_QUERY, designated(plan))
        assert len(trace) == len(CANON_QUERY.lhs) + len(CANON_QUERY.rhs) + 2
        assert [label for label, _ in trace] == [
            "trace:t1", "trace:t2", "trace:s1", "trace:s2", "start", "separate",
        ]
        assert isinstance(trace[0][1], Implies)
        assert isinstance(trace[-2][1], EqualAtom)
        assert isinstance(trace[-1][1], Not)

    def test_constraint_is_conjunction(self):
        matrix = compile_instance(CANON, CANON_QUERY).body.body
        plan = plan_rows(CANON, CANON_QUERY)
        _, trace = separation_clauses(CANON_QUERY, designated(plan))
        assert isinstance(matrix, And)
        assert len(trace) == 4 + 2  # |ab| + |ba| + endpoint glue
        assert matrix.items[-6:] == tuple(f for _, f in trace)


    def test_a_query_letter_without_its_row_is_named(self):
        rows = designated(plan_rows(CANON, Equation("a", "a")))
        with pytest.raises(ValueError, match="^no designated row for query letter: b$"):
            separation_clauses(CANON_QUERY, rows)

    def test_a_query_without_designated_rows_names_every_letter(self):
        with pytest.raises(ValueError, match="^no designated row for query letter: a, b$"):
            sentence(build_hn([("x", "y")]), [], CANON_QUERY)


class TestSentence:
    """Short clause lists conjoin as ``conjoin`` does: one clause is its own
    body and no clause is ``true``, so each sentence evaluates and reparses."""

    @pytest.mark.parametrize(
        "matrix, body", [([("same", equal("y", "x"))], equal("y", "x")), ([], TRUE)]
    )
    def test_short_clause_lists(self, matrix, body):
        f = sentence(build_hn([("x", "y")]), matrix)
        assert f.body == body
        assert validate(f) == []
        assert evaluate(f, 2) is True
        assert parse_formula(format_formula(f)) == f


class TestCompile:
    def test_shape_canonical(self):
        f = compile_instance(CANON, CANON_QUERY)
        assert isinstance(f, Exists)
        assert [v.name for v in f.variables] == ["t0", "t1", "t2", "s0", "s1", "s2"]
        br = f.body
        assert isinstance(br, Branch)
        assert len(br.prefix.universals) == 8
        assert len(br.prefix.existentials) == 8
        assert all(len(d) == 1 for d in br.prefix.deps)
        for u, d in zip(br.prefix.universals, br.prefix.deps):
            assert d[0] == u
        matrix = br.body
        assert isinstance(matrix, And)
        # 6 same-letter links, two equations, 4 trace steps, start, separate
        assert len(matrix.items) == 6 + 2 + 4 + 2

    def test_shape_degenerate(self):
        f = compile_instance(Presentation.of([]), Equation("a", "a"))
        br = f.body
        assert len(br.prefix.universals) == 1
        matrix = br.body
        assert isinstance(matrix, And)
        assert len(matrix.items) == 4  # separation clauses only

    def test_compiled_formula_validates(self):
        for pres, query in [
            (CANON, CANON_QUERY),
            (Presentation.of([]), Equation("a", "a")),
            (CEITIN, Equation("a", "b")),
        ]:
            assert validate(compile_instance(pres, query)) == []

    def test_ceitin_plan_scales(self):
        f = compile_instance(CEITIN, Equation("a", "b"))
        br = f.body
        assert len(br.prefix.universals) == 35
        assert len(f.variables) == 4  # t0 t1 s0 s1


@pytest.mark.parametrize("presentation, query", INSTANCES)
class TestLabeledMatrix:
    def test_matrix_is_the_labeled_clause_list(self, presentation, query):
        plan = plan_rows(presentation, query)
        spine, trace = separation_clauses(query, designated(plan))
        labels = [label for label, _ in clauses(plan) + trace]
        assert len(set(labels)) == len(labels)
        kinds = [label.split(":")[0] for label in labels]
        order = ["same-letter", "equation", "trace", "start", "separate"]
        assert kinds == sorted(kinds, key=order.index)
        assert kinds.count("equation") == len(presentation.equations)
        f = compile_instance(presentation, query)
        assert f.variables == spine
        assert f.body.body.items == tuple(g for _, g in clauses(plan) + trace)

    def test_flat_and_ending_in_separate(self, presentation, query):
        matrix = compile_instance(presentation, query).body.body
        assert isinstance(matrix, And)
        assert not any(isinstance(g, And) for g in matrix.items)
        assert matrix.items[-1] == not_equal("t0", "s0")

    def test_identity_tables_satisfy_row_clauses(self, presentation, query):
        prefix = compile_instance(presentation, query).body.prefix
        plan = plan_rows(presentation, query)
        assert identity_check_failures(clauses(plan), prefix, 3) == []


class TestSharedChecker:
    def test_mutant_equation_comes_back_by_label(self):
        plan = plan_rows(CANON, CANON_QUERY)
        prefix = compile_instance(CANON, CANON_QUERY).body.prefix
        mutant = []
        for label, f in clauses(plan):
            if label == "equation:1":
                f = Implies(f.antecedent, Implies(f.consequent.antecedent, Not(f.consequent.consequent)))
            mutant.append((label, f))
        assert identity_check_failures(mutant, prefix, 2) == ["equation:1"]


class TestSoundnessSpot:
    def test_free_monoid_separates_distinct_letters(self):
        f = compile_instance(Presentation.of([]), Equation("a", "b"))
        assert evaluate(f, 1) is False
        assert evaluate(f, 2) is True

    def test_trivial_identity_never_separates(self):
        f = compile_instance(Presentation.of([]), Equation("a", "a"))
        for m in (1, 2, 3):
            assert evaluate(f, m) is False

    def test_commutative_query_in_free_monoid(self):
        f = compile_instance(Presentation.of([]), Equation("ab", "ba"))
        assert evaluate(f, 1) is False
        assert evaluate(f, 2) is True


def all_pairs(presentation: Presentation, query: Equation):
    """The reference sentence with one ``same-letter`` clause per unordered
    pair of rows carrying one letter, in row order, in place of the chain's
    links; and the number of those pairs."""
    plan = plan_rows(presentation, query)
    rows = plan.rows
    pairs = [
        (
            f"same-letter:{r.letter}:{r.universal.name},{q.universal.name}",
            Implies(equal(r.universal, q.universal), equal(r.existential, q.existential)),
        )
        for a, r in enumerate(rows)
        for q in rows[a + 1 :]
        if r.letter == q.letter
    ]
    rest = [c for c in clauses(plan) if not c[0].startswith("same-letter:")]
    prefix = build_hn((r.universal, r.existential) for r in rows)
    return sentence(prefix, pairs + rest, query, designated(plan)), len(pairs)


def assert_chain_matches_all_pairs(presentation: Presentation, query: Equation, m: int):
    """The chained compile and the all-pairs reference unite the same cells,
    so they give one verdict and one set of tables, and the chain spends
    m nodes less per pair it does not link (one per merge tuple)."""
    reference, pairs = all_pairs(presentation, query)
    links = len(labeled(plan_rows(presentation, query), "same-letter"))
    chained = compile_instance(presentation, query)
    old, new = Budget(), Budget()
    verdict = evaluate(reference, m, budget=old)
    assert evaluate(chained, m, budget=new) is verdict
    assert old.spent - new.spent == m * (pairs - links)
    assert witness_tables(chained, m) == witness_tables(reference, m)


_WORDS = st.text(alphabet="abc", min_size=1, max_size=3)
_EQUATIONS = st.builds(Equation, _WORDS, _WORDS)


class TestChainAgainstAllPairs:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("equations, query, _", CROSSCHECK_INSTANCES)
    def test_crosscheck_instances(self, equations, query, _, m):
        assert_chain_matches_all_pairs(Presentation.of(equations), Equation(*query), m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("query", ["ab", "ac", "ce", "de"])
    def test_ceitin_commutations(self, query, m):
        assert_chain_matches_all_pairs(ceitin_presentation(), Equation(query, query[::-1]), m)

    @given(st.lists(_EQUATIONS, max_size=3), _EQUATIONS, st.integers(1, 3))
    def test_random_presentations(self, equations, query, m):
        assert_chain_matches_all_pairs(Presentation(tuple(equations)), query, m)


def chain_length(plan) -> int:
    """Rows minus distinct letters: one link per row after its letter's first."""
    return len(plan.rows) - len({r.letter for r in plan.rows})


class TestLinearClauses:
    @given(st.lists(_EQUATIONS, max_size=4), _EQUATIONS)
    def test_one_link_per_repeated_row(self, equations, query):
        plan = plan_rows(Presentation(tuple(equations)), query)
        assert len(labeled(plan, "same-letter")) == chain_length(plan)

    def test_large_presentation(self):
        # 31 equations of 5 + 3 letters, one of 3 + 2, and three designated
        # rows: 256 rows, which all pairs would tie with 10,844 clauses.
        rng = random.Random(5)
        lengths = [(5, 3)] * 31 + [(3, 2)]
        equations = [Equation(*("".join(rng.choices("abc", k=n)) for n in pair)) for pair in lengths]
        presentation, query = Presentation.of(equations), Equation("ab", "ca")
        plan = plan_rows(presentation, query)
        assert len(plan.rows) == 256
        links = labeled(plan, "same-letter")
        assert len(links) == chain_length(plan) == 253
        matrix = compile_instance(presentation, query).body.body
        assert len(matrix.items) == len(links) + len(equations) + len(query.lhs) + len(query.rhs) + 2
