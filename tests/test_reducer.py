import pytest

from henkin import (
    And,
    Branch,
    Equation,
    Exists,
    EqualAtom,
    Implies,
    Not,
    Presentation,
    build_hn,
    ceitin_presentation,
    compile_instance,
    evaluate,
    identity_check_failures,
    not_equal,
    validate,
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
        assert len(labeled(plan_rows(CANON, CANON_QUERY), "same-letter")) == 12

    def test_single_row_has_no_pairs(self):
        plan = plan_rows(Presentation.of([]), Equation("a", "b"))
        assert labeled(plan, "same-letter") == []

    def test_pairs_within_one_letter(self):
        plan = plan_rows(Presentation.of([Equation("aa", "a")]), Equation("a", "a"))
        pairs = labeled(plan, "same-letter")
        # four rows share letter a: C(4,2) = 6 implications
        assert len(pairs) == 6
        first = pairs[0]
        assert isinstance(first, Implies)
        assert isinstance(first.antecedent, EqualAtom)
        assert isinstance(first.consequent, EqualAtom)

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
        # 12 pairings, two equations, 4 trace steps, start, separate
        assert len(matrix.items) == 12 + 2 + 4 + 2

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
