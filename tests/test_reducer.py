from henkin import (
    And,
    Branch,
    ConstTrue,
    Equation,
    Exists,
    EqualAtom,
    Implies,
    Not,
    Presentation,
    compile_instance,
    evaluate,
    validate,
)
from henkin.reducer import (
    plan_rows,
    same_letter_constraint,
    separation_clauses,
    separation_constraint,
)


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


class TestPlan:
    def test_row_counts(self):
        assert plan_rows(CANON, CANON_QUERY).n == 8
        assert plan_rows(Presentation.of([]), Equation("a", "a")).n == 1
        assert plan_rows(CEITIN, Equation("a", "b")).n == 35

    def test_equation_row_names_and_letters(self):
        plan = plan_rows(CEITIN, Equation("a", "b"))
        first = plan.lhs_rows(0)
        assert [r.universal.name for r in first] == ["x1_1", "x1_2"]
        assert [r.existential.name for r in first] == ["y1_1", "y1_2"]
        assert [r.letter for r in first] == ["a", "c"]
        right = plan.rhs_rows(0)
        assert [r.universal.name for r in right] == ["z1_1", "z1_2"]
        assert [r.letter for r in right] == ["c", "a"]

    def test_origins(self):
        # A row's names say where it comes from: equation i's left (x, y) or
        # right (z, r) word at position j, or a query letter (u, e).
        plan = plan_rows(CANON, CANON_QUERY)
        assert plan.lhs_rows(0)[0].universal.name == "x1_1"
        assert plan.rhs_rows(1)[0].existential.name == "r2_1"
        assert plan.rows[-1].universal.name in ("u_a", "u_b")

    def test_designated_rows_follow_first_occurrence(self):
        ab = plan_rows(Presentation.of([]), Equation("ab", "ba"))
        assert [r.letter for r in ab.rows[ab.qstart :]] == ["a", "b"]
        ba = plan_rows(Presentation.of([]), Equation("ba", "ab"))
        assert [r.letter for r in ba.rows[ba.qstart :]] == ["b", "a"]
        assert [(r.universal.name, r.existential.name) for r in ba.rows[ba.qstart :]] == [
            ("u_b", "e_b"),
            ("u_a", "e_a"),
        ]

    def test_designated_missing_letter(self):
        # A letter of the presentation that the query does not use gets no
        # designated row.
        plan = plan_rows(Presentation.of([Equation("cc", "c")]), Equation("a", "b"))
        assert [r.letter for r in plan.rows[plan.qstart :]] == ["a", "b"]

    def test_spine_lengths_follow_query(self):
        plan = plan_rows(CANON, CANON_QUERY)
        assert [t.name for t in plan.t_vars] == ["t0", "t1", "t2"]
        assert [s.name for s in plan.s_vars] == ["s0", "s1", "s2"]
        short = plan_rows(Presentation.of([]), Equation("a", "a"))
        assert [t.name for t in short.t_vars] == ["t0", "t1"]


class TestSameLetter:
    def test_pair_count_for_canonical_instance(self):
        phi = same_letter_constraint(plan_rows(CANON, CANON_QUERY))
        assert isinstance(phi, And)
        assert len(phi.items) == 12

    def test_single_row_has_no_pairs(self):
        plan = plan_rows(Presentation.of([]), Equation("a", "b"))
        assert same_letter_constraint(plan) == ConstTrue()

    def test_pairs_within_one_letter(self):
        plan = plan_rows(Presentation.of([Equation("aa", "a")]), Equation("a", "a"))
        phi = same_letter_constraint(plan)
        # four rows share letter a: C(4,2) = 6 implications
        assert len(phi.items) == 6
        first = phi.items[0]
        assert isinstance(first, Implies)
        assert isinstance(first.antecedent, EqualAtom)
        assert isinstance(first.consequent, EqualAtom)


def equation_clauses(presentation: Presentation, query: Equation):
    """The compiled sentence's equation clauses, in presentation order."""
    matrix = compile_instance(presentation, query).body.body
    return matrix.items[-1 - len(presentation.equations) : -1]


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
        designated = {r.letter: (r.universal, r.existential) for r in plan.rows[plan.qstart :]}
        clauses = separation_clauses(CANON_QUERY, designated, plan.t_vars, plan.s_vars)
        assert len(clauses) == len(CANON_QUERY.lhs) + len(CANON_QUERY.rhs) + 2
        first = clauses[0]
        assert isinstance(first, Implies)
        assert isinstance(clauses[-2], EqualAtom)
        assert isinstance(clauses[-1], Not)

    def test_constraint_is_conjunction(self):
        plan = plan_rows(CANON, CANON_QUERY)
        phi = separation_constraint(CANON_QUERY, plan)
        assert isinstance(phi, And)
        assert len(phi.items) == 4 + 2  # |ab| + |ba| + endpoint glue


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
        assert len(matrix.items) == 4  # pairings, two equations, separation

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
