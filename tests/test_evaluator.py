import pytest
from hypothesis import given, strategies as st

from henkin import (
    And,
    Branch,
    Budget,
    BudgetExceeded,
    Equation,
    Exists,
    Implies,
    Not,
    Or,
    Presentation,
    SkolemTable,
    Variable,
    Witness,
    ceitin_e10,
    ceitin_h12,
    ceitin_presentation,
    check_witness,
    conjoin,
    ehrenfeucht_finiteness,
    equal,
    evaluate,
    evaluate_naive,
    find_min_model,
    find_witness,
    free_variables,
    infinity_sentence,
    mk_prefix,
    parse_formula,
    reducer,
    witness_tables,
)
from henkin import evaluator
from henkin.evaluator import _guards
from henkin.fixtures import ceitin_h12_clauses, ceitin_h12_prefix

from _corpus import (
    CROSSCHECK_INSTANCES,
    NAMES,
    agreement_corpus,
    collapse_cases,
    small_formulas,
)

P = parse_formula


class TestFirstOrder:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reflexivity(self, m):
        assert evaluate(P("forall x . x = x"), m) is True
        assert evaluate(P("exists x . x != x"), m) is False

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quantifier_order_matters(self, m):
        assert evaluate(P("forall x . exists y . y = x"), m) is True
        assert evaluate(P("exists y . forall x . y = x"), m) is (m == 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_counting(self, m):
        assert evaluate(P("exists a b . a != b"), m) is (m >= 2)
        assert evaluate(P("forall x . exists y . y != x"), m) is (m >= 2)

    def test_connectives(self):
        assert evaluate(P("true & ~false"), 1) is True
        assert evaluate(P("false | true"), 2) is True
        assert evaluate(P("forall x z . (x = z <-> z = x)"), 3) is True
        assert evaluate(P("forall x z . (x = z -> z = x)"), 3) is True
        assert evaluate(P("forall x z . (x = z | x != z)"), 3) is True


class TestBranch:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_identity_table(self, m):
        assert evaluate(P("H{ forall x ; y(x) } . y = x"), m) is True

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_arity_zero_cell(self, m):
        assert evaluate(P("H{ forall x ; y() } . y = x"), m) is (m == 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_outer_universal_is_frozen(self, m):
        # The choice table may not read a universal bound outside its own
        # prefix, but re-running the search per outer value restores truth.
        assert evaluate(P("forall a . H{ forall x ; y(x) } . y = a"), m) is True
        assert evaluate(P("H{ forall a x ; y(x) } . y = a"), m) is (m == 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dependency_order(self, m):
        assert evaluate(P("H{ forall x z ; y(x z), w(z x) } . (y = w <-> x = z)"), m) is True

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nested_branch(self, m):
        assert evaluate(P("H{ forall x ; y(x) } . H{ forall z ; w(z) } . w = y"), m) is True

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_injective_avoiding_a_point_needs_infinity(self, m):
        inf = P("exists t . H{ forall x z ; y(x), w(z) } . (y = w <-> x = z) & t != y")
        assert evaluate(inf, m) is False
        assert evaluate_naive(inf, m, budget=Budget(2_000_000)) is False


class TestEnvironment:
    def test_free_variables_from_env(self):
        f = P("x = y")
        assert evaluate(f, 3, env={"x": 1, "y": 1}) is True
        assert evaluate(f, 3, env={"x": 1, "y": 2}) is False
        assert evaluate_naive(f, 3, env={Variable("x"): 0, "y": 0}) is True

    @pytest.mark.parametrize(
        "text",
        [
            "forall x y . x = y -> (forall x . true) & x = y",
            "forall x y . x = y -> (H{ forall x ; z(x) } . true) & x = y",
        ],
        ids=["block", "prefix"],
    )
    @pytest.mark.parametrize("m", [2, 3])
    def test_shadowing_binding_ends_with_its_scope(self, text, m):
        f = P(text)
        assert evaluate(f, m) is True
        assert evaluate_naive(f, m) is True

    def test_unbound_free_variable_rejected(self):
        with pytest.raises(ValueError, match="unbound free variables: y"):
            evaluate(P("x = y"), 3, env={"x": 1})

    def test_env_range_checked(self):
        with pytest.raises(ValueError, match="must be an integer in"):
            evaluate(P("x = x"), 2, env={"x": 2})

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_must_be_positive(self, size):
        with pytest.raises(ValueError, match="positive"):
            evaluate(P("true"), size)

    def test_invalid_formula_rejected(self):
        bad = And((equal("x", "x"),))
        with pytest.raises(ValueError, match="invalid formula"):
            evaluate(bad, 2, env={"x": 0})
        with pytest.raises(ValueError, match="invalid formula"):
            evaluate_naive(bad, 2, env={"x": 0})


class TestBudget:
    def test_search_engine_charges(self):
        b = Budget(10)
        with pytest.raises(BudgetExceeded):
            evaluate(P("forall a b c d . a = a"), 3, budget=b)
        assert b.spent == 11

    def test_naive_engine_charges(self):
        with pytest.raises(BudgetExceeded):
            evaluate_naive(P("H{ forall x ; y(x) } . y = x"), 4, budget=Budget(3))

    def test_find_min_model_reports_size(self):
        f = P("exists t . H{ forall x z ; y(x), w(z) } . (y = w <-> x = z) & t != y")
        with pytest.raises(BudgetExceeded) as info:
            find_min_model(f, 4, budget=Budget(25))
        assert info.value.at_size == 3
        assert "at domain size" in str(info.value)

    def test_find_min_model_charges_each_size(self):
        # No size of ``false`` runs a search, so only the per-size node counts.
        with pytest.raises(BudgetExceeded) as info:
            find_min_model(P("false"), 1000, budget=Budget(10))
        assert info.value.at_size == 11


class TestFindMinModel:
    def test_finds_smallest(self):
        assert find_min_model(P("exists a b . a != b"), 5) == 2
        assert find_min_model(P("forall x . x = x"), 5) == 1

    def test_none_when_out_of_range(self):
        assert find_min_model(P("exists x . x != x"), 4) is None

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            find_min_model(P("true"), 0)


class TestWitness:
    def test_spine_only(self):
        tabs = witness_tables(P("exists t . t = t"), 3)
        assert tabs == [SkolemTable("t", 0, (((), 0),))]
        assert tabs[0].format() == "t: ()->0"

    def test_spine_picks_first_workable_value(self):
        tabs = witness_tables(P("exists t u . t != u"), 3)
        assert [t.entries for t in tabs] == [(((), 0),), (((), 1),)]

    def test_branch_tables(self):
        tabs = witness_tables(P("H{ forall x ; y(x) } . y = x"), 2)
        assert tabs == [SkolemTable("y", 1, (((0,), 0), ((1,), 1)))]
        assert tabs[0].format() == "y: (0)->0 (1)->1"

    def test_spine_then_branch(self):
        f = P("exists t . H{ forall x z ; y(x), w(z) } . y = w & t = t")
        tabs = witness_tables(f, 2)
        assert tabs is not None
        assert [t.owner for t in tabs] == ["t", "y", "w"]
        assert tabs[1].entries == tabs[2].entries

    def test_spine_over_plain_body(self):
        tabs = witness_tables(P("exists t . forall x . x = x"), 2)
        assert tabs == [SkolemTable("t", 0, (((), 0),))]

    def test_false_sentence_has_no_witness(self):
        assert witness_tables(P("exists x . x != x"), 3) is None
        assert witness_tables(P("H{ forall x ; y() } . y = x"), 2) is None

    def test_nested_branch_reports_the_outer_tables(self):
        # Every inner branch search finishes before the outer one succeeds,
        # so the tables read off the last success are the outer prefix's.
        f = P("H{ forall x ; y(x) } . H{ forall z ; w(z) } . w = y")
        assert [t.format() for t in witness_tables(f, 3)] == ["y: (0)->0 (1)->0 (2)->0"]
        f = P("exists t . H{ forall x ; y(x) } . (y != t & H{ forall z ; w(z) } . w = y)")
        assert [t.format() for t in witness_tables(f, 3)] == ["t: ()->0", "y: (0)->1 (1)->1 (2)->1"]
        # w's cells have two-value keys: tables read off an inner search
        # would leave every y cell unread and report it as 0.
        f = P("H{ forall x ; y(x) } . (y != x & H{ forall z u ; w(z u) } . w = y)")
        assert [t.format() for t in witness_tables(f, 3)] == ["y: (0)->1 (1)->0 (2)->0"]

    def test_no_spine_true_sentence(self):
        assert witness_tables(P("forall x . x = x"), 3) == []

    def test_deterministic(self):
        f = P("H{ forall x z ; y(x), w(z) } . (y = w <-> x = z)")
        assert witness_tables(f, 3) == witness_tables(f, 3)

    def test_one_search_decides_and_witnesses(self):
        # witness_tables reads the search evaluate runs: same verdict, same
        # cost, plus one node per cell of a table the matrix never reads.
        for name, f in agreement_corpus():
            node = f
            while isinstance(node, Exists):
                node = node.body
            unread = []
            if isinstance(node, Branch):
                read = free_variables(node.body)
                prefix = node.prefix
                unread = [len(ds) for e, ds in zip(prefix.existentials, prefix.deps) if e not in read]
            for m in (1, 2):
                decided, witnessed = Budget(), Budget()
                verdict = evaluate(f, m, budget=decided)
                tables = witness_tables(f, m, budget=witnessed)
                assert (tables is None) == (not verdict), (name, m)
                extra = sum(m**arity for arity in unread) if verdict else 0
                assert witnessed.spent == decided.spent + extra, (name, m)

    def test_table_format_arities(self):
        t = SkolemTable("y", 2, (((0, 0), 1), ((0, 1), 2)))
        assert t.format() == "y: (0,0)->1 (0,1)->2"


class TestEngineAgreementSmall:
    @given(st.integers(min_value=1, max_value=3))
    def test_identity(self, m):
        f = P("H{ forall x ; y(x) } . y = x")
        assert evaluate(f, m) == evaluate_naive(f, m)

    @pytest.mark.parametrize(
        "text",
        [
            "exists a b . a != b",
            "H{ forall x z ; y(x), w(z) } . (y = w <-> x = z)",
            "forall a . H{ forall x ; y(x) } . y = a",
            "H{ forall a x ; y(x) } . y = a",
            "H{ forall x ; y(), w(x) } . (w = y -> x = y)",
        ],
    )
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_selected(self, text, m):
        f = P(text)
        assert evaluate(f, m) == evaluate_naive(f, m, budget=Budget(500_000))


class TestSymmetryBreaking:
    def test_enclosing_scope_counts(self):
        # A block that ignored the bound x = 2 would try only y = 0.
        assert evaluate(P("exists y . y = x"), 3, env={"x": 2}) is True
        assert evaluate(P("forall y . y != x"), 3, env={"x": 2}) is False
        assert evaluate(P("exists x . forall y . exists z . z != y & z != x"), 3) is True

    @pytest.mark.parametrize("text, nodes", [("forall a b c . a = a", 5), ("forall a b c d . a = a", 14)])
    def test_one_node_per_restricted_growth_string(self, text, nodes):
        budget = Budget()
        assert evaluate(P(text), 3, budget=budget) is True
        assert budget.spent == nodes

    @pytest.mark.parametrize(
        "equations, query, smallest",
        [case for case in CROSSCHECK_INSTANCES if case[2] is not None],
    )
    def test_spine_values_are_canonical(self, equations, query, smallest):
        sentence = reducer.compile(Presentation.of(equations), Equation(*query))
        tables = witness_tables(sentence, smallest)
        spine = [t.entries[0][1] for t in tables if t.arity == 0]
        assert spine
        for i, value in enumerate(spine):
            assert value <= max(spine[:i], default=-1) + 1, spine

    def test_node_count_guard(self):
        # Node counts repeat exactly; without the rule this costs 897,737.
        sentence = reducer.compile(Presentation.of([("ba", "ab")]), Equation("ab", "ba"))
        budget = Budget()
        assert evaluate(sentence, 3, budget=budget) is False
        assert budget.spent < 150_000

    @given(st.data())
    def test_agrees_with_naive_engine(self, data):
        f = data.draw(small_formulas())
        m = data.draw(st.integers(min_value=1, max_value=3))
        env = {v.name: data.draw(st.integers(0, m - 1)) for v in sorted(free_variables(f), key=str)}
        assert evaluate(f, m, env) == evaluate_naive(f, m, env)


def _tables_hold(f, m, tables) -> bool:
    """Check witness tables with the reference engine's loop alone: plug the
    spine values and the branch tables into each conjunct of the matrix."""
    given = {t.owner: dict(t.entries) for t in tables}
    env = {}
    while isinstance(f, Exists):
        env.update((v.name, given[v.name][()]) for v in f.variables)
        f = f.body
    parts = [(str(i), g) for i, g in enumerate(evaluator._conjuncts(f.body))]
    return evaluator.table_failures(f.prefix, parts, given, m, env) == []


def _h12_case():
    return ceitin_h12(), ceitin_h12_prefix(), ceitin_h12_clauses()


def _crosscheck_case():
    presentation, query = Presentation.of([("ab", "b")]), Equation("ab", "ba")
    sentence = reducer.compile(presentation, query)
    return sentence, sentence.body.prefix, reducer.clauses(reducer.plan_rows(presentation, query))


class TestTableFailures:
    # Both witnesses at m=3 are found by the search; moving one cell they
    # read to the next value breaks every rule that reads it there.
    @pytest.mark.parametrize(
        "case, cell, readers",
        [
            (_h12_case, "y_cc", ["one-function:cc", "compose:cc", "relation:cca=ccae"]),
            (
                _crosscheck_case,
                "r1_1",
                ["same-letter:b:x1_2,z1_1", "same-letter:b:z1_1,u_b", "equation:1"],
            ),
        ],
        ids=["ceitin-h12", "crosscheck"],
    )
    def test_a_wrong_cell_names_its_readers(self, case, cell, readers):
        sentence, prefix, clauses = case()
        tables = {t.owner: dict(t.entries) for t in witness_tables(sentence, 3)}
        assert evaluator.table_failures(prefix, clauses, tables, 3) == []
        tables[cell][(0,)] = (tables[cell][(0,)] + 1) % 3
        assert evaluator.table_failures(prefix, clauses, tables, 3) == readers

    def test_a_name_outside_the_prefix_is_a_value_error(self):
        tables = {"y_a": {(0,): 0}}
        with pytest.raises(ValueError, match="unbound free variables: z"):
            evaluator.table_failures(ceitin_h12_prefix(), [("c", equal("y_a", "z"))], tables, 1)


class TestBranchSymmetry:
    """Table cells try only the values in play plus one fresh value."""

    def test_cell_keys_count(self):
        # y(0) may take 1 only because its key 0 is in play.
        assert evaluate(P("H{ forall x ; y(x) } . y != x"), 2) is True

    def test_enclosing_scope_counts(self):
        # A cell that ignored the bound t = 2 would never try y(0) = 2.
        assert evaluate(P("H{ forall x ; y(x) } . y = t"), 3, env={"t": 2}) is True

    @pytest.mark.parametrize("sentence", [infinity_sentence, ehrenfeucht_finiteness])
    def test_pigeonhole_node_guard(self, sentence):
        # 1,810 nodes each; trying every value in every cell cost 2,499,386.
        budget = Budget()
        evaluate(sentence(), 8, budget=budget)
        assert budget.spent < 2_500

    @pytest.mark.parametrize("sentence", [infinity_sentence, ehrenfeucht_finiteness])
    def test_pigeonhole_node_counts(self, sentence):
        # Exact counts at m = 5..8, as the README quotes them for infinity:
        # a change to the cell bound shows here and must update both.
        spent = []
        for m in range(5, 9):
            budget = Budget()
            evaluate(sentence(), m, budget=budget)
            spent.append(budget.spent)
        assert spent == [179, 391, 844, 1_810]

    @pytest.mark.parametrize("equations, query, smallest", CROSSCHECK_INSTANCES)
    def test_compiled_tables_pass_the_reference_engine(self, equations, query, smallest):
        sentence = reducer.compile(Presentation.of(equations), Equation(*query))
        true_at = []
        for m in (1, 2, 3):
            tables = witness_tables(sentence, m)
            if tables is not None:
                assert _tables_hold(sentence, m, tables), m
                true_at.append(m)
        assert min(true_at, default=None) == smallest

    @pytest.mark.parametrize("sentence", [ceitin_h12, ceitin_e10])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ceitin_tables_pass_the_reference_engine(self, sentence, m):
        tables = witness_tables(sentence(), m)
        assert _tables_hold(sentence(), m, tables)


class TestGuards:
    """Key tuples on which an equality guard is false are never grounded."""

    # Each unguarded shape forces y = w wherever x != z, where the second
    # conjunct forces y != w: the sentence is false from m=2 on.  A wrong
    # guard {x, z} would leave those instances of the shape unchecked and
    # make it true at m=2.
    @pytest.mark.parametrize(
        "shape, guards",
        [
            ("~(x = z) -> y = w", set()),
            ("(x = z | y = y) -> y = w", set()),
            ("(x = z <-> y != w)", set()),
            ("(x != z & y = w) | x = z", set()),
            ("(forall z . (x != z | y = w)) | x = z", set()),
            ("x = z -> y = w", {frozenset({"x", "z"})}),
        ],
        ids=["negated-antecedent", "disjunctive-antecedent", "iff", "and-under-or", "rebound", "implies"],
    )
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shapes_agree_with_naive_engine(self, shape, guards, m):
        f = P(f"H{{ forall x z ; y(x), w(z) }} . ({shape}) & (x = z | y != w)")
        assert _guards(f.body.items[0]) == guards
        assert evaluate(f, m) == evaluate_naive(f, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_guard_tying_two_dependencies(self, m):
        # Only the diagonal cells y(a a) are read; the others are reported
        # as 0 at one node each.
        f = P("H{ forall x z ; y(x z) } . (x = z -> y = x)")
        decided, witnessed = Budget(), Budget()
        assert evaluate(f, m, budget=decided) is True
        tables = witness_tables(f, m, budget=witnessed)
        assert witnessed.spent == decided.spent + m * m - m
        assert tables[0].entries == tuple(
            ((a, b), a if a == b else 0) for a in range(m) for b in range(m)
        )
        assert _tables_hold(f, m, tables)


def _quantifier_free(names):
    leaves = st.builds(equal, st.sampled_from(names), st.sampled_from(names))
    return st.recursive(
        st.one_of(leaves, st.builds(Not, leaves)),
        lambda sub: st.one_of(
            st.builds(lambda a, b: And((a, b)), sub, sub),
            st.builds(lambda a, b: Or((a, b)), sub, sub),
            st.builds(Implies, sub, sub),
        ),
        max_leaves=4,
    )


class TestGroundedSearch:
    def test_failure_after_a_resumed_frame_is_not_final(self):
        # A shortcut that stops when a tuple reads no filled cell wrongly
        # calls this false once backtracking has resumed an earlier frame.
        f = P("H{ forall x1 ; y1(x1) } . (y1 != x1 | y1 = x1) & (y1 = y1 & x1 = y1)")
        assert evaluate(f, 3) is True
        assert evaluate_naive(f, 3) is True

    def test_backjumping_keeps_collapse_11_small(self):
        # Backjumping decides this in 158 nodes; backtracking
        # chronologically over the same cells runs for minutes.
        name, n, matrix = collapse_cases()[11]
        uni = tuple(Variable(f"x{j}") for j in range(1, n + 1))
        exi = tuple(Variable(f"y{j}") for j in range(1, n + 1))
        f = Branch(mk_prefix(uni, exi, {e: uni for e in exi}), matrix)
        budget = Budget()
        assert evaluate(f, 3, budget=budget) is False
        assert budget.spent < 10_000

    def test_ceitin_h12_node_guard(self):
        # 378 admitted tuples, 360 instances stored (1,134 tuples without the
        # functionality clauses' guards); walking the universal tuples cost
        # 531,441.
        budget = Budget()
        assert evaluate(ceitin_h12(), 3, budget=budget) is True
        assert budget.spent < 2_000

    def test_ceitin_h12_size_five_node_guard(self):
        # 2,460 nodes; grounding the tuples the guards skip cost 12,210.
        budget = Budget()
        assert evaluate(ceitin_h12(), 5, budget=budget) is True
        assert budget.spent < 5_000

    def test_ceitin_h12_node_counts(self):
        # Exact counts at m = 3..7 (the README quotes m=3 and m=5): a change
        # to the grounding or the cell bound shows here and must update both.
        spent = []
        for m in range(3, 8):
            budget = Budget()
            assert evaluate(ceitin_h12(), m, budget=budget) is True
            spent.append(budget.spent)
        assert spent == [396, 1_088, 2_460, 4_860, 8_708]

    def test_crosscheck_at_size_four_node_guard(self):
        spent = 0
        for equations, query, _ in CROSSCHECK_INSTANCES:
            sentence = reducer.compile(Presentation.of(equations), Equation(*query))
            budget = Budget()
            evaluate(sentence, 4, budget=budget)
            spent += budget.spent
        assert spent < 100_000

    def test_crosscheck_node_counts(self):
        # Exact counts per instance at m = 4 and 5 (4,759 and 6,968 in
        # all).  The order of the conjuncts alone moves them 50-fold, so a
        # change to the grounding, the merging, the cell order or the cell
        # bound shows here and must update them.
        expected = {
            4: [233, 37, 1_058, 22, 69, 157, 211, 1_151, 157, 1_394, 109, 161],
            5: [284, 39, 1_553, 26, 77, 177, 244, 1_517, 188, 2_494, 132, 237],
        }
        for m, counts in expected.items():
            spent = []
            for equations, query, _ in CROSSCHECK_INSTANCES:
                sentence = reducer.compile(Presentation.of(equations), Equation(*query))
                budget = Budget()
                evaluate(sentence, m, budget=budget)
                spent.append(budget.spent)
            assert spent == counts, m

    @pytest.mark.parametrize("query", ["ab=ba", "ae=ea", "ce=ec", "ac=ca"])
    def test_compiled_ceitin_presentation_agrees_with_oracle(self, query):
        presentation = ceitin_presentation()
        equation = Equation(*query.split("="))
        sentence = reducer.compile(presentation, equation)
        for m in (1, 2, 3):
            witness = find_witness(presentation, equation, m)
            assert evaluate(sentence, m) is (witness is not None), (query, m)

    def test_witness_tables_are_total(self):
        # w is never mentioned, so no instance reads its cells.
        tabs = witness_tables(P("H{ forall x z ; y(x), w(x z) } . y = x"), 2)
        assert [t.owner for t in tabs] == ["y", "w"]
        assert tabs[0].entries == (((0,), 0), ((1,), 1))
        assert tabs[1].entries == tuple(((a, b), 0) for a in (0, 1) for b in (0, 1))

    def test_loose_universals_are_checked(self):
        # x keys no cell of y, so every x is looped inside the check.
        assert evaluate(P("H{ forall x z ; y(z) } . y = z & (x = x | y != y)"), 3) is True
        assert evaluate(P("H{ forall x z ; y(z) } . y = z & x = z"), 2) is False

    @given(st.data())
    def test_two_row_prefixes_agree_with_naive_engine(self, data):
        deps = st.sampled_from([(), ("u",), ("x",), ("u", "x"), ("x", "u")])
        dw, dy = data.draw(deps), data.draw(deps)
        conjunctions = st.recursive(
            _quantifier_free(NAMES), lambda sub: st.builds(lambda a, b: And((a, b)), sub, sub)
        )
        matrix = data.draw(conjunctions)
        f = Branch(mk_prefix(["u", "x"], ["w", "y"], {"w": dw, "y": dy}), matrix)
        # An arity-2 table has 3**9 fillings at m=3, too many for the naive engine.
        m = data.draw(st.integers(1, 2 if 2 in (len(dw), len(dy)) else 3))
        assert evaluate(f, m) == evaluate_naive(f, m)


def _merged(monkeypatch, f, m) -> tuple[bool, int]:
    """``evaluate(f, m)``, and how many conjuncts of the branched prefixes
    it grounds ``_ground`` merges (those whose ``check`` is None)."""
    ground, merged = evaluator._ground, []

    def spy(conjuncts, *args):
        merged.extend(check is None for _, _, check in conjuncts)
        return ground(conjuncts, *args)

    monkeypatch.setattr(evaluator, "_ground", spy)
    return evaluate(f, m), sum(merged)


class TestMergedCells:
    """Cells a functional-consistency clause equates are searched as one."""

    @pytest.mark.parametrize(
        "text, merged",
        [
            ("exists t . H{ forall x z ; y(x), w(z) } . (x = t -> y = w) & y = x", 0),
            ("H{ forall x z u ; y(x), w(z) } . (x = u -> y = w) & y = x", 0),
            ("H{ forall x z ; y(x), w(z) } . (x != z -> y = w) & y = x", 0),
            ("H{ forall x z ; y(x), w(z) } . ((x = z | x = z) -> y = w) & y = x", 0),
            ("H{ forall x z u ; y(x), w(z) } . ((x = z & u = u) -> y = w) & y != u", 0),
            ("H{ forall x z u ; y(x), w(z) } . (x = z -> y = u) & w = z", 0),
            ("H{ forall x z ; y(x), w(z) } . (x = z -> y = w) & y = x", 1),
            ("H{ forall x z ; y(x z) } . (x = z -> y = y) & (x = z -> y = x)", 1),
            ("H{ forall x ; c(), y(x) } . (x = x -> c = y) & y = x", 1),
            ("H{ forall x ; c(), y(x) } . (x = x -> c = y) & (x = c | y != x)", 1),
            (
                "H{ forall x ; y(x) } . (y = x & H{ forall x z ; y(x), w(z) } ."
                " ((x = z -> y = w) & w != z))",
                1,
            ),
        ],
        ids=[
            "spine-in-antecedent",
            "loose-in-antecedent",
            "disequality-antecedent",
            "non-atom-antecedent",
            "loose-beside-guard",
            "loose-in-consequent",
            "two-rows",
            "cell-equals-itself",
            "arity-zero",
            "arity-zero-true",
            "nested-rebinding",
        ],
    )
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shapes_agree_with_naive_engine(self, monkeypatch, text, merged, m):
        f = P(text)
        verdict, count = _merged(monkeypatch, f, m)
        assert count == merged
        assert verdict == evaluate_naive(f, m)
        if verdict:
            assert _tables_hold(f, m, witness_tables(f, m))

    @given(st.data())
    def test_small_prefixes_agree_with_naive_engine(self, data):
        unis = data.draw(st.sampled_from([("x",), ("u", "x")]))
        exis = ("w", "y", "v")[: data.draw(st.integers(1, 3))]
        keys = [()] + [(a,) for a in unis] + ([unis, unis[::-1]] if len(unis) == 2 else [])
        deps = {e: data.draw(st.sampled_from(keys)) for e in exis}
        guard = st.builds(equal, st.sampled_from(unis), st.sampled_from(unis))
        consistency = st.builds(
            lambda eqs, a, b: Implies(conjoin(eqs), equal(a, b)),
            st.lists(guard, min_size=1, max_size=2),
            st.sampled_from(exis),
            st.sampled_from(exis),
        )
        parts = st.lists(st.one_of(consistency, _quantifier_free(unis + exis)), min_size=1, max_size=4)
        f = Branch(mk_prefix(unis, exis, deps), conjoin(data.draw(parts)))
        m = data.draw(st.integers(1, 2))
        verdict = evaluate(f, m)
        assert verdict == evaluate_naive(f, m)
        if verdict:
            assert _tables_hold(f, m, witness_tables(f, m))

    def test_true_compiled_instances_read_off_as_letter_models(self):
        # Rows carrying one letter report one table, and the letter tables
        # with the point t_l form a model that oracle.check_witness accepts.
        instances = [(Presentation.of(e), Equation(*q)) for e, q, _ in CROSSCHECK_INSTANCES]
        instances += [(ceitin_presentation(), Equation(q, q[::-1])) for q in ("ab", "ae", "ce")]
        checked = 0
        for presentation, query in instances:
            sentence = reducer.compile(presentation, query)
            rows = reducer.plan_rows(presentation, query).rows
            for m in (1, 2, 3):
                tables = witness_tables(sentence, m)
                if tables is None:
                    continue
                given = {t.owner: t.entries for t in tables}
                letters = {}
                for row in rows:
                    entries = letters.setdefault(row.letter, given[row.existential.name])
                    assert entries == given[row.existential.name], (query, m, row)
                point = given[f"t{len(query.lhs)}"][0][1]
                model = {c: tuple(v for _, v in entries) for c, entries in letters.items()}
                assert check_witness(presentation, query, Witness(m, model, point)), (query, m)
                checked += 1
        assert checked == 16

    def test_frontier_node_guard(self):
        # At m=6: 3,560 and 8,867 nodes for the mirrored pair (168,758 and
        # 3,210 before merging), 15,868 for all twelve (181,636 before).
        spent = {}
        for equations, query, _ in CROSSCHECK_INSTANCES:
            sentence = reducer.compile(Presentation.of(equations), Equation(*query))
            budget = Budget()
            evaluate(sentence, 6, budget=budget)
            spent[tuple(equations), query] = budget.spent
        assert spent[(("ab", "ba"),), ("ab", "ba")] < 12_000
        assert spent[(("ba", "ab"),), ("ab", "ba")] < 12_000
        assert sum(spent.values()) < 20_000
