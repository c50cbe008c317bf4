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
    ceitin_h12,
    ceitin_presentation,
    equal,
    evaluate,
    evaluate_naive,
    find_min_model,
    find_witness,
    free_variables,
    mk_prefix,
    parse_formula,
    reducer,
    witness_tables,
)

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
        # 1,134 ground instances; walking the universal tuples cost 531,441.
        budget = Budget()
        assert evaluate(ceitin_h12(), 3, budget=budget) is True
        assert budget.spent < 2_000

    def test_crosscheck_at_size_four_node_guard(self):
        spent = 0
        for equations, query, _ in CROSSCHECK_INSTANCES:
            sentence = reducer.compile(Presentation.of(equations), Equation(*query))
            budget = Budget()
            evaluate(sentence, 4, budget=budget)
            spent += budget.spent
        assert spent < 100_000

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
