import pytest
from hypothesis import given, strategies as st

from henkin import (
    And,
    Budget,
    BudgetExceeded,
    SkolemTable,
    Variable,
    equal,
    evaluate,
    evaluate_naive,
    find_min_model,
    parse_formula,
    witness_tables,
)

from _corpus import agreement_corpus

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
        # witness_tables reads the search evaluate runs: same verdict, same cost.
        for name, f in agreement_corpus():
            for m in (1, 2):
                decided, witnessed = Budget(), Budget()
                verdict = evaluate(f, m, budget=decided)
                tables = witness_tables(f, m, budget=witnessed)
                assert (tables is None) == (not verdict), (name, m)
                assert witnessed.spent == decided.spent, (name, m)

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
