import copy
import sys
import threading
import tracemalloc

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
    Variable,
    Witness,
    build_hn,
    ceitin_e10,
    ceitin_h12,
    ceitin_h12_with_query,
    ceitin_presentation,
    check_witness,
    conjoin,
    ehrenfeucht_finiteness,
    equal,
    evaluate,
    evaluate_naive,
    find_min_model,
    find_witness,
    free_names,
    infinity_sentence,
    mk_prefix,
    parse_formula,
    reducer,
    witness_tables,
)
from henkin import evaluator
from henkin.budget import whole
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

    # A name a binder shadows somewhere is still free where an atom reads it
    # outside that binder; both engines ask the env for exactly those names.
    @pytest.mark.parametrize(
        "text, free",
        [
            ("forall x . x = y & exists y . y = x", "y"),
            ("x = y & H{ forall x ; y(x) } . y = x", "x, y"),
            ("H{ forall x ; y(x) } . y = x & forall y . y = z", "z"),
        ],
    )
    def test_shadowed_names_stay_free_outside(self, text, free):
        for engine in (evaluate, evaluate_naive):
            with pytest.raises(ValueError, match=f"^unbound free variables: {free}$"):
                engine(P(text), 2)
        env = dict.fromkeys(free.split(", "), 0)
        assert evaluate(P(text), 2, env=env) is evaluate_naive(P(text), 2, env=env)

    def test_env_range_checked(self):
        with pytest.raises(ValueError, match="must be an integer in"):
            evaluate(P("x = x"), 2, env={"x": 2})

    @pytest.mark.parametrize("engine", [evaluate, evaluate_naive])
    @pytest.mark.parametrize("value", [2.5, True, "1"])
    def test_size_and_env_values_are_whole(self, engine, value):
        with pytest.raises(ValueError, match=f"^domain size must be an integer, got {value!r}$"):
            engine(P("true"), value)
        with pytest.raises(ValueError, match=f"^value for 'x' must be an integer, got {value!r}$"):
            engine(P("x = x"), 2, env={"x": value})

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_must_be_positive(self, size):
        with pytest.raises(ValueError, match="at least 1"):
            evaluate(P("true"), size)

    def test_invalid_formula_rejected(self):
        bad = And((equal("x", "x"),))
        with pytest.raises(ValueError, match="invalid formula"):
            evaluate(bad, 2, env={"x": 0})
        with pytest.raises(ValueError, match="invalid formula"):
            evaluate_naive(bad, 2, env={"x": 0})


class TestBudget:
    @pytest.mark.parametrize("limit", [2.5, "5", True, None])
    def test_limit_must_be_an_integer(self, limit):
        with pytest.raises(ValueError) as info:
            Budget(limit)
        assert str(info.value) == f"budget must be an integer, got {limit!r}"

    def test_whole_has_three_messages(self):
        assert whole(0, "n") == 0 and whole(3, "n", 1, 4) == 3
        cases = [
            ((1.0, "n"), "n must be an integer, got 1.0"),
            ((False, "n"), "n must be an integer, got False"),
            ((4, "n", 1, 4), "n must be an integer in [1, 4)"),
            ((0, "n", 1, 4), "n must be an integer in [1, 4)"),
            ((0, "n", 1), "n must be at least 1"),
            ((-1, "n"), "n must be at least 0"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as info:
                whole(*args)
            assert str(info.value) == message

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

    @pytest.mark.parametrize("max_size", [2.5, True, "3"])
    def test_max_size_must_be_an_integer(self, max_size):
        with pytest.raises(ValueError) as info:
            find_min_model(P("true"), max_size)
        assert str(info.value) == f"max_size must be an integer, got {max_size!r}"


class TestWitness:
    def test_spine_only(self):
        assert witness_tables(P("exists t . t = t"), 3) == {"t": {(): 0}}

    def test_spine_picks_first_workable_value(self):
        assert witness_tables(P("exists t u . t != u"), 3) == {"t": {(): 0}, "u": {(): 1}}

    def test_branch_tables(self):
        assert witness_tables(P("H{ forall x ; y(x) } . y = x"), 2) == {"y": {(0,): 0, (1,): 1}}

    def test_spine_then_branch(self):
        f = P("exists t . H{ forall x z ; y(x), w(z) } . y = w & t = t")
        tabs = witness_tables(f, 2)
        assert list(tabs) == ["t", "y", "w"]
        assert tabs["y"] == tabs["w"]

    def test_spine_over_plain_body(self):
        assert witness_tables(P("exists t . forall x . x = x"), 2) == {"t": {(): 0}}

    def test_false_sentence_has_no_witness(self):
        assert witness_tables(P("exists x . x != x"), 3) is None
        assert witness_tables(P("H{ forall x ; y() } . y = x"), 2) is None

    def test_nested_branch_reports_the_outer_tables(self):
        # Every inner branch search finishes before the outer one succeeds,
        # so the tables read off the last success are the outer prefix's.
        f = P("H{ forall x ; y(x) } . H{ forall z ; w(z) } . w = y")
        assert witness_tables(f, 3) == {"y": {(0,): 0, (1,): 0, (2,): 0}}
        f = P("exists t . H{ forall x ; y(x) } . (y != t & H{ forall z ; w(z) } . w = y)")
        assert witness_tables(f, 3) == {"t": {(): 0}, "y": {(0,): 1, (1,): 1, (2,): 1}}
        # w's cells have two-value keys: tables read off an inner search
        # would leave every y cell unread and report it as 0.
        f = P("H{ forall x ; y(x) } . (y != x & H{ forall z u ; w(z u) } . w = y)")
        assert witness_tables(f, 3) == {"y": {(0,): 1, (1,): 0, (2,): 0}}

    def test_a_rebound_name_keeps_its_inner_table(self):
        f = P("exists y t . H{ forall x ; y(x) } . y = x")
        assert witness_tables(f, 2) == {"y": {(0,): 0, (1,): 1}, "t": {(): 0}}

    def test_no_spine_true_sentence(self):
        assert witness_tables(P("forall x . x = x"), 3) == {}

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
                read = free_names(node.body)
                prefix = node.prefix
                unread = [len(ds) for e, ds in zip(prefix.existentials, prefix.deps) if e.name not in read]
            for m in (1, 2):
                decided, witnessed = Budget(), Budget()
                verdict = evaluate(f, m, budget=decided)
                tables = witness_tables(f, m, budget=witnessed)
                assert (tables is None) == (not verdict), (name, m)
                extra = sum(m**arity for arity in unread) if verdict else 0
                assert witnessed.spent == decided.spent + extra, (name, m)


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
        spine = [tables[v.name][()] for v in sentence.variables]
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
        env = {n: data.draw(st.integers(0, m - 1)) for n in sorted(free_names(f))}
        assert evaluate(f, m, env) == evaluate_naive(f, m, env)


def _tables_hold(f, m, tables) -> bool:
    """Check witness tables with the reference engine's loop alone: plug the
    spine values and the branch tables into each conjunct of the matrix."""
    env = {}
    while isinstance(f, Exists):
        env.update((v.name, tables[v.name][()]) for v in f.variables)
        f = f.body
    parts = [(str(i), g) for i, g in enumerate(evaluator._conjuncts(f.body))]
    return evaluator.table_failures(f.prefix, parts, tables, m, env) == []


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
        tables = witness_tables(sentence, 3)
        assert evaluator.table_failures(prefix, clauses, tables, 3) == []
        tables[cell][(0,)] = (tables[cell][(0,)] + 1) % 3
        assert evaluator.table_failures(prefix, clauses, tables, 3) == readers

    # ``z`` keys no cell of ``y``, so each clause is checked on every (x, z);
    # the last clause binds its own ``z`` and reads none of the prefix's.
    def test_a_loose_universal_is_checked_on_every_value(self):
        prefix = mk_prefix(["x", "z"], ["y"], {"y": ["x"]})
        clauses = [
            ("loose", equal("y", "z")),
            ("guarded", Implies(equal("x", "z"), equal("y", "z"))),
            ("shadowed", Exists(("z",), equal("y", "z"))),
        ]
        identity = {"y": {(0,): 0, (1,): 1}}
        assert evaluator.table_failures(prefix, clauses, identity, 2) == ["loose"]
        assert evaluator.table_failures(prefix, clauses, {"y": {(0,): 0}}, 1) == []

    # Only the tables a clause reads are checked, and only after the size
    # and the clause's free names: here ``w`` is never read.
    @pytest.mark.parametrize(
        "tables, message",
        [
            ({"y": {(0,): 0, (1,): 7}}, "table for 'y' at (1,) must be an integer in [0, 2)"),
            ({"y": {(0,): 0, (1,): 0.0}}, "table for 'y' at (1,) must be an integer, got 0.0"),
            ({"y": {(0,): True, (1,): 1}}, "table for 'y' at (0,) must be an integer, got True"),
            ({"y": {(0,): 0}}, "table for 'y' has no value at (1,)"),
            ({"w": {}}, "table for 'y' has no value at (0,)"),
        ],
        ids=["out-of-range", "float", "bool", "missing-key", "missing-table"],
    )
    def test_tables_read_are_checked(self, tables, message):
        prefix = mk_prefix(["x", "z"], ["y", "w"], {"y": ["x"], "w": ["z"]})
        with pytest.raises(ValueError) as info:
            evaluator.table_failures(prefix, [("c", equal("y", "x"))], tables, 2)
        assert str(info.value) == message

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
        assert tables == {"y": {(a, b): a if a == b else 0 for a in range(m) for b in range(m)}}
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
        # 114 nodes: 42 start tuples, 18 merging cells and 24 stored, all of
        # them walks.  Grounding
        # the chain links on every tuple admitted 378 (1,134 without the
        # functionality clauses' guards) and cost 396 nodes; walking the
        # universal tuples cost 531,441.
        budget = Budget()
        assert evaluate(ceitin_h12(), 3, budget=budget) is True
        assert budget.spent < 2_000

    def test_ceitin_h12_size_five_node_guard(self):
        # 190 nodes; grounding every admitted tuple of the chain links cost
        # 2,460, and the tuples the guards skip as well 12,210.
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
        assert spent == [114, 152, 190, 228, 266]

    def test_crosscheck_at_size_four_node_guard(self):
        spent = 0
        for equations, query, _ in CROSSCHECK_INSTANCES:
            sentence = reducer.compile(Presentation.of(equations), Equation(*query))
            budget = Budget()
            evaluate(sentence, 4, budget=budget)
            spent += budget.spent
        assert spent < 100_000

    def test_crosscheck_node_counts(self):
        # Exact counts per instance at m = 4 and 5 (5,244 and 7,749 in
        # all).  The order of the conjuncts alone moves them 50-fold, so a
        # change to the grounding, the merging, the walks, the cell order or
        # the cell bound shows here and must update them.
        expected = {
            4: [249, 37, 1_401, 22, 69, 157, 214, 1_320, 156, 1_401, 105, 113],
            5: [292, 39, 2_378, 26, 77, 169, 239, 1_717, 180, 2_378, 122, 132],
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
        assert tabs == {"y": {(0,): 0, (1,): 1}, "w": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}}
        assert list(tabs["w"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]

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


def _grounded(f, m) -> tuple[bool, list, list]:
    """``evaluate(f, m)``, and the merges and plans of the branched
    prefixes it grounds, as ``_compile_branch`` lays them out.  ``_ground``
    unites the cells of each merge and walks the instances of each plan
    with ``steps``."""
    ground, merges, plans = evaluator._ground, [], []

    def spy(conjuncts, *args):
        merges.extend(conjuncts[0])
        plans.extend(conjuncts[1])
        return ground(conjuncts, *args)

    # Patched by hand, not by the monkeypatch fixture, so that Hypothesis
    # tests can use it too.
    evaluator._ground = spy
    try:
        return evaluate(f, m), merges, plans
    finally:
        evaluator._ground = ground


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
            # Two sibling prefixes in one run, under a prefix that names
            # neither, as ``_tables_hold`` reads tables off a branch.
            (
                "H{ forall u ; c() } . ((H{ forall x z ; y(x), w(z) } . (x = z -> y = w) & y = x)"
                " & H{ forall x z ; y(x), w(z) } . (x = z -> y = w) & y != x)",
                2,
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
            "sibling-prefixes",
        ],
    )
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shapes_agree_with_naive_engine(self, text, merged, m):
        f = P(text)
        verdict, merges, _ = _grounded(f, m)
        assert len(merges) == merged
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
                letters = {}
                for row in rows:
                    cells = letters.setdefault(row.letter, tables[row.existential.name])
                    assert cells == tables[row.existential.name], (query, m, row)
                point = tables[f"t{len(query.lhs)}"][()]
                model = {c: tuple(cells.values()) for c, cells in letters.items()}
                assert check_witness(presentation, query, Witness(m, model, point)), (query, m)
                checked += 1
        assert checked == 16

    def test_frontier_node_guard(self):
        # At m=6: 7,051 nodes for each of the mirrored pair (168,758 and
        # 3,210 before merging), 17,472 for all twelve (181,636 before).
        spent = {}
        for equations, query, _ in CROSSCHECK_INSTANCES:
            sentence = reducer.compile(Presentation.of(equations), Equation(*query))
            budget = Budget()
            evaluate(sentence, 6, budget=budget)
            spent[tuple(equations), query] = budget.spent
        assert spent[(("ab", "ba"),), ("ab", "ba")] < 12_000
        assert spent[(("ba", "ab"),), ("ab", "ba")] < 12_000
        assert sum(spent.values()) < 20_000


def _crosscheck_sentences():
    return [
        (f"crosscheck-{i}", reducer.compile(Presentation.of(equations), Equation(*query)))
        for i, (equations, query, _) in enumerate(CROSSCHECK_INSTANCES)
    ]


# Sentences whose truth is monotone in the domain size, with the largest
# size checked: each says a model separates the two words of a query, and
# a separating model stays one when a point that every letter fixes is
# added.
_SEPARATION = [(name, f, 6) for name, f in _crosscheck_sentences()]
_SEPARATION += [
    (f"ceitin-{q}", reducer.compile(ceitin_presentation(), Equation(*q.split("="))), 6)
    for q in ("ab=ba", "ac=ca")
]
_SEPARATION += [
    (f"h12-route-{q}", ceitin_h12_with_query(Equation(*q.split("="))), 7)
    for q in ("ab=ba", "a=b", "ac=ca")
]


class TestChainLinks:
    """A conjunct ``A -> B`` with an antecedent link ``u = e`` is grounded on
    its start classes, and the search walks its links to the rest."""

    @given(st.data())
    def test_linked_prefixes_agree_with_naive_engine(self, data):
        rows = data.draw(st.integers(2, 3))
        unis = [f"x{k}" for k in range(rows)]
        exis = [f"y{k}" for k in range(rows)]
        spine = data.draw(st.booleans())
        names = unis + exis + ["t"] * spine
        link = st.builds(equal, st.sampled_from(unis), st.sampled_from(exis))
        atom = st.builds(equal, st.sampled_from(names), st.sampled_from(names))
        # The first conjunct's first atom is a link x_a = y_b, the conjunct
        # reads y_a, so x_a is keyed, and no guard joins x_a and x_b: it
        # always walks.
        a, b = data.draw(st.permutations(range(rows)))[:2]
        to_spine = [st.builds(equal, st.sampled_from(unis), st.just("t"))] * spine
        extra = data.draw(st.lists(st.one_of(link, *to_spine), max_size=2))
        read = equal(exis[a], data.draw(st.sampled_from(exis + ["t"] * spine)))
        joined = data.draw(st.sampled_from([And, Or]))
        walked = Implies(
            conjoin([equal(unis[a], exis[b]), *extra]),
            joined((read, data.draw(_quantifier_free(exis + ["t"] * spine)))),
        )
        # The others hold links anywhere: cyclic ones, ones beside guards or
        # under ``|`` and ``~``, and ones in consequents.
        linked = st.builds(
            Implies, st.lists(st.one_of(link, atom), min_size=1, max_size=3).map(conjoin),
            _quantifier_free(names),
        )
        parts = data.draw(st.lists(st.one_of(linked, _quantifier_free(names)), max_size=2))
        f = Branch(build_hn(zip(unis, exis)), conjoin([walked, *parts]))
        if spine:
            f = Exists((Variable("t"),), f)
        m = data.draw(st.integers(1, 3 if rows == 2 else 2))
        verdict, _, plans = _grounded(f, m)
        assert any(steps for _, _, _, steps, *_ in plans)
        assert verdict == evaluate_naive(f, m)
        if verdict:
            assert _tables_hold(f, m, witness_tables(f, m))

    @pytest.mark.parametrize(
        "text, walks",
        [
            ("H{ forall x z ; y(x), w(z) } . (z = y -> w = x) & y = x", True),
            ("H{ forall x z ; y(x), w(z) } . (x = y -> w = x) & y = x", False),
            ("H{ forall x z ; y(x), w(z) } . (z = y & x = w -> w = x) & y = x", True),
            ("H{ forall x z ; y(x), w(z) } . (x = z & z = y -> w = x) & y = x", False),
            ("H{ forall x z ; y(x), w(z) } . ((z = y | x = x) -> w = x) & y = x", False),
            ("H{ forall x z ; y(x), w(z) } . (~(z != y) -> w = x) & y = x", False),
            ("H{ forall x z ; y(x), w(z) } . (x = x -> (z = y -> w = x)) & y = x", False),
            ("exists t . H{ forall x z ; y(x), w(z) } . (z = t -> w = y) & y = x", False),
            ("H{ forall x z u ; y(x), w(z), v(u) } . (z = y & u = w -> v != x)", True),
            ("H{ forall x ; c(), y(x) } . (x = c -> y != c) & (y = x | y = c)", True),
            ("H{ forall x z ; y(x z), w() } . (x = w & z = w -> y = x)", True),
        ],
        ids=["link", "cyclic", "two-ways", "guard-joins", "under-or", "under-not",
             "in-consequent", "outer-exists", "chain-of-two", "arity-zero", "two-key-walk"],
    )
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_shapes_agree_with_naive_engine(self, text, walks, m):
        f = P(text)
        verdict, _, plans = _grounded(f, m)
        assert any(steps for _, _, _, steps, *_ in plans) == walks
        assert verdict == evaluate_naive(f, m, budget=Budget(2_000_000))
        if verdict:
            assert _tables_hold(f, m, witness_tables(f, m))

    def test_compiled_ceitin_node_guard(self):
        # 1,143 nodes at m=7; grounding every tuple of the chains cost 124,740.
        sentence = reducer.compile(ceitin_presentation(), Equation("ab", "ba"))
        budget = Budget()
        assert evaluate(sentence, 7, budget=budget) is True
        assert budget.spent < 5_000

    def test_ceitin_h12_size_twelve_node_guard(self):
        # 456 nodes; grounding every tuple of the chains cost 69,408.
        budget = Budget()
        assert evaluate(ceitin_h12(), 12, budget=budget) is True
        assert budget.spent < 2_000

    def test_h12_route_node_counts(self):
        # Exact counts for the query ae = ea at m = 3..5.  A walk still
        # parked after a class it read takes another value only holds, its
        # link now false, so the count alone shows that the trail undoes
        # it: without the undo these are 481, 1,020 and 2,141.
        sentence = ceitin_h12_with_query(Equation("ae", "ea"))
        spent = []
        for m in (3, 4, 5):
            budget = Budget()
            assert evaluate(sentence, m, budget=budget) is True
            spent.append(budget.spent)
        assert spent == [458, 966, 2_029]

    @pytest.mark.parametrize("name, f, top", _SEPARATION, ids=[n for n, _, _ in _SEPARATION])
    def test_separation_is_monotone_in_size(self, name, f, top):
        verdicts = [evaluate(f, m) for m in range(1, top + 1)]
        assert verdicts == sorted(verdicts), verdicts


_REUSE_CASES = _crosscheck_sentences() + agreement_corpus()
_SIZES = (1, 2, 3, 4)


def _run(f, m, env=None) -> tuple[bool, int]:
    budget = Budget()
    return evaluate(f, m, env=env, budget=budget), budget.spent


class TestCompileOnce:
    """``evaluate`` keeps the last formula's compile and reuses it for the
    same object; every run checks its size and env and grounds afresh, so
    no verdict or node count depends on what ran before."""

    @pytest.mark.parametrize("name, f", _REUSE_CASES, ids=[name for name, _ in _REUSE_CASES])
    def test_reuse_changes_no_result(self, name, f):
        fresh = [_run(copy.deepcopy(f), m) for m in _SIZES]
        assert [_run(f, m) for m in _SIZES] == fresh
        other = P("exists a b . a != b")
        interleaved = []
        for m in _SIZES:
            assert _run(other, m) == _run(copy.deepcopy(other), m)
            interleaved.append(_run(f, m))
        assert interleaved == fresh
        # Back to back at one size: the second run hits the first's compile.
        twice = [_run(f, m) for m in _SIZES for _ in range(2)]
        assert twice == [r for r in fresh for _ in range(2)]

    def test_one_compile_for_every_size(self, monkeypatch):
        # The closure tree is built once; each run grounds its prefix again.
        compiles, grounds = [], []
        compile_, ground = evaluator._compile, evaluator._ground

        def spy_compile(*args):
            compiles.append(args[0])
            return compile_(*args)

        def spy_ground(*args):
            grounds.append(args[1])
            return ground(*args)

        monkeypatch.setattr(evaluator, "_compile", spy_compile)
        monkeypatch.setattr(evaluator, "_ground", spy_ground)
        f = P("H{ forall x ; y(x) } . y = x")
        assert [evaluate(f, m) for m in _SIZES] == [True] * 4
        assert compiles == [f, f.body]
        assert grounds == list(_SIZES)

    @pytest.mark.parametrize("name, f", _crosscheck_sentences())
    def test_witness_after_evaluate_spends_as_evaluate(self, name, f):
        for m in (1, 2, 3):
            decided, witnessed = Budget(), Budget()
            verdict = evaluate(f, m, budget=decided)
            tables = witness_tables(f, m, budget=witnessed)
            fresh = Budget()
            assert tables == witness_tables(copy.deepcopy(f), m, budget=fresh), (name, m)
            assert witnessed.spent == fresh.spent >= decided.spent, (name, m)
            assert (tables is None) == (not verdict), (name, m)

    @pytest.mark.parametrize(
        "text", ["exists y . y = x", "H{ forall z ; w() } . w = x", "H{ forall z ; w(z) } . w != x"]
    )
    def test_env_values_are_read_per_run(self, text):
        # The least-number rule starts above the env's values, so a stale
        # value would leave x = 2 out of reach at m = 3.  A name the formula
        # does not mention still takes a slot and raises that start.
        f = P(text)
        envs = [{"x": 0}, {"x": 2}, {"x": 0}, {"x": 0, "z": 2}, {"a": 2, "x": 1}, {"x": 1}]
        runs = [_run(f, 3, env) for env in envs]
        assert runs == [_run(P(text), 3, env) for env in envs]
        assert all(verdict for verdict, _ in runs)

    def test_a_hit_checks_size_and_env_as_a_fresh_call(self):
        f = P("exists y . y = x")
        bad = [
            (3, {"x": 3}), (3, {"x": True}), (0, {"x": 0}), (2.0, {"x": 0}), (3, {}), (3, {"y": 0}),
        ]
        for size, env in bad:
            with pytest.raises(ValueError) as fresh:
                evaluate(P("exists y . y = x"), size, env=env)
            assert evaluate(f, 3, env={"x": 1}) is True
            with pytest.raises(ValueError) as reused:
                evaluate(f, size, env=env)
            assert str(reused.value) == str(fresh.value), (size, env)
        assert _run(f, 3, {"x": 2}) == _run(P("exists y . y = x"), 3, {"x": 2})

    @pytest.mark.parametrize(
        "name, f", _crosscheck_sentences()[:3] + [("ceitin-h12", ceitin_h12())]
    )
    def test_a_run_cut_by_its_budget_leaves_nothing_behind(self, name, f):
        for m in (2, 3):
            verdict, spent = _run(copy.deepcopy(f), m)
            for limit in (1, spent // 2, spent - 1):
                with pytest.raises(BudgetExceeded):
                    evaluate(f, m, budget=Budget(limit))
                assert _run(f, m) == (verdict, spent), (name, m, limit)

    def test_a_nested_call_compiles_its_own(self):
        f = P("exists t . H{ forall x z ; y(x), w(z) } . (y = w <-> x = z) & t = y")
        inner = []

        class Reentrant(Budget):
            def charge(self):
                super().charge()
                if self.spent in (3, 20):
                    inner.append(_run(f, 2))

        expected = _run(copy.deepcopy(f), 3)
        assert _run(f, 3) == expected  # the outer call below reuses this compile
        budget = Reentrant()
        assert evaluate(f, 3, budget=budget) is expected[0]
        assert budget.spent == expected[1]
        assert inner == [_run(copy.deepcopy(f), 2)] * 2
        assert _run(f, 3) == expected

    def test_threads_agree_with_one_thread(self):
        # The threads make the same calls on the same objects, and meet
        # before each call and at its fifth node, so runs of one object,
        # started together, are live at once.
        cases = _crosscheck_sentences()[:4] + [("infinity", infinity_sentence())]
        expected = [[_run(copy.deepcopy(f), m) for m in _SIZES] for _, f in cases]
        results = [[] for _ in range(4)]
        meet = threading.Barrier(len(results), timeout=10)

        class Meeting(Budget):
            def charge(self):
                super().charge()
                if self.spent == 5:
                    meet.wait()

        def work(out):
            for _, f in cases:
                runs = []
                for m in _SIZES:
                    budget = Meeting()
                    meet.wait()
                    runs.append((evaluate(f, m, budget=budget), budget.spent))
                out.append(runs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(results)


def _traced_peak(f, m, budget) -> tuple[object, int]:
    """``evaluate(f, m)``'s verdict, or the ``BudgetExceeded`` it raised,
    and the peak of the memory ``tracemalloc`` saw it allocate."""
    evaluate(P("true"), 1)  # so that no compile of ``f`` is cached
    tracemalloc.start()
    try:
        try:
            verdict = evaluate(f, m, budget=budget)
        except BudgetExceeded as exc:
            verdict = exc
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGroundMemory:
    """A ground is flat arrays, so its memory follows the tuples it grounds."""

    def test_dense_ground_bytes_per_tuple(self):
        # 10,000 tuples grounded, one class each; the budget runs out soon
        # after the search starts.  About 65 bytes per tuple, in arrays of
        # 8-byte slots: a Python object per instance would take over 700.
        verdict, peak = _traced_peak(
            P("H{ forall x z ; y(x z) } . y = x"), 100, Budget(12_000)
        )
        assert isinstance(verdict, BudgetExceeded)
        assert peak / 100**2 < 120

    def test_sparse_key_space_is_not_allocated(self):
        # The guards admit 100 of y's 10**6 keys: one array slot per key
        # would take 8 MB.
        budget = Budget()
        verdict, peak = _traced_peak(
            P("H{ forall x1 x2 x3 ; y(x1 x2 x3) } . (x1 = x2 & x2 = x3 -> y = x1)"), 100, budget
        )
        assert verdict is True
        assert budget.spent == 5_150
        assert peak < 1_000_000


    @pytest.mark.parametrize("name, f", _REUSE_CASES, ids=[name for name, _ in _REUSE_CASES])
    def test_layout_changes_no_result(self, monkeypatch, name, f):
        # With _DENSE = 0 every table keeps its cells in the dict, keyed by id.
        def results():
            out = []
            for m in (1, 2, 3):
                budget = Budget()
                out.append((_run(f, m), witness_tables(f, m, budget=budget), budget.spent))
            return out

        arrays = results()
        monkeypatch.setattr(evaluator, "_DENSE", 0)
        assert results() == arrays

    def test_one_ground_in_both_stores(self, monkeypatch):
        # With _DENSE = 1, y's 8 keys outnumber the 4 cells its picks can reach,
        # so y keeps its cells in the dict while w keeps its array; the
        # chain link z = y reads y's cell, then w's.
        f = P(
            "H{ forall x1 x2 x3 z ; y(x1 x2 x3), w(z) } . "
            "((x1 = x2 & x2 = x3 -> y != x1) & (x1 = x2 & x2 = x3 & z = y -> w = x1))"
        )

        def result():
            budget = Budget()
            return _run(f, 2), witness_tables(f, 2, budget=budget), budget.spent

        arrays = result()
        monkeypatch.setattr(evaluator, "_DENSE", 1)
        assert result() == arrays
        assert arrays[0][0] is evaluate_naive(f, 2)
