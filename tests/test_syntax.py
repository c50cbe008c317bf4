import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from henkin import (
    FALSE,
    TRUE,
    And,
    Branch,
    ConstTrue,
    EqualAtom,
    Exists,
    ForAll,
    HenkinPrefix,
    Iff,
    Implies,
    Not,
    Or,
    Variable,
    build_en,
    build_hn,
    conjoin,
    equal,
    evaluate,
    evaluate_naive,
    find_min_model,
    format_formula,
    free_names,
    mk_prefix,
    not_equal,
    parse_formula,
    validate,
    witness_tables,
)
from henkin.syntax import prefix_diagnostics


class TestVariable:
    @pytest.mark.parametrize("name", ["x", "x1", "x'_a", "A", "foo_bar", "y''", "H"])
    def test_good_names(self, name):
        assert Variable(name).name == name

    @pytest.mark.parametrize("name", ["", "1x", "x y", "x-y", "_x", "'x", "x=", "xλ"])
    def test_bad_names(self, name):
        with pytest.raises(ValueError):
            Variable(name)

    def test_structural_equality_and_hash(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert len({Variable("x"), Variable("x"), Variable("y")}) == 2

    def test_str(self):
        assert str(Variable("x'_a")) == "x'_a"

    @pytest.mark.parametrize("word", ["forall", "exists", "true", "false"])
    def test_reserved_words_name_nothing(self, word):
        message = f"'{word}' is reserved and cannot name a variable"
        with pytest.raises(ValueError, match=message):
            Variable(word)
        with pytest.raises(ValueError, match=message):
            equal(word, "x")
        with pytest.raises(ValueError, match=message):
            mk_prefix([word], ["y"], {"y": [word]})
        with pytest.raises(ValueError, match=message):
            mk_prefix(["x"], [word], {word: ["x"]})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: equal("true", "x"),
            lambda: ForAll(("exists",), equal("exists", "exists")),
            lambda: Exists(("false",), TRUE),
        ],
        ids=["true = x", "forall exists . exists = exists", "exists false . true"],
    )
    def test_trees_that_would_print_unparseable_text_are_refused(self, build):
        with pytest.raises(ValueError, match="is reserved and cannot name a variable"):
            build()


class TestPrefix:
    def test_mk_prefix_aligns_deps(self):
        p = mk_prefix(["x", "z"], ["w", "y"], {"y": ["x"], "w": ["z", "x"]})
        assert p.universals == (Variable("x"), Variable("z"))
        assert p.existentials == (Variable("w"), Variable("y"))
        assert p.deps == ((Variable("z"), Variable("x")), (Variable("x"),))
        assert p.bound() == (Variable("x"), Variable("z"), Variable("w"), Variable("y"))

    def test_mk_prefix_collects_every_violation(self):
        with pytest.raises(ValueError) as info:
            mk_prefix(
                ["x", "x"],
                ["y", "z"],
                {"y": ["q"], "w": ["x"]},
            )
        messages = str(info.value).split("; ")
        assert any("duplicate universal" in m for m in messages)
        assert any("not a bound universal" in m for m in messages)
        assert any("unknown existential 'w'" in m for m in messages)
        assert any("missing dependency entry for 'z'" in m for m in messages)
        assert len(messages) >= 4

    def test_mk_prefix_rejects_overlap(self):
        with pytest.raises(ValueError) as info:
            mk_prefix(["x"], ["x"], {"x": []})
        assert "'x' is both universal and existential" in str(info.value).split("; ")

    def test_mk_prefix_rejects_duplicate_dependency(self):
        with pytest.raises(ValueError) as info:
            mk_prefix(["x"], ["y"], {"y": ["x", "x"]})
        assert "duplicate dependency 'x' for 'y'" in str(info.value).split("; ")

    @pytest.mark.parametrize(
        "universals, existentials, deps",
        [
            (["x y"], ["y"], {"y": []}),
            (["x"], ["1y"], {"1y": ["x"]}),
            (["x"], ["y"], {"y": ["x"], "-w": []}),
            (["x"], ["y"], {"y": ["x-"]}),
        ],
    )
    def test_mk_prefix_malformed_name(self, universals, existentials, deps):
        # Raised at once, not joined with other messages.
        with pytest.raises(ValueError, match="^bad variable name"):
            mk_prefix(universals, existentials, deps)

    def test_mk_prefix_repeated_entry(self):
        with pytest.raises(ValueError, match="^repeated dependency entry for 'y'$"):
            mk_prefix(["x"], ["y"], {"y": ["x"], Variable("y"): []})

    def test_prefix_diagnostics_on_raw_build(self):
        raw = HenkinPrefix(("x",), ("y", "y"), ((), ()))
        assert any("duplicate existential" in m for m in prefix_diagnostics(raw))

    def test_empty_prefix_passes_structure_checks(self):
        # Nonemptiness is a property of use inside a formula, not of the
        # prefix value itself.
        assert prefix_diagnostics(HenkinPrefix((), (), ())) == []


class TestFamilies:
    def test_hn_shape(self):
        p = build_hn([("x1", "y1"), ("x2", "y2"), (Variable("x3"), Variable("y3"))])
        assert [v.name for v in p.universals] == ["x1", "x2", "x3"]
        assert [v.name for v in p.existentials] == ["y1", "y2", "y3"]
        assert p.deps == ((Variable("x1"),), (Variable("x2"),), (Variable("x3"),))

    def test_en_shape(self):
        p = build_en(["y1", "y2"], iter(["z1", "z2", "z3"]))
        assert [v.name for v in p.universals] == ["x1", "x2"]
        assert [v.name for v in p.existentials] == ["y1", "y2", "z1", "z2", "z3"]
        x1, x2 = Variable("x1"), Variable("x2")
        assert p.deps == ((x1,), (x1,), (x2,), (x2,), (x2,))

    @pytest.mark.parametrize("n", [0, -1])
    def test_families_start_at_one(self, n):
        names = [f"y{i}" for i in range(1, n + 1)]
        with pytest.raises(ValueError):
            build_hn((f"x{i}", f"y{i}") for i in range(1, n + 1))
        for first, second in ((names, names), (["y"], names), (names, ["z"])):
            with pytest.raises(ValueError):
                build_en(first, second)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
    def test_families_validate(self, n, k):
        hn = build_hn((f"x{i}", f"y{i}") for i in range(n))
        en = build_en([f"y{i}" for i in range(n)], [f"z{i}" for i in range(k)])
        for p in (hn, en):
            assert prefix_diagnostics(p) == []
        assert len(hn.universals) == len(hn.existentials) == n
        assert len(en.existentials) == n + k


class TestHelpers:
    def test_equal_coerces(self):
        assert equal("a", Variable("b")) == EqualAtom(Variable("a"), Variable("b"))
        assert not_equal("a", "b") == Not(EqualAtom(Variable("a"), Variable("b")))

    def test_conjoin_degenerate(self):
        a = equal("x", "y")
        assert conjoin([]) == TRUE
        assert conjoin([a]) == a
        assert conjoin([a, a]) == And((a, a))

    @pytest.mark.parametrize(
        "call, args",
        [
            pytest.param(call, args, id=call.__name__)
            for calls, args in [
                ((evaluate, evaluate_naive, witness_tables, find_min_model), (42, 2)),
                ((format_formula, validate, free_names), (42,)),
            ]
            for call in calls
        ],
    )
    def test_a_non_formula_is_named(self, call, args):
        with pytest.raises(TypeError) as info:
            call(*args)
        assert str(info.value) == "not a formula: 42"

    def test_constants_are_interned_values(self):
        assert ConstTrue() == TRUE
        assert TRUE != FALSE


class TestFreeVariables:
    def test_atom(self):
        assert free_names(equal("a", "b")) == {"a", "b"}

    def test_quantifiers_bind(self):
        f = ForAll(("x",), Exists(("y",), And((equal("x", "y"), equal("y", "z")))))
        assert free_names(f) == {"z"}

    def test_branch_binds_prefix(self):
        p = mk_prefix(["x"], ["y"], {"y": ["x"]})
        f = Branch(p, And((equal("x", "y"), equal("y", "t"))))
        assert free_names(f) == {"t"}

    def test_constants_have_none(self):
        assert free_names(TRUE) == frozenset()
        assert free_names(Implies(FALSE, TRUE)) == frozenset()

    def test_deep_negation_chain(self):
        f = equal("a", "b")
        for _ in range(2000):
            f = Not(f)
        assert free_names(f) == {"a", "b"}

    # Shadowing: a name is free where some atom reads it outside every
    # binder of that name, whatever binds it elsewhere.
    @pytest.mark.parametrize(
        "text, free",
        [
            ("forall x . x = y & exists y . y = x", {"y"}),
            ("x = y & H{ forall x ; y(x) } . y = x", {"x", "y"}),
            ("H{ forall x ; y(x) } . y = x & forall y . y = z", {"z"}),
            ("exists t . H{ forall x ; y(x) } . t = y & exists x . x = t", set()),
            ("(forall x . x = x) & x = x", {"x"}),
        ],
    )
    def test_shadowing(self, text, free):
        f = parse_formula(text)
        assert free_names(f) == free

    def test_deep_block_nest(self):
        # Level i binds x{i} and reads x{i+1}, which only a deeper block
        # binds, so x1..x2000 are free there; x0 is bound at the top.
        f = equal("x0", "t")
        for i in range(1999, -1, -1):
            f = ForAll((f"x{i}",), And((equal(f"x{i}", f"x{i + 1}"), f)))
        want = {f"x{i}" for i in range(1, 2001)} | {"t"}
        assert free_names(f) == want


class TestValidate:
    def test_clean_formula(self):
        p = mk_prefix(["x", "z"], ["y", "w"], {"y": ["x"], "w": ["z"]})
        f = Exists(("t",), Branch(p, And((Iff(equal("y", "w"), equal("x", "z")), not_equal("t", "y")))))
        assert validate(f) == []

    def test_short_connectives(self):
        f = ForAll(("x",), And((equal("x", "x"),)))
        assert validate(f) == ["n-ary conjunction with 1 operands"]
        g = ForAll(("x",), Or(()))
        assert validate(g) == ["n-ary disjunction with 0 operands"]

    def test_empty_binder_block(self):
        f = ForAll((), TRUE)
        assert validate(f) == ["'forall' block binds no variables"]

    def test_duplicate_binder(self):
        f = Exists(("x", "x"), equal("x", "x"))
        assert validate(f) == ["'exists' block binds 'x' twice"]

    def test_shadowing_is_legal(self):
        f = ForAll(("x",), Exists(("x",), equal("x", "x")))
        assert validate(f) == []

    def test_branch_needs_both_sides(self):
        lonely_uni = Branch(HenkinPrefix((Variable("x"),), (), ()), equal("x", "x"))
        assert validate(lonely_uni) == ["branched prefix binds no existentials"]
        lonely_exi = Branch(HenkinPrefix((), (Variable("y"),), ((),)), equal("y", "y"))
        assert validate(lonely_exi) == ["branched prefix binds no universals"]

    def test_branch_bad_dependency(self):
        raw = HenkinPrefix((Variable("x"),), (Variable("y"),), ((Variable("q"),),))
        f = Branch(raw, equal("y", "x"))
        assert validate(f) == ["dependency 'q' of 'y' is not a bound universal"]

    def test_branch_shadowing_outer(self):
        p = mk_prefix(["x"], ["y"], {"y": ["x"]})
        f = ForAll(("y",), Branch(p, equal("y", "x")))
        assert validate(f) == []

    def test_misaligned_dependency_lists(self):
        raw = HenkinPrefix(("x",), ("y", "w"), (("x",),))
        f = Branch(raw, And((equal("y", "x"), equal("w", "x"))))
        assert validate(f) == ["1 dependency lists for 2 existentials"]
        # Without the check, zip would silently drop 'w''s table.
        with pytest.raises(ValueError, match="1 dependency lists for 2 existentials"):
            evaluate(f, 2)

    def test_errors_come_in_pre_order(self):
        raw = HenkinPrefix(("x",), ("y", "y"), ((), ()))
        f = And((ForAll((), Or(())), Branch(raw, Exists(("z", "z"), TRUE))))
        assert validate(f) == [
            "'forall' block binds no variables",
            "n-ary disjunction with 0 operands",
            "duplicate existential 'y'",
            "'exists' block binds 'z' twice",
        ]


# Imports ``henkin`` afresh six times, dropping every ``henkin.*`` module
# first, and prints how many ``henkin.syntax.Variable`` classes are alive
# after the first import and after the last, each after a full collection.
_REIMPORT = """
import gc, importlib, sys

def live():
    gc.collect()
    return sum(
        isinstance(o, type) and o.__module__ == "henkin.syntax" and o.__name__ == "Variable"
        for o in gc.get_objects()
    )

counts = []
for _ in range(7):
    for name in [n for n in sys.modules if n == "henkin" or n.startswith("henkin.")]:
        del sys.modules[name]
    importlib.import_module("henkin")
    counts.append(live())
print(counts[0], counts[-1])
"""


def test_reimport_leaves_no_module_alive():
    # A process-wide cache that kept an object the package makes at import,
    # such as ``typing``'s cache of the ``Union`` objects it builds, would
    # keep every replaced ``henkin.syntax`` module alive with it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _REIMPORT], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    first, last = map(int, out)
    assert first >= 1
    assert last == first
