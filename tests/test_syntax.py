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
    InvalidPrefixError,
    Not,
    Or,
    Variable,
    build_en,
    build_hn,
    conjoin,
    disjoin,
    equal,
    free_variables,
    mk_prefix,
    not_equal,
    validate,
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


class TestPrefix:
    def test_mk_prefix_aligns_deps(self):
        p = mk_prefix(["x", "z"], ["w", "y"], {"y": ["x"], "w": ["z", "x"]})
        assert p.universals == (Variable("x"), Variable("z"))
        assert p.existentials == (Variable("w"), Variable("y"))
        assert p.deps == ((Variable("z"), Variable("x")), (Variable("x"),))
        assert p.bound() == (Variable("x"), Variable("z"), Variable("w"), Variable("y"))

    def test_mk_prefix_collects_every_violation(self):
        with pytest.raises(InvalidPrefixError) as info:
            mk_prefix(
                ["x", "x"],
                ["y", "z"],
                {"y": ["q"], "w": ["x"]},
            )
        messages = [d.message for d in info.value.diagnostics]
        assert any("duplicate universal" in m for m in messages)
        assert any("not a bound universal" in m for m in messages)
        assert any("unknown existential 'w'" in m for m in messages)
        assert any("missing dependency entry for 'z'" in m for m in messages)
        assert len(messages) >= 4

    def test_mk_prefix_rejects_overlap(self):
        with pytest.raises(InvalidPrefixError) as info:
            mk_prefix(["x"], ["x"], {"x": []})
        assert any("both universal and existential" in d.message for d in info.value.diagnostics)

    def test_mk_prefix_rejects_duplicate_dependency(self):
        with pytest.raises(InvalidPrefixError) as info:
            mk_prefix(["x"], ["y"], {"y": ["x", "x"]})
        assert any("duplicate dependency" in d.message for d in info.value.diagnostics)

    def test_prefix_diagnostics_on_raw_build(self):
        raw = HenkinPrefix(("x",), ("y", "y"), ((), ()))
        assert any("duplicate existential" in d.message for d in prefix_diagnostics(raw))

    def test_empty_prefix_passes_structure_checks(self):
        # Nonemptiness is a property of use inside a formula, not of the
        # prefix value itself.
        assert prefix_diagnostics(HenkinPrefix((), (), ())) == []


class TestFamilies:
    def test_hn_shape(self):
        p = build_hn(3)
        assert [v.name for v in p.universals] == ["x1", "x2", "x3"]
        assert [v.name for v in p.existentials] == ["y1", "y2", "y3"]
        assert p.deps == ((Variable("x1"),), (Variable("x2"),), (Variable("x3"),))

    def test_en_shape(self):
        p = build_en(2)
        assert [v.name for v in p.universals] == ["x1", "x2"]
        assert [v.name for v in p.existentials] == ["y1", "y2", "z1", "z2"]
        x1, x2 = Variable("x1"), Variable("x2")
        assert p.deps == ((x1,), (x1,), (x2,), (x2,))

    @pytest.mark.parametrize("n", [0, -1])
    def test_families_start_at_one(self, n):
        with pytest.raises(ValueError):
            build_hn(n)
        with pytest.raises(ValueError):
            build_en(n)

    @given(st.integers(min_value=1, max_value=12))
    def test_families_validate(self, n):
        for p in (build_hn(n), build_en(n)):
            assert prefix_diagnostics(p) == []


class TestHelpers:
    def test_equal_coerces(self):
        assert equal("a", Variable("b")) == EqualAtom(Variable("a"), Variable("b"))
        assert not_equal("a", "b") == Not(EqualAtom(Variable("a"), Variable("b")))

    def test_conjoin_degenerate(self):
        a = equal("x", "y")
        assert conjoin([]) == TRUE
        assert conjoin([a]) == a
        assert conjoin([a, a]) == And((a, a))

    def test_disjoin_degenerate(self):
        a = equal("x", "y")
        assert disjoin([]) == FALSE
        assert disjoin([a]) == a
        assert disjoin([a, a]) == Or((a, a))

    def test_constants_are_interned_values(self):
        assert ConstTrue() == TRUE
        assert TRUE != FALSE


class TestFreeVariables:
    def test_atom(self):
        assert free_variables(equal("a", "b")) == {Variable("a"), Variable("b")}

    def test_quantifiers_bind(self):
        f = ForAll(("x",), Exists(("y",), And((equal("x", "y"), equal("y", "z")))))
        assert free_variables(f) == {Variable("z")}

    def test_branch_binds_prefix(self):
        p = mk_prefix(["x"], ["y"], {"y": ["x"]})
        f = Branch(p, And((equal("x", "y"), equal("y", "t"))))
        assert free_variables(f) == {Variable("t")}

    def test_constants_have_none(self):
        assert free_variables(TRUE) == frozenset()
        assert free_variables(Implies(FALSE, TRUE)) == frozenset()


class TestValidate:
    def test_clean_formula(self):
        p = mk_prefix(["x", "z"], ["y", "w"], {"y": ["x"], "w": ["z"]})
        f = Exists(("t",), Branch(p, And((Iff(equal("y", "w"), equal("x", "z")), not_equal("t", "y")))))
        assert validate(f) == []

    def test_short_connectives(self):
        f = ForAll(("x",), And((equal("x", "x"),)))
        errors = [d for d in validate(f) if d.severity == "error"]
        assert any("conjunction with 1 operands" in d.message for d in errors)
        g = ForAll(("x",), Or(()))
        assert any("disjunction with 0" in d.message for d in validate(g))

    def test_empty_binder_block(self):
        f = ForAll((), TRUE)
        assert any("binds no variables" in d.message for d in validate(f))

    def test_duplicate_binder(self):
        f = Exists(("x", "x"), equal("x", "x"))
        assert any("binds 'x' twice" in d.message for d in validate(f))

    def test_shadowing_is_a_warning(self):
        f = ForAll(("x",), Exists(("x",), equal("x", "x")))
        diags = validate(f)
        assert [d.severity for d in diags] == ["warning"]
        assert "shadows" in diags[0].message

    def test_branch_needs_both_sides(self):
        lonely_uni = Branch(HenkinPrefix((Variable("x"),), (), ()), equal("x", "x"))
        assert any("binds no existentials" in d.message for d in validate(lonely_uni))
        lonely_exi = Branch(HenkinPrefix((), (Variable("y"),), ((),)), equal("y", "y"))
        assert any("binds no universals" in d.message for d in validate(lonely_exi))

    def test_branch_bad_dependency(self):
        raw = HenkinPrefix((Variable("x"),), (Variable("y"),), ((Variable("q"),),))
        f = Branch(raw, equal("y", "x"))
        assert any("not a bound universal" in d.message for d in validate(f))

    def test_branch_shadowing_outer(self):
        p = mk_prefix(["x"], ["y"], {"y": ["x"]})
        f = ForAll(("y",), Branch(p, equal("y", "x")))
        diags = validate(f)
        assert [d.severity for d in diags] == ["warning"]
