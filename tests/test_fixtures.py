import pytest

from henkin import (
    And,
    Branch,
    Budget,
    Equation,
    Exists,
    HenkinPrefix,
    Implies,
    Not,
    Variable,
    ceitin_e10,
    ceitin_h12,
    ceitin_h12_with_query,
    ceitin_presentation,
    ehrenfeucht_finiteness,
    equal,
    evaluate,
    evaluate_naive,
    find_witness,
    identity_check_failures,
    infinity_sentence,
    not_equal,
    validate,
)
from henkin.reducer import separation_clauses
from henkin.text import format_equation, format_formula
from henkin.fixtures import (
    ceitin_e10_clauses,
    ceitin_e10_prefix,
    ceitin_h12_clauses,
    ceitin_h12_prefix,
)


class TestPresentation:
    def test_equations(self):
        pres = ceitin_presentation()
        assert [format_equation(e) for e in pres.equations] == [
            "ac = ca",
            "ad = da",
            "bc = cb",
            "bd = db",
            "eca = ce",
            "edb = de",
            "cca = ccae",
        ]
        assert pres.alphabet == frozenset("abcde")


class TestH12:
    def test_prefix_rows(self):
        prefix = ceitin_h12_prefix()
        assert [v.name for v in prefix.universals] == [
            "x_a", "x'_a", "x_b", "x'_b", "x_c", "x'_c",
            "x_d", "x'_d", "x_e", "x'_e", "x_cc", "x'_cc",
        ]
        assert [v.name for v in prefix.existentials] == [
            "y_a", "y'_a", "y_b", "y'_b", "y_c", "y'_c",
            "y_d", "y'_d", "y_e", "y'_e", "y_cc", "y'_cc",
        ]
        for u, d in zip(prefix.universals, prefix.deps):
            assert [v.name for v in d] == [u.name]

    def test_clause_labels(self):
        texts = [(label, format_formula(f)) for label, f in ceitin_h12_clauses()]
        assert texts == [
            ("one-function:a", "x_a = x'_a -> y_a = y'_a"),
            ("one-function:b", "x_b = x'_b -> y_b = y'_b"),
            ("one-function:c", "x_c = x'_c -> y_c = y'_c"),
            ("one-function:d", "x_d = x'_d -> y_d = y'_d"),
            ("one-function:e", "x_e = x'_e -> y_e = y'_e"),
            ("one-function:cc", "x_cc = x'_cc -> y_cc = y'_cc"),
            ("compose:cc", "x_c = x_cc & y_c = x'_c -> y'_c = y_cc"),
            ("relation:ac=ca", "x_a = x_c & x'_a = y_c & x'_c = y_a -> y'_c = y'_a"),
            ("relation:ad=da", "x_a = x_d & x'_a = y_d & x'_d = y_a -> y'_d = y'_a"),
            ("relation:bc=cb", "x_b = x_c & x'_b = y_c & x'_c = y_b -> y'_c = y'_b"),
            ("relation:bd=db", "x_b = x_d & x'_b = y_d & x'_d = y_b -> y'_d = y'_b"),
            (
                "relation:eca=ce",
                "x_a = x'_e & y_a = x_c & y'_e = x'_c & x_e = y_c -> y_e = y'_c",
            ),
            (
                "relation:edb=de",
                "x_b = x'_e & y_b = x_d & y_d = x_e & y'_e = x'_d -> y_e = y'_d",
            ),
            (
                "relation:cca=ccae",
                "x_a = x'_e & y_a = x_cc & y'_e = x'_a & y'_a = x'_cc -> y_cc = y'_cc",
            ),
        ]

    def test_sentence_shape(self):
        f = ceitin_h12()
        assert isinstance(f, Branch)
        assert f.prefix == ceitin_h12_prefix()
        assert isinstance(f.body, And)
        assert len(f.body.items) == 14
        assert f.body.items == tuple(g for _, g in ceitin_h12_clauses())
        assert validate(f) == []

    @pytest.mark.parametrize("m", [1, 2])
    def test_true_on_small_domains(self, m):
        assert evaluate(ceitin_h12(), m) is True

    def test_identity_tables_satisfy_every_clause(self):
        assert identity_check_failures(ceitin_h12_clauses(), ceitin_h12_prefix(), 3) == []

    def test_identity_check_reports_broken_clause(self):
        broken = list(ceitin_h12_clauses())
        broken[4] = ("one-function:e", Implies(equal("x_e", "x'_e"), not_equal("y_e", "y'_e")))
        failures = identity_check_failures(broken, ceitin_h12_prefix(), 2)
        assert failures == ["one-function:e"]

    @pytest.mark.parametrize("deps", [(), ("x", "z")])
    def test_identity_check_needs_one_dependency_per_existential(self, deps):
        prefix = HenkinPrefix(("x", "z"), ("y",), (deps,))
        with pytest.raises(ValueError) as info:
            identity_check_failures([("c", equal("y", "x"))], prefix, 2)
        assert str(info.value) == "existential 'y' does not have exactly one dependency"

    @pytest.mark.parametrize("size", [2.5, True, 0])
    def test_identity_check_size_is_whole(self, size):
        with pytest.raises(ValueError, match="^size must be "):
            identity_check_failures(ceitin_h12_clauses(), ceitin_h12_prefix(), size)


class TestH12WithQuery:
    def test_shape(self):
        query = Equation("a", "b")
        f = ceitin_h12_with_query(query)
        assert isinstance(f, Exists)
        assert [v.name for v in f.variables] == ["t0", "t1", "s0", "s1"]
        assert isinstance(f.body, Branch)
        assert f.body.prefix == ceitin_h12_prefix()
        assert len(f.body.body.items) == 18  # 14 base clauses + 4 separation clauses
        # Each query letter's designated row is its unprimed H12 row.
        designated = {ch: (Variable(f"x_{ch}"), Variable(f"y_{ch}")) for ch in "abcde"}
        spine, trace = separation_clauses(query, designated)
        assert f.variables == spine
        assert f.body.body.items == tuple(g for _, g in ceitin_h12_clauses() + trace)

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError, match="must be among a-e"):
            ceitin_h12_with_query(Equation("f", "a"))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("query", [Equation("a", "b"), Equation("a", "a")])
    def test_agrees_with_oracle(self, m, query):
        got = evaluate(ceitin_h12_with_query(query), m)
        expected = find_witness(ceitin_presentation(), query, m) is not None
        assert got is expected


class TestE10:
    def test_prefix_rows(self):
        prefix = ceitin_e10_prefix()
        assert [v.name for v in prefix.universals] == ["x1", "x2"]
        names = [v.name for v in prefix.existentials]
        assert names == [
            "y_a", "y_ca", "y_da", "y_b", "y_cb", "y_db",
            "y_e", "y_eca", "y_de", "y_cca",
            "y_c", "y_ac", "y_d", "y_ad", "y_bc", "y_bd",
            "y'_e", "y'_cca",
        ]
        deps = [tuple(v.name for v in d) for d in prefix.deps]
        assert deps == [("x1",)] * 10 + [("x2",)] * 8

    def test_clause_labels(self):
        texts = [(label, format_formula(f)) for label, f in ceitin_e10_clauses()]
        assert texts == [
            ("compose:ca", "y_a = x2 -> y_c = y_ca"),
            ("compose:ac", "y_c = x1 -> y_a = y_ac"),
            ("compose:da", "y_a = x2 -> y_da = y_d"),
            ("compose:ad", "y_d = x1 -> y_ad = y_a"),
            ("compose:cb", "y_b = x2 -> y_cb = y_c"),
            ("compose:bc", "y_c = x1 -> y_b = y_bc"),
            ("compose:db", "y_b = x2 -> y_db = y_d"),
            ("compose:bd", "y_d = x1 -> y_bd = y_b"),
            ("one-function:e", "x1 = x2 -> y_e = y'_e"),
            ("compose:eca", "y_ca = x2 -> y_eca = y'_e"),
            ("compose:de", "y_e = x2 -> y_de = y_d"),
            ("compose:cca", "y_ca = x2 -> y_cca = y_c"),
            ("one-function:cca", "x1 = x2 -> y_cca = y'_cca"),
            (
                "relation:ac=ca,ad=da,bc=cb,bd=db",
                "x1 = x2 -> y_ca = y_ac & y_ad = y_da & y_bc = y_cb & y_db = y_bd",
            ),
            ("relation:eca=ce", "y_e = x2 -> y_eca = y_c"),
            ("relation:edb=de", "y_db = x2 -> y_de = y'_e"),
            ("relation:cca=ccae", "y_e = x2 -> y_cca = y'_cca"),
        ]

    def test_sentence_shape(self):
        f = ceitin_e10()
        assert isinstance(f, Branch)
        assert f.prefix == ceitin_e10_prefix()
        assert len(f.body.items) == 17
        assert f.body.items == tuple(g for _, g in ceitin_e10_clauses())
        assert validate(f) == []

    @pytest.mark.parametrize("m", [1, 2])
    def test_true_on_small_domains(self, m):
        assert evaluate(ceitin_e10(), m) is True

    def test_identity_tables_satisfy_every_clause(self):
        assert identity_check_failures(ceitin_e10_clauses(), ceitin_e10_prefix(), 3) == []


class TestInfinityAxis:
    def test_structure(self):
        inf = infinity_sentence()
        assert isinstance(inf, Exists)
        assert [v.name for v in inf.variables] == ["t"]
        br = inf.body
        assert isinstance(br, Branch)
        assert [v.name for v in br.prefix.universals] == ["x", "z"]
        assert [v.name for v in br.prefix.existentials] == ["y", "w"]
        assert [tuple(v.name for v in d) for d in br.prefix.deps] == [("x",), ("z",)]
        fin = ehrenfeucht_finiteness()
        assert isinstance(fin, Not)
        assert fin.body == inf

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_no_finite_model_of_infinity(self, m):
        assert evaluate(infinity_sentence(), m) is False
        assert evaluate_naive(infinity_sentence(), m, budget=Budget(2_000_000)) is False

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_finiteness_true_everywhere(self, m):
        assert evaluate(ehrenfeucht_finiteness(), m) is True
