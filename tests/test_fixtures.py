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
from henkin.text import format_equation
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
        labels = [label for label, _ in ceitin_h12_clauses()]
        assert labels == [
            "one-function:a",
            "one-function:b",
            "one-function:c",
            "one-function:d",
            "one-function:e",
            "one-function:cc",
            "compose:cc",
            "relation:ac=ca",
            "relation:ad=da",
            "relation:bc=cb",
            "relation:bd=db",
            "relation:eca=ce",
            "relation:edb=de",
            "relation:cca=ccae",
        ]

    def test_sentence_shape(self):
        f = ceitin_h12()
        assert isinstance(f, Branch)
        assert isinstance(f.body, And)
        assert len(f.body.items) == 14
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


class TestH12WithQuery:
    def test_shape(self):
        f = ceitin_h12_with_query(Equation("a", "b"))
        assert isinstance(f, Exists)
        assert [v.name for v in f.variables] == ["t0", "t1", "s0", "s1"]
        assert isinstance(f.body, Branch)
        assert len(f.body.body.items) == 18  # 14 base clauses + 4 separation clauses

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
        labels = [label for label, _ in ceitin_e10_clauses()]
        assert len(labels) == 17
        assert labels[-4:] == [
            "relation:ac=ca,ad=da,bc=cb,bd=db",
            "relation:eca=ce",
            "relation:edb=de",
            "relation:cca=ccae",
        ]
        assert sum(1 for l in labels if l.startswith("compose:")) + sum(
            1 for l in labels if l.startswith("one-function:")
        ) == 13

    def test_sentence_shape(self):
        f = ceitin_e10()
        assert isinstance(f, Branch)
        assert len(f.body.items) == 17
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
