import pytest

from henkin import (
    Budget,
    BudgetExceeded,
    Equation,
    Presentation,
    Witness,
    apply_word,
    check_witness,
    find_witness,
)

CANON = Presentation.of([Equation("aa", "a"), Equation("bb", "b")])
CANON_QUERY = Equation("ab", "ba")


class TestApplyWord:
    def test_single_letter(self):
        tables = {"a": (1, 0)}
        assert apply_word("a", 0, tables) == 1
        assert apply_word("a", 1, tables) == 0

    def test_rightmost_letter_acts_first(self):
        tables = {"a": (1, 0), "b": (0, 0)}
        # "ab" at 0: b sends 0 to 0, then a sends 0 to 1
        assert apply_word("ab", 0, tables) == 1
        # "ba" at 0: a sends 0 to 1, then b sends 1 to 0
        assert apply_word("ba", 0, tables) == 0

    def test_longer_word(self):
        tables = {"a": (1, 2, 0)}
        assert apply_word("aaa", 0, tables) == 0
        assert apply_word("aa", 0, tables) == 2


class TestFindWitness:
    def test_canonical_instance_first_witness(self):
        w = find_witness(CANON, CANON_QUERY, 2)
        assert w == Witness(size=2, tables={"a": (0, 0), "b": (1, 1)}, point=0)

    def test_canonical_instance_size_one_fails(self):
        assert find_witness(CANON, CANON_QUERY, 1) is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_derivable_query_never_separates(self, m):
        pres = Presentation.of([Equation("ab", "ba")])
        assert find_witness(pres, Equation("ab", "ba"), m) is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reflexive_query_never_separates(self, m):
        assert find_witness(Presentation.of([]), Equation("a", "a"), m) is None

    def test_witness_respects_equations(self):
        pres = Presentation.of([Equation("ab", "b"), Equation("ba", "a")])
        assert find_witness(pres, Equation("a", "b"), 2) is None
        w = find_witness(pres, Equation("a", "b"), 3)
        assert w is not None
        for eq in pres.equations:
            for p in range(w.size):
                assert apply_word(eq.lhs, p, w.tables) == apply_word(eq.rhs, p, w.tables)
        assert apply_word("a", w.point, w.tables) != apply_word("b", w.point, w.tables)

    def test_alphabet_covers_presentation_only_letters(self):
        pres = Presentation.of([Equation("cc", "c")])
        w = find_witness(pres, Equation("a", "b"), 2)
        assert w is not None
        assert set(w.tables) == {"a", "b", "c"}

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            find_witness(CANON, CANON_QUERY, 0)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            find_witness(CANON, CANON_QUERY, 3, budget=Budget(2))


class TestCheckWitness:
    def setup_method(self):
        self.good = find_witness(CANON, CANON_QUERY, 2)

    def test_found_witness_checks(self):
        assert check_witness(CANON, CANON_QUERY, self.good) is True

    def test_equation_violation_detected(self):
        bad = Witness(size=2, tables={"a": (1, 0), "b": (1, 1)}, point=0)
        assert check_witness(CANON, CANON_QUERY, bad) is False

    def test_no_separation_detected(self):
        bad = Witness(size=2, tables={"a": (0, 0), "b": (0, 0)}, point=0)
        assert check_witness(CANON, CANON_QUERY, bad) is False

    def test_missing_table_rejected(self):
        bad = Witness(size=2, tables={"a": (0, 0)}, point=0)
        with pytest.raises(ValueError, match="lacks tables for: b"):
            check_witness(CANON, CANON_QUERY, bad)

    def test_short_table_rejected(self):
        bad = Witness(size=2, tables={"a": (0,), "b": (1, 1)}, point=0)
        with pytest.raises(ValueError):
            check_witness(CANON, CANON_QUERY, bad)

    def test_bad_point_rejected(self):
        bad = Witness(size=2, tables={"a": (0, 0), "b": (1, 1)}, point=5)
        with pytest.raises(ValueError):
            check_witness(CANON, CANON_QUERY, bad)

    def test_size_below_one_rejected(self):
        bad = Witness(size=0, tables={"a": (), "b": ()}, point=0)
        with pytest.raises(ValueError) as info:
            check_witness(CANON, CANON_QUERY, bad)
        assert str(info.value) == "witness size must be positive"

    def test_out_of_range_value_rejected(self):
        bad = Witness(size=2, tables={"a": (0, 3), "b": (1, 1)}, point=0)
        with pytest.raises(ValueError):
            check_witness(CANON, CANON_QUERY, bad)


class TestWitnessFormat:
    def test_format(self):
        w = Witness(size=2, tables={"b": (1, 1), "a": (0, 0)}, point=0)
        assert w.format() == "a: 0->0 1->0\nb: 0->1 1->1\npoint: 0"
