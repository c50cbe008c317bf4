import itertools

import pytest
from hypothesis import given, strategies as st

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
from henkin.fixtures import ceitin_presentation

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

    @pytest.mark.parametrize("size", [True, 2.0, "2"])
    def test_size_must_be_an_int(self, size):
        with pytest.raises(ValueError, match="size must be an integer"):
            find_witness(CANON, CANON_QUERY, size)

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_message(self, size):
        with pytest.raises(ValueError) as info:
            find_witness(CANON, CANON_QUERY, size)
        assert str(info.value) == "size must be at least 1"

    def test_search_walks_words_without_apply_word(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("find_witness called apply_word")

        monkeypatch.setattr("henkin.oracle.apply_word", refuse)
        w = find_witness(CANON, CANON_QUERY, 2)
        assert w == Witness(size=2, tables={"a": (0, 0), "b": (1, 1)}, point=0)
        pres = Presentation.of([Equation("ab", "ba")])
        assert find_witness(pres, Equation("ab", "ba"), 3) is None


def _search(presentation, query, m):
    """The first witness at size m and the nodes spent finding it."""
    budget = Budget()
    witness = find_witness(presentation, query, m, budget=budget)
    return witness, budget.spent


class TestEnumerationPin:
    """The enumeration order and the node rule, pinned by node counts per
    size and by the first witness found: letters in alphabetical order,
    tables in lexicographic order, an equation checked when its last letter
    gets a table, one node per table tried."""

    CEITIN = ceitin_presentation()

    @pytest.mark.parametrize("query", CEITIN.equations, ids=str)
    def test_ceitin_equations_never_separate(self, query):
        assert _search(self.CEITIN, query, 1) == (None, 5)
        assert _search(self.CEITIN, query, 2) == (None, 428)

    def test_ceitin_equation_at_size_three(self):
        # The query is read only at the leaves, so all seven share this count.
        assert _search(self.CEITIN, Equation("ac", "ca"), 3) == (None, 175_473)

    @pytest.mark.parametrize(
        "query, nodes, tables, point",
        [
            (
                Equation("ab", "ba"),
                [5, 65],
                {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (0, 1), "e": (0, 0)},
                0,
            ),
            (
                Equation("ae", "ea"),
                [5, 26],
                {"a": (0, 0), "b": (0, 0), "c": (0, 1), "d": (0, 1), "e": (1, 1)},
                0,
            ),
            (
                Equation("ce", "ec"),
                [5, 428, 279],
                {
                    "a": (0, 0, 0),
                    "b": (0, 0, 0),
                    "c": (0, 0, 1),
                    "d": (0, 0, 0),
                    "e": (0, 1, 0),
                },
                2,
            ),
        ],
        ids=str,
    )
    def test_ceitin_first_witnesses(self, query, nodes, tables, point):
        *misses, hit = nodes
        for m, spent in enumerate(misses, start=1):
            assert _search(self.CEITIN, query, m) == (None, spent)
        m = len(nodes)
        assert _search(self.CEITIN, query, m) == (Witness(m, tables, point), hit)

    @pytest.mark.parametrize(
        "equations, query, nodes",
        [
            ([("ab", "ba")], ("ab", "ba"), {1: 2, 2: 20, 3: 756, 4: 65_792}),
            ([("aa", "a"), ("bb", "b")], ("ab", "ba"), {1: 2, 2: 5, 3: 15}),
            ([("ab", "a")], ("ab", "a"), {3: 756}),
        ],
        ids=str,
    )
    def test_small_presentations(self, equations, query, nodes):
        presentation, query = Presentation.of(equations), Equation(*query)
        for m, spent in nodes.items():
            assert _search(presentation, query, m)[1] == spent


def _holds(equations, query, witness) -> bool:
    """The definition of a witness, written out with ``apply_word``."""
    tables, size = witness.tables, witness.size
    return all(
        apply_word(eq.lhs, x, tables) == apply_word(eq.rhs, x, tables)
        for eq in equations
        for x in range(size)
    ) and apply_word(query.lhs, witness.point, tables) != apply_word(
        query.rhs, witness.point, tables
    )


_WORDS = st.text(alphabet="abc", min_size=1, max_size=4)
_EQUATIONS = st.builds(Equation, _WORDS, _WORDS)


class TestDifferential:
    @given(st.lists(_EQUATIONS, max_size=3), _EQUATIONS, st.data())
    def test_check_witness_matches_definition(self, equations, query, data):
        presentation = Presentation(tuple(equations))
        size = data.draw(st.integers(1, 4))
        cells = st.tuples(*[st.integers(0, size - 1)] * size)
        letters = sorted(presentation.alphabet | query.letters())
        tables = {ch: data.draw(cells) for ch in letters}
        witness = Witness(size, tables, data.draw(st.integers(0, size - 1)))
        assert check_witness(presentation, query, witness) is _holds(equations, query, witness)

    @given(st.lists(_EQUATIONS, max_size=3), _EQUATIONS, st.integers(1, 2))
    def test_find_witness_matches_brute_force(self, equations, query, size):
        presentation = Presentation(tuple(equations))
        letters = sorted(presentation.alphabet | query.letters())
        functions = list(itertools.product(range(size), repeat=size))
        expected = any(
            _holds(equations, query, Witness(size, dict(zip(letters, choice)), point))
            for choice in itertools.product(functions, repeat=len(letters))
            for point in range(size)
        )
        witness = find_witness(presentation, query, size)
        assert (witness is not None) is expected
        if witness is not None:
            assert _holds(equations, query, witness)


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
        assert str(info.value) == "witness size must be at least 1"

    @pytest.mark.parametrize("size", [True, 2.0, "2"])
    def test_size_must_be_an_int(self, size):
        bad = Witness(size=size, tables={"a": (0, 0), "b": (1, 1)}, point=0)
        with pytest.raises(ValueError, match="size must be an integer"):
            check_witness(CANON, CANON_QUERY, bad)

    @pytest.mark.parametrize("point", [True, 0.0, "0"])
    def test_point_must_be_an_int(self, point):
        bad = Witness(size=2, tables={"a": (0, 0), "b": (1, 1)}, point=point)
        with pytest.raises(ValueError, match="point must be an integer"):
            check_witness(CANON, CANON_QUERY, bad)

    def test_out_of_range_value_rejected(self):
        bad = Witness(size=2, tables={"a": (0, 3), "b": (1, 1)}, point=0)
        with pytest.raises(ValueError):
            check_witness(CANON, CANON_QUERY, bad)

    @pytest.mark.parametrize(
        "cell, point, message",
        [
            (0.5, 0, "table for 'a' at 1 must be an integer, got 0.5"),
            (True, 0, "table for 'a' at 1 must be an integer, got True"),
            (3, 0, "table for 'a' at 1 must be an integer in [0, 2)"),
            (0, 2, "witness point must be an integer in [0, 2)"),
        ],
        ids=["float-cell", "bool-cell", "cell-out-of-range", "point-out-of-range"],
    )
    def test_cells_and_point_are_whole(self, cell, point, message):
        bad = Witness(size=2, tables={"a": (0, cell), "b": (1, 1)}, point=point)
        with pytest.raises(ValueError) as info:
            check_witness(CANON, CANON_QUERY, bad)
        assert str(info.value) == message


class TestWitnessFormat:
    def test_format(self):
        w = Witness(size=2, tables={"b": (1, 1), "a": (0, 0)}, point=0)
        assert w.format() == "a: 0->0 1->0\nb: 0->1 1->1\npoint: 0"
