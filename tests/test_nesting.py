"""Nesting mixed from every opener kind, around the parser's depth limit.

Each opener in ``OPENERS`` is one nesting level, counted as the parser
counts it; all but the parenthesis are also a node of the tree.
"""

import pytest
from hypothesis import example, given, strategies as st

from henkin import ParseError, parse_formula, validate
from henkin.syntax import MAX_DEPTH, TOO_DEEP, formula_depth

OPENERS = ["~", "(", "forall x . ", "exists x . ", "H{ forall u ; w(u) } . "]


# The count first, then that many openers: a list strategy's own sizes
# would seldom land on the limit.
@given(
    st.integers(MAX_DEPTH - 5, MAX_DEPTH + 5).flatmap(
        lambda n: st.lists(
            st.tuples(st.sampled_from(OPENERS), st.sampled_from(["", " ", "\n"])),
            min_size=n,
            max_size=n,
        )
    )
)
@example([(OPENERS[k % 5], "\n" if k % 7 == 0 else " ") for k in range(MAX_DEPTH)])
@example([(OPENERS[k % 5], "\n" if k % 7 == 0 else " ") for k in range(MAX_DEPTH + 1)])
def test_mixed_openers_around_the_limit(openers):
    text = ""
    starts = []
    for opener, gap in openers:
        starts.append(len(text))
        text += opener + gap
    kinds = [opener for opener, _ in openers]
    text += "x = x" + ")" * kinds.count("(")
    if len(openers) <= MAX_DEPTH:
        f = parse_formula(text)
        assert validate(f) == []
        assert formula_depth(f) == len(kinds) - kinds.count("(")
        return
    with pytest.raises(ParseError, match=TOO_DEEP) as info:
        parse_formula(text)
    at = starts[MAX_DEPTH]
    line = text.count("\n", 0, at) + 1
    assert tuple(info.value.span) == (line, at - text.rfind("\n", 0, at))
