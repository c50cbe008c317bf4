import sys

import pytest
from hypothesis import given, settings

from henkin import (
    And,
    Branch,
    EqualAtom,
    Equation,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Presentation,
    TRUE,
    FALSE,
    Variable,
    ceitin_presentation,
    equal,
    evaluate,
    evaluate_naive,
    format_formula,
    format_presentation,
    format_tables,
    mk_prefix,
    not_equal,
    parse_equation,
    parse_formula,
    parse_presentation,
    validate,
)
from henkin.syntax import MAX_DEPTH
from henkin.text import format_equation
from _corpus import agreement_corpus, small_formulas


def rt(text: str):
    return parse_formula(text)


class TestParsing:
    def test_atoms(self):
        assert rt("a = b") == equal("a", "b")
        assert rt("a != b") == not_equal("a", "b")
        assert rt("true") == TRUE
        assert rt("false") == FALSE

    def test_precedence_chain(self):
        f = rt("a = b & c = d -> e = f")
        assert isinstance(f, Implies)
        assert isinstance(f.antecedent, And)

    def test_and_flattens(self):
        f = rt("a = a & b = b & c = c")
        assert isinstance(f, And) and len(f.items) == 3

    def test_parenthesized_nesting_preserved(self):
        f = rt("(a = a & b = b) & c = c")
        assert isinstance(f, And) and len(f.items) == 2
        assert isinstance(f.items[0], And)

    def test_or_binds_looser_than_and(self):
        f = rt("a = a | b = b & c = c")
        assert isinstance(f, Or)
        assert isinstance(f.items[1], And)

    def test_implies_right_associative(self):
        f = rt("a = a -> b = b -> c = c")
        assert isinstance(f, Implies)
        assert isinstance(f.consequent, Implies)
        assert isinstance(f.antecedent, EqualAtom)

    def test_iff_right_associative_and_loosest(self):
        f = rt("a = a <-> b = b -> c = c <-> d = d")
        assert isinstance(f, Iff)
        assert isinstance(f.right, Iff)
        assert isinstance(f.right.left, Implies)

    def test_not_tight(self):
        f = rt("~a = b & c = d")
        assert isinstance(f, And)
        assert f.items[0] == not_equal("a", "b")
        g = rt("~(a = b & c = d)")
        assert isinstance(g, Not) and isinstance(g.body, And)

    def test_double_negation(self):
        assert rt("~a != b") == Not(not_equal("a", "b"))

    def test_quantifier_body_extends_right(self):
        f = rt("forall x . x = x & x != x")
        assert isinstance(f, ForAll)
        assert isinstance(f.body, And)

    def test_quantifier_multi_binders(self):
        f = rt("exists a b c . a = b")
        assert isinstance(f, Exists)
        assert [v.name for v in f.variables] == ["a", "b", "c"]

    def test_branch_prefix_structure(self):
        f = rt("H{ forall x z ; y(z x), w() } . true")
        assert isinstance(f, Branch)
        assert [v.name for v in f.prefix.universals] == ["x", "z"]
        assert [v.name for v in f.prefix.existentials] == ["y", "w"]
        assert f.prefix.deps == ((Variable("z"), Variable("x")), ())

    def test_h_is_contextual(self):
        f = rt("H = x")
        assert f == equal("H", "x")

    def test_one_variable_per_name(self):
        f = parse_formula("forall x . x = y & H{ forall z w ; y(z w) } . y = x & w != z")
        x = f.variables[0]
        first, branch = f.body.items
        prefix, (eq, ne) = branch.prefix, branch.body.items
        assert first.left is x is eq.right
        assert first.right is prefix.existentials[0] is eq.left
        assert prefix.universals[0] is prefix.deps[0][0] is ne.body.right
        assert prefix.universals[1] is prefix.deps[0][1] is ne.body.left

    def test_parses_share_no_variables(self):
        assert parse_formula("x = x").left is not parse_formula("x = x").left

    def test_comments_and_whitespace(self):
        f = rt("forall x .  # the body follows\n   x = x")
        assert f == ForAll(("x",), equal("x", "x"))


# Parse errors: the input, a fragment of the message that names the case,
# and the whole message with its line and column.
PARSE_ERRORS = [
    ("", "expected a formula", "1:1: expected a formula, found end of input"),
    ("x =", "expected variable name", "1:4: expected variable name, found end of input"),
    ("x", "expected '=' or '!='", "1:2: expected '=' or '!=' after 'x', found end of input"),
    ("forall . x = x", "'forall' needs at least one variable",
     "1:8: 'forall' needs at least one variable, found '.'"),
    ("forall x x . x = x", "bound twice", "1:10: 'x' bound twice in the same 'forall' block"),
    ("forall x exists y . x = y", "expected '.'", "1:10: expected '.', found 'exists'"),
    ("exists true . true", "needs at least one variable",
     "1:8: 'exists' needs at least one variable, found 'true'"),
    ("x = x y = y", "unexpected input after formula", "1:7: unexpected input after formula: 'y'"),
    ("(x = x", "expected ')'", "1:7: expected ')', found end of input"),
    ("x == y", "expected variable name", "1:4: expected variable name, found '='"),
    ("H{ x ; y(x) } . y = x", "must start with 'forall'",
     "1:4: branched prefix must start with 'forall', found 'x'"),
    ("H{ forall x ; y(q) } . y = y", "not a bound universal",
     "1:1: bad branched prefix: dependency 'q' of 'y' is not a bound universal"),
    ("H{ forall x ; y(x), y(x) } . y = x", "duplicate existential",
     "1:1: bad branched prefix: duplicate existential 'y'"),
    ("H{ forall x ; } . true", "expected existential name",
     "1:15: expected existential name, found '}'"),
    ("x = λ", "non-ASCII", "1:5: non-ASCII character 'λ'"),
    ("x @ y", "unexpected character '@'", "1:3: unexpected character '@'"),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, message",
        [(text, message) for text, _, message in PARSE_ERRORS],
        ids=[f"{text}-{fragment}" for text, fragment, _ in PARSE_ERRORS],
    )
    def test_message(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert str(info.value) == message

    def test_positions_are_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_formula("forall x .\n  x = =")
        assert str(info.value).startswith("2:7:")
        assert info.value.span.line == 2
        assert info.value.span.column == 7

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x = y &\t# tail\r\n", "2:1: expected a formula, found end of input"),
            ("x = y\t\t@", "1:8: unexpected character '@'"),
            ("# c\n\n  x <-> ", "3:5: expected '=' or '!=' after 'x', found '<->'"),
            ("H{ forall x ; y(x) } . y = x ->", "1:32: expected a formula, found end of input"),
            ("x != y !=", "1:8: unexpected input after formula: '!='"),
        ],
    )
    def test_blanks_comments_and_ends_keep_their_columns(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("H{ forall x ; forall(x) } . x = x",
             "1:15: 'forall' is reserved and cannot name an existential"),
            ("x = true", "1:5: 'true' is reserved and cannot name a variable"),
            # The same after legal names, and after 'true' read as a constant.
            ("forall x . x = x & x = true", "1:24: 'true' is reserved and cannot name a variable"),
            ("true & x = x & x = true", "1:20: 'true' is reserved and cannot name a variable"),
            ("forall x . x = x & x = forall",
             "1:24: 'forall' is reserved and cannot name a variable"),
            ("forall x . x = x & H{ forall y ; exists(y) } . x = y",
             "1:34: 'exists' is reserved and cannot name an existential"),
            ("H{ forall x ; y(x), true(x) } . y = x",
             "1:21: 'true' is reserved and cannot name an existential"),
            # A reserved word ends a list of dependencies or binders.
            ("H{ forall x ; y(x true) } . y = x", "1:19: expected ')', found 'true'"),
            ("H{ forall x ; y(x) } . y = x & forall z false . z = z",
             "1:41: expected '.', found 'false'"),
            ("x = y & true = x", "1:14: unexpected input after formula: '='"),
        ],
    )
    def test_reserved_word_as_a_name(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("H{ forall x ; y(x), y(x) } . y = x",
             "1:1: bad branched prefix: duplicate existential 'y'"),
            ("x = x &\n  H{ forall x ; y(q), w(x) } . y = x",
             "2:3: bad branched prefix: dependency 'q' of 'y' is not a bound universal"),
        ],
    )
    def test_prefix_faults_are_reported_at_the_h(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert str(info.value) == message


class TestPrinting:
    def test_canonical_forms(self):
        cases = [
            "a = b",
            "a != b",
            "~(a = b & c = d)",
            "a = b & c = d & e = f",
            "(a = b & c = d) & e = f",
            "a = b | c = d -> e = f",
            "a = b -> b = c -> c = d",
            "(a = b -> b = c) -> c = d",
            "a = b <-> b = c <-> c = d",
            "forall x . exists y . x = y",
            "exists t . H{ forall x z ; y(x), w(z) } . (y = w <-> x = z) & t != y",
            "H{ forall x ; y() } . y = x",
            "true & ~false",
            # H, x' and y_1 each as a bound variable, a universal and an existential
            "forall H . H{ forall x' ; y_1(x') } . y_1 = x' & H != y_1",
            "forall x' . H{ forall y_1 ; H(y_1) } . H = y_1 & x' != H",
            "forall y_1 . H{ forall H ; x'(H) } . x' = H & y_1 != x'",
        ]
        for text in cases:
            assert format_formula(parse_formula(text)) == text

    def test_round_trip_on_corpus(self):
        for name, f in agreement_corpus():
            assert parse_formula(format_formula(f)) == f, name

    @settings(max_examples=200)
    @given(small_formulas())
    def test_round_trip_on_random_formulas(self, f):
        assert parse_formula(format_formula(f)) == f

    def test_not_of_equality_prints_as_disequation(self):
        assert format_formula(Not(equal("a", "b"))) == "a != b"

    def test_quantified_operand_gets_parentheses(self):
        f = And((ForAll(("x",), equal("x", "x")), equal("a", "b")))
        text = format_formula(f)
        assert text == "(forall x . x = x) & a = b"
        assert parse_formula(text) == f


class TestPresentations:
    @pytest.mark.parametrize(
        "lhs, rhs, message",
        [
            ("", "a", "left side must be nonempty"),
            ("aB", "a", "left side 'aB' contains 'B'; only a-z are generators"),
            ("a", "", "right side must be nonempty"),
        ],
    )
    def test_equation_checks_its_words(self, lhs, rhs, message):
        with pytest.raises(ValueError) as info:
            Equation(lhs, rhs)
        assert str(info.value) == message

    @pytest.mark.parametrize("lhs, rhs, message", [
        (1, "a", "left side must be a string, got int"),
        ("a", b"a", "right side must be a string, got bytes"),
    ])
    def test_equation_sides_are_strings(self, lhs, rhs, message):
        with pytest.raises(TypeError) as info:
            Equation(lhs, rhs)
        assert str(info.value) == message

    def test_presentation_holds_only_equations(self):
        with pytest.raises(TypeError) as info:
            Presentation((Equation("a", "b"), ("aa", "a")))
        assert str(info.value) == "expected an Equation, got ('aa', 'a')"

    def test_round_trip(self):
        p = ceitin_presentation()
        assert parse_presentation(format_presentation(p)) == p

    def test_parse_with_comments_and_blanks(self):
        p = parse_presentation("# leading comment\n\naa = a  # squash\n  bb  =  b\n")
        assert p == Presentation.of([("aa", "a"), ("bb", "b")])

    def test_empty_input_is_the_empty_presentation(self):
        p = parse_presentation("# nothing here\n")
        assert p.equations == ()
        assert p.alphabet == frozenset()

    def test_alphabet_covers_equations(self):
        p = parse_presentation("ab = ba\ncd = dc")
        assert p.alphabet == frozenset("abcd")

    @pytest.mark.parametrize(
        "text, fragment, position",
        [
            ("a = A", "contains 'A'", "1:5"),
            ("= a", "empty left side", "1:1"),
            ("a =", "empty right side", "1:3"),
            ("ab ba", "expected 'word = word'", "1:1"),
            ("ok = ok\na = bb=c", "contains '='", "2:7"),
            ("a b = c", "contains ' '", "1:2"),
        ],
    )
    def test_error_positions(self, text, fragment, position):
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert fragment in str(info.value)
        assert str(info.value).startswith(position + ":")

    def test_parse_equation(self):
        assert parse_equation(" ab = ba ") == Equation("ab", "ba")
        assert format_equation(Equation("ab", "ba")) == "ab = ba"

    def test_parse_equation_rejects_many(self):
        with pytest.raises(ParseError) as info:
            parse_equation("a = b\nc = d")
        assert "single equation" in str(info.value)

    def test_parse_equation_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_equation("   # just a comment")

    @pytest.mark.parametrize(
        "text, fragment, position",
        [
            ("\nab = b1", "contains '1'", "2:7"),
            ("a = b\n\n\nc = d", "single equation", "4:1"),
        ],
    )
    def test_parse_equation_error_lines(self, text, fragment, position):
        with pytest.raises(ParseError) as info:
            parse_equation(text)
        assert fragment in str(info.value)
        assert str(info.value).startswith(position + ":")


class TestTables:
    def test_table_format_arities(self):
        tables = {"t": {(): 0}, "y": {(0, 0): 1, (0, 1): 2}}
        assert format_tables(tables) == "t: ()->0\ny: (0,0)->1 (0,1)->2"
        assert format_tables({}) == ""


# Each shape opens one nesting level per repeat of its opener.
NESTED = {
    "not": ("~", lambda n: "~" * n + "true"),
    "parens": ("(", lambda n: "(" * n + "true" + ")" * n),
    "implies": ("->", lambda n: "true -> " * n + "true"),
    "forall": ("forall", lambda n: "forall x . " * n + "x = x"),
}


@pytest.fixture
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


class TestNestingLimit:
    @pytest.mark.parametrize("shape", NESTED)
    def test_at_the_limit_every_walk_fits(self, shape, default_recursion_limit):
        text = NESTED[shape][1](MAX_DEPTH)
        f = parse_formula(text)
        assert validate(f) == []
        assert evaluate(f, 1) is True
        assert evaluate_naive(f, 1) is True
        assert format_formula(f) == ("true" if shape == "parens" else text)

    @pytest.mark.parametrize("shape", NESTED)
    def test_one_past_the_limit_points_at_the_opener(self, shape):
        opener, make = NESTED[shape]
        text = make(MAX_DEPTH + 1)
        with pytest.raises(ParseError, match=f"nested more than {MAX_DEPTH} levels deep") as info:
            parse_formula(text)
        at = -1
        for _ in range(MAX_DEPTH + 1):
            at = text.index(opener, at + 1)
        assert (info.value.span.line, info.value.span.column) == (1, at + 1)

    # The tree has a node at '!=' and at each connective, and a
    # connective's level encloses its left operand too, which was parsed
    # before the operator was seen; past the limit the error points at
    # the operator.
    @pytest.mark.parametrize(
        "prefix, tail, op",
        [
            ("forall x . ", "x != x", "!="),
            ("forall x . ", "x = x & x = x", "&"),
            ("forall x . ", "x = x | x = x", "|"),
            ("~", "true & true", "&"),
            ("~", "true | true", "|"),
            ("~", "true -> true", "->"),
            ("~", "true <-> true", "<->"),
        ],
    )
    def test_operators_open_levels(self, prefix, tail, op, default_recursion_limit):
        text = prefix * (MAX_DEPTH - 1) + tail
        f = parse_formula(text)
        assert validate(f) == []
        assert evaluate(f, 1) is evaluate_naive(f, 1)
        assert format_formula(f) == text
        text = prefix + text
        with pytest.raises(ParseError, match=f"nested more than {MAX_DEPTH} levels deep") as info:
            parse_formula(text)
        assert info.value.span.column == text.index(op) + 1


# One wrapper per kind of inner node, for trees built through the API,
# which never pass through the parser.
WRAPPERS = [
    Not,
    lambda f: And((f, TRUE)),
    lambda f: Or((FALSE, f)),
    lambda f: Implies(f, TRUE),
    lambda f: Iff(f, TRUE),
    lambda f: ForAll(("x",), f),
    lambda f: Branch(mk_prefix(["u"], ["w"], {"w": ["u"]}), f),
]


def nested_tree(depth: int, wrappers=WRAPPERS):
    f = equal("x", "x")
    for i in range(depth):
        f = wrappers[i % len(wrappers)](f)
    return f


class TestTreeDepthLimit:
    def test_at_the_limit_every_walk_fits(self, default_recursion_limit):
        f = nested_tree(MAX_DEPTH)
        assert validate(f) == []
        assert evaluate(f, 1) is evaluate_naive(f, 1)
        assert format_formula(f)

    @pytest.mark.parametrize(
        "depth, wrappers", [(MAX_DEPTH + 1, WRAPPERS), (2000, WRAPPERS), (2000, [Not])]
    )
    def test_past_the_limit_is_refused(self, depth, wrappers):
        f = nested_tree(depth, wrappers)
        message = f"nested more than {MAX_DEPTH} levels deep"
        assert validate(f) == ["formula " + message]
        for walk in (evaluate, evaluate_naive):
            with pytest.raises(ValueError, match=message):
                walk(f, 1)
        with pytest.raises(ValueError, match=message):
            format_formula(f)
