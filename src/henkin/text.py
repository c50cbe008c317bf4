"""Concrete syntax of formulas, equations and presentations: parse and print.

Formula grammar, loosest binding first::

    formula    :=  iff
    iff        :=  implies [ '<->' iff ]             right associative
    implies    :=  or [ '->' implies ]               right associative
    or         :=  and { '|' and }                   n-ary, flattened
    and        :=  unary { '&' unary }               n-ary, flattened
    unary      :=  '~' unary | quantified | atom
    quantified :=  'forall' name+ '.' iff
                |  'exists' name+ '.' iff
                |  'H' '{' 'forall' name+ ';' row { ',' row } '}' '.' iff
    row        :=  name '(' name* ')'
    atom       :=  'true' | 'false' | '(' iff ')' | name ('=' | '!=') name

Quantifier bodies extend as far right as possible.  ``v != w`` abbreviates
``~ v = w`` and the printer always prefers the abbreviation.  ``#`` starts
a comment running to end of line.  Names and the reserved words (``forall``,
``exists``, ``true``, ``false``) are ``syntax``'s; ``H`` is special only
when a ``{`` follows.  Input must be ASCII.  The lexer keeps only the
tokens' texts; an error works out its line and column from the source.

Nesting is bounded by ``syntax.MAX_DEPTH``, counted as
``syntax.formula_depth`` counts it: every node of the tree but atoms and
constants is a level (``~``, ``!=``, each connective around all of its
operands, each quantifier block and branched prefix), and in text so is
every parenthesis.  The parser raises a ``ParseError`` at the opener of
the first level past the limit, or at the operator whose node would put
its already parsed left operand past it.  So every formula the parser
accepts passes ``syntax.validate``.  ``format_formula`` refuses only a tree
that is too deep; it prints other trees ``validate`` refuses as they are,
so ``And((TRUE,))`` prints as ``true`` and a prefix with a repeated
existential prints as text the parser rejects.

Presentations use a separate line-oriented format: one ``word = word``
equation per line, with the same comment convention.  Choice tables, as
``witness_tables`` returns them, print one ``name: (k,...)->v ...`` line each.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import islice

from .syntax import (
    And,
    Branch,
    ConstFalse,
    ConstTrue,
    EqualAtom,
    Exists,
    FALSE,
    ForAll,
    Formula,
    HenkinPrefix,
    Iff,
    Implies,
    MAX_DEPTH,
    NAME_PATTERN,
    Not,
    Or,
    RESERVED_WORDS,
    TOO_DEEP,
    TRUE,
    Variable,
    formula_depth,
    prefix_diagnostics,
)
from .words import LETTERS, Equation, Presentation

__all__ = [
    "ParseError",
    "parse_formula",
    "format_formula",
    "parse_presentation",
    "parse_equation",
    "format_presentation",
    "format_equation",
    "format_tables",
]


_Span = namedtuple("_Span", "line column")


class ParseError(ValueError):
    """A syntax error at a 1-based ``(line, column)`` pair: ``span.line``, ``span.column``."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        if span is not None:
            self.span = _Span(*span)
            message = "{}:{}: {}".format(*span, message)
        super().__init__(message)


# Blanks and comments, then one symbol or name (group 1), or one bad
# character (group 2), or the end of input (neither group).
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    rf"(?:(<->|->|!=|[(){{}};,.=&|~]|{NAME_PATTERN})|(.))?",
    re.S,
)

# The binary connectives, loosest first: level and node.
_BINARY = {"<->": (0, Iff), "->": (1, Implies), "|": (2, Or), "&": (3, And)}


def _is_name(t: str) -> bool:
    """Whether token text ``t`` is a name; the others are symbols and the
    empty end of input."""
    return t[:1].isalpha()


class _Parser:
    """A recursive-descent parser over ``source``'s tokens, their texts in
    ``toks``, ending in at least one ``""`` for the end of input, which
    the parser never steps past.  Only an error needs a token's place:
    ``span`` finds it by lexing again.  Each name read as a variable is one
    ``Variable`` per parse, kept in ``names``; a reserved word never is."""

    def __init__(self, source: str):
        self.source = source
        toks, bad = zip(*_TOKEN.findall(source))
        if any(bad):
            k = next(k for k, ch in enumerate(bad) if ch)
            what = "non-ASCII" if ord(bad[k]) > 127 else "unexpected"
            raise ParseError(f"{what} character {bad[k]!r}", self.span(k))
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.names: dict[str, Variable] = {}

    def span(self, k: int) -> tuple[int, int]:
        """The line and column of token ``k``."""
        match = next(islice(_TOKEN.finditer(self.source), k, None))
        at = match.start(match.lastindex) if match.lastindex else match.end()
        return (self.source.count("\n", 0, at) + 1, at - self.source.rfind("\n", 0, at))

    def fail(self, message: str, k: int | None = None) -> ParseError:
        return ParseError(message, self.span(self.i if k is None else k))

    def found(self) -> str:
        t = self.toks[self.i]
        return f"'{t}'" if t else "end of input"

    def open(self, left: Formula | None = None, start: int = 0) -> None:
        """Open one nesting level at the current token and step past it;
        the caller closes it.  ``left``, parsed from token ``start`` on,
        is an operand before the token that the level encloses too.  Its
        depth is at most its token count, so it is walked only near the
        limit."""
        depth = self.depth + 1
        if left is not None and depth + self.i - start > MAX_DEPTH:
            depth += formula_depth(left)
        if depth > MAX_DEPTH:
            raise self.fail(TOO_DEEP)
        self.depth += 1
        self.i += 1

    def expect(self, t: str) -> None:
        if self.toks[self.i] != t:
            raise self.fail(f"expected '{t}', found {self.found()}")
        self.i += 1

    def variable(self, role: str = "variable") -> Variable:
        t = self.toks[self.i]
        v = self.names.get(t)
        if v is None:
            if not _is_name(t):
                raise self.fail(f"expected {role} name, found {self.found()}")
            if t in RESERVED_WORDS:
                article = "an" if role[0] in "aeiou" else "a"
                raise self.fail(f"'{t}' is reserved and cannot name {article} {role}")
            v = self.names[t] = Variable(t)
        self.i += 1
        return v

    def at_name(self) -> bool:
        """Whether the current token is a name that is not a reserved word."""
        t = self.toks[self.i]
        return t in self.names or (_is_name(t) and t not in RESERVED_WORDS)

    def binder_list(self, what: str) -> tuple[Variable, ...]:
        out: dict[str, Variable] = {}
        while self.at_name():
            v = self.variable("bound variable")
            if v.name in out:
                raise self.fail(f"'{v.name}' bound twice in the same '{what}' block", self.i - 1)
            out[v.name] = v
        if not out:
            raise self.fail(f"'{what}' needs at least one variable, found {self.found()}")
        return tuple(out.values())

    def binary(self, floor: int = 0) -> Formula:
        """A formula of the connectives from level ``floor`` of ``_BINARY``
        on, by precedence climbing: the arrows nest to the right, ``|``
        and ``&`` take any number of operands, and the operands of ``&``
        are unary formulas."""
        toks = self.toks
        start = self.i
        left = self.unary()
        while True:
            op = toks[self.i]
            level, node = _BINARY.get(op, (-1, None))
            if level < floor:
                return left
            self.open(left, start)
            if level < 2:
                left = node(left, self.binary(level))
            else:
                items = [left, self.unary() if level == 3 else self.binary(3)]
                while toks[self.i] == op:
                    self.i += 1
                    items.append(self.unary() if level == 3 else self.binary(3))
                left = node(tuple(items))
            self.depth -= 1

    def unary(self) -> Formula:
        t = self.toks[self.i]
        if t == "~":
            self.open()
            body = self.unary()
            self.depth -= 1
            return Not(body)
        if t == "forall" or t == "exists":
            self.open()
            vs = self.binder_list(t)
            self.expect(".")
            body = self.binary()
            self.depth -= 1
            return ForAll(vs, body) if t == "forall" else Exists(vs, body)
        if t == "H" and self.toks[self.i + 1] == "{":
            return self.branch()
        return self.atom()

    def branch(self) -> Formula:
        opener = self.i  # the 'H'
        self.open()
        self.expect("{")
        if self.toks[self.i] != "forall":
            raise self.fail(f"branched prefix must start with 'forall', found {self.found()}")
        self.i += 1
        universals = self.binder_list("forall")
        self.expect(";")
        rows: list[tuple[Variable, tuple[Variable, ...]]] = []
        while True:
            e = self.variable("existential")
            self.expect("(")
            ds: list[Variable] = []
            while self.at_name():
                ds.append(self.variable("dependency"))
            self.expect(")")
            rows.append((e, tuple(ds)))
            if self.toks[self.i] != ",":
                break
            self.i += 1
        self.expect("}")
        existentials, deps = zip(*rows)
        prefix = HenkinPrefix(universals, existentials, deps)
        problems = "; ".join(prefix_diagnostics(prefix))
        if problems:
            raise self.fail("bad branched prefix: " + problems, opener)
        self.expect(".")
        body = self.binary()
        self.depth -= 1
        return Branch(prefix, body)

    def atom(self) -> Formula:
        t = self.toks[self.i]
        if t == "(":
            self.open()
            f = self.binary()
            self.expect(")")
            self.depth -= 1
            return f
        if t == "true" or t == "false":
            self.i += 1
            return TRUE if t == "true" else FALSE
        if t not in self.names and not _is_name(t):
            raise self.fail(f"expected a formula, found {self.found()}")
        left = self.variable()
        op = self.toks[self.i]
        if op == "=":
            self.i += 1
            return EqualAtom(left, self.variable())
        if op == "!=":
            self.open()
            self.depth -= 1
            return Not(EqualAtom(left, self.variable()))
        raise self.fail(f"expected '=' or '!=' after '{left.name}', found {self.found()}")


def parse_formula(source: str) -> Formula:
    parser = _Parser(source)
    f = parser.binary()
    if parser.toks[parser.i]:
        raise parser.fail(f"unexpected input after formula: {parser.found()}")
    return f


# Printer precedence: one above the parser level that may omit parentheses.
# N-ary connectives print their children one level tighter than themselves so
# a nested conjunction inside a conjunction keeps its parentheses; without
# them reparsing would flatten the two nodes into one.


def format_formula(f: Formula) -> str:
    """Print ``f``; raises ``ValueError`` on a tree nested more than
    ``MAX_DEPTH`` levels deep, which ``syntax.validate`` refuses too."""
    if formula_depth(f) > MAX_DEPTH:
        raise ValueError(TOO_DEEP)
    return _fmt(f, 0)


def _fmt(f: Formula, min_prec: int) -> str:
    text, prec = _render(f)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, ConstTrue):
        return "true", 6
    if isinstance(f, ConstFalse):
        return "false", 6
    if isinstance(f, EqualAtom):
        return f"{f.left} = {f.right}", 6
    if isinstance(f, Not):
        if isinstance(f.body, EqualAtom):
            return f"{f.body.left} != {f.body.right}", 6
        return "~" + _fmt(f.body, 5), 5
    if isinstance(f, And):
        return " & ".join(_fmt(g, 5) for g in f.items), 4
    if isinstance(f, Or):
        return " | ".join(_fmt(g, 4) for g in f.items), 3
    if isinstance(f, Implies):
        return _fmt(f.antecedent, 3) + " -> " + _fmt(f.consequent, 2), 2
    if isinstance(f, Iff):
        return _fmt(f.left, 2) + " <-> " + _fmt(f.right, 1), 1
    if isinstance(f, ForAll):
        names = " ".join(v.name for v in f.variables)
        return f"forall {names} . " + _fmt(f.body, 0), 0
    if isinstance(f, Exists):
        names = " ".join(v.name for v in f.variables)
        return f"exists {names} . " + _fmt(f.body, 0), 0
    if isinstance(f, Branch):
        uni = " ".join(v.name for v in f.prefix.universals)
        rows = ", ".join(
            e.name + "(" + " ".join(d.name for d in ds) + ")"
            for e, ds in zip(f.prefix.existentials, f.prefix.deps)
        )
        return f"H{{ forall {uni} ; {rows} }} . " + _fmt(f.body, 0), 0
    raise TypeError(f"not a formula: {f!r}")


def _word(segment: str, lineno: int, base_col: int, side: str, anchor_col: int) -> str:
    stripped = segment.strip()
    if not stripped:
        raise ParseError(f"empty {side} of equation", (lineno, anchor_col))
    offset = len(segment) - len(segment.lstrip())
    for k, ch in enumerate(stripped):
        if ch not in LETTERS:
            raise ParseError(
                f"{side} contains {ch!r}; words use letters a-z only",
                (lineno, base_col + offset + k),
            )
    return stripped


def _equation_line(line: str, lineno: int) -> Equation:
    bare = line.split("#", 1)[0]
    if "=" not in bare:
        col = len(bare) - len(bare.lstrip()) + 1
        raise ParseError("expected 'word = word'", (lineno, col))
    lhs_part, _, rhs_part = bare.partition("=")
    eq_col = len(lhs_part) + 1
    lhs = _word(lhs_part, lineno, 1, "left side", eq_col)
    rhs = _word(rhs_part, lineno, eq_col + 1, "right side", eq_col)
    return Equation(lhs, rhs)


def _numbered_lines(source: str) -> list[tuple[int, str]]:
    """The lines of ``source`` that hold more than a comment, numbered from 1."""
    lines = enumerate(source.splitlines(), start=1)
    return [(lineno, raw) for lineno, raw in lines if raw.split("#", 1)[0].strip()]


def parse_equation(source: str) -> Equation:
    """Parse a single ``word = word`` equation."""
    lines = _numbered_lines(source)
    if not lines:
        raise ParseError("expected 'word = word'", (1, 1))
    if len(lines) > 1:
        raise ParseError("expected a single equation", (lines[1][0], 1))
    lineno, raw = lines[0]
    return _equation_line(raw, lineno)


def parse_presentation(source: str) -> Presentation:
    """Parse a presentation: one equation per line, '#' comments allowed.

    An input with no equations is the empty presentation; its alphabet is
    empty until combined with a query.
    """
    lines = _numbered_lines(source)
    return Presentation.of(_equation_line(raw, lineno) for lineno, raw in lines)


def format_equation(eq: Equation) -> str:
    return f"{eq.lhs} = {eq.rhs}"


def format_presentation(p: Presentation) -> str:
    return "\n".join(format_equation(eq) for eq in p.equations)


def format_tables(tables: dict[str, dict[tuple[int, ...], int]]) -> str:
    return "\n".join(
        name + ": " + " ".join(f"({','.join(map(str, key))})->{val}" for key, val in table.items())
        for name, table in tables.items()
    )
