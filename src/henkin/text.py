"""Concrete syntax: lexer, parser, and pretty-printer.

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
a comment running to end of line.  ``forall``, ``exists``, ``true`` and
``false`` are reserved words; ``H`` is special only when a ``{`` follows.
Input must be ASCII.

Nesting is bounded by ``syntax.MAX_DEPTH``, counted as
``syntax.formula_depth`` counts it: every node of the tree but atoms and
constants is a level (``~``, ``!=``, each connective around all of its
operands, each quantifier block and branched prefix), and in text so is
every parenthesis.  The parser raises a ``ParseError`` at the opener of
the first level past the limit, or at the operator whose node would put
its already parsed left operand past it.  So every formula the parser
accepts passes ``syntax.validate``, and ``format_formula`` refuses a tree
that ``validate`` refuses.

Presentations use a separate line-oriented format: one ``word = word``
equation per line, with the same comment convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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
    Not,
    Or,
    TOO_DEEP,
    TRUE,
    Variable,
    formula_depth,
    prefix_diagnostics,
)
from .words import Equation, Presentation

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_formula",
    "format_formula",
    "parse_presentation",
    "parse_equation",
    "format_presentation",
    "format_equation",
]


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int


class ParseError(ValueError):
    """A syntax error with a 1-based line:column position."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{span.line}:{span.column}: {message}"
        super().__init__(message)


class _Token(NamedTuple):
    kind: str  # "name", "eof", or the symbol text itself
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column)


# Blanks and comments, then one newline, symbol or name.  A match that
# takes none of the three before the end of input stops at a bad character.
_TOKEN = re.compile(
    r"(?:[ \t\r]+|#[^\n]*)*"
    r"(?:(?P<newline>\n)|(?P<symbol><->|->|!=|[(){};,.=&|~])|(?P<name>[A-Za-z][A-Za-z0-9_']*))?"
)
_RESERVED = frozenset({"forall", "exists", "true", "false"})


def _lex(source: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start, i = 1, 0, 0
    while True:
        match = _TOKEN.match(source, i)
        i = match.end()
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, i
        elif kind is not None:
            text = match[kind]
            column = match.start(kind) - line_start + 1
            toks.append(_Token(text if kind == "symbol" else kind, text, line, column))
        elif i < len(source):
            ch = source[i]
            what = "non-ASCII" if ord(ch) > 127 else "unexpected"
            raise ParseError(f"{what} character {ch!r}", SourceSpan(line, i - line_start + 1))
        else:
            toks.append(_Token("eof", "", line, i - line_start + 1))
            return toks


_BINARY = (("<->", Iff), ("->", Implies), ("|", Or), ("&", And))


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    @staticmethod
    def describe(t: _Token) -> str:
        if t.kind == "eof":
            return "end of input"
        return f"'{t.text}'"

    def deeper(self, t: _Token, left: Formula = TRUE) -> None:
        """Open one nesting level at ``t``; the caller closes it.  ``left``
        is an operand parsed before ``t`` that the level encloses too."""
        if self.depth + 1 + formula_depth(left) > MAX_DEPTH:
            raise ParseError(TOO_DEEP, t.span)
        self.depth += 1

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected '{kind}', found {self.describe(t)}", t.span)
        return self.advance()

    def variable(self, role: str = "variable") -> Variable:
        t = self.peek()
        if t.kind != "name":
            raise ParseError(f"expected {role} name, found {self.describe(t)}", t.span)
        if t.text in _RESERVED:
            raise ParseError(f"'{t.text}' is reserved and cannot name a {role}", t.span)
        self.advance()
        return Variable(t.text)

    def binder_list(self, what: str) -> tuple[Variable, ...]:
        out: list[Variable] = []
        seen: set[str] = set()
        while self.peek().kind == "name" and self.peek().text not in _RESERVED:
            t = self.peek()
            v = self.variable("bound variable")
            if v.name in seen:
                raise ParseError(f"'{v.name}' bound twice in the same '{what}' block", t.span)
            seen.add(v.name)
            out.append(v)
        if not out:
            t = self.peek()
            raise ParseError(f"'{what}' needs at least one variable, found {self.describe(t)}", t.span)
        return tuple(out)

    def binary(self, level: int = 0) -> Formula:
        """The connectives from ``_BINARY[level]`` on, loosest first: the
        arrows nest to the right, ``|`` and ``&`` take any number of
        operands, and the operands of ``&`` are unary formulas."""
        op, node = _BINARY[level]
        operand = self.unary if node is And else partial(self.binary, level + 1)
        left = operand()
        if self.peek().kind != op:
            return left
        self.deeper(self.advance(), left)
        if node in (Iff, Implies):
            f = node(left, self.binary(level))
        else:
            items = [left, operand()]
            while self.peek().kind == op:
                self.advance()
                items.append(operand())
            f = node(tuple(items))
        self.depth -= 1
        return f

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "~":
            self.deeper(self.advance())
            body = self.unary()
            self.depth -= 1
            return Not(body)
        if t.kind == "name" and t.text in ("forall", "exists"):
            self.deeper(self.advance())
            vs = self.binder_list(t.text)
            self.expect(".")
            body = self.binary()
            self.depth -= 1
            return ForAll(vs, body) if t.text == "forall" else Exists(vs, body)
        if t.kind == "name" and t.text == "H" and self.peek(1).kind == "{":
            return self.branch()
        return self.atom()

    def branch(self) -> Formula:
        opener = self.advance()  # the 'H'
        self.deeper(opener)
        self.expect("{")
        kw = self.peek()
        if not (kw.kind == "name" and kw.text == "forall"):
            raise ParseError(
                f"branched prefix must start with 'forall', found {self.describe(kw)}", kw.span
            )
        self.advance()
        universals = self.binder_list("forall")
        self.expect(";")
        rows: dict[Variable, tuple[Variable, ...]] = {}  # in the order written
        while True:
            t = self.peek()
            e = self.variable("existential")
            if e in rows:
                raise ParseError(f"duplicate existential '{e.name}' in prefix", t.span)
            self.expect("(")
            ds: list[Variable] = []
            while self.peek().kind == "name" and self.peek().text not in _RESERVED:
                ds.append(self.variable("dependency"))
            self.expect(")")
            rows[e] = tuple(ds)
            if self.peek().kind != ",":
                break
            self.advance()
        self.expect("}")
        prefix = HenkinPrefix(universals, tuple(rows), tuple(rows.values()))
        problems = "; ".join(d.message for d in prefix_diagnostics(prefix))
        if problems:
            raise ParseError("bad branched prefix: " + problems, opener.span)
        self.expect(".")
        body = self.binary()
        self.depth -= 1
        return Branch(prefix, body)

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "(":
            self.deeper(self.advance())
            f = self.binary()
            self.expect(")")
            self.depth -= 1
            return f
        if t.kind == "name":
            if t.text in ("true", "false"):
                self.advance()
                return TRUE if t.text == "true" else FALSE
            left = self.variable()
            op = self.peek()
            if op.kind == "=":
                self.advance()
                return EqualAtom(left, self.variable())
            if op.kind == "!=":
                self.deeper(self.advance())
                self.depth -= 1
                return Not(EqualAtom(left, self.variable()))
            raise ParseError(
                f"expected '=' or '!=' after '{left.name}', found {self.describe(op)}", op.span
            )
        raise ParseError(f"expected a formula, found {self.describe(t)}", t.span)


def parse_formula(source: str) -> Formula:
    parser = _Parser(_lex(source))
    f = parser.binary()
    t = parser.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected input after formula: {parser.describe(t)}", t.span)
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
        raise ParseError(f"empty {side} of equation", SourceSpan(lineno, anchor_col))
    offset = len(segment) - len(segment.lstrip())
    for k, ch in enumerate(stripped):
        if not ("a" <= ch <= "z"):
            raise ParseError(
                f"{side} contains {ch!r}; words use letters a-z only",
                SourceSpan(lineno, base_col + offset + k),
            )
    return stripped


def parse_equation_line(line: str, lineno: int) -> Equation:
    bare = line.split("#", 1)[0]
    if "=" not in bare:
        col = len(bare) - len(bare.lstrip()) + 1
        raise ParseError("expected 'word = word'", SourceSpan(lineno, col))
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
        raise ParseError("expected 'word = word'", SourceSpan(1, 1))
    if len(lines) > 1:
        raise ParseError("expected a single equation", SourceSpan(lines[1][0], 1))
    lineno, raw = lines[0]
    return parse_equation_line(raw, lineno)


def parse_presentation(source: str) -> Presentation:
    """Parse a presentation: one equation per line, '#' comments allowed.

    An input with no equations is the empty presentation; its alphabet is
    empty until combined with a query.
    """
    lines = _numbered_lines(source)
    return Presentation.of(parse_equation_line(raw, lineno) for lineno, raw in lines)


def format_equation(eq: Equation) -> str:
    return f"{eq.lhs} = {eq.rhs}"


def format_presentation(p: Presentation) -> str:
    return "\n".join(format_equation(eq) for eq in p.equations)
