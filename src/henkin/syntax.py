"""Abstract syntax for equality logic with branched quantifier prefixes.

The vocabulary is empty: the only atoms are equalities between variables
and the two boolean constants.  Quantification comes in three forms --
linear ``forall``/``exists`` blocks, and branched prefixes in which every
existential variable carries an explicit, ordered list of the universals
its choice is allowed to observe.

All node types are immutable and compare structurally.  Construction is
deliberately permissive; ``validate`` reports structural problems as
messages instead of refusing to build the tree, so that malformed
inputs can be described in full rather than one error at a time.  The one
exception is ``Variable`` itself, which rejects malformed names and the
reserved words outright -- everything else in the package assumes names
are well formed, and ``text`` lexes and parses names by the same rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MAX_DEPTH",
    "TOO_DEEP",
    "NAME_PATTERN",
    "RESERVED_WORDS",
    "Variable",
    "HenkinPrefix",
    "mk_prefix",
    "prefix_diagnostics",
    "build_hn",
    "build_en",
    "Formula",
    "EqualAtom",
    "ConstTrue",
    "ConstFalse",
    "TRUE",
    "FALSE",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "ForAll",
    "Exists",
    "Branch",
    "equal",
    "not_equal",
    "conjoin",
    "free_names",
    "formula_depth",
    "validate",
]

NAME_PATTERN = r"[A-Za-z][A-Za-z0-9_']*"
RESERVED_WORDS = frozenset({"forall", "exists", "true", "false"})
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")

# The walks over a formula recurse per level: the parser at most three
# Python frames (a parenthesis takes ``binary``, ``unary`` and ``atom``), the
# printer and the compiled engine at most three per node, the reference
# engine a few more per bound variable.  Refusing formulas deeper than this
# keeps them under the default recursion limit of 1000, with room for the
# caller's own frames.
MAX_DEPTH = 100
TOO_DEEP = f"formula nested more than {MAX_DEPTH} levels deep"


@dataclass(frozen=True, slots=True)
class Variable:
    """A name: a letter, then letters, digits, '_' or "'"; not a reserved word."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"bad variable name {self.name!r}: expected a letter followed by "
                "letters, digits, underscores or apostrophes"
            )
        if self.name in RESERVED_WORDS:
            raise ValueError(f"'{self.name}' is reserved and cannot name a variable")

    def __str__(self) -> str:
        return self.name


VarLike = Variable | str


def as_variable(v: VarLike) -> Variable:
    return v if isinstance(v, Variable) else Variable(v)


def _as_variables(vs: Iterable[VarLike]) -> tuple[Variable, ...]:
    return tuple(as_variable(v) for v in vs)


@dataclass(frozen=True, slots=True)
class HenkinPrefix:
    """A branched prefix.

    ``deps`` is aligned with ``existentials``: entry i is the ordered tuple
    of universals that existential i's choice may depend on.  The order of
    a dependency list fixes the argument order of that existential's choice
    table.
    """

    universals: tuple[Variable, ...]
    existentials: tuple[Variable, ...]
    deps: tuple[tuple[Variable, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "universals", _as_variables(self.universals))
        object.__setattr__(self, "existentials", _as_variables(self.existentials))
        object.__setattr__(self, "deps", tuple(_as_variables(d) for d in self.deps))

    def bound(self) -> tuple[Variable, ...]:
        return self.universals + self.existentials


def prefix_diagnostics(prefix: HenkinPrefix) -> list[str]:
    """Structural checks on an already-built prefix, one message per fault.

    Covers duplicate names, universal/existential overlap, dependency lists
    that do not line up one-to-one with the existentials, and dependencies
    that are not bound universals.  Nonemptiness is deliberately not checked
    here: it is a property of using a prefix in a formula, enforced by
    ``validate`` on Branch nodes.
    """
    out: list[str] = []
    seen: set[Variable] = set()
    for v in prefix.universals:
        if v in seen:
            out.append(f"duplicate universal '{v}'")
        seen.add(v)
    eseen: set[Variable] = set()
    for v in prefix.existentials:
        if v in eseen:
            out.append(f"duplicate existential '{v}'")
        eseen.add(v)
    for v in sorted(seen & eseen, key=lambda v: v.name):
        out.append(f"'{v}' is both universal and existential")
    if len(prefix.deps) != len(prefix.existentials):
        out.append(
            f"{len(prefix.deps)} dependency lists for {len(prefix.existentials)} existentials"
        )
    uni = set(prefix.universals)
    for e, ds in zip(prefix.existentials, prefix.deps):
        local: set[Variable] = set()
        for d in ds:
            if d in local:
                out.append(f"duplicate dependency '{d}' for '{e}'")
            local.add(d)
            if d not in uni:
                out.append(f"dependency '{d}' of '{e}' is not a bound universal")
    return out


def mk_prefix(
    universals: Sequence[VarLike],
    existentials: Sequence[VarLike],
    deps: Mapping[VarLike, Sequence[VarLike]],
) -> HenkinPrefix:
    """Build a branched prefix, checking every invariant.

    ``deps`` maps each existential to its ordered dependency list.  On any
    violation a ``ValueError`` is raised whose message joins the complete
    list of messages with "; ", not just the first one.  A malformed name
    raises ``Variable``'s ``ValueError`` at once.
    """
    exi = _as_variables(existentials)
    problems: list[str] = []
    keyed: dict[Variable, tuple[Variable, ...]] = {}
    for key, value in deps.items():
        kvar = as_variable(key)
        if kvar in keyed:
            problems.append(f"repeated dependency entry for '{kvar}'")
        else:
            keyed[kvar] = _as_variables(value)
    problems += [f"dependency entry for unknown existential '{k}'" for k in keyed if k not in exi]
    problems += [f"missing dependency entry for '{e}'" for e in exi if e not in keyed]
    prefix = HenkinPrefix(universals, exi, tuple(keyed.get(e, ()) for e in exi))
    problems += prefix_diagnostics(prefix)
    if problems:
        raise ValueError("; ".join(problems))
    return prefix


def build_hn(rows: Iterable[tuple[VarLike, VarLike]]) -> HenkinPrefix:
    """The row-shaped prefix: one row forall x exists y(x) per (x, y) pair."""
    pairs = tuple(rows)
    if not pairs:
        raise ValueError("the row-shaped family needs at least one row")
    uni, exi = zip(*pairs)
    return HenkinPrefix(uni, exi, tuple((x,) for x in uni))


def build_en(first: Iterable[VarLike], second: Iterable[VarLike]) -> HenkinPrefix:
    """The two-universal prefix: ``first`` observe only x1, ``second`` only x2."""
    ys, zs = tuple(first), tuple(second)
    if not ys or not zs:
        raise ValueError("the two-universal family needs existentials on both universals")
    x1, x2 = Variable("x1"), Variable("x2")
    return HenkinPrefix((x1, x2), ys + zs, ((x1,),) * len(ys) + ((x2,),) * len(zs))


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class EqualAtom(Formula):
    left: Variable
    right: Variable

    def __post_init__(self):
        if not isinstance(self.left, Variable):
            object.__setattr__(self, "left", Variable(self.left))
        if not isinstance(self.right, Variable):
            object.__setattr__(self, "right", Variable(self.right))


@dataclass(frozen=True, slots=True)
class ConstTrue(Formula):
    pass


@dataclass(frozen=True, slots=True)
class ConstFalse(Formula):
    pass


TRUE = ConstTrue()
FALSE = ConstFalse()


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    """N-ary conjunction; well-formed instances have at least two operands."""

    items: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, slots=True)
class Or(Formula):
    """N-ary disjunction; well-formed instances have at least two operands."""

    items: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ForAll(Formula):
    variables: tuple[Variable, ...]
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "variables", _as_variables(self.variables))


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    variables: tuple[Variable, ...]
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "variables", _as_variables(self.variables))


@dataclass(frozen=True, slots=True)
class Branch(Formula):
    """A branched prefix applied to a matrix; binds all prefix variables."""

    prefix: HenkinPrefix
    body: Formula


def equal(a: VarLike, b: VarLike) -> EqualAtom:
    return EqualAtom(a, b)


def not_equal(a: VarLike, b: VarLike) -> Not:
    return Not(equal(a, b))


def conjoin(items: Iterable[Formula]) -> Formula:
    """And, collapsing the degenerate arities: () -> true, (f,) -> f."""
    seq = tuple(items)
    if not seq:
        return TRUE
    if len(seq) == 1:
        return seq[0]
    return And(seq)


def _children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``f``, left to right."""
    if isinstance(f, (EqualAtom, ConstTrue, ConstFalse)):
        return ()
    if isinstance(f, (Not, ForAll, Exists, Branch)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.items
    if isinstance(f, Implies):
        return (f.antecedent, f.consequent)
    if isinstance(f, Iff):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def free_names(f: Formula) -> frozenset[str]:
    """The names of ``f``'s atoms that no binder above them binds, found
    without recursion, so any depth of tree is fine.  Each scope, the
    nodes below the same binders, collects its atoms' names and keeps
    those its binders leave free; the commonest nodes are tested first."""
    out: set[str] = set()
    scopes = [(f, frozenset())]
    while scopes:
        node, bound = scopes.pop()
        names: set[str] = set()
        todo = [node]
        while todo:
            g = todo.pop()
            if isinstance(g, EqualAtom):
                names.add(g.left.name)
                names.add(g.right.name)
            elif isinstance(g, (And, Or)):
                todo += g.items
            elif isinstance(g, Implies):
                todo += (g.antecedent, g.consequent)
            elif isinstance(g, (ForAll, Exists)):
                scopes.append((g.body, bound.union([v.name for v in g.variables])))
            elif isinstance(g, Branch):
                scopes.append((g.body, bound.union([v.name for v in g.prefix.bound()])))
            else:
                todo += _children(g)
        out.update(names.difference(bound))
    return frozenset(out)


def formula_depth(f: Formula) -> int:
    """The most nodes on any path from the root, counting every node but
    atoms and constants, taken level by level without recursion.
    ``validate``, the parser and the printer all refuse a formula deeper
    than ``MAX_DEPTH``."""
    depth = 0
    level = [f]
    while True:
        level = [g for node in level for g in _children(node)]
        if not level:
            return depth
        depth += 1


def validate(f: Formula) -> list[str]:
    """Collect structural error messages for a formula, in pre-order;
    the list is empty when ``f`` is well formed.

    Errors: nesting deeper than ``MAX_DEPTH`` (reported alone), empty or
    self-rebinding quantifier blocks, n-ary connectives with fewer than
    two operands, and any prefix whose structure fails
    ``prefix_diagnostics``.  Shadowing an *outer* binder is legal.
    """
    out: list[str] = []
    # The nodes other than atoms: the depth is at most their number.
    inner = 0
    todo = [f]
    while todo:
        node = todo.pop()
        if isinstance(node, EqualAtom):
            continue
        inner += 1
        if isinstance(node, (And, Or)) and len(node.items) < 2:
            kind = "conjunction" if isinstance(node, And) else "disjunction"
            out.append(f"n-ary {kind} with {len(node.items)} operands")
        elif isinstance(node, (ForAll, Exists)):
            what = "forall" if isinstance(node, ForAll) else "exists"
            if not node.variables:
                out.append(f"'{what}' block binds no variables")
            seen: set[Variable] = set()
            for v in node.variables:
                if v in seen:
                    out.append(f"'{what}' block binds '{v}' twice")
                seen.add(v)
        elif isinstance(node, Branch):
            out += prefix_diagnostics(node.prefix)
            if not node.prefix.universals:
                out.append("branched prefix binds no universals")
            if not node.prefix.existentials:
                out.append("branched prefix binds no existentials")
        todo.extend(reversed(_children(node)))
    if inner > MAX_DEPTH and formula_depth(f) > MAX_DEPTH:
        return [TOO_DEEP]
    return out
