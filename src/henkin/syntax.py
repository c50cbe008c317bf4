"""Abstract syntax for equality logic with branched quantifier prefixes.

The vocabulary is empty: the only atoms are equalities between variables
and the two boolean constants.  Quantification comes in three forms --
linear ``forall``/``exists`` blocks, and branched prefixes in which every
existential variable carries an explicit, ordered list of the universals
its choice is allowed to observe.

All node types are immutable and compare structurally.  Construction is
deliberately permissive; ``validate`` reports structural problems as
diagnostics instead of refusing to build the tree, so that malformed
inputs can be described in full rather than one error at a time.  The one
exception is ``Variable`` itself, which rejects malformed name tokens
outright -- everything else in the package assumes names are well formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "MAX_DEPTH",
    "TOO_DEEP",
    "Variable",
    "VarLike",
    "as_variable",
    "Diagnostic",
    "InvalidPrefixError",
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
    "disjoin",
    "free_variables",
    "formula_depth",
    "validate",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")

# The walks over a formula recurse per level: the parser six Python frames
# per parenthesis (four of ``binary``, then ``unary`` and ``atom``), the
# printer and the compiled engine at most three per node, the reference
# engine a few more per bound variable.  Refusing formulas deeper than this
# keeps them under the default recursion limit of 1000, with room for the
# caller's own frames.
MAX_DEPTH = 100
TOO_DEEP = f"formula nested more than {MAX_DEPTH} levels deep"


@dataclass(frozen=True, slots=True)
class Variable:
    """A variable name: a letter followed by letters, digits, '_' or "'"."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"bad variable name {self.name!r}: expected a letter followed by "
                "letters, digits, underscores or apostrophes"
            )

    def __str__(self) -> str:
        return self.name


VarLike = Union[Variable, str]


def as_variable(v: VarLike) -> Variable:
    return v if isinstance(v, Variable) else Variable(v)


def _as_variables(vs: Iterable[VarLike]) -> tuple[Variable, ...]:
    return tuple(as_variable(v) for v in vs)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A validation finding; ``severity`` is ``"error"`` or ``"warning"``."""

    severity: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


class InvalidPrefixError(ValueError):
    """Raised by ``mk_prefix``; carries one Diagnostic per violated rule."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


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


def prefix_diagnostics(prefix: HenkinPrefix) -> list[Diagnostic]:
    """Structural checks on an already-built prefix.

    Covers duplicate names, universal/existential overlap, dependency lists
    that do not line up one-to-one with the existentials, and dependencies
    that are not bound universals.  Nonemptiness is deliberately not checked
    here: it is a property of using a prefix in a formula, enforced by
    ``validate`` on Branch nodes.
    """
    out: list[Diagnostic] = []
    seen: set[Variable] = set()
    for v in prefix.universals:
        if v in seen:
            out.append(Diagnostic("error", f"duplicate universal '{v}'"))
        seen.add(v)
    eseen: set[Variable] = set()
    for v in prefix.existentials:
        if v in eseen:
            out.append(Diagnostic("error", f"duplicate existential '{v}'"))
        eseen.add(v)
    for v in sorted(seen & eseen, key=lambda v: v.name):
        out.append(Diagnostic("error", f"'{v}' is both universal and existential"))
    if len(prefix.deps) != len(prefix.existentials):
        out.append(
            Diagnostic(
                "error",
                f"{len(prefix.deps)} dependency lists for "
                f"{len(prefix.existentials)} existentials",
            )
        )
    uni = set(prefix.universals)
    for e, ds in zip(prefix.existentials, prefix.deps):
        local: set[Variable] = set()
        for d in ds:
            if d in local:
                out.append(Diagnostic("error", f"duplicate dependency '{d}' for '{e}'"))
            local.add(d)
            if d not in uni:
                out.append(
                    Diagnostic("error", f"dependency '{d}' of '{e}' is not a bound universal")
                )
    return out


def mk_prefix(
    universals: Sequence[VarLike],
    existentials: Sequence[VarLike],
    deps: Mapping[VarLike, Sequence[VarLike]],
) -> HenkinPrefix:
    """Build a branched prefix, checking every invariant.

    ``deps`` maps each existential to its ordered dependency list.  On any
    violation an ``InvalidPrefixError`` is raised carrying the complete list
    of diagnostics, not just the first one.
    """
    diags: list[Diagnostic] = []

    def coerce(items: Sequence[VarLike], role: str) -> list[Variable]:
        out = []
        for item in items:
            try:
                out.append(as_variable(item))
            except ValueError as exc:
                diags.append(Diagnostic("error", f"{role}: {exc}"))
        return out

    uni = coerce(universals, "universal")
    exi = coerce(existentials, "existential")

    keyed: dict[Variable, tuple[Variable, ...]] = {}
    for key, value in deps.items():
        try:
            kvar = as_variable(key)
        except ValueError as exc:
            diags.append(Diagnostic("error", f"dependency key: {exc}"))
            continue
        if kvar in keyed:
            diags.append(Diagnostic("error", f"repeated dependency entry for '{kvar}'"))
            continue
        keyed[kvar] = tuple(coerce(value, f"dependency of '{kvar}'"))

    exi_set = set(exi)
    for kvar in keyed:
        if kvar not in exi_set:
            diags.append(Diagnostic("error", f"dependency entry for unknown existential '{kvar}'"))
    aligned: list[tuple[Variable, ...]] = []
    for e in exi:
        if e in keyed:
            aligned.append(keyed[e])
        else:
            diags.append(Diagnostic("error", f"missing dependency entry for '{e}'"))
            aligned.append(())

    candidate = HenkinPrefix(tuple(uni), tuple(exi), tuple(aligned))
    diags.extend(prefix_diagnostics(candidate))
    if any(d.severity == "error" for d in diags):
        raise InvalidPrefixError(diags)
    return candidate


def build_hn(n: int) -> HenkinPrefix:
    """The row-shaped prefix with n independent rows: forall xi exists yi(xi)."""
    if n < 1:
        raise ValueError("the row-shaped family starts at n = 1")
    uni = tuple(Variable(f"x{i}") for i in range(1, n + 1))
    exi = tuple(Variable(f"y{i}") for i in range(1, n + 1))
    return HenkinPrefix(uni, exi, tuple((x,) for x in uni))


def build_en(n: int) -> HenkinPrefix:
    """The two-row prefix: y1..yn observe only x1, z1..zn observe only x2."""
    if n < 1:
        raise ValueError("the two-row family starts at n = 1")
    x1, x2 = Variable("x1"), Variable("x2")
    ys = tuple(Variable(f"y{i}") for i in range(1, n + 1))
    zs = tuple(Variable(f"z{i}") for i in range(1, n + 1))
    return HenkinPrefix((x1, x2), ys + zs, ((x1,),) * n + ((x2,),) * n)


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class EqualAtom(Formula):
    left: Variable
    right: Variable

    def __post_init__(self):
        object.__setattr__(self, "left", as_variable(self.left))
        object.__setattr__(self, "right", as_variable(self.right))


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
    return EqualAtom(as_variable(a), as_variable(b))


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


def disjoin(items: Iterable[Formula]) -> Formula:
    """Or, collapsing the degenerate arities: () -> false, (f,) -> f."""
    seq = tuple(items)
    if not seq:
        return FALSE
    if len(seq) == 1:
        return seq[0]
    return Or(seq)


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


def free_variables(f: Formula) -> frozenset[Variable]:
    if isinstance(f, EqualAtom):
        return frozenset((f.left, f.right))
    out = frozenset().union(*map(free_variables, _children(f)))
    if isinstance(f, (ForAll, Exists)):
        return out - frozenset(f.variables)
    if isinstance(f, Branch):
        return out - frozenset(f.prefix.bound())
    return out


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


def validate(f: Formula) -> list[Diagnostic]:
    """Collect structural diagnostics for a formula.

    Errors: nesting deeper than ``MAX_DEPTH`` (reported alone, since the
    other checks recurse), empty or self-rebinding quantifier blocks, n-ary
    connectives with fewer than two operands, and any prefix whose
    structure fails ``prefix_diagnostics``.  Shadowing an *outer* binder is
    legal and comes back as a warning.
    """
    if formula_depth(f) > MAX_DEPTH:
        return [Diagnostic("error", TOO_DEEP)]
    diags: list[Diagnostic] = []

    def binder_names(vs: Sequence[Variable], what: str, bound: frozenset[str]) -> None:
        if not vs:
            diags.append(Diagnostic("error", f"{what} binds no variables"))
        seen: set[str] = set()
        for v in vs:
            if v.name in seen:
                diags.append(Diagnostic("error", f"{what} binds '{v}' twice"))
            seen.add(v.name)
            if v.name in bound:
                diags.append(Diagnostic("warning", f"'{v}' shadows an outer binding"))

    def walk(node: Formula, bound: frozenset[str]) -> None:
        if isinstance(node, (And, Or)) and len(node.items) < 2:
            kind = "conjunction" if isinstance(node, And) else "disjunction"
            diags.append(Diagnostic("error", f"n-ary {kind} with {len(node.items)} operands"))
        if isinstance(node, (ForAll, Exists)):
            what = "forall" if isinstance(node, ForAll) else "exists"
            binder_names(node.variables, f"'{what}' block", bound)
            bound = bound | {v.name for v in node.variables}
        if isinstance(node, Branch):
            diags.extend(prefix_diagnostics(node.prefix))
            if not node.prefix.universals:
                diags.append(Diagnostic("error", "branched prefix binds no universals"))
            if not node.prefix.existentials:
                diags.append(Diagnostic("error", "branched prefix binds no existentials"))
            names = node.prefix.bound()
            seen: set[str] = set()
            for v in names:
                if v.name in bound and v.name not in seen:
                    diags.append(Diagnostic("warning", f"'{v}' shadows an outer binding"))
                seen.add(v.name)
            bound = bound | {v.name for v in names}
        for g in _children(node):
            walk(g, bound)

    walk(f, frozenset())
    return diags

