"""Fixed formulas and the fixed presentation used throughout the suite.

The presentation below has seven equations over the letters a-e; the two
big sentences encode its word problem with branched prefixes in two
shapes.  The first uses twelve independent rows, two per function symbol
(for the five letters and the composite cc); the second gets away with
two universals by hanging ten existentials off the first and eight off
the second.  Every conjunct of both is a labeled rule, stated by ``_rule``
as two lists of name pairs: the equalities of the first imply those of the
second.  The labels let tests point at the exact clause that fails.

``infinity_sentence`` is the classic branched sentence that is true
exactly on infinite domains (an injective, non-surjective pairing forced
by one equivalence and one avoided value), so its negation is a sentence
true on every finite domain and no infinite one.
"""

from __future__ import annotations

from .evaluator import table_failures
from .reducer import separation_clauses
from .syntax import (
    And,
    Branch,
    Exists,
    Formula,
    HenkinPrefix,
    Iff,
    Implies,
    Not,
    Variable,
    conjoin,
    equal,
    not_equal,
)
from .words import Equation, Presentation

__all__ = [
    "ceitin_presentation",
    "ceitin_h12_prefix",
    "ceitin_h12_clauses",
    "ceitin_h12",
    "ceitin_h12_with_query",
    "ceitin_e10_prefix",
    "ceitin_e10_clauses",
    "ceitin_e10",
    "infinity_sentence",
    "ehrenfeucht_finiteness",
    "identity_check_failures",
]


def ceitin_presentation() -> Presentation:
    return Presentation.of(
        [
            ("ac", "ca"),
            ("ad", "da"),
            ("bc", "cb"),
            ("bd", "db"),
            ("eca", "ce"),
            ("edb", "de"),
            ("cca", "ccae"),
        ]
    )


_H12_KEYS = ("a", "b", "c", "d", "e", "cc")


def ceitin_h12_prefix() -> HenkinPrefix:
    universals = []
    existentials = []
    deps = []
    for key in _H12_KEYS:
        for mark in ("", "'"):
            x = Variable(f"x{mark}_{key}")
            universals.append(x)
            existentials.append(Variable(f"y{mark}_{key}"))
            deps.append((x,))
    return HenkinPrefix(tuple(universals), tuple(existentials), tuple(deps))


def _rule(
    label: str, premises: list[tuple[str, str]], conclusions: list[tuple[str, str]]
) -> tuple[str, Formula]:
    """The labeled clause "the premise equalities imply the conclusion ones".

    Each side is a list of name pairs; one pair stands as its bare atom.
    """
    lhs = conjoin(equal(a, b) for a, b in premises)
    return label, Implies(lhs, conjoin(equal(a, b) for a, b in conclusions))


def ceitin_h12_clauses() -> list[tuple[str, Formula]]:
    """The twelve-row matrix, one labeled rule at a time.

    Each function symbol q owns two rows (x_q, y_q) and (x'_q, y'_q); the
    one-function rules glue each pair into a single unary function, the
    compose rule defines cc as c applied twice, and each relation rule
    asserts one equation of the presentation at an arbitrary point.  The
    four commutations pq = qp are one template: when the first rows of p
    and q start at one point t and each second row starts where the other
    letter's first row ends, the second rows end alike, p(q(t)) = q(p(t)).
    """
    out = [
        _rule(f"one-function:{k}", [(f"x_{k}", f"x'_{k}")], [(f"y_{k}", f"y'_{k}")])
        for k in _H12_KEYS
    ]
    out.append(_rule("compose:cc", [("x_c", "x_cc"), ("y_c", "x'_c")], [("y'_c", "y_cc")]))
    for p, q in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
        premises = [(f"x_{p}", f"x_{q}"), (f"x'_{p}", f"y_{q}"), (f"x'_{q}", f"y_{p}")]
        out.append(_rule(f"relation:{p}{q}={q}{p}", premises, [(f"y'_{q}", f"y'_{p}")]))
    out += [
        _rule(
            "relation:eca=ce",
            [("x_a", "x'_e"), ("y_a", "x_c"), ("y'_e", "x'_c"), ("x_e", "y_c")],
            [("y_e", "y'_c")],
        ),
        _rule(
            "relation:edb=de",
            [("x_b", "x'_e"), ("y_b", "x_d"), ("y_d", "x_e"), ("y'_e", "x'_d")],
            [("y_e", "y'_d")],
        ),
        _rule(
            "relation:cca=ccae",
            [("x_a", "x'_e"), ("y_a", "x_cc"), ("y'_e", "x'_a"), ("y'_a", "x'_cc")],
            [("y_cc", "y'_cc")],
        ),
    ]
    return out


def ceitin_h12() -> Branch:
    clauses = ceitin_h12_clauses()
    return Branch(ceitin_h12_prefix(), And(tuple(f for _, f in clauses)))


def ceitin_h12_with_query(query: Equation) -> Exists:
    """The twelve-row sentence extended with a separation spine for a query.

    The designated row for each query letter is its unprimed row, so the
    query may only use the letters a-e.
    """
    extra = sorted(query.letters() - set("abcde"))
    if extra:
        raise ValueError("query letters must be among a-e, got: " + ", ".join(extra))
    designated = {ch: (Variable(f"x_{ch}"), Variable(f"y_{ch}")) for ch in "abcde"}
    spine, trace = separation_clauses(query, designated)
    matrix = And(tuple(f for _, f in ceitin_h12_clauses() + trace))
    return Exists(spine, Branch(ceitin_h12_prefix(), matrix))


_E10_ROW1 = ("y_a", "y_ca", "y_da", "y_b", "y_cb", "y_db", "y_e", "y_eca", "y_de", "y_cca")
_E10_ROW2 = ("y_c", "y_ac", "y_d", "y_ad", "y_bc", "y_bd", "y'_e", "y'_cca")


def ceitin_e10_prefix() -> HenkinPrefix:
    x1, x2 = Variable("x1"), Variable("x2")
    existentials = tuple(Variable(name) for name in _E10_ROW1 + _E10_ROW2)
    deps = ((x1,),) * len(_E10_ROW1) + ((x2,),) * len(_E10_ROW2)
    return HenkinPrefix((x1, x2), existentials, deps)


def ceitin_e10_clauses() -> list[tuple[str, Formula]]:
    """The two-universal matrix.

    Subscripts name the word each existential traces from its universal,
    so y_ca stands for the action of ca on x1 and y_ac for the action of
    ac on x2.  The compose clauses make those readings true, the
    one-function clauses identify the doubled symbols across the two rows,
    and the relation clauses assert the equations.
    """
    return [
        _rule("compose:ca", [("y_a", "x2")], [("y_c", "y_ca")]),
        _rule("compose:ac", [("y_c", "x1")], [("y_a", "y_ac")]),
        _rule("compose:da", [("y_a", "x2")], [("y_da", "y_d")]),
        _rule("compose:ad", [("y_d", "x1")], [("y_ad", "y_a")]),
        _rule("compose:cb", [("y_b", "x2")], [("y_cb", "y_c")]),
        _rule("compose:bc", [("y_c", "x1")], [("y_b", "y_bc")]),
        _rule("compose:db", [("y_b", "x2")], [("y_db", "y_d")]),
        _rule("compose:bd", [("y_d", "x1")], [("y_bd", "y_b")]),
        _rule("one-function:e", [("x1", "x2")], [("y_e", "y'_e")]),
        _rule("compose:eca", [("y_ca", "x2")], [("y_eca", "y'_e")]),
        _rule("compose:de", [("y_e", "x2")], [("y_de", "y_d")]),
        _rule("compose:cca", [("y_ca", "x2")], [("y_cca", "y_c")]),
        _rule("one-function:cca", [("x1", "x2")], [("y_cca", "y'_cca")]),
        _rule(
            "relation:ac=ca,ad=da,bc=cb,bd=db",
            [("x1", "x2")],
            [("y_ca", "y_ac"), ("y_ad", "y_da"), ("y_bc", "y_cb"), ("y_db", "y_bd")],
        ),
        _rule("relation:eca=ce", [("y_e", "x2")], [("y_eca", "y_c")]),
        _rule("relation:edb=de", [("y_db", "x2")], [("y_de", "y'_e")]),
        _rule("relation:cca=ccae", [("y_e", "x2")], [("y_cca", "y'_cca")]),
    ]


def ceitin_e10() -> Branch:
    clauses = ceitin_e10_clauses()
    return Branch(ceitin_e10_prefix(), And(tuple(f for _, f in clauses)))


def infinity_sentence() -> Exists:
    """True exactly on infinite domains.

    The branched prefix picks unary y(x) and w(z); the equivalence forces
    them to be one injective function, and the avoided value t makes that
    function miss a point.  No finite set carries such a function.
    """
    x, z = Variable("x"), Variable("z")
    y, w = Variable("y"), Variable("w")
    prefix = HenkinPrefix((x, z), (y, w), ((x,), (z,)))
    matrix = And((Iff(equal(y, w), equal(x, z)), not_equal("t", "y")))
    return Exists((Variable("t"),), Branch(prefix, matrix))


def ehrenfeucht_finiteness() -> Not:
    """True on every finite domain, false on every infinite one."""
    return Not(infinity_sentence())


def identity_check_failures(
    clauses: list[tuple[str, Formula]], prefix: HenkinPrefix, size: int
) -> list[str]:
    """Labels of clauses that fail under identity tables.

    Every existential of ``prefix`` must depend on exactly one universal;
    the check sets it equal to that universal.  The clauses are checked by
    the reference engine's loop (``evaluator.table_failures``), so the
    fixtures are not checked by the search engine they exist to test.  A
    correctly built matrix over these fixtures passes for every clause; a
    nonempty result names the conjunct that was mangled.
    """
    for e, ds in zip(prefix.existentials, prefix.deps):
        if len(ds) != 1:
            raise ValueError(f"existential '{e}' does not have exactly one dependency")
    identity = {(v,): v for v in range(size)}
    tables = {e.name: identity for e in prefix.existentials}
    return table_failures(prefix, clauses, tables, size)
