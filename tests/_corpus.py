"""Shared corpora: named formulas and instances used across the suite.

Everything here is deterministic.  The random generators take fixed seeds
and the corpus lists are frozen by the tests that consume them, so a run
today and a run next year exercise the same formulas.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from henkin import (
    FALSE,
    TRUE,
    And,
    Branch,
    EqualAtom,
    Equation,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Presentation,
    Variable,
    ceitin_e10,
    ceitin_h12,
    ehrenfeucht_finiteness,
    equal,
    infinity_sentence,
    mk_prefix,
    parse_formula,
)
from henkin import reducer

HANDWRITTEN = [
    ("exists-refl", "exists t . t = t"),
    ("branch-identity", "H{ forall x ; y(x) } . y = x"),
    ("branch-const-cell", "H{ forall x ; y() } . y = x"),
    ("outer-frozen", "forall a . H{ forall x ; y(x) } . y = a"),
    ("inner-starved", "H{ forall a x ; y(x) } . y = a"),
    ("dep-order", "H{ forall x z ; y(x z), w(z x) } . (y = w <-> x = z)"),
    ("mixed-spine", "exists u . forall x . exists y . y = x & u = u"),
    ("excluded-middle", "forall x z . (x = z | x != z)"),
    ("pairing-no-gap", "H{ forall x z ; y(x), w(z) } . (y = w <-> x = z)"),
    ("constants", "true & ~false"),
    ("two-elements", "exists a b . a != b"),
    ("moving-point", "forall x . exists y . y != x"),
    ("iff-chain", "forall x . (x = x <-> true <-> true)"),
    ("or-nesting", "forall a b . (a = b | (a != b | false))"),
    ("nested-branch", "H{ forall x ; y(x) } . H{ forall z ; w(z) } . w = y"),
]


def handwritten_sentences() -> list[tuple[str, Formula]]:
    return [(name, parse_formula(text)) for name, text in HANDWRITTEN]


def _random_matrix(rng: random.Random, variables: list[Variable], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        a, b = rng.choice(variables), rng.choice(variables)
        atom = EqualAtom(a, b)
        return Not(atom) if rng.random() < 0.3 else atom
    kind = rng.choice(["and", "or", "implies", "iff", "not"])
    if kind == "not":
        return Not(_random_matrix(rng, variables, depth - 1))
    left = _random_matrix(rng, variables, depth - 1)
    right = _random_matrix(rng, variables, depth - 1)
    if kind == "and":
        return And((left, right))
    if kind == "or":
        return Or((left, right))
    if kind == "implies":
        return Implies(left, right)
    return Iff(left, right)


def random_branch_sentences(count: int = 10, seed: int = 2025) -> list[tuple[str, Formula]]:
    """Small closed branched sentences: at most two universals and two
    existentials, dependency arity at most two."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        nuni = rng.randint(1, 2)
        nexi = rng.randint(1, 2)
        uni = [Variable(f"x{j}") for j in range(1, nuni + 1)]
        exi = [Variable(f"y{j}") for j in range(1, nexi + 1)]
        deps = {e: tuple(rng.sample(uni, rng.randint(0, nuni))) for e in exi}
        prefix = mk_prefix(uni, exi, deps)
        matrix = _random_matrix(rng, uni + exi, depth=2)
        out.append((f"random-branch-{i}", Branch(prefix, matrix)))
    return out


TINY_INSTANCES = [
    ([], ("a", "a")),
    ([], ("a", "b")),
    ([("aa", "a")], ("a", "a")),
    ([("aa", "a")], ("aa", "a")),
]


def compiled_sentences() -> list[tuple[str, Formula]]:
    out = []
    for eqs, (lhs, rhs) in TINY_INSTANCES:
        name = "compiled:{" + ",".join(f"{a}={b}" for a, b in eqs) + "}" + f":{lhs}={rhs}"
        sentence = reducer.compile(Presentation.of(eqs), Equation(lhs, rhs))
        out.append((name, sentence))
    return out


def fixture_sentences() -> list[tuple[str, Formula]]:
    return [
        ("ceitin-h12", ceitin_h12()),
        ("ceitin-e10", ceitin_e10()),
        ("finiteness", ehrenfeucht_finiteness()),
        ("infinity", infinity_sentence()),
    ]


def agreement_corpus() -> list[tuple[str, Formula]]:
    """Closed formulas both engines must agree on: at least thirty."""
    return (
        fixture_sentences()
        + handwritten_sentences()
        + random_branch_sentences()
        + compiled_sentences()
    )


# Instances for the dual-route comparison, with the smallest separating
# size up to 3 (None: no size up to 3 works).  The first three values are
# pinned by hand; the rest were derived with the brute-force oracle and
# double-checked by hand before being frozen here.
CROSSCHECK_INSTANCES = [
    ([("aa", "a"), ("bb", "b")], ("ab", "ba"), 2),
    ([], ("a", "a"), None),
    ([("ab", "ba")], ("ab", "ba"), None),
    ([], ("a", "b"), 2),
    ([], ("ab", "ba"), 2),
    ([("aa", "a")], ("aa", "a"), None),
    ([("ab", "a")], ("ab", "a"), None),
    ([("aa", "b")], ("ab", "ba"), None),
    ([("ab", "b")], ("ab", "ba"), 3),
    ([("ba", "ab")], ("ab", "ba"), None),
    ([("aa", "a")], ("ab", "ba"), 2),
    ([("aba", "a")], ("ab", "ba"), 2),
]


def collapse_cases(count: int = 20, seed: int = 77) -> list[tuple[str, int, Formula]]:
    """Random quantifier-free matrices over x1..xn, y1..yn with n cycling
    through 1, 2, 3.  The collapse tests wrap each matrix in equivalent
    branched and linear prefixes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = i % 3 + 1
        uni = [Variable(f"x{j}") for j in range(1, n + 1)]
        exi = [Variable(f"y{j}") for j in range(1, n + 1)]
        out.append((f"collapse-{i}", n, _random_matrix(rng, uni + exi, depth=2)))
    return out


def all_suite_formulas() -> list[tuple[str, Formula]]:
    """Every formula the suite touches, for the round-trip sweep."""
    out = list(agreement_corpus())
    for name, n, matrix in collapse_cases():
        uni = tuple(Variable(f"x{j}") for j in range(1, n + 1))
        exi = tuple(Variable(f"y{j}") for j in range(1, n + 1))
        full = mk_prefix(uni, exi, {e: uni for e in exi})
        tri = mk_prefix(uni, exi, {exi[j]: uni[: j + 1] for j in range(n)})
        out.append((f"{name}-full", Branch(full, matrix)))
        out.append((f"{name}-triangular", Branch(tri, matrix)))
        out.append((f"{name}-linear", ForAll(uni, Exists(exi, matrix))))
        alternating = matrix
        for j in range(n - 1, -1, -1):
            alternating = ForAll((uni[j],), Exists((exi[j],), alternating))
        out.append((f"{name}-alternating", alternating))
    return out


NAMES = ("x", "y", "u", "w")
_BLOCK = st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True)


def small_formulas():
    """Formulas over a few names, free ones included, with two- and
    three-operand connectives, linear blocks and one-row branched prefixes
    nested inside each other."""
    leaves = st.one_of(
        st.builds(equal, st.sampled_from(NAMES), st.sampled_from(NAMES)),
        st.sampled_from([TRUE, FALSE]),
    )

    def grow(sub):
        row = st.sampled_from([(), ("u",)])
        items = st.lists(sub, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Not, sub),
            st.builds(And, items),
            st.builds(Or, items),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            st.builds(ForAll, _BLOCK, sub),
            st.builds(Exists, _BLOCK, sub),
            st.builds(lambda deps, b: Branch(mk_prefix(["u"], ["w"], {"w": deps}), b), row, sub),
        )

    return st.recursive(leaves, grow, max_leaves=8)
