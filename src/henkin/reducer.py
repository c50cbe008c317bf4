"""Compile word-separation queries into branched-prefix sentences.

Given a presentation E and a query equation ``v = w``, ``compile`` builds
a sentence that is true on a domain of size m exactly when some size-m
model of E separates v from w at a point.  The shape:

* One prefix row per letter occurrence in E's equations, plus one
  designated row per distinct letter of the query.  ``syntax.build_hn``
  makes each row a ``forall x exists y(x)`` pair, so its choice table is
  a unary function; rows that carry the same letter are forced to agree
  as functions.

* An outer existential spine t0..tl, s0..sk traces the action of v and w
  letter by letter: t_l = s_k is the common start point, t_0 and s_0 the
  two results, and the last clause demands they differ.

The row variables are named by position: equation i's left word gets
rows (x{i}_{j}, y{i}_{j}), its right word (z{i}_{j}, r{i}_{j}), and the
designated row for query letter c is (u_c, e_c).  Words act rightmost
letter first, so row j feeds row j-1: the chain constraints equate each
row's universal with the next row's existential.

The matrix is one flat conjunction of labeled clauses, in this order:
``same-letter:c:X,Y`` for each pair of rows X, Y (named by their
universals) carrying letter c, ``equation:i`` for equation i (from 1),
``trace:tj`` and ``trace:sj`` for the step from t_j to t_{j-1} (s_j to
s_{j-1}), ``start``, and last ``separate``, the disequation t0 != s0.
``sentence`` is the one place a labeled clause list becomes a sentence,
for ``compile`` and for every Ceitin fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Branch,
    Exists,
    Formula,
    HenkinPrefix,
    Implies,
    Variable,
    build_hn,
    conjoin,
    equal,
    not_equal,
)
from .words import Equation, Presentation

__all__ = [
    "plan_rows",
    "clauses",
    "separation_clauses",
    "sentence",
    "compile",
]

Clauses = list[tuple[str, Formula]]


@dataclass(frozen=True, slots=True)
class PlanRow:
    universal: Variable
    existential: Variable
    letter: str


@dataclass(frozen=True, slots=True)
class RowPlan:
    """The row layout for one compiled instance: each equation's (left
    word rows, right word rows), then the query's designated rows."""

    equations: tuple[tuple[tuple[PlanRow, ...], tuple[PlanRow, ...]], ...]
    designated: tuple[PlanRow, ...]

    @property
    def rows(self) -> tuple[PlanRow, ...]:
        """Every row in prefix order."""
        return tuple(r for lhs, rhs in self.equations for r in lhs + rhs) + self.designated


def _word_rows(word: str, uni: str, ex: str, i: int) -> tuple[PlanRow, ...]:
    return tuple(
        PlanRow(Variable(f"{uni}{i}_{j}"), Variable(f"{ex}{i}_{j}"), ch)
        for j, ch in enumerate(word, start=1)
    )


def plan_rows(presentation: Presentation, query: Equation) -> RowPlan:
    equations = tuple(
        (_word_rows(eq.lhs, "x", "y", i), _word_rows(eq.rhs, "z", "r", i))
        for i, eq in enumerate(presentation.equations, start=1)
    )
    letters = dict.fromkeys(query.lhs + query.rhs)
    designated = tuple(PlanRow(Variable(f"u_{ch}"), Variable(f"e_{ch}"), ch) for ch in letters)
    return RowPlan(equations, designated)


def clauses(plan: RowPlan) -> Clauses:
    """The ``same-letter`` clauses, then one ``equation`` clause per equation.

    Same-letter: one implication per unordered pair of rows carrying one
    letter, in row order; equal inputs force equal outputs, so the rows
    compute one function.  Equation i: given the chain links of both
    words, equal start points force equal end points.
    """
    rows = plan.rows
    out: Clauses = []
    for a, r in enumerate(rows):
        for q in rows[a + 1 :]:
            if r.letter == q.letter:
                agree = Implies(equal(r.universal, q.universal), equal(r.existential, q.existential))
                out.append((f"same-letter:{r.letter}:{r.universal.name},{q.universal.name}", agree))
    for i, (lhs, rhs) in enumerate(plan.equations, start=1):
        chain = [equal(a.universal, b.existential) for w in (lhs, rhs) for a, b in zip(w, w[1:])]
        inner = Implies(
            equal(lhs[-1].universal, rhs[-1].universal),
            equal(lhs[0].existential, rhs[0].existential),
        )
        out.append((f"equation:{i}", Implies(conjoin(chain), inner) if chain else inner))
    return out


def separation_clauses(
    query: Equation, designated: dict[str, tuple[Variable, Variable]]
) -> tuple[tuple[Variable, ...], Clauses]:
    """The spine t0..tl, s0..sk and the clauses tracing both query words.

    ``designated`` maps each query letter to the (universal, existential)
    pair of its designated row.  ``trace:tj`` pins the step from t_j to
    t_{j-1} by the left word's letter j; likewise ``trace:sj`` for the
    right word.  ``start`` equates the start points and ``separate``,
    last, separates the ends; a query letter with no designated row is a ValueError.
    """
    missing = sorted(query.letters() - set(designated or ()))
    if missing:
        raise ValueError("no designated row for query letter: " + ", ".join(missing))
    t = tuple(Variable(f"t{j}") for j in range(len(query.lhs) + 1))
    s = tuple(Variable(f"s{j}") for j in range(len(query.rhs) + 1))
    out: Clauses = []
    for spine, word in ((t, query.lhs), (s, query.rhs)):
        for j, ch in enumerate(word, start=1):
            u, e = designated[ch]
            step = Implies(equal(u, spine[j]), equal(e, spine[j - 1]))
            out.append((f"trace:{spine[j].name}", step))
    out.append(("start", equal(t[-1], s[-1])))
    out.append(("separate", not_equal(t[0], s[0])))
    return t + s, out


def sentence(prefix: HenkinPrefix, matrix: Clauses, query=None, designated=None) -> Branch | Exists:
    """``prefix`` over the labeled clauses' formulas, conjoined in order.  With
    a query, the ``separation_clauses`` for it and ``designated`` go last and
    their spine binds the whole."""
    if query is None:
        return Branch(prefix, And(tuple(f for _, f in matrix)))
    spine, trace = separation_clauses(query, designated)
    return Exists(spine, sentence(prefix, matrix + trace))


def compile(presentation: Presentation, query: Equation) -> Exists:
    """The full sentence for one separation instance."""
    plan = plan_rows(presentation, query)
    prefix = build_hn((r.universal, r.existential) for r in plan.rows)
    designated = {r.letter: (r.universal, r.existential) for r in plan.designated}
    return sentence(prefix, clauses(plan), query, designated)
