"""Compile word-separation queries into branched-prefix sentences.

Given a presentation E and a query equation ``v = w``, ``compile`` builds
a sentence that is true on a domain of size m exactly when some size-m
model of E separates v from w at a point.  The shape:

* One prefix row per letter occurrence in E's equations, plus one
  designated row per distinct letter of the query.  Each row is a
  ``forall x exists y(x)`` pair, so its choice table is a unary function;
  rows that carry the same letter are forced to agree as functions.

* An outer existential spine t0..tl, s0..sk traces the action of v and w
  letter by letter: t_l = s_k is the common start point, t_0 and s_0 the
  two results, and the final conjunct demands they differ.

The row variables are named by position: equation i's left word gets
rows (x{i}_{j}, y{i}_{j}), its right word (z{i}_{j}, r{i}_{j}), and the
designated row for query letter c is (u_c, e_c).  Words act rightmost
letter first, so row j feeds row j-1: the chain constraints equate each
row's universal with the next row's existential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Branch,
    ConstTrue,
    Exists,
    Formula,
    HenkinPrefix,
    Implies,
    Variable,
    conjoin,
    equal,
    not_equal,
)
from .words import Equation, Presentation

__all__ = [
    "PlanRow",
    "RowPlan",
    "plan_rows",
    "same_letter_constraint",
    "separation_clauses",
    "separation_constraint",
    "compile",
]


@dataclass(frozen=True, slots=True)
class PlanRow:
    universal: Variable
    existential: Variable
    letter: str


@dataclass(frozen=True, slots=True)
class RowPlan:
    """The row layout for one compiled instance."""

    rows: tuple[PlanRow, ...]
    equations: tuple[Equation, ...]
    query: Equation
    t_vars: tuple[Variable, ...]
    s_vars: tuple[Variable, ...]
    lhs_offsets: tuple[int, ...]
    rhs_offsets: tuple[int, ...]
    qstart: int

    @property
    def n(self) -> int:
        return len(self.rows)

    def lhs_rows(self, i: int) -> tuple[PlanRow, ...]:
        start = self.lhs_offsets[i]
        return self.rows[start : start + len(self.equations[i].lhs)]

    def rhs_rows(self, i: int) -> tuple[PlanRow, ...]:
        start = self.rhs_offsets[i]
        return self.rows[start : start + len(self.equations[i].rhs)]


def plan_rows(presentation: Presentation, query: Equation) -> RowPlan:
    rows: list[PlanRow] = []
    lhs_offsets: list[int] = []
    rhs_offsets: list[int] = []
    for i, eq in enumerate(presentation.equations, start=1):
        lhs_offsets.append(len(rows))
        for j, ch in enumerate(eq.lhs, start=1):
            rows.append(PlanRow(Variable(f"x{i}_{j}"), Variable(f"y{i}_{j}"), ch))
        rhs_offsets.append(len(rows))
        for j, ch in enumerate(eq.rhs, start=1):
            rows.append(PlanRow(Variable(f"z{i}_{j}"), Variable(f"r{i}_{j}"), ch))
    qstart = len(rows)
    seen: list[str] = []
    for ch in query.lhs + query.rhs:
        if ch not in seen:
            seen.append(ch)
    for ch in seen:
        rows.append(PlanRow(Variable(f"u_{ch}"), Variable(f"e_{ch}"), ch))
    t_vars = tuple(Variable(f"t{j}") for j in range(len(query.lhs) + 1))
    s_vars = tuple(Variable(f"s{j}") for j in range(len(query.rhs) + 1))
    return RowPlan(
        tuple(rows),
        presentation.equations,
        query,
        t_vars,
        s_vars,
        tuple(lhs_offsets),
        tuple(rhs_offsets),
        qstart,
    )


def same_letter_constraint(plan: RowPlan) -> Formula:
    """Rows carrying one letter compute one function.

    One implication per unordered pair of same-letter rows, in row order:
    equal inputs force equal outputs.
    """
    rows = plan.rows
    clauses = []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if rows[a].letter == rows[b].letter:
                clauses.append(
                    Implies(
                        equal(rows[a].universal, rows[b].universal),
                        equal(rows[a].existential, rows[b].existential),
                    )
                )
    return conjoin(clauses)


def _equation_constraint_at(plan: RowPlan, i: int) -> Formula:
    """The constraint forcing equation i of the plan to hold on its own rows."""
    eq = plan.equations[i]
    lhs = plan.lhs_rows(i)
    rhs = plan.rhs_rows(i)
    chain = []
    for j in range(len(lhs) - 1):
        chain.append(equal(lhs[j].universal, lhs[j + 1].existential))
    for j in range(len(rhs) - 1):
        chain.append(equal(rhs[j].universal, rhs[j + 1].existential))
    inner = Implies(
        equal(lhs[-1].universal, rhs[-1].universal),
        equal(lhs[0].existential, rhs[0].existential),
    )
    if not chain:
        return inner
    return Implies(conjoin(chain), inner)


def separation_clauses(
    query: Equation,
    designated: dict[str, tuple[Variable, Variable]],
    t_vars: tuple[Variable, ...],
    s_vars: tuple[Variable, ...],
) -> list[Formula]:
    """The clause list tracing both query words and demanding separation.

    ``designated`` maps each query letter to the (universal, existential)
    pair of its designated row.  Clause i for the left word pins the step
    from t_i to t_{i-1}; likewise the right word over the s variables.
    The last two clauses equate the start points and separate the ends.
    """
    clauses: list[Formula] = []
    for i, ch in enumerate(query.lhs, start=1):
        u, e = designated[ch]
        clauses.append(Implies(equal(u, t_vars[i]), equal(e, t_vars[i - 1])))
    for i, ch in enumerate(query.rhs, start=1):
        u, e = designated[ch]
        clauses.append(Implies(equal(u, s_vars[i]), equal(e, s_vars[i - 1])))
    clauses.append(equal(t_vars[-1], s_vars[-1]))
    clauses.append(not_equal(t_vars[0], s_vars[0]))
    return clauses


def separation_constraint(query: Equation, plan: RowPlan) -> And:
    designated = {
        row.letter: (row.universal, row.existential) for row in plan.rows[plan.qstart :]
    }
    return And(tuple(separation_clauses(query, designated, plan.t_vars, plan.s_vars)))


def compile(presentation: Presentation, query: Equation) -> Exists:
    """The full sentence for one separation instance."""
    plan = plan_rows(presentation, query)
    prefix = HenkinPrefix(
        tuple(r.universal for r in plan.rows),
        tuple(r.existential for r in plan.rows),
        tuple((r.universal,) for r in plan.rows),
    )
    parts: list[Formula] = []
    agree = same_letter_constraint(plan)
    if not isinstance(agree, ConstTrue):
        parts.append(agree)
    for i in range(len(plan.equations)):
        parts.append(_equation_constraint_at(plan, i))
    parts.append(separation_constraint(query, plan))
    return Exists(plan.t_vars + plan.s_vars, Branch(prefix, conjoin(parts)))
