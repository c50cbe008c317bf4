"""Brute-force search for finite models separating two words.

Everything here speaks the language of letters acting on a finite set:
a model of size m assigns each letter a function {0..m-1} -> {0..m-1},
a word acts by composing its letters with the rightmost letter applied
first, and a presentation holds when each of its equations acts
identically on every point.  A witness for a query ``v = w`` is a model
of the presentation plus a point where v and w act differently.

This module never touches the formula machinery.  That separation is
the point: its verdicts come from a different route entirely, so they
can cross-check the compiled sentences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget
from .words import Equation, Presentation

__all__ = ["Witness", "apply_word", "check_witness", "find_witness"]


def apply_word(word: str, point: int, tables: dict[str, tuple[int, ...]]) -> int:
    """Act on a point by a word, rightmost letter first."""
    for ch in reversed(word):
        point = tables[ch][point]
    return point


def _equations_hold(equations, size: int, tables: dict[str, tuple[int, ...]]) -> bool:
    """Whether each equation's two words act alike on every point."""
    for eq in equations:
        for x in range(size):
            if apply_word(eq.lhs, x, tables) != apply_word(eq.rhs, x, tables):
                return False
    return True


@dataclass(frozen=True, slots=True)
class Witness:
    """A separating model: letter tables over {0..size-1} and a point."""

    size: int
    tables: dict[str, tuple[int, ...]]
    point: int

    def format(self) -> str:
        lines = []
        for ch in sorted(self.tables):
            cells = " ".join(f"{x}->{fx}" for x, fx in enumerate(self.tables[ch]))
            lines.append(f"{ch}: {cells}")
        lines.append(f"point: {self.point}")
        return "\n".join(lines)


def check_witness(presentation: Presentation, query: Equation, witness: Witness) -> bool:
    """Verify a witness: well-formed tables, equations hold, words separate.

    Malformed witnesses (wrong table length, out-of-range values, missing
    letters, bad point) raise ValueError; a well-formed witness that simply
    fails a condition returns False.
    """
    size = witness.size
    if size < 1:
        raise ValueError("witness size must be positive")
    if not 0 <= witness.point < size:
        raise ValueError(f"witness point {witness.point} outside [0, {size})")
    needed = presentation.alphabet | query.letters()
    missing = sorted(needed - set(witness.tables))
    if missing:
        raise ValueError("witness lacks tables for: " + ", ".join(missing))
    for ch, table in witness.tables.items():
        if len(table) != size:
            raise ValueError(f"table for '{ch}' has {len(table)} cells, expected {size}")
        for val in table:
            if not 0 <= val < size:
                raise ValueError(f"table for '{ch}' maps outside [0, {size})")
    tables, point = witness.tables, witness.point
    return _equations_hold(presentation.equations, size, tables) and (
        apply_word(query.lhs, point, tables) != apply_word(query.rhs, point, tables)
    )


def find_witness(
    presentation: Presentation,
    query: Equation,
    size: int,
    budget: Budget | None = None,
) -> Witness | None:
    """First separating model of the given size, in enumeration order.

    Letters are assigned tables in alphabetical order, each table drawn
    from the lexicographic enumeration of functions.  An equation is
    checked as soon as its last letter receives a table, pruning the rest
    of that subtree.  One budget unit is charged per table assignment.
    """
    if size < 1:
        raise ValueError("size must be positive")
    budget = budget if budget is not None else Budget()
    letters = sorted(presentation.alphabet | query.letters())
    index = {ch: i for i, ch in enumerate(letters)}
    ready: list[list[Equation]] = [[] for _ in letters]
    for eq in presentation.equations:
        ready[max(index[ch] for ch in eq.letters())].append(eq)
    tables: dict[str, tuple[int, ...]] = {}

    def assign(d: int) -> Witness | None:
        if d == len(letters):
            for x in range(size):
                if apply_word(query.lhs, x, tables) != apply_word(query.rhs, x, tables):
                    return Witness(size, dict(tables), x)
            return None
        ch = letters[d]
        for table in itertools.product(range(size), repeat=size):
            budget.charge()
            tables[ch] = table
            if _equations_hold(ready[d], size, tables):
                found = assign(d + 1)
                if found is not None:
                    return found
        del tables[ch]
        return None

    return assign(0)
