"""Brute-force search for finite models separating two words.

Everything here speaks the language of letters acting on a finite set:
a model of size m assigns each letter a function {0..m-1} -> {0..m-1},
a word acts by composing its letters with the rightmost letter applied
first, and a presentation holds when each of its equations acts
identically on every point.  A witness for a query ``v = w`` is a model
of the presentation plus a point where v and w act differently.

One walk over letter positions, resolved once per search, reads both the
equations and the query; the enumeration, the node rule and the first
witness are the ones ``find_witness`` describes.  This module never
touches the formula machinery.  That separation is the point: its verdicts
come from a different route entirely, so they can cross-check the compiled
sentences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget, whole
from .words import Equation, Presentation

__all__ = ["Witness", "apply_word", "check_witness", "find_witness"]


def apply_word(word: str, point: int, tables: dict[str, tuple[int, ...]]) -> int:
    """Act on a point by a word, rightmost letter first."""
    for ch in reversed(word):
        point = tables[ch][point]
    return point


def _steps(equations, letters) -> list[tuple[tuple[int, ...], ...]]:
    """Each equation's two words as positions in ``letters``, rightmost letter first."""
    index = {ch: i for i, ch in enumerate(letters)}
    words = [(eq.lhs, eq.rhs) for eq in equations]
    return [tuple(tuple(index[ch] for ch in word[::-1]) for word in pair) for pair in words]


def _separation(steps, size: int, tables: list[tuple[int, ...]]) -> int | None:
    """First point where a step's two words, as positions into ``tables``, act differently."""
    for lhs, rhs in steps:
        for x in range(size):
            y = z = x
            for i in lhs:
                y = tables[i][y]
            for i in rhs:
                z = tables[i][z]
            if y != z:
                return x
    return None


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
    size = whole(witness.size, "witness size", 1)
    whole(witness.point, "witness point", 0, size)
    needed = presentation.alphabet | query.letters()
    missing = sorted(needed - set(witness.tables))
    if missing:
        raise ValueError("witness lacks tables for: " + ", ".join(missing))
    for ch, table in witness.tables.items():
        if len(table) != size:
            raise ValueError(f"table for '{ch}' has {len(table)} cells, expected {size}")
        for x, val in enumerate(table):
            whole(val, f"table for '{ch}' at {x}", 0, size)
    tables, point = witness.tables, witness.point
    holds = _separation(_steps(presentation.equations, tables), size, [*tables.values()]) is None
    return holds and apply_word(query.lhs, point, tables) != apply_word(query.rhs, point, tables)


def find_witness(
    presentation: Presentation,
    query: Equation,
    size: int,
    budget: Budget | None = None,
) -> Witness | None:
    """First separating model of the given size, in enumeration order.

    Letters are assigned tables in alphabetical order, each table drawn
    from the lexicographic enumeration of functions.  One walk over letter
    positions resolved once per search reads an equation as soon as its last
    letter receives a table, pruning that subtree, and the query, for its
    first separating point, once every letter has one.  One node of budget
    is charged per table tried, and this order decides the first witness.
    """
    whole(size, "size", 1)
    budget = budget if budget is not None else Budget()
    letters = sorted(presentation.alphabet | query.letters())
    ready: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in letters]
    for step in _steps(presentation.equations, letters):
        ready[max(step[0] + step[1])].append(step)
    probe = _steps([query], letters)
    tables: list[tuple[int, ...]] = [()] * len(letters)

    def assign(d: int) -> Witness | None:
        if d == len(letters):
            x = _separation(probe, size, tables)
            return None if x is None else Witness(size, dict(zip(letters, tables)), x)
        for table in itertools.product(range(size), repeat=size):
            budget.charge()
            tables[d] = table
            if _separation(ready[d], size, tables) is None:
                found = assign(d + 1)
                if found is not None:
                    return found
        return None

    return assign(0)
