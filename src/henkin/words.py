"""Finitely presented semigroups: words, equations, presentations.

A word is a nonempty string of lowercase ASCII letters, each letter a
generator.  An equation asserts that two words denote the same element in
every model of the presentation; a presentation is a finite list of such
equations, and its alphabet is the letters they use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["LETTERS", "Equation", "Presentation"]

LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")


def check_word(word: str, what: str = "word") -> str:
    """Validate a word: nonempty, lowercase ASCII letters only."""
    if not isinstance(word, str):
        raise TypeError(f"{what} must be a string, got {type(word).__name__}")
    if not word:
        raise ValueError(f"{what} must be nonempty")
    for ch in word:
        if ch not in LETTERS:
            raise ValueError(f"{what} {word!r} contains {ch!r}; only a-z are generators")
    return word


@dataclass(frozen=True, slots=True)
class Equation:
    """An identity ``lhs = rhs`` between two nonempty words."""

    lhs: str
    rhs: str

    def __post_init__(self):
        check_word(self.lhs, "left side")
        check_word(self.rhs, "right side")

    def letters(self) -> frozenset[str]:
        return frozenset(self.lhs) | frozenset(self.rhs)


@dataclass(frozen=True, slots=True)
class Presentation:
    """A finite semigroup presentation: a list of equations."""

    equations: tuple[Equation, ...]

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        for eq in self.equations:
            if not isinstance(eq, Equation):
                raise TypeError(f"expected an Equation, got {eq!r}")

    @property
    def alphabet(self) -> frozenset[str]:
        """Every letter the equations use."""
        return frozenset().union(*(eq.letters() for eq in self.equations))

    @classmethod
    def of(cls, equations: Iterable[Equation | tuple[str, str]]) -> "Presentation":
        return cls(tuple(e if isinstance(e, Equation) else Equation(*e) for e in equations))
