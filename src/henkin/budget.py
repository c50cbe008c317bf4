"""Node budgets shared by the search engines.

Every searcher in this package (both formula engines and the semigroup
oracle) counts the nodes it explores against a ``Budget``.  Running out is
an explicit third outcome, signalled by ``BudgetExceeded`` -- it must never
be confused with a ``False`` result.
"""

from __future__ import annotations

DEFAULT_BUDGET = 50_000_000


class BudgetExceeded(RuntimeError):
    """A search consumed its node budget before reaching a verdict."""

    def __init__(self, limit: int, at_size: int | None = None, route: str | None = None):
        self.limit = limit
        self.at_size = at_size
        message = f"search budget of {limit} nodes exceeded"
        if at_size is not None:
            message += f" at domain size {at_size}"
        if route is not None:
            message += f" in {route}"
        super().__init__(message)


class Budget:
    """A mutable countdown of search nodes.

    One instance bounds one logical task; pass the same object to several
    calls to make them share a single allowance.
    """

    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        if limit < 0:
            raise ValueError("budget must be nonnegative")
        self.limit = limit
        self.remaining = limit

    def charge(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded(self.limit)

    @property
    def spent(self) -> int:
        return self.limit - self.remaining

    def __repr__(self) -> str:
        return f"Budget(limit={self.limit}, remaining={self.remaining})"
