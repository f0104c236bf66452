"""Shared exception types."""

from __future__ import annotations


class CostLimitError(RuntimeError):
    """A request exceeded a hard size guard on an exact enumeration.

    Raised instead of silently attempting a computation whose cost grows
    exponentially (or worse) in the problem size.  The CLI maps this to its
    own exit code so scripts can tell "too large" apart from bad usage.

    Every guard passes the same four parts, kept as attributes: `cost`, what
    the request would take; `quantity`, the guarded size's name; `requested`
    and `limit`, its value and the largest accepted.  The message is always
    "<cost>; <quantity> = <requested> exceeds the limit <limit>".
    """

    def __init__(self, cost: str, quantity: str, requested: int, limit: int) -> None:
        super().__init__(f"{cost}; {quantity} = {requested} exceeds the limit {limit}")
        self.cost, self.quantity, self.requested, self.limit = cost, quantity, requested, limit

    def __reduce__(self):  # pickle (e.g. across processes) rebuilds from the four parts
        return type(self), (self.cost, self.quantity, self.requested, self.limit)
