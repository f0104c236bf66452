"""Shared exception types, the one rule for integer arguments, and `_philox_at`.

Every count a public function takes (n bits, the m of the counting
identities, trials, restarts, step counts, seeds) is read by `_integer`: an
integer by operator.index, so a float is a TypeError and a numpy integer
becomes a Python int, and a bool is a TypeError too.  `_at_least` adds the
one lower-bound check, whose ValueError names the argument and its value.
"""

from __future__ import annotations

import operator


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


def _integer(value: int) -> int:
    """`value` as a Python int by operator.index, which refuses a float; a bool is refused too."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _at_least(value: int, least: int, name: str) -> int:
    """`value` by _integer; ValueError naming `name` when it is below `least`."""
    value = _integer(value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _philox_key(seed: int) -> int:
    """`seed` as a Philox key word: TypeError unless an integer, ValueError outside 0..2^64 - 1."""
    seed = _integer(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in 0..2**64 - 1, got {seed}")
    return seed


def _philox_at(bits, key: tuple[int, int], word: int):
    """numpy Philox `bits`, placed so its next raw draw is word `word` of the stream under `key`.

    Every Monte Carlo stream is Philox4x64-10 (Salmon et al., SC'11) under two 64-bit key
    words: the walk's is (seed, 0), numpy's Philox(key=seed), and simulator cell c's is
    (seed, c).  Counter c with an empty buffer next yields words 4c..4c + 3, which numpy keeps
    stable across versions, so `bits` gets counter word // 4 and skips word % 4 words.
    """
    bits.state = {  # one dict literal: this runs once per simulator cell
        "bit_generator": "Philox",
        "state": {"counter": (word // 4, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if word % 4:
        bits.random_raw(word % 4)
    return bits
