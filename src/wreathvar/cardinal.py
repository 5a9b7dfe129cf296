"""Multiplicities of cyclic factors: exact naturals and symbolic alephs.

A cardinal is either ``finite(n)`` for a natural ``n`` or ``aleph(k)``
for a natural index ``k``, with order and maximum.  Cardinals are not
added: ``normalize`` sums the plain ints of finite multiplicities, and an
aleph absorbs them.  A cardinal is the tuple ``(is_infinite, value)``,
which compares in that order, so every finite value sorts below every
aleph and alephs sort by index.  The constructor refuses a negative value.
"""

from __future__ import annotations

import collections


class Cardinal(collections.namedtuple("Cardinal", "is_infinite value")):
    """A finite natural number or an aleph with a natural index."""

    __slots__ = ()

    def __new__(cls, is_infinite: bool, value: int) -> "Cardinal":
        if value < 0:
            raise ValueError(f"cardinal value must be >= 0, got {value}")
        return tuple.__new__(cls, (is_infinite, value))

    @classmethod
    def finite(cls, n: int) -> "Cardinal":
        return cls(False, n)

    @classmethod
    def aleph(cls, index: int = 0) -> "Cardinal":
        return cls(True, index)

    def as_int(self) -> int:
        """The natural behind a finite cardinal; rejects alephs."""
        if self.is_infinite:
            raise ValueError(f"{self} is not finite")
        return self.value

    def render(self) -> str:
        if self.is_infinite:
            return f"aleph_{self.value}"
        return str(self.value)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        if self.is_infinite:
            return f"Cardinal.aleph({self.value})"
        return f"Cardinal.finite({self.value})"


ZERO = Cardinal.finite(0)
ONE = Cardinal.finite(1)
ALEPH_0 = Cardinal.aleph(0)
