"""Multiplicities of cyclic factors: exact naturals and symbolic alephs.

Only order, maximum and sum are needed anywhere in the library, so a
cardinal is either ``finite(n)`` for a natural ``n`` or ``aleph(k)`` for a
natural index ``k``.  Every finite value sorts below every aleph, alephs
sort by index, and addition absorbs into the larger operand as soon as
one side is infinite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

_ALEPH_RE = re.compile(r"\Aaleph(?:_([0-9]+))?\Z")


@total_ordering
@dataclass(frozen=True)
class Cardinal:
    """A finite natural number or an aleph with a natural index."""

    infinite: bool
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"cardinal value must be >= 0, got {self.value}")

    @classmethod
    def finite(cls, n: int) -> "Cardinal":
        return cls(False, n)

    @classmethod
    def aleph(cls, index: int = 0) -> "Cardinal":
        return cls(True, index)

    @classmethod
    def parse(cls, text: str) -> "Cardinal":
        """Inverse of :meth:`render`; bare ``aleph`` normalizes to ``aleph_0``."""
        text = text.strip()
        if text.isascii() and text.isdigit():
            return cls.finite(int(text))
        m = _ALEPH_RE.match(text)
        if m is None:
            raise ValueError(f"not a cardinal: {text!r}")
        return cls.aleph(int(m.group(1) or 0))

    @property
    def is_infinite(self) -> bool:
        return self.infinite

    def as_int(self) -> int:
        """The natural behind a finite cardinal; rejects alephs."""
        if self.infinite:
            raise ValueError(f"{self} is not finite")
        return self.value

    def _key(self) -> tuple[int, int]:
        return (1 if self.infinite else 0, self.value)

    def __lt__(self, other: "Cardinal") -> bool:
        if not isinstance(other, Cardinal):
            return NotImplemented
        return self._key() < other._key()

    def __add__(self, other: "Cardinal") -> "Cardinal":
        if not isinstance(other, Cardinal):
            return NotImplemented
        if not self.infinite and not other.infinite:
            return Cardinal.finite(self.value + other.value)
        return max(self, other)

    def render(self) -> str:
        if self.infinite:
            return f"aleph_{self.value}"
        return str(self.value)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        if self.infinite:
            return f"Cardinal.aleph({self.value})"
        return f"Cardinal.finite({self.value})"


ZERO = Cardinal.finite(0)
ONE = Cardinal.finite(1)
ALEPH_0 = Cardinal.aleph(0)
