"""K_p-series of finite abelian p-groups and Shield's wreath-product class formula.

For abelian ``B`` only the power subgroups of the whole group enter the
series: the ``i``-th term is ``B**(p**j)`` for the least ``j`` with
``p**j >= i``, so only ``j = 0..u`` give distinct terms, ``p**u`` being
the exponent of ``B``.  Shield's parameters come straight from the
factors ``C_{p^u_f}^{m_f}`` of ``B``: ``d = p**(u-1)`` (last nontrivial
index), ``e(s)`` (p-logarithms of consecutive quotient orders, zero
unless ``s = p**j``, and ``e(p**j)`` is the number of factors with
``u_f > j``), ``a = 1 + sum_f m_f * (p**u_f - 1)`` and ``b = (p-1) * d``.
The nilpotency class of ``A wr B`` under Baumslag's criterion is
``max_h { a*h + (s(h)-1)*b }`` over the lower central profile ``s(h)`` of
the passive group ``A``.  The library reads the series from ``steps`` and
the factors of ``B``; written out (``kp_series``, ``KpChain``,
``ShieldParams.e``) it is kept for the benchmark only (ROADMAP.md, item 1).
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Optional

from .groupspec import AbelianGroupSpec, PassiveGroupSpec

__all__ = [
    "NotNilpotentError",
    "KpChain",
    "ShieldParams",
    "kp_series",
    "shield_params",
    "baumslag_reason",
    "shield_class",
    "wreath_exponent",
]


class NotNilpotentError(ValueError):
    """The wreath product fails Baumslag's nilpotency criterion."""


class KpChain(collections.namedtuple("KpChain", "p terms")):
    """The distinct terms ``B**(p**j)``, ``j = 0..u``; the last is trivial.
    Read by the benchmark only."""

    __slots__ = ()

    @property
    def d(self) -> int:
        return self.p ** (len(self.terms) - 2)


@dataclass(frozen=True)
class ShieldParams:
    """``a`` and ``steps[j] = e(p**j)``, the nonzero part of ``e``, for the
    prime ``p``; ``d`` and ``b`` follow from them."""

    p: int
    steps: tuple[int, ...]
    a: int

    @property
    def d(self) -> int:
        return self.p ** (len(self.steps) - 1)

    @property
    def b(self) -> int:
        return (self.p - 1) * self.d

    @property
    def e(self) -> tuple[int, ...]:
        """``e(1..d)`` written out, for the benchmark only: length ``d``."""
        e = [0] * self.d
        for j, step in enumerate(self.steps):
            e[self.p**j - 1] = step
        return tuple(e)


def _require_finite_p_group(B: AbelianGroupSpec, p: int) -> None:
    if B.is_trivial():
        raise ValueError("the active group must be nontrivial")
    primes = B.primes()
    if primes != [p]:
        raise ValueError(f"not a {p}-group: primes {primes}")
    if not B.is_finite():
        raise ValueError("the active group must be finite")


def kp_series(B: AbelianGroupSpec, p: int) -> KpChain:
    """The distinct terms of the series of a nontrivial finite abelian
    p-group, for the benchmark only."""
    _require_finite_p_group(B, p)
    terms = [B]
    while not terms[-1].is_trivial():
        terms.append(terms[-1].power(p))
    return KpChain(p, tuple(terms))


def shield_params(B: AbelianGroupSpec, p: int) -> ShieldParams:
    """Shield's parameters of a nontrivial finite abelian p-group, read off
    its factors: ``B**(p**j)`` loses one copy of ``C_p`` per cyclic factor
    of power above ``j``, so ``steps[j]`` counts those factors, and
    ``sum_j p**j * steps[j] = sum_f m_f * (p**u_f - 1) / (p - 1)``.  One
    pass over the factors and one over ``j``: ``O(u + factors)``.
    :func:`shield_class`, which has checked the same conditions on ``B``
    through Baumslag's criterion, reads them without this check."""
    _require_finite_p_group(B, p)
    return _params(B, p)


def _params(B: AbelianGroupSpec, p: int) -> ShieldParams:
    """:func:`shield_params` of a ``B`` known to be a nontrivial finite p-group."""
    u = B.factors[0].power  # factors come in descending power
    drops, a = [0] * u, 1  # drops[j]: the copies of the factors of power j + 1
    for f in B.factors:
        drops[f.power - 1] = f.copies.value  # one factor per power
        a += f.copies.value * (p**f.power - 1)
    # steps[j] is the sum of drops[j:]; built from a list, because tuple()
    # over an iterator resizes its result, and CPython's per-length tuple
    # free lists then keep every freed one (2.5 MB more resident memory
    # after 30 000 calls on CPython 3.11)
    steps = list(itertools.accumulate(reversed(drops)))
    steps.reverse()
    return ShieldParams(p, tuple(steps), a)


def baumslag_reason(A: PassiveGroupSpec, B: AbelianGroupSpec) -> Optional[str]:
    """Why ``A wr B`` fails Baumslag's nilpotency criterion, or None when it
    passes: both must be p-groups for one prime ``p``, ``A`` of finite
    exponent (true by construction) and ``B`` finite."""
    if B.is_trivial():
        raise ValueError("the active group must be nontrivial")
    if not A.is_p_group():
        return "passive group is not a p-group"
    if not B.is_finite():
        return "active group is infinite"
    p = A.parts[0].prime
    if B.primes() != [p]:
        return f"active group is not a {p}-group"
    return None


def shield_class(A: PassiveGroupSpec, B: AbelianGroupSpec) -> int:
    """Nilpotency class of ``A wr B``; the pair must pass Baumslag's criterion."""
    reason = baumslag_reason(A, B)
    if reason is not None:
        raise NotNilpotentError(reason)
    part = A.parts[0]
    params = _params(B, part.prime)
    a, b = params.a, params.b
    return max(a * h + (s_h - 1) * b for h, s_h in enumerate(part.gamma_exponents, 1))


def wreath_exponent(A: PassiveGroupSpec, B: AbelianGroupSpec) -> int:
    """Exponent of ``A wr B``: exponents multiply."""
    if B.is_trivial():
        raise ValueError("the active group must be nontrivial")
    return A.exponent() * B.exponent()
