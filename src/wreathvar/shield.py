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
One test of the active group decides every refusal: ``baumslag_reason``
returns its words, and ``shield_params``, ``kp_series`` and
``shield_class`` raise them as :class:`NotNilpotentError`.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Optional

from .groupspec import AbelianGroupSpec, DomainError, PassiveGroupSpec

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


class NotNilpotentError(DomainError):
    """The wreath product fails Baumslag's nilpotency criterion, or the
    active group given to :func:`shield_params` or :func:`kp_series` is not
    a finite p-group; the message is :func:`baumslag_reason`'s."""


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


def _active_reason(B: AbelianGroupSpec, p: Optional[int]) -> Optional[str]:
    """Why ``B`` is not a finite ``p``-group, in Baumslag's words, or None;
    ``p`` is None for a passive group that is not a p-group.  The one test
    of the active group behind every refusal of this module."""
    if B.is_trivial():
        raise DomainError("the active group must be nontrivial")
    if p is None:
        return "passive group is not a p-group"
    if not B.is_finite():
        return "active group is infinite"
    if not B.factors[0].prime == p == B.factors[-1].prime:  # sorted by prime
        return f"active group is not a {p}-group"
    return None


def kp_series(B: AbelianGroupSpec, p: int) -> KpChain:
    """The distinct terms of the series of a nontrivial finite abelian
    p-group, for the benchmark only."""
    if (reason := _active_reason(B, p)) is not None:
        raise NotNilpotentError(reason)
    terms = [B]
    while not terms[-1].is_trivial():
        terms.append(terms[-1].power(p))
    return KpChain(p, tuple(terms))


def shield_params(B: AbelianGroupSpec, p: int) -> ShieldParams:
    """Shield's parameters of a nontrivial finite abelian p-group, read off
    its factors: ``B**(p**j)`` loses one copy of ``C_p`` per cyclic factor
    of power above ``j``, so ``steps[j]`` counts those factors, and
    ``sum_j p**j * steps[j] = sum_f m_f * (p**u_f - 1) / (p - 1)``.  One
    pass over the factors and one over ``j``: ``O(u + factors)``."""
    if (reason := _active_reason(B, p)) is not None:
        raise NotNilpotentError(reason)
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
    return _active_reason(B, A.parts[0].prime if A.is_p_group() else None)


def shield_class(A: PassiveGroupSpec, B: AbelianGroupSpec) -> int:
    """Nilpotency class of ``A wr B``; the pair must pass Baumslag's criterion."""
    if not A.is_p_group():
        raise NotNilpotentError(baumslag_reason(A, B))
    part = A.parts[0]
    params = shield_params(B, part.prime)
    a, b = params.a, params.b
    return max(a * h + (s_h - 1) * b for h, s_h in enumerate(part.gamma_exponents, 1))


def wreath_exponent(A: PassiveGroupSpec, B: AbelianGroupSpec) -> int:
    """Exponent of ``A wr B``: exponents multiply."""
    if B.is_trivial():
        raise DomainError("the active group must be nontrivial")
    return A.exponent() * B.exponent()
