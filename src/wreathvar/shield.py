"""K_p-series of finite abelian p-groups and Shield's wreath-product class formula.

For abelian ``B`` only the power subgroups of the whole group enter the
series: the ``i``-th term is ``B**(p**j)`` for the least ``j`` with
``p**j >= i``.  From the chain come the classical parameters ``d`` (last
nontrivial index), ``e(s)`` (p-logarithms of consecutive quotient
orders), ``a = 1 + (p-1) * sum(s * e(s))`` and ``b = (p-1) * d``, and the
nilpotency class of a wreath product ``A wr B`` satisfying Baumslag's
criterion is ``max_h { a*h + (s(h)-1)*b }`` over the lower central
profile ``s(h)`` of the passive group ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .groupspec import AbelianGroupSpec, PassiveGroupSpec

__all__ = [
    "NotNilpotentError",
    "KpChain",
    "ShieldParams",
    "kp_series",
    "shield_params",
    "baumslag_nilpotent",
    "baumslag_reason",
    "shield_class",
    "wreath_exponent",
    "MAX_CHAIN",
]

# The chain has d + 1 = exponent(B)/p + 1 terms and is stored densely so
# it can be printed and reused; beyond this bound that is pointless.
MAX_CHAIN = 1_000_000


class NotNilpotentError(ValueError):
    """The wreath product fails Baumslag's nilpotency criterion."""


@dataclass(frozen=True)
class KpChain:
    """Terms ``K_1 .. K_{d+1}`` of the series; the last term is trivial."""

    p: int
    terms: tuple[AbelianGroupSpec, ...]

    @property
    def d(self) -> int:
        return len(self.terms) - 1


@dataclass(frozen=True)
class ShieldParams:
    """The tuple ``(d, e(1..d), a, b)`` extracted from a K_p-series."""

    d: int
    e: tuple[int, ...]
    a: int
    b: int


def _require_finite_p_group(B: AbelianGroupSpec, p: int) -> None:
    if B.is_trivial():
        raise ValueError("the active group must be nontrivial")
    primes = B.primes()
    if primes != [p]:
        raise ValueError(f"not a {p}-group: primes {primes}")
    if not B.is_finite():
        raise ValueError("the active group must be finite")


def _plog(spec: AbelianGroupSpec) -> int:
    """log_p of the order of a finite single-prime spec."""
    return sum(f.power * f.copies.as_int() for f in spec.factors)


def kp_series(B: AbelianGroupSpec, p: int) -> KpChain:
    """The series of a nontrivial finite abelian p-group, trivial term included."""
    _require_finite_p_group(B, p)
    u1 = B.factors[0].power  # normal form puts the largest power first
    d = p ** (u1 - 1)
    if d > MAX_CHAIN:
        raise ValueError(f"chain of length {d + 1} exceeds MAX_CHAIN={MAX_CHAIN}")
    by_j = [B.power(p**j) for j in range(u1 + 1)]
    terms = []
    j = 0
    for i in range(1, d + 2):
        while p**j < i:
            j += 1
        terms.append(by_j[j])
    return KpChain(p, tuple(terms))


def shield_params(B: AbelianGroupSpec, p: int) -> ShieldParams:
    chain = kp_series(B, p)
    logs = [_plog(t) for t in chain.terms]
    e = tuple(logs[s - 1] - logs[s] for s in range(1, chain.d + 1))
    a = 1 + (p - 1) * sum(s * es for s, es in enumerate(e, 1))
    b = (p - 1) * chain.d
    return ShieldParams(chain.d, e, a, b)


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


def baumslag_nilpotent(A: PassiveGroupSpec, B: AbelianGroupSpec) -> bool:
    """Whether ``A wr B`` is nilpotent."""
    return baumslag_reason(A, B) is None


def shield_class(A: PassiveGroupSpec, B: AbelianGroupSpec) -> int:
    """Nilpotency class of ``A wr B``; the pair must pass Baumslag's criterion."""
    reason = baumslag_reason(A, B)
    if reason is not None:
        raise NotNilpotentError(reason)
    part = A.parts[0]
    params = shield_params(B, part.prime)
    return max(
        params.a * h + (s_h - 1) * params.b
        for h, s_h in enumerate(part.gamma_exponents, 1)
    )


def wreath_exponent(A: PassiveGroupSpec, B: AbelianGroupSpec) -> int:
    """Exponent of ``A wr B``: exponents multiply."""
    if B.is_trivial():
        raise ValueError("the active group must be nontrivial")
    return A.exponent() * B.exponent()
