"""Shared hypothesis strategies and helpers for the symbolic layer."""

from __future__ import annotations

from hypothesis import settings, strategies as st

from wreathvar import Cardinal, PrimaryFactor, normalize

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIMES = (2, 3, 5)


def cardinals(max_n: int = 40, max_aleph: int = 2, allow_infinite: bool = True):
    finite = st.integers(0, max_n).map(Cardinal.finite)
    if not allow_infinite:
        return finite
    return finite | st.integers(0, max_aleph).map(Cardinal.aleph)


def multiplicities(allow_infinite: bool = True, allow_zero: bool = False):
    low = 0 if allow_zero else 1
    finite = st.integers(low, 9).map(Cardinal.finite)
    if not allow_infinite:
        return finite
    return finite | st.integers(0, 2).map(Cardinal.aleph)


def factors(primes=PRIMES, max_power: int = 5, allow_infinite: bool = True,
            allow_zero: bool = False):
    return st.builds(
        PrimaryFactor,
        prime=st.sampled_from(primes),
        power=st.integers(1, max_power),
        copies=multiplicities(allow_infinite, allow_zero),
    )


def abelian_specs(primes=PRIMES, max_factors: int = 5, max_power: int = 4,
                  allow_infinite: bool = True, min_factors: int = 0):
    return st.lists(
        factors(primes, max_power, allow_infinite),
        min_size=min_factors,
        max_size=max_factors,
    ).map(normalize)


def p_components(p: int, max_factors: int = 4, max_power: int = 4,
                 allow_infinite: bool = True, min_factors: int = 0):
    return abelian_specs((p,), max_factors, max_power, allow_infinite, min_factors)


def plog(spec) -> int:
    """log_p of the order of a finite single-prime spec."""
    return sum(f.power * f.copies.as_int() for f in spec.factors)
