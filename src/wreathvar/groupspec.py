"""Symbolic abelian groups of finite exponent and nilpotent passive profiles.

An abelian group of finite exponent is stored as its primary
decomposition: per prime ``p`` a list of cyclic factors ``C_{p^u}`` with a
finite or infinite multiplicity.  Groups of infinite exponent are not
representable by construction, which is exactly the scope of every
decision procedure built on top of this module.

A passive (wreath-product bottom) group is nilpotent of finite exponent
and is recorded per prime by the exponents of the terms of its lower
central series; that profile is all the class formula ever reads.

Expressions are read by one pattern, :data:`_PIECE`, applied to each
piece between two ``*``.  Only a text that it refuses is tokenized, by
:func:`_locate`, which builds nothing and raises the error at its first
fault.  One size rule, :func:`_product_within`, decides whether a number
is too big: the parser holds each cyclic order and each expression's
exponent to :data:`_DIGIT_CAP` with it, and the oracle every group order
to its element budget.
"""

from __future__ import annotations

import collections
import itertools
import math
import re
import sys
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

from .cardinal import Cardinal, ONE, ZERO

__all__ = [
    "DomainError",
    "ParseError",
    "PrimaryFactor",
    "AbelianGroupSpec",
    "TRIVIAL",
    "DEFAULT_BUDGET",
    "DivergenceReport",
    "PassivePrimePart",
    "PassiveGroupSpec",
    "prime_divisors",
    "normalize",
    "parse_abelian",
    "parse_passive",
    "passive_atoms",
    "passive_spec",
    "equivalent_p",
    "equivalent",
    "divergence",
]


# the primes <= 41: the trial divisors (one gcd with their product tries
# them all), and the Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# below it, a number with no prime factor <= 41 is a prime
_TRIAL_BOUND = _SMALL_PRIMES[-1] ** 2
# (n, bases): n is the smallest strong pseudoprime to all of ``bases``, so
# below n they decide primality exactly.  A tier serves the numbers from
# the bound before it (from 41**2, as smaller ones are settled by trial
# division) up to its own.  From 1 373 653 to 1.1e12, three or four chosen
# bases do the work of the first four to six primes (Pomerance, Selfridge
# and Wagstaff, Math. Comp. 35, 1980, for 1 373 653 and 25 326 001;
# Jaeschke, Math. Comp. 61, 1993, for the next three bounds; Sorenson and
# Webster, Math. Comp. 86, 2017, for the last)
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (3_474_749_660_383, _SMALL_PRIMES[:6]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)
# From the last bound on no proof is at hand.  A composite there is still
# named as one when a base witnesses it, but only up to this size: the cost
# of a Miller-Rabin round grows with the cube of the number of digits, and
# past a few hundred digits it would dominate every other step.
_WITNESS_BITS = 1024


class DomainError(ValueError):
    """A refusal of the input: an expression that does not parse, a prime
    that cannot be certified, a product that is not nilpotent.  The CLI
    exits 3 on one (2 on a :class:`ParseError`), 5 on any other exception."""


def _strong_probable_prime(n: int, bases: Sequence[int]) -> bool:
    """Whether odd ``n > max(bases)`` passes the strong test to every base."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 == d * 2**s, d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether ``n`` is a prime, by trial division by the primes <= 41 and
    then deterministic Miller-Rabin, with a set of bases proven exact for
    the size of ``n`` (:data:`_MR_TIERS`: at most four below 1.1e12).
    Above the last tier no proof is at hand: ``False`` when a base
    witnesses that ``n`` is composite, otherwise :class:`DomainError`.
    Nothing is kept between calls; a parse keeps its verdicts through
    :func:`_tested`."""
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < _TRIAL_BOUND:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _strong_probable_prime(n, bases)
    if n.bit_length() <= _WITNESS_BITS and not _strong_probable_prime(n, _SMALL_PRIMES):
        return False
    raise DomainError(f"primality of {n} cannot be certified: deterministic "
                      f"Miller-Rabin is proven only below {_MR_TIERS[-1][0]}")


def _tested(known: dict, n: int) -> bool:
    """:func:`is_prime` on ``n``, tested once per ``known``: a parse's
    verdicts on numbers, each True, False, or the :class:`DomainError`
    that refused to certify it, raised again on every lookup.  A number
    below :data:`_TRIAL_BOUND` is tested each time and not kept: no
    Miller-Rabin round runs on it, so its test costs no more than a
    lookup."""
    if n < _TRIAL_BOUND:
        return is_prime(n)
    verdict = known.get(n)
    if verdict is None:
        try:
            verdict = is_prime(n)
        except DomainError as err:
            verdict = err
        known[n] = verdict
    if type(verdict) is not bool:
        raise verdict.with_traceback(None)
    return verdict


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of ``n >= 1``, ascending, by trial division:
    for group orders within an enumeration budget only."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _iroot(n: int, k: int) -> int:
    """The integer part of the ``k``-th root of ``n >= 1``.  Newton's method
    descends from an upper bound read off the top bits of ``n``: floats
    only ever see a root below ``2**54``."""
    if k == 2:
        return math.isqrt(n)
    shift = max(0, n.bit_length() // k - 52)
    r = int(math.exp(math.log(n >> (shift * k)) / k))
    x = (r + (r >> 40) + 2) << shift  # above the root: floats err by < 2**-40
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(n: int, known: dict) -> Optional[tuple[int, int]]:
    """``(p, u)`` with ``n == p**u`` and ``u >= 1``, or None.  Nothing is
    factored: a prime <= 41 is divided out, and otherwise ``n`` is reduced
    by integer ``k``-th roots, prime ``k`` only, to a number that is no
    perfect power, whose primality decides.  That test goes through
    ``known``, a parse's verdicts on numbers (see :func:`_tested`).  A
    number they already hold as a prime, or one below
    :data:`_TRIAL_BOUND`, skips the root search.  Raises
    :class:`DomainError` when that primality cannot be certified (see
    :func:`is_prime`)."""
    if n < 2:
        return None
    q = math.gcd(n, _SMALL_PRODUCT)
    if q != 1:  # so q is p, or n has two primes
        if q not in _SMALL_PRIMES:
            return None
        u = _valuation(n, q)
        return (q, u) if n == q**u else None
    if n < _TRIAL_BOUND or known.get(n) is True:  # a prime
        return n, 1
    u, k = 1, 2
    # any root is >= 43 > 2**5, so a k-th power has more than 5k bits
    while 5 * k <= n.bit_length():
        r = _iroot(n, k)
        if r**k == n:
            n, u = r, u * k  # r may be a k-th power again
        else:
            k = next(j for j in itertools.count(k + 1) if is_prime(j))
    return (n, u) if _tested(known, n) else None


def _product_within(powers: Iterable[tuple[int, int]], cap: int) -> Optional[int]:
    """The product of ``base ** count`` over ``powers`` (bases >= 1, counts
    >= 0), or None when it is above ``cap``: the one size rule.

    With ``k = base.bit_length()``, ``base ** count >= 2 ** (count * (k -
    1))``, so once the sum of these exponents passes ``cap.bit_length()``
    the product is refused before the next power is formed, however large
    its count.  Up to there a count is at most its term of the sum (or its
    base is 1), so every partial product formed is below ``2 ** (2 *
    cap.bit_length())``, and the last is compared with ``cap`` exactly.
    No float is involved.
    """
    top, bits, product = cap.bit_length(), 0, 1
    for base, count in powers:
        bits += count * (base.bit_length() - 1)
        if bits > top:
            return None
        product *= base**count
    return product if product <= cap else None


# The oracle's element budget by default.  It is kept with the size rule,
# not in the oracle, so that the CLI can offer it without loading the oracle.
DEFAULT_BUDGET = 200_000


# The most decimal digits a literal, a cyclic order or the exponent of an
# expression may have: as many as Python converts to a string by default
# (a Python before 3.11 has no bound, and the same number applies)
_DIGIT_LIMIT = getattr(sys.int_info, "default_max_str_digits", 4300)
# the largest number of at most _DIGIT_LIMIT digits
_DIGIT_CAP = 10**_DIGIT_LIMIT - 1


def _check_exponent(orders: Iterable[tuple[int, int, int]], text: str) -> None:
    """Refuse the expression ``text`` at the first of its terms after which
    its exponent, the lcm of the terms' orders ``p**u`` (``orders``, as
    ``(p, u, pos)`` in the order written, ``pos`` where the term starts),
    has more than :data:`_DIGIT_LIMIT` decimal digits.  The exponent is
    formed one order at a time through :func:`_product_within`, so it
    never gets much past the limit.  Every number printed for an
    expression is built from its exponent and from literals within the
    limit, so none has more than about twice as many digits."""
    tops, exponent = {}, 1
    for p, u, pos in orders:
        top = tops.get(p, 0)
        if u > top:
            tops[p] = u
            exponent = _product_within(((exponent, 1), (p, u - top)), _DIGIT_CAP)
            if exponent is None:
                raise ParseError(f"exponent has more than {_DIGIT_LIMIT} digits", pos, text)


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# primary decompositions


class PrimaryFactor(collections.namedtuple("PrimaryFactor", "prime power copies")):
    """``copies`` direct copies of the cyclic group of order ``prime**power``.

    A factor built here has its prime tested; the factors that the module
    derives from it (powers, normal forms, parsed terms) inherit the test.
    """

    __slots__ = ()

    def __new__(cls, prime: int, power: int, copies: Cardinal) -> "PrimaryFactor":
        if not is_prime(prime):
            raise ValueError(f"{prime} is not a prime")
        if power < 1:
            raise ValueError(f"cyclic power must be >= 1, got {power}")
        return tuple.__new__(cls, (prime, power, copies))

    @property
    def cyclic_order(self) -> int:
        return self.prime**self.power

    def render(self) -> str:
        if self.power == 1:
            base = f"C_{self.prime}"
        else:
            base = f"C_{{{self.prime}^{self.power}}}"
        if self.copies == ONE:
            return base
        if self.copies.is_infinite:
            return f"{base}^{{{self.copies.render()}}}"
        return f"{base}^{self.copies.render()}"

    def __str__(self) -> str:
        return self.render()


class AbelianGroupSpec(collections.namedtuple("AbelianGroupSpec", "factors")):
    """Normalized primary decomposition; the empty tuple is the trivial group.

    Factors are sorted by prime ascending then cyclic power descending, one
    factor per ``(prime, power)`` pair, every multiplicity nonzero.  Build
    instances through :func:`normalize` or :func:`parse_abelian`.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[PrimaryFactor, ...]) -> "AbelianGroupSpec":
        keys = [(f.prime, -f.power) for f in factors]
        if keys != sorted(set(keys)):
            raise ValueError("factors are not in normal form; use normalize()")
        if any(f.copies == ZERO for f in factors):
            raise ValueError("zero multiplicity in normalized spec")
        return tuple.__new__(cls, (factors,))

    # -- structure --------------------------------------------------------

    def is_trivial(self) -> bool:
        return not self.factors

    def is_finite(self) -> bool:
        return all(not f.copies.is_infinite for f in self.factors)

    def primes(self) -> list[int]:
        return [f.prime for f in _first_factors(self.factors)]

    def exponent(self) -> int:
        """lcm of the cyclic orders; 1 for the trivial group."""
        return math.prod(f.cyclic_order for f in _first_factors(self.factors))

    def order(self) -> int:
        """Group order; only finite specs have one."""
        if not self.is_finite():
            raise ValueError("infinite group has no finite order")
        return math.prod(f.cyclic_order ** f.copies.as_int() for f in self.factors)

    def p_component(self, p: int) -> "AbelianGroupSpec":
        """The subgroup of elements of ``p``-power order (possibly trivial)."""
        factors = tuple([f for f in self.factors if f.prime == p])
        return tuple.__new__(AbelianGroupSpec, (factors,))

    def power(self, k: int) -> "AbelianGroupSpec":
        """The power subgroup of all ``k``-th powers."""
        if k < 1:
            raise ValueError(f"power exponent must be >= 1, got {k}")
        out = []
        for f in self.factors:
            drop = _valuation(k, f.prime)
            if f.power > drop:
                out.append(tuple.__new__(PrimaryFactor, (f.prime, f.power - drop, f.copies)))
        return tuple.__new__(AbelianGroupSpec, (tuple(out),))

    # -- text -------------------------------------------------------------

    def render(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f.render() for f in self.factors)

    def __str__(self) -> str:
        return self.render()


TRIVIAL = AbelianGroupSpec(())


def _first_factors(factors: Sequence[PrimaryFactor]) -> list[PrimaryFactor]:
    """Each prime's first factor in normal form: the one of largest power."""
    out = []
    for f in factors:
        if not out or out[-1].prime != f.prime:
            out.append(f)
    return out


def _normal_form(finite: dict[tuple[int, int], int],
                 alephs: dict[tuple[int, int], int]) -> tuple[PrimaryFactor, ...]:
    """The factors in normal form of the multiplicities merged per
    ``(p, u)``: ``finite`` holds the sum of the finite copies, ``alephs``
    the largest aleph index, which absorbs them.  No copies, no factor.
    Every key is a checked prime power and every count a natural, so the
    records are built unchecked."""
    out = []
    for key in sorted(finite.keys() | alephs.keys(), key=lambda k: (k[0], -k[1])):
        if key in alephs:
            copies = tuple.__new__(Cardinal, (True, alephs[key]))
        elif finite[key]:
            copies = tuple.__new__(Cardinal, (False, finite[key]))
        else:
            continue
        out.append(tuple.__new__(PrimaryFactor, (key[0], key[1], copies)))
    return tuple(out)


def normalize(factors: Iterable[PrimaryFactor]) -> AbelianGroupSpec:
    """Merge duplicate ``(prime, power)`` factors, drop zeros, sort canonically."""
    finite: dict[tuple[int, int], int] = {}
    alephs: dict[tuple[int, int], int] = {}
    for f in factors:
        key, copies = (f.prime, f.power), f.copies
        if copies.is_infinite:
            alephs[key] = max(alephs.get(key, 0), copies.value)
        else:
            finite[key] = finite.get(key, 0) + copies.value
    return tuple.__new__(AbelianGroupSpec, (_normal_form(finite, alephs),))


# ---------------------------------------------------------------------------
# the equivalence relation on p-components


class DivergenceReport(collections.namedtuple("DivergenceReport", "t w")):
    """Where two p-components stop agreeing.

    ``t`` is the 1-based index of the first position at which the factor
    lists are not coinciding finite factors; ``w`` is the larger cyclic
    power present at that position (a side missing the position
    contributes a virtual factor of multiplicity zero at the other
    side's power).
    """

    __slots__ = ()


def _check_components(p: int, *specs: AbelianGroupSpec) -> None:
    """``p`` is a prime and every spec a ``p``-component.  A factor's prime
    was tested when it was built, so ``p`` is tested only when no factor
    carries it."""
    if all(f.prime != p for spec in specs for f in spec.factors) and not is_prime(p):
        raise DomainError(f"{p} is not a prime")
    for spec in specs:
        bad = [f.prime for f in spec.factors if f.prime != p]
        if bad:
            raise ValueError(f"not a {p}-component: contains prime {bad[0]}")


def equivalent_p(a: AbelianGroupSpec, b: AbelianGroupSpec, p: Optional[int] = None) -> bool:
    """Equivalence of two p-components of abelian groups.

    Both finite: isomorphism, i.e. identical normal forms.  Both
    infinite: the finite factors before the first infinite one must
    coincide and the two first infinite factors must have the same
    cyclic order; their multiplicities and everything after them are
    immaterial.  A finite component is never equivalent to an infinite
    one; trivial components are equivalent only to each other.
    """
    if p is None:
        ps = set(a.primes()) | set(b.primes())
        if len(ps) > 1:
            raise ValueError(f"mixed primes: {sorted(ps)}")
        p = ps.pop() if ps else 2
    return divergence(a, b, p) is None


def equivalent(a: AbelianGroupSpec, b: AbelianGroupSpec) -> bool:
    """Componentwise equivalence at every prime occurring in either group."""
    ps = sorted(set(a.primes()) | set(b.primes()))
    return all(equivalent_p(a.p_component(p), b.p_component(p), p) for p in ps)


def divergence(a: AbelianGroupSpec, b: AbelianGroupSpec, p: int) -> Optional[DivergenceReport]:
    """First disagreement of two p-components, or None when equivalent.

    The walk stops at the first position where the lists are not equal
    finite factors.  The components are equivalent when both lists end
    there, or when both factors there are infinite of the same power.
    """
    _check_components(p, a, b)
    i = 0
    while i < len(a.factors) and i < len(b.factors):
        fa, fb = a.factors[i], b.factors[i]
        if fa != fb or fa.copies.is_infinite:
            break
        i += 1
    here = a.factors[i:i + 1] + b.factors[i:i + 1]  # the factors at the stop
    if not here:
        return None
    if (len(here) == 2 and all(f.copies.is_infinite for f in here)
            and here[0].power == here[1].power):
        return None
    return DivergenceReport(t=i + 1, w=max(f.power for f in here))


# ---------------------------------------------------------------------------
# passive groups


def _profile_fault(s: tuple[int, ...], derived_length: Optional[int]) -> Optional[str]:
    """Why ``s`` and ``derived_length`` are not a profile, or None."""
    if not s or s[-1] < 1:
        return "lower central exponents must end at >= 1"
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        return f"lower central exponents must be non-increasing: {s}"
    if derived_length is not None and derived_length < 1:
        return "derived length must be >= 1"
    return None


class PassivePrimePart(collections.namedtuple("PassivePrimePart",
                                               "prime gamma_exponents derived_length")):
    """One Sylow piece of a nilpotent passive group.

    ``gamma_exponents[h-1]`` is the exponent of the ``h``-th lower central
    term as a power of ``prime``; the length of the tuple is the
    nilpotency class of the piece.
    """

    __slots__ = ()

    def __new__(cls, prime: int, gamma_exponents: tuple[int, ...],
                derived_length: Optional[int] = None) -> "PassivePrimePart":
        if not is_prime(prime):
            raise ValueError(f"{prime} is not a prime")
        if (fault := _profile_fault(gamma_exponents, derived_length)) is not None:
            raise ValueError(fault)
        return tuple.__new__(cls, (prime, gamma_exponents, derived_length))

    @property
    def nilpotency_class(self) -> int:
        return len(self.gamma_exponents)

    def s(self, h: int) -> int:
        """Power exponent of the ``h``-th lower central term, ``1 <= h <= class``."""
        return self.gamma_exponents[h - 1]

    def exponent(self) -> int:
        return self.prime ** self.gamma_exponents[0]

    def render(self) -> str:
        """The profile as written, ``nilpotent(p=..., s=[...], dl=...)``,
        with ``dl`` only when the derived length is known."""
        body = f"p={self.prime}, s=[{', '.join(map(str, self.gamma_exponents))}]"
        if self.derived_length is not None:
            body += f", dl={self.derived_length}"
        return f"nilpotent({body})"


class PassiveGroupSpec(collections.namedtuple("PassiveGroupSpec", "parts label")):
    """Nilpotent group of finite exponent, one part per participating prime."""

    __slots__ = ()

    def __new__(cls, parts: tuple[PassivePrimePart, ...],
                label: Optional[str] = None) -> "PassiveGroupSpec":
        if not parts:
            raise ValueError("passive group must be nontrivial")
        ps = [part.prime for part in parts]
        if ps != sorted(set(ps)):
            raise ValueError("parts must have distinct primes in ascending order")
        return tuple.__new__(cls, (parts, label))

    def exponent(self) -> int:
        return math.prod(part.exponent() for part in self.parts)

    @property
    def nilpotency_class(self) -> int:
        return max(part.nilpotency_class for part in self.parts)

    @property
    def derived_length(self) -> Optional[int]:
        known = [part.derived_length for part in self.parts]
        if any(dl is None for dl in known):
            return None
        return max(known)  # type: ignore[type-var]

    def is_p_group(self) -> bool:
        return len(self.parts) == 1

    def part_for(self, p: int) -> Optional[PassivePrimePart]:
        for part in self.parts:
            if part.prime == p:
                return part
        return None

    def render(self) -> str:
        if self.label is not None:
            return self.label
        return " * ".join(part.render() for part in self.parts)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# parsing


class ParseError(DomainError):
    """Syntax or semantic error in a group expression, with a position."""

    def __init__(self, message: str, pos: int, source: str):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos
        self.source = source

    def caret(self) -> str:
        return f"  {self.source}\n  {' ' * self.pos}^"


# kind: "int", "word", "end", or the symbol itself
_Tok = collections.namedtuple("_Tok", "kind text pos")


_SYMBOLS = set("_^*{}()[]=,")
# only ASCII digits: str.isdigit also accepts characters such as "²",
# which int() rejects
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > _DIGIT_LIMIT:
                raise ParseError(f"integer literal has more than {_DIGIT_LIMIT} digits", i, text)
            toks.append(_Tok("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j] in _DIGITS):
                j += 1
            toks.append(_Tok("word", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            toks.append(_Tok(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(_Tok("end", "", n))
    return toks


# One factor of a passive expression, as :func:`passive_atoms` reads it:
# ``pos`` where it starts, ``text`` its label text, ``part`` its profile
# (None for a cyclic factor of no copies), and ``group`` what the oracle
# builds: the preset name D4 or Q8, the cyclic ``PrimaryFactor``, or None
# for an inline nilpotent(...) profile, which has no realization.
PassiveAtom = collections.namedtuple("PassiveAtom", "pos text part group")

# the profile of D4 and of Q8
_PRESET_PART = PassivePrimePart(2, (2, 1), 2)


# The text between two '*' of an expression (no term holds one): a preset,
# a cyclic term or a profile, with whitespace wherever the tokenizer skips
# it.  Groups: the preset; the base as spelled; the number and exponent of
# a braced base; a plain and a braced finite multiplicity; 'aleph' and its
# index; a profile's p, its s list and its dl.  N is a digit run, of no
# more digits than the tokenizer accepts.
_PIECE = r"""
    \s* (?: (D4|Q8)
          | C \s* _ \s* ( N | \{ \s* (N) \s* (?: \^ \s* (N) \s* )? \} )
            (?: \s* \^ \s* (?: (N) | \{ \s* (?: (N) | (aleph) (?: \s* _ \s* (N) )? ) \s* \} ) )?
          | nilpotent \s* \( \s* p \s* = \s* (N) \s* , \s* s \s* = \s*
            \[ \s* (N (?: \s* , \s* N)*) \s* \] (?: \s* , \s* dl \s* = \s* (N) )? \s* \)
        ) \s*
"""
# _PIECE with its digit runs held to _DIGIT_LIMIT digits
_PIECE_RE = re.compile(_PIECE.replace("N", f"[0-9]{{1,{_DIGIT_LIMIT}}}"), re.VERBOSE)


def _base_verdict(base: str, n: Optional[str], u: Optional[str], known: dict) -> tuple:
    """The verdict on the ``C_`` base spelled ``base``, whose number is
    ``n`` when it is braced (None when plain) and whose braced exponent is
    ``u``, if any: ``(p, u)`` for a prime power within :data:`_DIGIT_LIMIT`
    digits, otherwise ``(message, blames_exponent)``, the fault and whether
    it lies in the exponent rather than in the number.  Primality is
    tested through ``known`` (see :func:`_tested`); the message is built
    from this spelling."""
    try:
        if u is None:
            pu = _prime_power(int(n or base), known)
            return pu or (f"{base if n is None else int(n)} is not a prime power", False)
        p, e = int(n), int(u)
        if not _tested(known, p):
            return f"{p} is not a prime", False
    except DomainError as err:  # a primality that cannot be certified
        return str(err), False
    if e < 1:
        return "cyclic exponent must be >= 1", True
    if _product_within(((p, e),), _DIGIT_CAP) is None:
        return f"cyclic order has more than {_DIGIT_LIMIT} digits", True
    return p, e


def _judged(bases: dict, base: str, n: Optional[str], u: Optional[str]) -> tuple:
    """:func:`_base_verdict` on ``base``, judged once per spelling and
    parse.  ``bases`` is the parse's one memo: under a spelling (a str) it
    keeps the verdict on that base, and under a number (an int) the
    verdict on its primality (see :func:`_tested`), so each number is
    tested by Miller-Rabin at most once per parse however it is spelled,
    ``C_p``, ``C_{p^3}`` or ``nilpotent(p=p, ...)``.  A refusal is kept
    too.  Nothing outlives the parse."""
    verdict = bases.get(base)
    if verdict is None:
        verdict = bases[base] = _base_verdict(base, n, u, bases)
    return verdict


def _pieces(text: str) -> Iterator[tuple[int, str]]:
    """Each piece of ``text`` between two ``*``, after where its first non-blank is."""
    end = 0
    for piece in text.split("*"):
        yield end + len(piece) - len(piece.lstrip()), piece
        end += len(piece) + 1


class _Locator:
    """Recursive descent over the tokens of an expression that the piece
    scan refused, which raises the :class:`ParseError` at its first fault
    and builds nothing.  The text is tokenized up front, so an unexpected
    character or an over-long literal is reported before any error of the
    grammar.  A base spelling is judged through ``bases``, the dict the
    scan filled, so no spelling is judged, and no number tested, twice in
    one parse.
    """

    def __init__(self, text: str, bases: dict):
        self.text, self.bases = text, bases
        self.toks = _tokenize(text)[::-1]  # the next token last

    def peek(self) -> _Tok:
        return self.toks[-1]

    def next(self) -> _Tok:
        return self.toks.pop()

    def expect(self, kind: str, what: Optional[str] = None) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what or kind!r}, found {found}", tok.pos, self.text)
        return tok

    def error(self, message: str, tok: _Tok) -> ParseError:
        return ParseError(message, tok.pos, self.text)

    def product(self, term) -> None:
        """``term ('*' term)*`` up to the end of the text."""
        term()
        while self.peek().kind == "*":
            self.next()
            term()
        self.expect("end", "'*' or end of input")

    def abelian(self) -> None:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "1":
            self.next()
            self.expect("end", "end of input")
        else:
            self.product(self.abelian_term)

    def abelian_term(self) -> None:
        tok = self.peek()
        if tok.kind != "word" or tok.text != "C":
            raise self.error("expected a cyclic factor 'C_...'", tok)
        self.cyclic_term()

    def passive_atom(self) -> None:
        tok = self.peek()
        if tok.kind != "word":
            raise self.error("expected a group name", tok)
        if tok.text in ("D4", "Q8"):
            self.next()
        elif tok.text == "C":
            self.cyclic_term()
        elif tok.text == "nilpotent":
            self.profile()
        else:
            raise self.error(f"unknown preset {tok.text!r}", tok)

    def cyclic_term(self) -> None:
        self.next()  # 'C', seen by the caller
        self.expect("_", "'_'")
        self.base()
        self.multiplicity()

    def base(self) -> None:
        """``C_`` base: plain prime power or braced ``{p^u}``."""
        ntok = self.peek()
        n = utok = None
        if ntok.kind == "int":
            self.next()
            spelling = ntok.text
        else:
            brace = self.expect("{", "'{' or digits")
            ntok = self.expect("int", "a number")
            if self.peek().kind == "^":
                self.next()
                utok = self.expect("int", "an exponent")
            close = self.expect("}")
            spelling, n = self.text[brace.pos:close.pos + 1], ntok.text
        verdict = _judged(self.bases, spelling, n, utok and utok.text)
        if type(verdict[0]) is str:
            message, blames_exponent = verdict
            raise self.error(message, utok if blames_exponent else ntok)

    def multiplicity(self) -> None:
        """Optional ``^mult`` suffix: digits, braced or not, or an aleph."""
        if self.peek().kind != "^":
            return
        self.next()
        if self.peek().kind == "int":
            self.next()
        else:
            self.expect("{", "digits or '{'")
            tok = self.next()
            if tok.kind == "word" and tok.text == "aleph":
                if self.peek().kind == "_":
                    self.next()
                    self.expect("int", "an aleph index")
            elif tok.kind != "int":
                raise self.error("expected digits or an aleph", tok)
            self.expect("}")

    def profile(self) -> None:
        tok = self.next()  # 'nilpotent'
        self.expect("(")
        self.keyword("p")
        ptok = self.expect("int", "a prime")
        # judged as the braced base {p^1}, whose verdict it shares
        verdict = _judged(self.bases, "{" + ptok.text + "^1}", ptok.text, "1")
        if type(verdict[0]) is str:
            raise self.error(verdict[0], ptok)
        self.expect(",")
        self.keyword("s")
        self.expect("[", "'['")
        s = [int(self.expect("int", "a lower central exponent").text)]
        while self.peek().kind == ",":
            self.next()
            s.append(int(self.expect("int", "a lower central exponent").text))
        self.expect("]")
        dl = None
        if self.peek().kind == ",":
            self.next()
            self.keyword("dl")
            dl = int(self.expect("int", "a derived length").text)
        self.expect(")")
        if (fault := _profile_fault(tuple(s), dl)) is not None:
            raise self.error(fault, tok)

    def keyword(self, name: str) -> None:
        tok = self.expect("word", f"'{name}='")
        if tok.text != name:
            raise self.error(f"expected '{name}='", tok)
        self.expect("=")


def _locate(text: str, bases: dict, passive: bool = False) -> NoReturn:
    """Raise the :class:`ParseError` at the first fault of ``text``, an
    abelian or a ``passive`` expression that the piece scan refused."""
    locator = _Locator(text, bases)
    if passive:
        locator.product(locator.passive_atom)
    else:
        locator.abelian()
    raise AssertionError(f"the piece scan refused {text!r}, which has no fault")


def parse_abelian(text: str) -> AbelianGroupSpec:
    """Parse an abelian group expression such as ``C_{3^5}^6 * C_{5^2}``.

    ``C_{p^u}`` is the cyclic group of order ``p**u``; a plain base like
    ``C_4`` is rewritten to its prime power form; a missing multiplicity
    means one copy and infinite multiplicities are written
    ``^{aleph_0}``; ``1`` is the trivial group.  The result is normalized,
    so ``parse_abelian(spec.render()) == spec``.

    Each distinct piece between two ``*`` is read once with
    :data:`_PIECE` and counts as often as it is written, so the cost grows
    with the number of distinct spellings.  When a piece is refused,
    :func:`_locate` raises the error at the first fault of the text; when
    the exponent is too large, the passive reader, which reads every term
    where it stands, refuses it at the term that passes the limit.
    """
    if text.strip() == "1":
        return TRIVIAL
    bases: dict = {}
    finite: dict[tuple[int, int], int] = {}
    alephs: dict[tuple[int, int], int] = {}
    for piece, times in collections.Counter(text.split("*")).items():
        m = _PIECE_RE.fullmatch(piece)
        if m is None:
            _locate(text, bases)
        preset, base, n, u, mult, braced, aleph, index, p, s, dl = m.groups()
        key = base and _judged(bases, base, n, u)
        if not key or type(key[0]) is str:  # a preset, a profile or a refused base
            _locate(text, bases)
        if aleph:
            alephs[key] = max(alephs.get(key, 0), int(index or 0))
        else:
            finite[key] = finite.get(key, 0) + int(mult or braced or 1) * times
    factors = _normal_form(finite, alephs)
    if _product_within([(f.prime, f.power) for f in _first_factors(factors)], _DIGIT_CAP) is None:
        passive_spec(_passive_atoms(text, bases), text)  # raises at the term past the limit
    return tuple.__new__(AbelianGroupSpec, (factors,))


def _merge_parts(parts: Sequence[PassivePrimePart]) -> PassivePrimePart:
    # direct product within one prime: componentwise maxima
    if len(parts) == 1:
        return parts[0]
    p = parts[0].prime
    c = max(part.nilpotency_class for part in parts)
    s = tuple([
        max([part.gamma_exponents[h] if h < part.nilpotency_class else 0 for part in parts])
        for h in range(c)
    ])
    dls = [part.derived_length for part in parts]
    dl = None if any(x is None for x in dls) else max(dls)  # type: ignore[type-var]
    return tuple.__new__(PassivePrimePart, (p, s, dl))


def passive_atoms(text: str) -> tuple[PassiveAtom, ...]:
    """The raw factors of a passive group expression, in input order.

    Each piece between two ``*`` (a preset, a cyclic term or a
    ``nilpotent(...)`` profile) is read with :data:`_PIECE`, each
    distinct base spelling is judged once and each number tested once; a
    profile prime ``p`` is judged as the braced base ``{p^1}`` and shares
    its verdict.  When a piece is
    refused, :func:`_locate` raises the error at the first fault of the
    text.
    """
    return _passive_atoms(text, {})


def _passive_atoms(text: str, bases: dict) -> tuple[PassiveAtom, ...]:
    """:func:`passive_atoms`, judging bases through the parse's memo ``bases``."""
    atoms = []
    for pos, piece in _pieces(text):
        m = _PIECE_RE.fullmatch(piece)
        if m is None:
            _locate(text, bases, passive=True)
        preset, base, n, u, mult, braced, aleph, index, p, s, dl = m.groups()
        if preset:
            atoms.append(PassiveAtom(pos, preset, _PRESET_PART, preset))
        elif base:
            key = _judged(bases, base, n, u)
            if type(key[0]) is str:
                _locate(text, bases, passive=True)
            count = int(index or 0) if aleph else int(mult or braced or 1)
            copies = tuple.__new__(Cardinal, (aleph is not None, count))
            f = tuple.__new__(PrimaryFactor, (key[0], key[1], copies))
            part = None
            if aleph or count:
                part = tuple.__new__(PassivePrimePart, (key[0], (key[1],), 1))
            atoms.append(PassiveAtom(pos, f.render(), part, f))
        else:
            gamma, length = tuple(map(int, s.split(","))), dl and int(dl)
            if (_profile_fault(gamma, length) is not None
                    or type(_judged(bases, "{" + p + "^1}", p, "1")[0]) is str):
                _locate(text, bases, passive=True)
            part = tuple.__new__(PassivePrimePart, (int(p), gamma, length))
            atoms.append(PassiveAtom(pos, part.render(), part, None))
    return tuple(atoms)


def parse_passive(text: str) -> PassiveGroupSpec:
    """Parse a passive group: products of ``D4``, ``Q8``, cyclic ``C_{p^u}``
    factors (multiplicities allowed but irrelevant to the profile), and
    inline ``nilpotent(p=..., s=[...])`` profiles."""
    return passive_spec(passive_atoms(text), text)


def passive_spec(atoms: Sequence[PassiveAtom], text: str) -> PassiveGroupSpec:
    """The spec of the passive expression ``text``, built from its atoms
    as :func:`passive_atoms` parsed them."""
    present = [atom for atom in atoms if atom.part is not None]
    if not present:
        raise ParseError("passive group must be nontrivial", 0, text)
    by_prime: dict[int, list[PassivePrimePart]] = {}
    for atom in present:
        by_prime.setdefault(atom.part.prime, []).append(atom.part)
    merged = tuple([_merge_parts(by_prime[p]) for p in sorted(by_prime)])
    if _product_within([(part.prime, part.gamma_exponents[0]) for part in merged],
                       _DIGIT_CAP) is None:
        _check_exponent([(a.part.prime, a.part.gamma_exponents[0], a.pos) for a in present], text)
    label = " * ".join(sorted(atom.text for atom in atoms))
    # the parts were checked when they were read, and merged has one per
    # prime in ascending order
    return tuple.__new__(PassiveGroupSpec, (merged, label))
