"""Symbolic abelian groups of finite exponent and nilpotent passive profiles.

An abelian group of finite exponent is stored as its primary
decomposition: per prime ``p`` a list of cyclic factors ``C_{p^u}`` with a
finite or infinite multiplicity.  Groups of infinite exponent are not
representable by construction, which is exactly the scope of every
decision procedure built on top of this module.

A passive (wreath-product bottom) group is nilpotent of finite exponent
and is recorded per prime by the exponents of the terms of its lower
central series; that profile is all the class formula ever reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cardinal import Cardinal, ONE, ZERO

__all__ = [
    "ParseError",
    "PrimaryFactor",
    "AbelianGroupSpec",
    "TRIVIAL",
    "DivergenceReport",
    "PassivePrimePart",
    "PassiveGroupSpec",
    "is_prime",
    "prime_divisors",
    "normalize",
    "parse_abelian",
    "parse_passive",
    "passive_atoms",
    "equivalent_p",
    "equivalent",
    "divergence",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of ``n >= 1``, ascending."""
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


def _prime_power(n: int) -> Optional[tuple[int, int]]:
    """``(p, u)`` with ``n == p**u`` and ``u >= 1``, or None."""
    if n < 2:
        return None
    p = prime_divisors(n)[0]
    u = 0
    while n % p == 0:
        n //= p
        u += 1
    return (p, u) if n == 1 else None


def _too_many_digits(p: int, u: int, limit: int) -> bool:
    """Whether ``p**u`` (``2 <= p < 10**limit``) has more than ``limit``
    decimal digits, decided without forming ``p**u``.  Below
    ``2**(3 * limit) < 10**limit`` it cannot; otherwise ``u`` is compared
    with the largest ``k`` such that ``p**k < 10**limit``, estimated by
    floats and then corrected with exact powers no larger than ``10**limit``."""
    if not limit or u * p.bit_length() <= 3 * limit:
        return False
    top = 10**limit
    k = int(math.log(top) / math.log(p))
    while k and p**k >= top:
        k -= 1
    while p ** (k + 1) < top:
        k += 1
    return u > k


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# primary decompositions


@dataclass(frozen=True)
class PrimaryFactor:
    """``copies`` direct copies of the cyclic group of order ``prime**power``."""

    prime: int
    power: int
    copies: Cardinal

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not a prime")
        if self.power < 1:
            raise ValueError(f"cyclic power must be >= 1, got {self.power}")

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


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Normalized primary decomposition; the empty tuple is the trivial group.

    Factors are sorted by prime ascending then cyclic power descending, one
    factor per ``(prime, power)`` pair, every multiplicity nonzero.  Build
    instances through :func:`normalize` or :func:`parse_abelian`.
    """

    factors: tuple[PrimaryFactor, ...]

    def __post_init__(self) -> None:
        keys = [(f.prime, -f.power) for f in self.factors]
        if keys != sorted(set(keys)):
            raise ValueError("factors are not in normal form; use normalize()")
        if any(f.copies == ZERO for f in self.factors):
            raise ValueError("zero multiplicity in normalized spec")

    # -- structure --------------------------------------------------------

    def is_trivial(self) -> bool:
        return not self.factors

    def is_finite(self) -> bool:
        return all(not f.copies.is_infinite for f in self.factors)

    def primes(self) -> list[int]:
        seen = []
        for f in self.factors:
            if not seen or seen[-1] != f.prime:
                seen.append(f.prime)
        return seen

    def exponent(self) -> int:
        """lcm of the cyclic orders; 1 for the trivial group."""
        return math.prod(p ** max(f.power for f in self.factors if f.prime == p)
                         for p in self.primes())

    def order(self) -> int:
        """Group order; only finite specs have one."""
        if not self.is_finite():
            raise ValueError("infinite group has no finite order")
        return math.prod(f.cyclic_order ** f.copies.as_int() for f in self.factors)

    def p_component(self, p: int) -> "AbelianGroupSpec":
        """The subgroup of elements of ``p``-power order (possibly trivial)."""
        return AbelianGroupSpec(tuple(f for f in self.factors if f.prime == p))

    def power(self, k: int) -> "AbelianGroupSpec":
        """The power subgroup of all ``k``-th powers."""
        if k < 1:
            raise ValueError(f"power exponent must be >= 1, got {k}")
        out = []
        for f in self.factors:
            drop = _valuation(k, f.prime)
            if f.power > drop:
                out.append(PrimaryFactor(f.prime, f.power - drop, f.copies))
        return AbelianGroupSpec(tuple(out))

    def direct_product(self, other: "AbelianGroupSpec") -> "AbelianGroupSpec":
        return normalize(self.factors + other.factors)

    def __mul__(self, other: "AbelianGroupSpec") -> "AbelianGroupSpec":
        return self.direct_product(other)

    # -- text -------------------------------------------------------------

    def render(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f.render() for f in self.factors)

    def __str__(self) -> str:
        return self.render()


TRIVIAL = AbelianGroupSpec(())


def normalize(factors: Iterable[PrimaryFactor]) -> AbelianGroupSpec:
    """Merge duplicate ``(prime, power)`` factors, drop zeros, sort canonically."""
    merged: dict[tuple[int, int], Cardinal] = {}
    for f in factors:
        key = (f.prime, f.power)
        merged[key] = merged.get(key, ZERO) + f.copies
    out = [
        PrimaryFactor(p, u, copies)
        for (p, u), copies in merged.items()
        if copies != ZERO
    ]
    out.sort(key=lambda f: (f.prime, -f.power))
    return AbelianGroupSpec(tuple(out))


# ---------------------------------------------------------------------------
# the equivalence relation on p-components


@dataclass(frozen=True)
class DivergenceReport:
    """Where two p-components stop agreeing.

    ``t`` is the 1-based index of the first position at which the factor
    lists are not coinciding finite factors; ``w`` is the larger cyclic
    power present at that position (a side missing the position
    contributes a virtual factor of multiplicity zero at the other
    side's power).
    """

    t: int
    w: int


def _check_component(spec: AbelianGroupSpec, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    bad = [f.prime for f in spec.factors if f.prime != p]
    if bad:
        raise ValueError(f"not a {p}-component: contains prime {bad[0]}")


def _first_infinite(spec: AbelianGroupSpec) -> Optional[int]:
    for i, f in enumerate(spec.factors):
        if f.copies.is_infinite:
            return i
    return None


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
    _check_component(a, p)
    _check_component(b, p)
    ka, kb = _first_infinite(a), _first_infinite(b)
    if ka is None and kb is None:
        return a == b
    if (ka is None) != (kb is None):
        return False
    if ka != kb:
        return False
    if a.factors[:ka] != b.factors[:ka]:
        return False
    return a.factors[ka].power == b.factors[kb].power


def equivalent(a: AbelianGroupSpec, b: AbelianGroupSpec) -> bool:
    """Componentwise equivalence at every prime occurring in either group."""
    ps = sorted(set(a.primes()) | set(b.primes()))
    return all(equivalent_p(a.p_component(p), b.p_component(p), p) for p in ps)


def divergence(a: AbelianGroupSpec, b: AbelianGroupSpec, p: int) -> Optional[DivergenceReport]:
    """First disagreement of two p-components, or None when equivalent."""
    _check_component(a, p)
    _check_component(b, p)
    if equivalent_p(a, b, p):
        return None
    i = 0
    while i < len(a.factors) and i < len(b.factors):
        fa, fb = a.factors[i], b.factors[i]
        if fa != fb or fa.copies.is_infinite:
            break
        i += 1
    powers = []
    if i < len(a.factors):
        powers.append(a.factors[i].power)
    if i < len(b.factors):
        powers.append(b.factors[i].power)
    return DivergenceReport(t=i + 1, w=max(powers))


# ---------------------------------------------------------------------------
# passive groups


@dataclass(frozen=True)
class PassivePrimePart:
    """One Sylow piece of a nilpotent passive group.

    ``gamma_exponents[h-1]`` is the exponent of the ``h``-th lower central
    term as a power of ``prime``; the length of the tuple is the
    nilpotency class of the piece.
    """

    prime: int
    gamma_exponents: tuple[int, ...]
    derived_length: Optional[int] = None

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not a prime")
        s = self.gamma_exponents
        if not s or s[-1] < 1:
            raise ValueError("lower central exponents must end at >= 1")
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise ValueError(f"lower central exponents must be non-increasing: {s}")
        if self.derived_length is not None and self.derived_length < 1:
            raise ValueError("derived length must be >= 1")

    @property
    def nilpotency_class(self) -> int:
        return len(self.gamma_exponents)

    def s(self, h: int) -> int:
        """Power exponent of the ``h``-th lower central term, ``1 <= h <= class``."""
        return self.gamma_exponents[h - 1]

    def exponent(self) -> int:
        return self.prime ** self.gamma_exponents[0]


@dataclass(frozen=True)
class PassiveGroupSpec:
    """Nilpotent group of finite exponent, one part per participating prime."""

    parts: tuple[PassivePrimePart, ...]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("passive group must be nontrivial")
        ps = [part.prime for part in self.parts]
        if ps != sorted(set(ps)):
            raise ValueError("parts must have distinct primes in ascending order")

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
        chunks = []
        for part in self.parts:
            s = ", ".join(str(x) for x in part.gamma_exponents)
            chunks.append(f"nilpotent(p={part.prime}, s=[{s}])")
        return " * ".join(chunks)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    """Syntax or semantic error in a group expression, with a position."""

    def __init__(self, message: str, pos: int, source: str):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos
        self.source = source

    def caret(self) -> str:
        return f"  {self.source}\n  {' ' * self.pos}^"


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int", "word", "end", or the symbol itself
    text: str
    pos: int


_SYMBOLS = set("_^*{}()[]=,")
# only ASCII digits: str.isdigit also accepts characters such as "²",
# which int() rejects
_DIGITS = frozenset("0123456789")


def _tokenize(text: str, limit: int) -> list[_Tok]:
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
            if limit and j - i > limit:
                raise ParseError(f"integer literal has more than {limit} digits", i, text)
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


# passive atoms, also consumed by the oracle to build concrete groups:
#   ("preset", name)                       D4 or Q8
#   ("cyclic", p, u, copies)               C_{p^u}^copies
#   ("profile", p, gamma_exponents, dl)    inline nilpotent(...) profile
PassiveAtom = tuple


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # no literal or cyclic order may have more decimal digits than
        # Python converts to a string (0: no limit, or an older Python)
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        self.toks = _tokenize(text, self.limit)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what or kind!r}, found {found}", tok.pos, self.text)
        return tok

    def error(self, message: str, tok: _Tok) -> ParseError:
        return ParseError(message, tok.pos, self.text)

    def expect_int(self, what: str) -> tuple[int, _Tok]:
        tok = self.expect("int", what)
        return int(tok.text), tok

    # -- shared pieces ------------------------------------------------

    def base(self) -> tuple[int, int]:
        """``C_`` base: plain prime power or braced ``{p^u}``; returns (p, u)."""
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            pu = _prime_power(int(tok.text))
            if pu is None:
                raise self.error(f"{tok.text} is not a prime power", tok)
            return pu
        self.expect("{", "'{' or digits")
        n, ntok = self.expect_int("a number")
        if self.peek().kind == "^":
            self.next()
            u, utok = self.expect_int("an exponent")
            self.expect("}")
            if not is_prime(n):
                raise self.error(f"{n} is not a prime", ntok)
            if u < 1:
                raise self.error("cyclic exponent must be >= 1", utok)
            if _too_many_digits(n, u, self.limit):
                raise self.error(f"cyclic order has more than {self.limit} digits", utok)
            return n, u
        self.expect("}")
        pu = _prime_power(n)
        if pu is None:
            raise self.error(f"{n} is not a prime power", ntok)
        return pu

    def multiplicity(self) -> Cardinal:
        """Optional ``^mult`` suffix; defaults to one copy."""
        if self.peek().kind != "^":
            return ONE
        self.next()
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Cardinal.finite(int(tok.text))
        self.expect("{", "digits or '{'")
        tok = self.next()
        if tok.kind == "int":
            self.expect("}")
            return Cardinal.finite(int(tok.text))
        if tok.kind == "word" and tok.text == "aleph":
            index = 0
            if self.peek().kind == "_":
                self.next()
                index, _ = self.expect_int("an aleph index")
            self.expect("}")
            return Cardinal.aleph(index)
        raise self.error("expected digits or an aleph", tok)

    def cyclic_term(self) -> PrimaryFactor:
        self.expect("word", "'C'")  # caller checked the word is C
        self.expect("_", "'_'")
        p, u = self.base()
        return PrimaryFactor(p, u, self.multiplicity())

    # -- abelian grammar ------------------------------------------------

    def abelian(self) -> AbelianGroupSpec:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "1":
            self.next()
            self.expect("end", "end of input")
            return TRIVIAL
        factors = [self.abelian_term()]
        while self.peek().kind == "*":
            self.next()
            factors.append(self.abelian_term())
        self.expect("end", "'*' or end of input")
        return normalize(factors)

    def abelian_term(self) -> PrimaryFactor:
        tok = self.peek()
        if tok.kind != "word" or tok.text != "C":
            raise self.error("expected a cyclic factor 'C_...'", tok)
        return self.cyclic_term()

    # -- passive grammar ------------------------------------------------

    def passive(self) -> tuple[PassiveAtom, ...]:
        atoms = [self.passive_atom()]
        while self.peek().kind == "*":
            self.next()
            atoms.append(self.passive_atom())
        self.expect("end", "'*' or end of input")
        return tuple(atoms)

    def passive_atom(self) -> PassiveAtom:
        tok = self.peek()
        if tok.kind != "word":
            raise self.error("expected a group name", tok)
        if tok.text in ("D4", "Q8"):
            self.next()
            return ("preset", tok.text)
        if tok.text == "C":
            f = self.cyclic_term()
            return ("cyclic", f.prime, f.power, f.copies)
        if tok.text == "nilpotent":
            return self.profile_atom()
        raise self.error(f"unknown preset {tok.text!r}", tok)

    def profile_atom(self) -> PassiveAtom:
        self.next()  # 'nilpotent'
        self.expect("(")
        self.keyword("p")
        p, ptok = self.expect_int("a prime")
        if not is_prime(p):
            raise self.error(f"{p} is not a prime", ptok)
        self.expect(",")
        self.keyword("s")
        self.expect("[", "'['")
        s = [self.expect_int("a lower central exponent")[0]]
        while self.peek().kind == ",":
            self.next()
            s.append(self.expect_int("a lower central exponent")[0])
        self.expect("]")
        dl = None
        if self.peek().kind == ",":
            self.next()
            self.keyword("dl")
            dl, _ = self.expect_int("a derived length")
        self.expect(")")
        return ("profile", p, tuple(s), dl)

    def keyword(self, name: str) -> None:
        tok = self.expect("word", f"'{name}='")
        if tok.text != name:
            raise self.error(f"expected '{name}='", tok)
        self.expect("=")


def parse_abelian(text: str) -> AbelianGroupSpec:
    """Parse an abelian group expression such as ``C_{3^5}^6 * C_{5^2}``.

    ``C_{p^u}`` is the cyclic group of order ``p**u``; a plain base like
    ``C_4`` is rewritten to its prime power form; a missing multiplicity
    means one copy and infinite multiplicities are written
    ``^{aleph_0}``; ``1`` is the trivial group.  The result is normalized,
    so ``parse_abelian(spec.render()) == spec``.
    """
    return _Parser(text).abelian()


def _atom_render(atom: PassiveAtom) -> str:
    if atom[0] == "preset":
        return atom[1]
    if atom[0] == "cyclic":
        _, p, u, copies = atom
        return PrimaryFactor(p, u, copies).render()
    _, p, s, dl = atom
    body = f"p={p}, s=[{', '.join(str(x) for x in s)}]"
    if dl is not None:
        body += f", dl={dl}"
    return f"nilpotent({body})"


def _atom_part(atom: PassiveAtom) -> Optional[PassivePrimePart]:
    if atom[0] == "preset":
        return PassivePrimePart(2, (2, 1), derived_length=2)
    if atom[0] == "cyclic":
        _, p, u, copies = atom
        if copies == ZERO:
            return None
        return PassivePrimePart(p, (u,), derived_length=1)
    _, p, s, dl = atom
    return PassivePrimePart(p, s, derived_length=dl)


def _merge_parts(parts: Sequence[PassivePrimePart]) -> PassivePrimePart:
    # direct product within one prime: componentwise maxima
    p = parts[0].prime
    c = max(part.nilpotency_class for part in parts)
    s = tuple(
        max(part.gamma_exponents[h] if h < part.nilpotency_class else 0 for part in parts)
        for h in range(c)
    )
    dls = [part.derived_length for part in parts]
    dl = None if any(x is None for x in dls) else max(dls)  # type: ignore[type-var]
    return PassivePrimePart(p, s, derived_length=dl)


def passive_atoms(text: str) -> tuple[PassiveAtom, ...]:
    """The raw factors of a passive group expression, in input order."""
    return _Parser(text).passive()


def parse_passive(text: str) -> PassiveGroupSpec:
    """Parse a passive group: products of ``D4``, ``Q8``, cyclic ``C_{p^u}``
    factors (multiplicities allowed but irrelevant to the profile), and
    inline ``nilpotent(p=..., s=[...])`` profiles."""
    atoms = passive_atoms(text)
    parts = [part for part in map(_atom_part, atoms) if part is not None]
    if not parts:
        raise ParseError("passive group must be nontrivial", 0, text)
    by_prime: dict[int, list[PassivePrimePart]] = {}
    for part in parts:
        by_prime.setdefault(part.prime, []).append(part)
    merged = tuple(_merge_parts(by_prime[p]) for p in sorted(by_prime))
    label = " * ".join(sorted(_atom_render(a) for a in atoms))
    return PassiveGroupSpec(merged, label=label)
