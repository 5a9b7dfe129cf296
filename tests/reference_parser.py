"""The token parser that read group expressions before the piece scan of
``wreathvar.groupspec`` read every valid one, kept as the reference that
the scan and its fault locator are tested against.

``_Parser(text).abelian()`` returns the normalized spec of an abelian
expression and ``_Parser(text).passive()`` the atoms of a passive one;
both raise the ``ParseError`` at the first fault.  The class is the
library's former parser, unchanged but for the empty memo of numbers it
hands ``_base_verdict``, so each spelling tests its number anew;
``_cyclic_atom`` is the helper it used to build a cyclic atom, and
``_derived`` the one it built records with.
"""

from __future__ import annotations

from typing import Optional

from wreathvar.cardinal import Cardinal, ONE, ZERO
from wreathvar.groupspec import (
    TRIVIAL,
    AbelianGroupSpec,
    ParseError,
    PassiveAtom,
    PassivePrimePart,
    PrimaryFactor,
    _PRESET_PART,
    _Tok,
    _base_verdict,
    _check_exponent,
    _profile_fault,
    _tokenize,
    is_prime,
    normalize,
)


def _derived(cls, **fields):
    """The record ``cls`` with the given fields, built from parts of
    already validated ones, so the checks of ``cls.__new__`` (a primality
    test among them) are skipped.  Inside the package a derived record is
    built the same way, as ``tuple.__new__(cls, (field, ...))``."""
    return tuple.__new__(cls, map(fields.__getitem__, cls._fields))


def _cyclic_atom(pos: int, f: PrimaryFactor) -> PassiveAtom:
    """The atom of the cyclic factor ``f`` written at ``pos``."""
    part = None if f.copies == ZERO else _derived(
        PassivePrimePart, prime=f.prime, gamma_exponents=(f.power,), derived_length=1)
    return PassiveAtom(pos, f.render(), part, f)


class _Parser:
    """Recursive descent over the tokens of a whole expression, which
    builds its result and raises at its first fault.  A base spelling is
    judged with ``_base_verdict`` and its verdict kept in ``bases``, so no
    spelling is judged twice.  The text is tokenized up front, so an
    unexpected character or an over-long literal is reported before any
    error of the grammar.
    """

    def __init__(self, text: str, bases: Optional[dict] = None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.bases = {} if bases is None else bases

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

    def product(self, term) -> list:
        """``term ('*' term)*`` up to the end of the text."""
        out = [term()]
        while self.peek().kind == "*":
            self.next()
            out.append(term())
        self.expect("end", "'*' or end of input")
        return out

    def base(self) -> tuple[int, int]:
        """``C_`` base: plain prime power or braced ``{p^u}``; returns (p, u)."""
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
        verdict = self.bases.get(spelling)
        if verdict is None:
            verdict = self.bases[spelling] = _base_verdict(
                spelling, n, None if utok is None else utok.text, {})
        if type(verdict[0]) is str:
            message, blames_exponent = verdict
            raise self.error(message, utok if blames_exponent else ntok)
        return verdict

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
        return _derived(PrimaryFactor, prime=p, power=u, copies=self.multiplicity())

    # -- abelian grammar ------------------------------------------------

    def abelian(self) -> AbelianGroupSpec:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "1":
            self.next()
            self.expect("end", "end of input")
            return TRIVIAL
        terms = self.product(self.abelian_term)
        _check_exponent([(f.prime, f.power if f.copies != ZERO else 0, pos) for pos, f in terms],
                        self.text)
        return normalize([f for _, f in terms])

    def abelian_term(self) -> tuple[int, PrimaryFactor]:
        """A cyclic factor and where it starts."""
        tok = self.peek()
        if tok.kind != "word" or tok.text != "C":
            raise self.error("expected a cyclic factor 'C_...'", tok)
        return tok.pos, self.cyclic_term()

    # -- passive grammar ------------------------------------------------

    def passive(self) -> tuple[PassiveAtom, ...]:
        return tuple(self.product(self.passive_atom))

    def passive_atom(self) -> PassiveAtom:
        tok = self.peek()
        if tok.kind != "word":
            raise self.error("expected a group name", tok)
        if tok.text in ("D4", "Q8"):
            self.next()
            return PassiveAtom(tok.pos, tok.text, _PRESET_PART, tok.text)
        if tok.text == "C":
            return _cyclic_atom(tok.pos, self.cyclic_term())
        if tok.text == "nilpotent":
            return self.profile_atom()
        raise self.error(f"unknown preset {tok.text!r}", tok)

    def profile_atom(self) -> PassiveAtom:
        tok = self.next()  # 'nilpotent'
        self.expect("(")
        self.keyword("p")
        p, ptok = self.expect_int("a prime")
        try:  # no base spelling: judged anew each time
            prime = is_prime(p)
        except ValueError as err:
            raise self.error(str(err), ptok) from None
        if not prime:
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
        gamma = tuple(s)
        if (fault := _profile_fault(gamma, dl)) is not None:
            raise self.error(fault, tok)
        body = f"p={p}, s=[{', '.join(map(str, gamma))}]"
        if dl is not None:
            body += f", dl={dl}"
        part = _derived(PassivePrimePart, prime=p, gamma_exponents=gamma, derived_length=dl)
        return PassiveAtom(tok.pos, f"nilpotent({body})", part, None)

    def keyword(self, name: str) -> None:
        tok = self.expect("word", f"'{name}='")
        if tok.text != name:
            raise self.error(f"expected '{name}='", tok)
        self.expect("=")

