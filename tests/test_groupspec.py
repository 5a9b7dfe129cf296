import math
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from wreathvar import (
    Cardinal,
    ParseError,
    PassiveGroupSpec,
    PrimaryFactor,
    TRIVIAL,
    divergence,
    equivalent,
    equivalent_p,
    normalize,
    fingerprint,
    kp_series,
    parse_abelian,
    parse_passive,
    separation_witness,
    shield_params,
)
from wreathvar import groupspec
from wreathvar.cli import main
from wreathvar.groupspec import DivergenceReport, PassivePrimePart, _prime_power, is_prime

from conftest import PRIMES, abelian_specs, factors, multiplicities, p_components
from reference_parser import _Parser as ReferenceParser

A0 = Cardinal.aleph(0)
A1 = Cardinal.aleph(1)


def fin(n):
    return Cardinal.finite(n)


def spec(*triples):
    return normalize(PrimaryFactor(p, u, m if isinstance(m, Cardinal) else fin(m))
                     for p, u, m in triples)


SAMPLE = "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}"


# ---------------------------------------------------------------------------
# parsing


def test_parse_sample_expression():
    got = parse_abelian(SAMPLE)
    assert got == spec((3, 5, 6), (3, 3, A0), (3, 2, 5), (3, 1, A1), (5, 3, 4), (5, 2, 1))


def test_parse_single_cycle():
    assert parse_abelian("C_2") == spec((2, 1, 1))


def test_parse_rejects_non_prime_power_base():
    with pytest.raises(ParseError) as err:
        parse_abelian("C_{6}")
    assert "prime power" in str(err.value)
    assert err.value.pos == 3


def test_parse_rewrites_plain_bases():
    assert parse_abelian("C_{4}^2") == spec((2, 2, 2))
    assert parse_abelian("C_4^2").render() == "C_{2^2}^2"
    assert parse_abelian("C_9") == spec((3, 2, 1))


def test_parse_rejects_zero_exponent():
    with pytest.raises(ParseError):
        parse_abelian("C_{3^0}")


def test_parse_rejects_non_prime_in_braced_base():
    with pytest.raises(ParseError) as err:
        parse_abelian("C_{6^2}")
    assert "not a prime" in str(err.value)


def test_parse_trivial():
    assert parse_abelian("1") is not None
    assert parse_abelian("1").is_trivial()


def test_parse_whitespace_insensitive():
    assert parse_abelian(" C_{3^2} ^ 2 * C_5 ") == spec((3, 2, 2), (5, 1, 1))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_abelian("C_3 * ")
    assert err.value.pos == 6
    with pytest.raises(ParseError):
        parse_abelian("C_3 @")
    with pytest.raises(ParseError):
        parse_abelian("C_3 C_5")


def test_render_uses_braces_only_when_needed():
    assert spec((2, 1, 1)).render() == "C_2"
    assert spec((2, 2, 3)).render() == "C_{2^2}^3"
    assert spec((3, 1, A0)).render() == "C_3^{aleph_0}"
    assert TRIVIAL.render() == "1"


@given(abelian_specs())
def test_parse_render_round_trip(s):
    assert parse_abelian(s.render()) == s


# ---------------------------------------------------------------------------
# the piece scan and its fault locator against the reference parser


SPACE = st.text(" \t\n\u2003", max_size=2)
# characters that a mutation inserts or writes over one of the expression's
HOSTILE = "²٣Cx*{}_^01"


@st.composite
def spelled_terms(draw):
    """One ``C_ base (^ mult)?`` term, every gap spelled with whitespace."""
    def ws():
        return draw(SPACE)

    p = draw(st.sampled_from((2, 3, 43, 9999999967, 6)))  # 6: not a prime
    u = draw(st.integers(0, 3))  # 0: refused
    form = draw(st.sampled_from(("plain", "braced", "power")))
    if form == "power":
        base = f"{{{ws()}{p}{ws()}^{ws()}{u}{ws()}}}"
    else:
        base = str(p**u)
        if form == "braced":
            base = f"{{{ws()}{base}{ws()}}}"
    mult = draw(st.sampled_from(("", "0", "5", "{7}", "{aleph}", "{aleph_1}", "{aleph_3}")))
    if mult.startswith("{"):
        inner = mult[1:-1].replace("_", f"{ws()}_{ws()}")
        mult = f"{{{ws()}{inner}{ws()}}}"
    if mult:
        mult = f"{ws()}^{ws()}{mult}"
    return f"{ws()}C{ws()}_{ws()}{base}{mult}{ws()}"


@st.composite
def spelled_expressions(draw):
    """An expression of the grammar, its terms drawn from a small set so
    that ``(p, u)`` pairs repeat, then perhaps one character inserted,
    deleted or replaced by one of ``HOSTILE``."""
    terms = draw(st.lists(spelled_terms(), min_size=1, max_size=4))
    terms += draw(st.lists(st.sampled_from(terms), max_size=4))
    text = "*".join(draw(st.permutations(terms)))
    if draw(st.sampled_from([False] * 9 + [True])):  # now and then the trivial group
        text = f"{draw(SPACE)}1{draw(SPACE)}"
    return hostile_edit(draw, text)


def hostile_edit(draw, text):
    """``text``, perhaps with one character inserted, deleted or replaced
    by one of ``HOSTILE``."""
    edit = draw(st.sampled_from(("none", "insert", "delete", "replace")))
    if edit != "none" and text:
        i = draw(st.integers(0, len(text) - (edit != "insert")))
        new = "" if edit == "delete" else draw(st.sampled_from(HOSTILE))
        text = text[:i] + new + text[i + (edit != "insert"):]
    return text


# passes every Miller-Rabin base, but lies above the last proven tier, so
# is_prime raises
UNCERTIFIED = 3317044064679887385962123


@st.composite
def spelled_profiles(draw):
    """One ``nilpotent(p=..., s=[...], dl=...)`` profile, every gap spelled
    with whitespace; its prime, its exponents or its derived length may be
    refused."""
    def ws():
        return draw(SPACE)

    p = draw(st.sampled_from((2, 3, 4, 0, 9999999967, UNCERTIFIED)))
    s = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    body = f"{ws()}p{ws()}={ws()}{p}{ws()},{ws()}s{ws()}={ws()}[{ws()}"
    body += f"{ws()},{ws()}".join(map(str, s)) + f"{ws()}]"
    dl = draw(st.none() | st.integers(0, 2))
    if dl is not None:
        body += f"{ws()},{ws()}dl{ws()}={ws()}{dl}"
    return f"{ws()}nilpotent{ws()}({body}{ws()}){ws()}"


@st.composite
def spelled_passives(draw):
    """A passive expression of presets and cyclic terms (``^0`` copies and
    alephs among them), some repeated verbatim, now and then with an
    inline profile, then perhaps one ``HOSTILE`` edit."""
    preset = st.builds(lambda a, name, b: f"{a}{name}{b}", SPACE, st.sampled_from(("D4", "Q8")),
                       SPACE)
    terms = draw(st.lists(preset | spelled_terms(), min_size=1, max_size=4))
    terms += draw(st.lists(st.sampled_from(terms), max_size=4))
    if draw(st.sampled_from([False] * 2 + [True])):
        terms.append(draw(spelled_profiles()))
    return hostile_edit(draw, "*".join(draw(st.permutations(terms))))


def outcome(parse, text):
    """What ``parse(text)`` gives: a spec, or a ParseError's message and position."""
    try:
        return parse(text)
    except ParseError as err:
        return err.message, err.pos


@given(spelled_expressions())
def test_scan_agrees_with_the_reference_parser(text):
    want = outcome(lambda t: ReferenceParser(t).abelian(), text)
    assert outcome(parse_abelian, text) == want
    # the scan reads every expression that the reference accepts: the
    # locator never runs on one
    if isinstance(want, groupspec.AbelianGroupSpec):
        with mock.patch.object(groupspec, "_tokenize", no_tokens):
            assert parse_abelian(text) == want


@given(spelled_passives())
# a refused prime is reported before any later fault of its profile
@example("nilpotent(p=4, s=[x])")
@example("C_2 * nilpotent(p=0, s=[1, 2], dl=0)")
def test_passive_scan_agrees_with_the_reference_parser(text):
    want = outcome(lambda t: ReferenceParser(t).passive(), text)
    assert outcome(groupspec.passive_atoms, text) == want
    assert outcome(parse_passive, text) == outcome(
        lambda t: groupspec.passive_spec(ReferenceParser(t).passive(), t), text)
    # the scan reads every text that the reference accepts, profiles included
    if isinstance(want, tuple) and not isinstance(want[0], str):
        with mock.patch.object(groupspec, "_tokenize", no_tokens):
            assert groupspec.passive_atoms(text) == want


@pytest.mark.parametrize("text, pos", [("C_2 * D4", 6), ("C_2 **C_3", 5), ("C_3 *", 5)])
def test_a_preset_or_an_empty_piece_goes_to_the_token_parser(text, pos):
    # the fault locator, a descent over the tokens, agrees with the reference
    want = ("expected a cyclic factor 'C_...'", pos)
    assert outcome(parse_abelian, text) == outcome(lambda t: ReferenceParser(t).abelian(),
                                                   text) == want


# term 250 of TERMS_300 replaced by each literal: (replacement, literal, message)
DEEP_ERRORS = [
    ("C_6", "6", "6 is not a prime power"),
    ("C_" + "7" * 4301, "7" * 4301, "integer literal has more than 4300 digits"),
    ("C_{2^14285}", "14285", "cyclic order has more than 4300 digits"),
    ("C_1000000016000000063", "1000000016000000063",
     "1000000016000000063 is not a prime power"),
]
TERMS_300 = ["C_{3^2}^4", "C_43 ^ {aleph_1}", "C_{ 9999999967 }^2", "C_8"] * 75


def with_term_250(term):
    """``TERMS_300`` with term 250 replaced, and where that term starts."""
    terms = TERMS_300[:249] + [term] + TERMS_300[250:]
    return " * ".join(terms), len(" * ".join(terms[:249] + [""]))


@pytest.mark.parametrize("term, literal, message", DEEP_ERRORS,
                         ids=["not-a-prime-power", "long-literal", "long-order", "semiprime"])
def test_an_error_deep_in_a_long_expression_keeps_its_column(term, literal, message):
    text, start = with_term_250(term)
    with pytest.raises(ParseError) as err:
        parse_abelian(text)
    assert err.value.message == message
    assert err.value.pos == start + term.index(literal)


# odd bases at the digit limit: (expression, the digits of its exponent
# when accepted, or the message and the text at which the caret points)
ODD_BASE_LIMITS = [
    ("C_{3^9012}", 4300),
    ("C_{3^9013}", ("cyclic order has more than 4300 digits", "9013")),
    ("C_{1000000007^477}", 4294),
    ("C_{1000000007^478}", ("cyclic order has more than 4300 digits", "478")),
    ("C_{1000000007^477} * C_{2^23}", 4300),
    ("C_{1000000007^477} * C_{2^24}", ("exponent has more than 4300 digits", "C_{2^24}")),
    # a term of no copies adds nothing to the exponent
    ("C_16777216^0 * C_{1000000007^477} * C_{2^24}",
     ("exponent has more than 4300 digits", "C_{2^24}")),
]


@pytest.mark.parametrize("text, want", ODD_BASE_LIMITS)
@pytest.mark.parametrize("parse", [parse_abelian, lambda t: ReferenceParser(t).abelian(),
                                   parse_passive], ids=["scan", "tokens", "passive"])
def test_digit_limit_boundaries_for_odd_bases(parse, text, want):
    got = outcome(parse, text)
    if isinstance(want, int):
        assert len(str(got.exponent())) == want
    else:
        message, at = want
        assert got == (message, text.index(at))


SIZE_CAPS = (10**4300 - 1, 200_000, 400_000)


def exact_product_within(powers, cap):
    """The reference for the size rule: a power whose base is at least 2
    and whose count is at least ``cap.bit_length()`` is alone above ``cap``;
    otherwise the product is formed with ``math.prod`` and compared."""
    if any(base >= 2 and count >= cap.bit_length() for base, count in powers):
        return None
    product = math.prod(base**count for base, count in powers)
    return product if product <= cap else None


@given(st.lists(st.tuples(st.integers(1, 10**6),
                          st.one_of(st.integers(0, 64), st.integers(0, 10**30))), max_size=5),
       st.sampled_from(SIZE_CAPS))
# the smallest bases whose absurd powers must be refused without being formed
@example([(2, 10**30)], 200_000)
@example([(1, 10**30), (3, 10**30)], 10**4300 - 1)
def test_the_size_rule_is_the_exact_product(powers, cap):
    assert groupspec._product_within(powers, cap) == exact_product_within(powers, cap)


@pytest.mark.parametrize("cap", SIZE_CAPS, ids=["digits", "budget", "twice-budget"])
@given(ones=st.lists(st.integers(0, 10**30), max_size=3), k=st.integers(1, 10**4))
def test_the_size_rule_at_the_cap(cap, ones, k):
    # the product is cap, then cap + 1, split at a divisor drawn with k and
    # padded with powers of 1 of any count
    padding = [(1, count) for count in ones]
    for n, want in ((cap, cap), (cap + 1, None)):
        g = math.gcd(n, k)
        powers = [*padding, (g, 1), (n // g, 1)]
        assert groupspec._product_within(powers, cap) == exact_product_within(powers, cap) == want


def no_tokens(*args):
    raise AssertionError("the fault locator ran on a valid expression")


def count_base_tests(monkeypatch):
    """The numbers that bases are tested on from now on, each once: a
    primality test that ``_prime_power`` makes is not counted again."""
    tested, inside = [], []

    def counted(fn):
        def call(n, *known):
            if not inside:
                tested.append(n)
            inside.append(n)
            try:
                return fn(n, *known)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(groupspec, "_prime_power", counted(_prime_power))
    monkeypatch.setattr(groupspec, "is_prime", counted(is_prime))
    return tested


def test_a_valid_expression_is_scanned_without_tokens_and_each_base_tested_once(monkeypatch):
    text = " * ".join(TERMS_300 + ["C_{3^2}", "C_{ 43^1 }^0", "C_9999999967^{aleph}"])
    spellings = {"{3^2}", "43", "{ 9999999967 }", "8", "{ 43^1 }", "9999999967"}
    want = spec((2, 3, 75), (3, 2, 301), (43, 1, A1), (9999999967, 1, A0))
    monkeypatch.setattr(groupspec, "_tokenize", no_tokens)
    tested = count_base_tests(monkeypatch)
    assert parse_abelian(text) == want
    assert len(tested) <= len(spellings), tested


def test_a_valid_passive_is_scanned_without_tokens_and_each_base_tested_once(monkeypatch):
    terms = ["D4", "C_{3^2}^4", " C_43 ^ {aleph_1}", "Q8 ", "C_{ 9999999967 }^0", "C_8"] * 20
    text = "*".join(terms + [" nilpotent( p=5,s=[2 , 1],dl = 2)"])
    want = ReferenceParser(text).passive()
    monkeypatch.setattr(groupspec, "_tokenize", no_tokens)
    tested = count_base_tests(monkeypatch)
    atoms = groupspec.passive_atoms(text)
    assert atoms == want
    assert [a.pos for a in atoms[:4]] == [text.index(w) for w in ("D4", "C_{3", "C_43", "Q8")]
    assert atoms[-1].pos == text.index("nilpotent")
    assert atoms[-1].text == "nilpotent(p=5, s=[2, 1], dl=2)"
    # a profile's prime is no base spelling: it is tested where it is written
    assert sorted(tested) == [3, 5, 8, 43, 9999999967], tested


# ---------------------------------------------------------------------------
# normalization and algebra


def test_normalize_merges_duplicates():
    merged = normalize([PrimaryFactor(3, 2, fin(1)), PrimaryFactor(3, 2, fin(1))])
    assert merged == spec((3, 2, 2))


def test_normalize_reorders():
    got = normalize([PrimaryFactor(3, 1, fin(5)), PrimaryFactor(3, 2, A0)])
    assert [f.power for f in got.factors] == [2, 1]


def test_normalize_drops_zero_multiplicity():
    assert normalize([PrimaryFactor(2, 1, fin(0))]).is_trivial()


@given(st.lists(factors(allow_zero=True), max_size=6))
def test_normalize_idempotent(fs):
    once = normalize(fs)
    assert normalize(once.factors) == once


def cardinal_sum(a, b):
    """The sum of two cardinals: finite values add, an aleph absorbs."""
    if a.is_infinite or b.is_infinite:
        return max(a, b)
    return fin(a.value + b.value)


def reference_merge(fs):
    """The normal form by the sum of cardinals: copies of one ``(p, u)``
    added with ``cardinal_sum``, zeros dropped, sorted."""
    merged = {}
    for f in fs:
        key = (f.prime, f.power)
        merged[key] = cardinal_sum(merged.get(key, fin(0)), f.copies)
    return tuple(sorted(((p, u, c) for (p, u), c in merged.items() if c != fin(0)),
                        key=lambda t: (t[0], -t[1])))


@given(st.lists(st.tuples(st.sampled_from([(2, 1), (2, 3), (3, 2)]),
                          st.integers(0, 3).map(fin) | st.just(fin(0))
                          | st.integers(0, 2).map(Cardinal.aleph)),
                max_size=10))
def test_normalize_merges_like_the_sum_of_cardinals(drawn):
    # few (p, u) keys, so most draws repeat one with zero, finite and
    # aleph copies mixed
    fs = [PrimaryFactor(p, u, copies) for (p, u), copies in drawn]
    got = normalize(fs)
    assert tuple((f.prime, f.power, f.copies) for f in got.factors) == reference_merge(fs)


def test_exponent_of_sample():
    got = parse_abelian(SAMPLE)
    by_lcm = math.lcm(*(f.cyclic_order for f in got.factors))
    assert got.exponent() == by_lcm == 30375


def test_exponent_small_cases():
    assert spec((2, 2, 3), (2, 1, 1)).exponent() == 4
    assert TRIVIAL.exponent() == 1


@given(abelian_specs())
def test_exponent_is_lcm_of_cyclic_orders(s):
    expected = math.lcm(*(f.cyclic_order for f in s.factors)) if s.factors else 1
    assert s.exponent() == expected


@given(abelian_specs())
def test_primes_are_the_distinct_primes_ascending(s):
    assert s.primes() == sorted({f.prime for f in s.factors})


def test_p_component():
    got = parse_abelian(SAMPLE)
    assert got.p_component(5) == spec((5, 3, 4), (5, 2, 1))
    assert got.p_component(7).is_trivial()
    assert [f.power for f in got.p_component(3).factors] == [5, 3, 2, 1]


def test_power_subgroup():
    assert spec((2, 2, 3), (2, 1, 1)).power(2) == spec((2, 1, 3))
    assert spec((3, 2, 2)).power(3) == spec((3, 1, 2))
    s = parse_abelian(SAMPLE)
    assert s.power(1) == s
    with pytest.raises(ValueError, match="power exponent must be >= 1, got 0"):
        s.power(0)


def test_power_drops_infinite_factors_of_small_order():
    assert spec((2, 1, A0)).power(2).is_trivial()


def test_an_infinite_spec_has_no_order():
    with pytest.raises(ValueError, match="infinite group has no finite order"):
        spec((2, 1, 3), (3, 1, A0)).order()


@given(abelian_specs(max_power=3), st.integers(1, 8), st.integers(1, 8))
def test_power_composes(s, j, k):
    assert s.power(j).power(k) == s.power(j * k)


def direct_product(a, b):
    """``a x b`` in normal form."""
    return normalize(a.factors + b.factors)


@given(abelian_specs(max_factors=3), abelian_specs(max_factors=3), st.integers(1, 12))
def test_power_respects_direct_product(a, b, k):
    assert direct_product(a, b).power(k) == direct_product(a.power(k), b.power(k))


def test_direct_product():
    assert direct_product(spec((3, 2, 2)), TRIVIAL) == spec((3, 2, 2))
    assert direct_product(spec((3, 2, 1)), spec((3, 1, 4))) == spec((3, 2, 1), (3, 1, 4))
    inf = spec((3, 1, A0))
    assert direct_product(inf, inf) == inf


def test_spec_rejects_denormalized_input():
    with pytest.raises(ValueError):
        from wreathvar import AbelianGroupSpec

        AbelianGroupSpec((PrimaryFactor(3, 1, fin(1)), PrimaryFactor(3, 2, fin(1))))


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_p_infinite_tail_ignored():
    a = spec((3, 3, A0), (3, 2, 5))
    b = spec((3, 3, A1), (3, 2, 7), (3, 1, A0))
    assert equivalent_p(a, b)


def test_equivalent_p_finite_same_prime_different_mult():
    assert not equivalent_p(spec((7, 1, 8)), spec((7, 1, 9)))


def test_equivalent_p_mixed_finiteness():
    assert not equivalent_p(spec((2, 1, 3)), spec((2, 1, A0)))


def test_equivalent_p_trivial_cases():
    assert equivalent_p(TRIVIAL, TRIVIAL, 3)
    assert not equivalent_p(TRIVIAL, spec((3, 1, 1)))


def test_equivalent_p_rejects_mixed_primes():
    with pytest.raises(ValueError):
        equivalent_p(spec((2, 1, 1), (3, 1, 1)), spec((2, 1, 1)))
    with pytest.raises(ValueError):
        equivalent_p(spec((2, 1, 1)), spec((3, 1, 1)))


def test_equivalent_sample_alterations():
    base = parse_abelian(SAMPLE)
    altered = parse_abelian(
        "C_{3^5}^6 * C_{3^3}^{aleph_1} * C_{3^2}^8 * C_3^{aleph_0} * C_{5^3}^4 * C_{5^2}"
    )
    assert equivalent(base, altered)
    for forbidden in (
        "C_{3^5}^7 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}",
        "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^3 * C_{5^2}",
        "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}^4",
    ):
        assert not equivalent(base, parse_abelian(forbidden))


@given(abelian_specs())
def test_equivalent_reflexive(s):
    assert equivalent(s, s)


@given(abelian_specs(), abelian_specs())
def test_equivalent_symmetric(a, b):
    assert equivalent(a, b) == equivalent(b, a)


@st.composite
def component_with_equivalent_mutation(draw):
    """An infinite 3-component together with an equivalent rewrite of it."""
    prefix = draw(st.lists(
        st.tuples(st.integers(3, 6), st.integers(1, 9)), max_size=2,
        unique_by=lambda t: t[0]))
    prefix = sorted(prefix, reverse=True)
    k_power = draw(st.integers(1, 2))
    base_factors = [PrimaryFactor(3, u, fin(m)) for u, m in prefix]
    base = normalize(base_factors + [PrimaryFactor(3, k_power, Cardinal.aleph(draw(st.integers(0, 2))))])

    def mutate():
        tail_powers = draw(st.lists(st.integers(1, k_power), max_size=2))
        tail = [PrimaryFactor(3, u, draw(multiplicities())) for u in tail_powers]
        return normalize(
            base_factors
            + [PrimaryFactor(3, k_power, Cardinal.aleph(draw(st.integers(0, 2))))]
            + tail
        )

    return base, mutate(), mutate()


@given(component_with_equivalent_mutation())
def test_equivalent_transitive_on_constructed_chains(triple):
    base, m1, m2 = triple
    assert equivalent_p(base, m1, 3)
    assert equivalent_p(base, m2, 3)
    assert equivalent_p(m1, m2, 3)


@given(p_components(3), p_components(3), p_components(3))
def test_equivalent_transitive_random(a, b, c):
    if equivalent_p(a, b, 3) and equivalent_p(b, c, 3):
        assert equivalent_p(a, c, 3)


@given(p_components(2, allow_infinite=False), p_components(2, allow_infinite=False))
def test_finite_equivalence_is_isomorphism(a, b):
    assert equivalent_p(a, b, 2) == (a == b)


@given(p_components(2, allow_infinite=False, min_factors=1), p_components(2, min_factors=1))
def test_finite_never_equivalent_to_infinite(a, b):
    if not b.is_finite():
        assert not equivalent_p(a, b, 2)


@given(p_components(2, min_factors=1), st.data())
def test_factors_below_first_infinite_are_immaterial(a, data):
    if a.is_finite():
        return
    k_power = next(f.power for f in a.factors if f.copies.is_infinite)
    extras = data.draw(st.lists(
        st.tuples(st.integers(1, k_power), multiplicities(allow_zero=True)),
        max_size=3))
    b = normalize(a.factors + tuple(PrimaryFactor(2, u, m) for u, m in extras))
    assert equivalent_p(a, b, 2)


# ---------------------------------------------------------------------------
# divergence


def test_divergence_first_factor():
    assert divergence(spec((3, 2, 2)), spec((3, 2, 1), (3, 1, 4)), 3) == DivergenceReport(1, 2)
    assert divergence(spec((2, 2, 3), (2, 1, 1)), spec((2, 2, 1), (2, 1, 7)), 2) == DivergenceReport(1, 2)


def test_divergence_none_when_equivalent():
    s = spec((3, 2, 2))
    assert divergence(s, s, 3) is None


def test_divergence_uses_larger_power_at_the_break():
    assert divergence(spec((3, 1, 4)), spec((3, 2, 1), (3, 1, 4)), 3) == DivergenceReport(1, 2)
    assert divergence(spec((2, 2, 1)), spec((2, 2, 1), (2, 1, 1)), 2) == DivergenceReport(2, 1)


def ref_equivalent_p(a, b):
    """The equivalence rule on its own terms: finite components must be
    equal; infinite ones need an equal prefix before the first infinite
    factor and the same cyclic power there."""
    def first_infinite(spec):
        return next((i for i, f in enumerate(spec.factors) if f.copies.is_infinite), None)

    ka, kb = first_infinite(a), first_infinite(b)
    if ka is None or kb is None:
        return ka is None and kb is None and a == b
    return (ka == kb and a.factors[:ka] == b.factors[:kb]
            and a.factors[ka].power == b.factors[kb].power)


@given(st.tuples(p_components(3), p_components(3))
       | component_with_equivalent_mutation().map(lambda triple: triple[:2]))
def test_divergence_none_iff_equivalent(pair):
    a, b = pair
    assert (divergence(a, b, 3) is None) == ref_equivalent_p(a, b)
    assert equivalent_p(a, b, 3) == ref_equivalent_p(a, b)


@given(p_components(5), p_components(5))
def test_divergence_symmetric(a, b):
    assert divergence(a, b, 5) == divergence(b, a, 5)


# ---------------------------------------------------------------------------
# passive groups


def test_passive_presets():
    d4 = parse_passive("D4")
    q8 = parse_passive("Q8")
    for g in (d4, q8):
        assert len(g.parts) == 1
        part = g.parts[0]
        assert (part.prime, part.gamma_exponents, part.derived_length) == (2, (2, 1), 2)
    c3 = parse_passive("C_3")
    assert c3.parts[0].gamma_exponents == (1,)
    assert c3.exponent() == 3


def test_passive_exponents():
    assert parse_passive("D4").exponent() == 4
    assert parse_passive("D4 * Q8 * C_3 * C_5 * C_7^{aleph_1}").exponent() == 420


def test_passive_product_merges_per_prime():
    g = parse_passive("D4 * C_{2^3} * C_3")
    part2 = g.part_for(2)
    assert part2.gamma_exponents == (3, 1)
    assert part2.derived_length == 2
    assert g.part_for(3).gamma_exponents == (1,)
    assert g.nilpotency_class == 2
    assert g.exponent() == 24


def test_passive_inline_profile():
    g = parse_passive("nilpotent(p=2, s=[3, 1])")
    assert g.parts[0].gamma_exponents == (3, 1)
    assert g.derived_length is None
    g2 = parse_passive("nilpotent(p=2, s=[3, 1], dl=2)")
    assert g2.derived_length == 2
    # built without a label, a spec spells its profiles, dl only when known
    g3 = PassiveGroupSpec((PassivePrimePart(2, (2, 1), 2), PassivePrimePart(3, (1,), None)))
    assert g3.render() == "nilpotent(p=2, s=[2, 1], dl=2) * nilpotent(p=3, s=[1])"


def test_passive_atoms_carry_their_start_label_profile_and_group():
    text = "D4 * C_{3^2}^0 * nilpotent(p=5, s=[2, 1], dl=2) * C_9^{aleph}"
    d4, c9_none, profile, c9 = groupspec.passive_atoms(text)
    starts = [text.index(word) for word in ("D4", "C_{3", "nilpotent", "C_9")]
    assert [a.pos for a in (d4, c9_none, profile, c9)] == starts
    assert (d4.text, d4.part, d4.group) == ("D4", PassivePrimePart(2, (2, 1), 2), "D4")
    assert (c9_none.text, c9_none.part) == ("C_{3^2}^0", None)
    assert c9_none.group == PrimaryFactor(3, 2, fin(0))
    assert profile.text == "nilpotent(p=5, s=[2, 1], dl=2)"
    assert (profile.part, profile.group) == (PassivePrimePart(5, (2, 1), 2), None)
    assert (c9.text, c9.part) == ("C_{3^2}^{aleph_0}", PassivePrimePart(3, (2,), 1))
    assert c9.group == PrimaryFactor(3, 2, A0)


@pytest.mark.parametrize("text, at", [
    ("D4 * C_{3^8000} * C_{2^14000}", 18),
    ("C_{3^8000} *  nilpotent(p=2, s=[14000])", 14),
])
def test_a_passive_exponent_overflow_is_refused_at_the_atom_that_passes_the_limit(text, at):
    with pytest.raises(ParseError) as err:
        parse_passive(text)
    assert (err.value.message, err.value.pos) == ("exponent has more than 4300 digits", at)


def test_passive_unknown_preset():
    with pytest.raises(ParseError):
        parse_passive("S3")


def test_passive_trivial_rejected():
    with pytest.raises(ParseError):
        parse_passive("C_3^0")


def test_passive_label_is_canonical():
    assert parse_passive("C_3 * D4").label == parse_passive("D4 * C_3").label


@st.composite
def unlabeled_passive_specs(draw):
    """Specs built from their parts, with no label: one profile per prime,
    its derived length known or not."""
    parts = []
    for p in sorted(draw(st.sets(st.sampled_from(PRIMES), min_size=1, max_size=3))):
        s = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)), reverse=True)
        parts.append(PassivePrimePart(p, tuple(s), draw(st.none() | st.integers(1, 5))))
    return PassiveGroupSpec(tuple(parts))


@given(unlabeled_passive_specs())
@example(PassiveGroupSpec((PassivePrimePart(2, (2, 1), 2), PassivePrimePart(3, (1,), None))))
def test_an_unlabeled_spec_renders_as_profiles_that_parse_back(g):
    assert parse_passive(g.render()).parts == g.parts


def test_passive_profile_validation():
    with pytest.raises(ValueError):
        PassivePrimePart(2, (1, 2))
    with pytest.raises(ValueError):
        PassivePrimePart(2, ())
    with pytest.raises(ValueError):
        PassivePrimePart(4, (1,))


# ---------------------------------------------------------------------------
# primality and prime powers


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def strong_probable_prime(n, bases):
    """The strong test, written out as the textbook states it."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(a, d, n) == 1 or any(pow(a, d * 2**r, n) == n - 1 for r in range(s))
               for a in bases)


BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROOF_BOUND = 3_317_044_064_679_887_385_961_981
# where is_prime changes how it decides: from 43 trial division alone,
# from 41**2 on each tier of Miller-Rabin bases in turn
TIER_BOUNDS = (43, 41**2, 1373653, 25326001, 4759123141, 1122004669633, 3474749660383,
               PROOF_BOUND)
# primes from every tier of the test, on both sides of each bound among
# them: trial division (<= 41, then below 41**2), then Miller-Rabin to
# 2, 3, 3, 4, 6 and 13 bases
TIER_PRIMES = (2, 3, 41, 43, 1669, 1693, 1373639, 1373677, 25325981, 25326023, 3215031767,
               4759123129, 4759123151, 9999999967, 1122004669603, 1122004669637,
               3474749660329, 3474749660401, 10000000000000061, 3317044064679887385961813)


def test_is_prime_matches_trial_division_below_200000():
    got = [n for n in range(200_000) if is_prime(n)]
    assert got == [n for n in range(200_000) if trial_division_is_prime(n)]


@pytest.mark.parametrize("n", [561, 41041, 825265])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not trial_division_is_prime(n)
    assert not is_prime(n)


@pytest.mark.parametrize("n, fooled", [
    (1373653, BASES[:2]),
    (25326001, BASES[:3]),
    (3215031751, BASES[:4]),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (3474749660383, BASES[:6]),
    (3825123056546413051, BASES[:9]),
])
def test_is_prime_rejects_the_smallest_strong_pseudoprimes_of_each_tier(n, fooled):
    # each fools the bases of a tier (3215031751 those of the first four
    # primes, which no tier uses); all 13 bases expose it
    assert strong_probable_prime(n, fooled)
    assert not strong_probable_prime(n, BASES)
    assert not is_prime(n)


# composites with no prime factor <= 41, each inside the range of a tier
# and fooling all its bases but one: drop that base and is_prime takes the
# number for a prime.  The first five are the smallest such; the others
# were found among n = p * (k(p - 1) + 1) with both factors prime.  Bases
# 3, 5 and 11 of 2 to 13, and 2 to 37 of 2 to 41, have none here.
@pytest.mark.parametrize("n, fooled", [
    (8321, (2,)),
    (12403, (3,)),
    (1373653, (2, 3)),
    (4181921, (2, 5)),
    (1563151, (3, 5)),
    (359394751, (2, 7)),
    (461272267, (2, 61)),
    (1579079503, (7, 61)),
    (138894295567, (2, 13, 23)),
    (1113332658301, (2, 13, 1662803)),
    (65085388961, (2, 23, 1662803)),
    (313302520171, (13, 23, 1662803)),
    (1599118427341, (3, 5, 7, 11, 13)),
    (2202383837281, (2, 3, 5, 11, 13)),
    (2152302898747, BASES[:5]),
    (318665857834031151167461, BASES[:12]),
])
def test_each_tier_needs_each_of_its_bases(n, fooled):
    bound, bases = next(tier for tier in groupspec._MR_TIERS if n < tier[0])
    assert set(fooled) < set(bases)
    assert math.gcd(n, math.prod(BASES)) == 1 and n > 41**2
    assert strong_probable_prime(n, fooled)
    assert not strong_probable_prime(n, BASES)
    assert not is_prime(n)


@pytest.mark.parametrize("p", TIER_PRIMES)
def test_is_prime_accepts_primes_next_to_each_tier_bound(p):
    assert is_prime(p)


@given(st.integers(0, len(TIER_BOUNDS) - 2).flatmap(
    lambda i: st.integers(TIER_BOUNDS[i], TIER_BOUNDS[i + 1] - 1)))
def test_is_prime_agrees_with_all_thirteen_bases_in_every_tier(n):
    # below the proof bound the 13 bases decide exactly, whatever the tier
    n -= 1 - n % 2  # odd, and still in its tier: every bound is odd
    assert is_prime(n) == strong_probable_prime(n, BASES)


def test_is_prime_above_the_proof_bound_names_composites_and_certifies_nothing():
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    assert not is_prime(PROOF_BOUND + 2)  # 3 * 1105681354893295795320661
    # primes, and the bound itself: a composite that no base exposes
    for n in (PROOF_BOUND, 3317044064679887385962123, 2**89 - 1, 2**521 - 1):
        with pytest.raises(ValueError, match="cannot be certified"):
            is_prime(n)
    with pytest.raises(ValueError, match="cannot be certified"):
        is_prime(10**400 + 1)  # beyond the witness search: not even tested


@given(st.sampled_from(TIER_PRIMES), st.sampled_from(TIER_PRIMES), st.integers(1, 40))
def test_prime_power_finds_every_prime_power_and_nothing_else(p, q, u):
    u = min(u, (1024 - q.bit_length()) // p.bit_length())  # within the witness search
    assert _prime_power(p**u, {}) == (p, u)
    if q != p:
        assert _prime_power(p**u * q, {}) is None


@given(st.integers(1, 2**3000), st.integers(2, 400), st.integers(-1, 1))
def test_integer_root_is_the_floor_of_the_real_root(n, k, nudge):
    n = max(1, groupspec._iroot(n, k) ** k + nudge)  # near a perfect power too
    r = groupspec._iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_prime_power_reduces_by_roots_of_every_prime_degree():
    assert _prime_power(43**2 * 47**2, {}) is None
    assert _prime_power(43**6, {}) == (43, 6)
    assert _prime_power(1000000007**35, {}) == (1000000007, 35)
    assert _prime_power(1000000016000000063, {}) is None  # 1000000007 * 1000000009
    assert _prime_power(4, {}) == (2, 2)
    assert _prime_power(12, {}) is None and _prime_power(1, {}) is None


def test_prime_power_never_factors(monkeypatch):
    monkeypatch.setattr(groupspec, "prime_divisors", None)
    assert parse_abelian("C_1000000014000000049 * C_{9999999967^3}").render() == \
        "C_{1000000007^2} * C_{9999999967^3}"
    with pytest.raises(ParseError, match="not a prime power"):
        parse_abelian("C_1000000016000000063")


def test_prime_power_above_the_proof_bound():
    with pytest.raises(ParseError, match="not a prime power") as err:
        parse_abelian("C_3317044064679887385961983")
    assert err.value.pos == 2
    with pytest.raises(ParseError, match="cannot be certified") as err:
        parse_abelian("C_3317044064679887385961981")
    assert err.value.pos == 2
    with pytest.raises(ParseError, match="cannot be certified") as err:
        parse_abelian("C_{618970019642690137449562111^2}")
    assert err.value.pos == 3
    with pytest.raises(ParseError, match="cannot be certified"):
        parse_passive("nilpotent(p=618970019642690137449562111, s=[1])")


def test_factors_given_by_hand_are_still_checked():
    with pytest.raises(ValueError, match="4 is not a prime"):
        PrimaryFactor(4, 1, Cardinal.finite(1))
    with pytest.raises(ValueError, match="6 is not a prime"):
        PassivePrimePart(6, (1,))
    with pytest.raises(ValueError, match="cannot be certified"):
        PrimaryFactor(2**89 - 1, 1, Cardinal.finite(1))
    with pytest.raises(ValueError, match="4 is not a prime"):
        divergence(TRIVIAL, TRIVIAL, 4)
    with pytest.raises(ValueError, match="not a 2-component: contains prime 3"):
        divergence(parse_abelian("C_3"), parse_abelian("C_2"), 2)
    with pytest.raises(ValueError, match="4 is not a prime"):
        equivalent_p(TRIVIAL, TRIVIAL, 4)


def count_tests_of(monkeypatch, p):
    """The primality tests of numbers of at least the bit count of ``p``
    from now on: so not those of the root degrees ``_prime_power`` tries."""
    calls = []

    def counted(n):
        if n.bit_length() >= p.bit_length():
            calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(groupspec, "is_prime", counted)
    return calls


def test_each_prime_is_checked_once_per_input(monkeypatch):
    p = 9999999967
    calls = count_tests_of(monkeypatch, p)
    code = main(["decide", "--a1", f"C_{p}", "--a2", f"C_{p}",
                 "--b1", f"C_{p}^3 * C_{{{p}}} * C_{{{p}^1}}^2", "--b2", f"C_{p}^4 * C_{{ {p} }}"])
    assert code == 1
    # one test for each of the four expressions, however each spells p
    assert len(calls) == 4, calls


def test_a_passive_base_is_tested_once_per_parse(monkeypatch):
    # the scan keeps its verdict on each base spelling; a new parse starts
    # with none
    calls = count_tests_of(monkeypatch, 9999999967)
    text = " * ".join(["C_{9999999967^2}"] * 50)
    assert parse_passive(text).exponent() == 9999999967**2
    assert calls == [9999999967]
    parse_passive(text)
    assert calls == [9999999967] * 2
    # a profile's prime is tested apart from a base of the same digits
    with pytest.raises(ParseError, match="4 is not a prime"):
        parse_passive("C_4 * nilpotent(p=4, s=[1])")


def test_a_profile_prime_is_tested_once_per_parse(monkeypatch):
    # like a base spelling: the scan keeps its verdict on each profile
    # prime, and the fault locator reads it
    p = 9999999967
    calls = count_tests_of(monkeypatch, p)
    assert parse_passive(" * ".join([f"nilpotent(p={p}, s=[1])"] * 50)).exponent() == p
    assert calls == [p]
    calls.clear()
    mersenne = 2**521 - 1
    with pytest.raises(ParseError, match="cannot be certified") as err:
        parse_passive(f"C_2 * nilpotent(p={mersenne}, s=[1])")
    assert err.value.pos == len("C_2 * nilpotent(p=")
    assert calls == [mersenne]
    calls.clear()
    with pytest.raises(ParseError, match="non-increasing"):
        parse_passive(f"nilpotent(p={p}, s=[1]) * nilpotent(p={p}, s=[1, 2])")
    assert calls == [p]


def test_a_profile_prime_shares_the_verdict_of_its_braced_base(monkeypatch):
    # nilpotent(p=P, ...) is judged as the base {P^1}: one test for both
    p = 9999999967
    calls = count_tests_of(monkeypatch, p)
    assert parse_passive(f"C_{{{p}^1}} * nilpotent(p={p}, s=[1])").exponent() == p
    assert calls == [p]
    # the plain base 4 is another spelling, judged apart from {4^1}
    with pytest.raises(ParseError) as err:
        parse_passive("C_4 * nilpotent(p=4, s=[1])")
    assert (err.value.message, err.value.pos) == ("4 is not a prime", 18)


def test_a_number_is_tested_once_per_parse_however_it_is_spelled(monkeypatch):
    p = 9999999967
    calls = count_tests_of(monkeypatch, p)
    spec = parse_abelian(f"C_{p} * C_{{{p}}} * C_{{{p}^1}} * C_{{ {p} ^ 3 }}")
    assert spec.render() == f"C_{{{p}^3}} * C_{p}^3"
    assert calls == [p]
    calls.clear()
    assert parse_passive(f"C_{p} * nilpotent(p={p}, s=[1])").exponent() == p
    assert calls == [p]
    calls.clear()
    # a new parse tests again
    parse_abelian(f"C_{p}")
    assert calls == [p]


def test_a_number_refused_a_certificate_is_tested_once_per_parse(monkeypatch):
    mersenne = 2**521 - 1
    calls = count_tests_of(monkeypatch, mersenne)
    with pytest.raises(ParseError, match="cannot be certified") as err:
        parse_abelian(f"C_{{{mersenne}^1}} * C_{mersenne}")
    assert err.value.pos == 3
    assert calls == [mersenne]


def test_a_refused_certificate_is_kept_as_its_domain_error_and_raised_again():
    known, mersenne = {}, 2**127 - 1
    for _ in range(2):
        with pytest.raises(groupspec.DomainError, match="cannot be certified") as err:
            groupspec._tested(known, mersenne)
        assert known[mersenne] is err.value


def test_witness_and_classify_test_their_prime_once_per_expression(monkeypatch):
    # one test in each expression they parse, each spelling p in several
    # ways: the passive and two actives, then the passive and one active
    p = 9999999967
    a, b1, b2 = f"C_{p}^2", f"C_{p}^3 * C_{{{p}}} * C_{{{p}^1}}^2", f"C_{p}^7 * C_{{ {p} }}"
    calls = count_tests_of(monkeypatch, p)
    assert separation_witness(parse_passive(a), parse_abelian(b1), parse_abelian(b2), p)
    assert len(calls) == 3, calls
    calls.clear()
    passive, active = parse_passive(a), parse_abelian(b1)
    fingerprint(passive, active)
    kp_series(active, p)
    shield_params(active, p)
    assert len(calls) == 2, calls


def test_the_locator_refuses_a_term_after_the_trivial_group():
    with pytest.raises(ParseError) as err:
        parse_abelian("1 * C_2")
    assert (err.value.message, err.value.pos) == ("expected 'end of input', found '*'", 2)


def test_the_locator_refuses_a_wrong_profile_keyword():
    with pytest.raises(ParseError) as err:
        parse_passive("nilpotent(q=2, s=[1])")
    assert (err.value.message, err.value.pos) == ("expected 'p='", 10)


def test_a_refused_passive_base_is_tested_once_per_parse(monkeypatch):
    tested = count_base_tests(monkeypatch)
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse_passive("D4 * C_6")
        assert (err.value.message, err.value.pos) == ("6 is not a prime power", 7)
    assert tested == [6, 6]


def test_a_refused_base_is_tested_once(monkeypatch):
    # the fault locator takes the scan's verdict on each base it tested,
    # the refused one included
    calls = []

    def counted(test):
        def run(n, *known):
            calls.append((test.__name__, n))
            return test(n, *known)
        return run

    monkeypatch.setattr(groupspec, "_prime_power", counted(_prime_power))
    monkeypatch.setattr(groupspec, "is_prime", counted(is_prime))
    with pytest.raises(ParseError, match="6 is not a prime power") as err:
        parse_abelian("C_2 * C_4 * C_2 * C_6")
    assert err.value.pos == 20
    assert calls == [("_prime_power", 2), ("_prime_power", 4), ("_prime_power", 6)]
    calls.clear()
    semiprime = 1000000016000000063  # 1000000007 * 1000000009
    with pytest.raises(ParseError, match=f"{semiprime} is not a prime") as err:
        parse_abelian(f"C_{{ 3 }} * C_{{{semiprime}^2}}")
    assert err.value.pos == 13
    assert calls == [("_prime_power", 3), ("is_prime", semiprime)]
    calls.clear()
    n = 10**4299
    n += next(c for c in range(1, 100) if math.gcd(n + c, math.factorial(42)) == 1)
    with pytest.raises(ParseError, match="cannot be certified") as err:
        parse_abelian(f"C_{n}")
    assert err.value.pos == 2
    # the root degrees _prime_power tries are tested too, each below the
    # bit count of n
    assert [c for c in calls if c[1] >= n.bit_length()] == [("_prime_power", n), ("is_prime", n)]
