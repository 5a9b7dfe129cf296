"""The result records are immutable tuples: equal fields make equal
records with equal hashes, the reprs name every field, records built
unchecked from checked parts equal checked ones, and each public
constructor refuses bad input."""

import pytest

from wreathvar import (
    AbelianGroupSpec,
    DecisionInput,
    DivergenceReport,
    PassiveGroupSpec,
    PassivePrimePart,
    PrimaryFactor,
    PrimeVerdict,
    SeparatingVariety,
    Violation,
    kp_series,
    normalize,
    parse_abelian,
    parse_passive,
)
from wreathvar.cardinal import ALEPH_0, ONE, ZERO, Cardinal
from wreathvar.oracle import SubgroupChain, VerifyReport

from reference_parser import _derived


def factor():
    return PrimaryFactor(2, 1, Cardinal.finite(1))


def spec():
    return normalize([factor(), PrimaryFactor(3, 2, Cardinal.aleph(0))])


def d4():
    return PassiveGroupSpec((PassivePrimePart(2, (2, 1), 2),), label="D4")


SPEC_REPR = ("AbelianGroupSpec(factors=(PrimaryFactor(prime=2, power=1, "
             "copies=Cardinal.finite(1)), PrimaryFactor(prime=3, power=2, "
             "copies=Cardinal.aleph(0))))")
D4_REPR = ("PassiveGroupSpec(parts=(PassivePrimePart(prime=2, gamma_exponents=(2, 1), "
           "derived_length=2),), label='D4')")

# (build, repr): build makes a new record each call, from new fields
RECORDS = [
    (lambda: Cardinal.finite(10**20 + 1), "Cardinal.finite(100000000000000000001)"),
    (lambda: Cardinal.aleph(1), "Cardinal.aleph(1)"),
    (factor, "PrimaryFactor(prime=2, power=1, copies=Cardinal.finite(1))"),
    (spec, SPEC_REPR),
    (lambda: DivergenceReport(1, 2), "DivergenceReport(t=1, w=2)"),
    (lambda: PassivePrimePart(2, (2, 1), 2),
     "PassivePrimePart(prime=2, gamma_exponents=(2, 1), derived_length=2)"),
    (d4, D4_REPR),
    (lambda: PassiveGroupSpec((PassivePrimePart(3, (1,)),)),
     "PassiveGroupSpec(parts=(PassivePrimePart(prime=3, gamma_exponents=(1,), "
     "derived_length=None),), label=None)"),
    (lambda: kp_series(parse_abelian("C_4"), 2),
     "KpChain(p=2, terms=(AbelianGroupSpec(factors=(PrimaryFactor(prime=2, power=2, "
     "copies=Cardinal.finite(1)),)), AbelianGroupSpec(factors=(PrimaryFactor(prime=2, power=1, "
     "copies=Cardinal.finite(1)),)), AbelianGroupSpec(factors=())))"),
    (lambda: Violation("trivial_active", "trivial group: B1"),
     "Violation(code='trivial_active', detail='trivial group: B1')"),
    (lambda: DecisionInput(d4(), d4(), spec(), spec()),
     f"DecisionInput(a1={D4_REPR}, a2={D4_REPR}, b1={SPEC_REPR}, b2={SPEC_REPR}, "
     "assert_passive_var_equal=False)"),
    (lambda: PrimeVerdict(2, DivergenceReport(1, 2)),
     "PrimeVerdict(p=2, divergence=DivergenceReport(t=1, w=2))"),
    (lambda: SeparatingVariety(3, 2), "SeparatingVariety(nilpotency_class=3, burnside_exponent=2)"),
    (lambda: SubgroupChain((frozenset({0, 1}), frozenset({0}))),
     "SubgroupChain(terms=(frozenset({0, 1}), frozenset({0})))"),
    (lambda: VerifyReport("D4 wr C_2", 128, 4, 4, 8, 8, (2, 1), (2, 1)),
     "VerifyReport(label='D4 wr C_2', wreath_order=128, shield_class=4, oracle_class=4, "
     "spec_exponent=8, oracle_exponent=8, symbolic_chain_orders=(2, 1), "
     "concrete_chain_orders=(2, 1))"),
]


@pytest.mark.parametrize("build, text", RECORDS)
def test_equal_fields_make_equal_records_with_equal_hashes(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("build, text", RECORDS)
def test_records_are_immutable(build, text):
    record = build()
    # the first field, as the repr names it
    field = "value" if isinstance(record, Cardinal) else text.split("(", 1)[1].split("=", 1)[0]
    assert hasattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == build()


@pytest.mark.parametrize("build, text", RECORDS)
def test_repr_names_every_field(build, text):
    assert repr(build()) == text


def test_records_built_unchecked_equal_checked_ones():
    assert parse_abelian("C_3^{aleph_0} * C_9 * C_2") == normalize(
        [PrimaryFactor(3, 1, ALEPH_0), PrimaryFactor(3, 2, ONE), factor()])
    built = _derived(PrimaryFactor, prime=2, power=1, copies=ONE)
    assert type(built) is PrimaryFactor and built == factor() and hash(built) == hash(factor())
    assert parse_passive("D4") == d4() and hash(parse_passive("D4")) == hash(d4())
    assert parse_abelian("C_{2^3}^5").power(2) == AbelianGroupSpec(
        (PrimaryFactor(2, 2, Cardinal.finite(5)),))
    assert Cardinal.finite(2) + Cardinal.finite(3) == Cardinal.finite(5)


def test_constructors_take_their_fields_by_name():
    assert PrimaryFactor(prime=2, power=1, copies=ONE) == factor()
    assert PassivePrimePart(prime=3, gamma_exponents=(1,)).derived_length is None
    assert DecisionInput(a1=d4(), a2=d4(), b1=spec(), b2=spec()).assert_passive_var_equal is False


@pytest.mark.parametrize("build, message", [
    (lambda: Cardinal.finite(-1), "cardinal value must be >= 0, got -1"),
    (lambda: Cardinal.aleph(-1), "cardinal value must be >= 0, got -1"),
    (lambda: PrimaryFactor(4, 1, ONE), "4 is not a prime"),
    (lambda: PrimaryFactor(1, 1, ONE), "1 is not a prime"),
    (lambda: PrimaryFactor(2, 0, ONE), "cyclic power must be >= 1, got 0"),
    (lambda: AbelianGroupSpec((PrimaryFactor(3, 1, ONE), factor())), "not in normal form"),
    (lambda: AbelianGroupSpec((factor(), PrimaryFactor(2, 2, ONE))), "not in normal form"),
    (lambda: AbelianGroupSpec((factor(), factor())), "not in normal form"),
    (lambda: AbelianGroupSpec((PrimaryFactor(2, 1, ZERO),)), "zero multiplicity"),
    (lambda: PassivePrimePart(9, (1,)), "9 is not a prime"),
    (lambda: PassivePrimePart(2, (1, 2)), "must be non-increasing"),
    (lambda: PassivePrimePart(2, ()), "must end at >= 1"),
    (lambda: PassivePrimePart(2, (2, 0)), "must end at >= 1"),
    (lambda: PassivePrimePart(2, (1,), 0), "derived length must be >= 1"),
    (lambda: PassiveGroupSpec(()), "passive group must be nontrivial"),
    (lambda: PassiveGroupSpec((PassivePrimePart(3, (1,)), PassivePrimePart(2, (1,)))),
     "distinct primes in ascending order"),
    (lambda: PassiveGroupSpec((PassivePrimePart(2, (1,)), PassivePrimePart(2, (2,)))),
     "distinct primes in ascending order"),
])
def test_public_constructors_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=message.replace("(", r"\(")):
        build()
