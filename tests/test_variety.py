import json
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from wreathvar import (
    Cardinal,
    DecisionInput,
    EquivalentComponentsError,
    PrimaryFactor,
    Verdict,
    check_hypotheses,
    concrete_abelian,
    concrete_cyclic,
    concrete_wreath,
    decide_equal,
    divergence,
    fingerprint,
    nilpotency_class,
    normalize,
    parse_abelian,
    parse_passive,
    separation_witness,
)

from wreathvar import variety
from conftest import SMALL_PRIMES, abelian_specs, multiplicities, p_components

C3_PAIR = DecisionInput(
    a1=parse_passive("C_3"),
    a2=parse_passive("C_3"),
    b1=parse_abelian("C_{3^2}^2"),
    b2=parse_abelian("C_{3^2} * C_3^4"),
)

D4Q8_PAIR = DecisionInput(
    a1=parse_passive("D4"),
    a2=parse_passive("Q8"),
    b1=parse_abelian("C_{2^2}^3 * C_2"),
    b2=parse_abelian("C_{2^2} * C_2^7"),
)

MULTI_PASSIVE = "D4 * Q8 * C_3 * C_5 * C_7^{aleph_1}"
MULTI_PAIR = DecisionInput(
    a1=parse_passive(MULTI_PASSIVE),
    a2=parse_passive(MULTI_PASSIVE),
    b1=parse_abelian("C_{2^5}^3 * C_{2^4}^{aleph_1} * C_2^8 * C_3^{aleph_1} * C_7^8"),
    b2=parse_abelian("C_{2^5}^3 * C_{2^4}^{aleph_0} * C_{2^3}^2 * C_2^9 * C_3^{aleph_0} * C_7^9"),
)


# ---------------------------------------------------------------------------
# hypotheses


def test_hypotheses_pass_for_c3_pair():
    assert check_hypotheses(C3_PAIR) == []


def codes(violations):
    return [(v.code, v.fatal) for v in violations]


def test_hypotheses_prime_not_dividing_passive_exponent():
    inp = DecisionInput(parse_passive("C_2"), parse_passive("C_2"),
                        parse_abelian("C_3"), parse_abelian("C_3"))
    assert codes(check_hypotheses(inp)) == [("prime_not_dividing_passive", True)]
    assert decide_equal(inp).verdict is Verdict.NOT_APPLICABLE


def test_hypotheses_whitelist_covers_d4_q8():
    assert check_hypotheses(D4Q8_PAIR) == []


def test_hypotheses_demand_assertion_for_unknown_pairs():
    inp = DecisionInput(parse_passive("C_2"), parse_passive("nilpotent(p=2, s=[1])"),
                        parse_abelian("C_2"), parse_abelian("C_2"))
    assert codes(check_hypotheses(inp)) == [("passive_variety_not_asserted", True)]
    asserted = DecisionInput(inp.a1, inp.a2, inp.b1, inp.b2,
                             assert_passive_var_equal=True)
    assert check_hypotheses(asserted) == []


def test_hypotheses_trivial_active_group():
    inp = DecisionInput(parse_passive("C_2"), parse_passive("C_2"),
                        parse_abelian("1"), parse_abelian("C_2"))
    assert codes(check_hypotheses(inp)) == [("trivial_active", True)]
    assert decide_equal(inp).verdict is Verdict.NOT_APPLICABLE


def test_hypotheses_passive_exponent_mismatch():
    inp = DecisionInput(parse_passive("C_2"), parse_passive("C_{2^2}"),
                        parse_abelian("C_2"), parse_abelian("C_2"),
                        assert_passive_var_equal=True)
    assert codes(check_hypotheses(inp)) == [("passive_exponent_mismatch", True)]
    assert decide_equal(inp).verdict is Verdict.NOT_APPLICABLE


# ---------------------------------------------------------------------------
# the decision


def test_decide_c3_pair():
    decision = decide_equal(C3_PAIR)
    assert decision.verdict is Verdict.UNEQUAL
    (pv,) = decision.per_prime
    assert (pv.p, pv.equivalent) == (3, False)
    assert (pv.divergence.t, pv.divergence.w) == (1, 2)
    assert decision.witness is not None


def test_decide_multi_prime_pair():
    decision = decide_equal(MULTI_PAIR)
    assert decision.verdict is Verdict.UNEQUAL
    assert [(pv.p, pv.equivalent) for pv in decision.per_prime] == [
        (2, True), (3, True), (7, False)]
    assert decision.witness.p == 7


def test_decide_reflexive():
    inp = DecisionInput(C3_PAIR.a1, C3_PAIR.a1, C3_PAIR.b1, C3_PAIR.b1)
    decision = decide_equal(inp)
    assert decision.verdict is Verdict.EQUAL
    assert decision.witness is None


def test_decide_exponent_mismatch_short_circuits_to_unequal():
    inp = DecisionInput(parse_passive("C_2"), parse_passive("C_2"),
                        parse_abelian("C_2"), parse_abelian("C_{2^2}"))
    decision = decide_equal(inp)
    assert decision.verdict is Verdict.UNEQUAL
    assert decision.per_prime == ()
    assert codes(decision.hypotheses) == [("active_exponent_mismatch", False)]
    # no violation is fatal, so the nonfatal one decides the verdict
    assert not any(v.fatal for v in decision.hypotheses)


def test_hypotheses_fatal_violations_outrank_the_exponent_mismatch():
    inp = DecisionInput(parse_passive("C_2"), parse_passive("C_3"),
                        parse_abelian("C_5"), parse_abelian("C_{5^2}"))
    assert codes(check_hypotheses(inp)) == [
        ("passive_exponent_mismatch", True),
        ("active_exponent_mismatch", False),
        ("prime_not_dividing_passive", True),
        ("passive_variety_not_asserted", True),
    ]
    decision = decide_equal(inp)
    assert decision.verdict is Verdict.NOT_APPLICABLE
    # a fatal violation outranks the nonfatal one: all four are kept, and
    # the verdict is the fatal ones'
    assert [v.fatal for v in decision.hypotheses] == [True, False, True, True]
    assert decision.per_prime == () and decision.witness is None


# presets, cyclic atoms and profiles, grouped by exponent
PASSIVES_BY_EXPONENT = (
    ("C_2", "nilpotent(p=2, s=[1])"),
    ("D4", "Q8", "C_4", "C_4 * C_2", "D4 * C_2", "Q8 * C_4", "nilpotent(p=2, s=[2, 1])",
     "nilpotent(p=2, s=[2, 2, 1])"),
    ("C_8", "D4 * C_8", "nilpotent(p=2, s=[3, 1], dl=2)"),
    ("C_3", "C_3^2", "nilpotent(p=3, s=[1, 1])"),
    ("C_4 * C_3", "D4 * C_3", "Q8 * nilpotent(p=3, s=[1, 1])"),
)
PASSIVES = tuple(a for group in PASSIVES_BY_EXPONENT for a in group)


@st.composite
def decision_inputs(draw, asserted):
    """Two passives and two actives over the first passive's primes, mostly
    with equivalent components.  Asserted, the passives are mostly of one
    exponent; else they are identical or the whitelisted D4 and Q8."""
    group = draw(st.sampled_from(PASSIVES_BY_EXPONENT))
    a1 = draw(st.sampled_from(group))
    if asserted:
        a2 = draw(st.sampled_from(group if draw(st.integers(0, 4)) else PASSIVES))
    else:
        a2 = {"D4": "Q8", "Q8": "D4"}.get(a1, a1) if draw(st.booleans()) else a1
    a1, a2 = parse_passive(a1), parse_passive(a2)
    primes = tuple(part.prime for part in a1.parts)
    b1 = draw(abelian_specs(primes, max_factors=3, max_power=3, min_factors=1))
    b2 = draw(st.just(b1) | abelian_specs(primes, max_factors=3, max_power=3, min_factors=1))
    return DecisionInput(a1, a2, b1, b2, asserted)


def _asserted(a1, a2, b):
    return DecisionInput(parse_passive(a1), parse_passive(a2), parse_abelian(b),
                         parse_abelian(b), assert_passive_var_equal=True)


@example(_asserted("C_4 * C_2", "D4", "C_2"))
@example(_asserted("D4", "nilpotent(p=2, s=[2, 2, 1])", "C_2"))
@example(_asserted("C_3 * D4", "C_3 * C_4 * C_2", "C_2"))
@example(_asserted("nilpotent(p=2, s=[2, 1])", "D4", "C_2"))
@given(decision_inputs(asserted=True))
def test_an_asserted_equal_verdict_never_sits_beside_differing_fingerprints(inp):
    decision = decide_equal(inp)
    fp1, fp2 = decision.fingerprints
    # a solubility bound of None is unknown, so it differs from nothing
    known = None not in (fp1.solubility_bound, fp2.solubility_bound)
    differ = ((fp1.exponent, fp1.nilpotency_class) != (fp2.exponent, fp2.nilpotency_class)
              or known and fp1.solubility_bound != fp2.solubility_bound)
    assert not (decision.verdict is Verdict.EQUAL and differ)
    if "passive_variety_refuted" in [v.code for v in decision.hypotheses]:
        # alone, with no per-prime lines and no witness, only where every
        # prime is equivalent, and with no number of the fingerprints
        assert codes(decision.hypotheses) == [("passive_variety_refuted", True)] and differ
        assert (decision.verdict, decision.per_prime, decision.witness) == (
            Verdict.NOT_APPLICABLE, (), None)
        assert all(divergence(inp.b1.p_component(p), inp.b2.p_component(p), p) is None
                   for p in inp.b1.primes())
        assert re.findall(r"\b\d+\b", decision.hypotheses[0].detail) == []


@given(decision_inputs(asserted=False))
def test_without_an_assertion_no_verdict_is_refuted(inp):
    # the passives are then identical or D4 and Q8, of one profile, so
    # equivalent components give identical fingerprints
    decision = decide_equal(inp)
    assert "passive_variety_refuted" not in [v.code for v in decision.hypotheses]
    if decision.verdict is Verdict.EQUAL:
        assert decision.fingerprints[0] == decision.fingerprints[1]


def test_decide_symmetric_under_swapping_sides():
    swapped = DecisionInput(C3_PAIR.a2, C3_PAIR.a1, C3_PAIR.b2, C3_PAIR.b1)
    assert decide_equal(swapped).verdict is decide_equal(C3_PAIR).verdict


def test_decide_does_not_depend_on_the_passive_pair():
    # same active groups, any hypothesis-satisfying passive pair
    for passive in ("C_3", "C_{3^2}", "nilpotent(p=3, s=[2, 1])"):
        inp = DecisionInput(parse_passive(passive), parse_passive(passive),
                            C3_PAIR.b1, C3_PAIR.b2)
        assert decide_equal(inp).verdict is Verdict.UNEQUAL


def test_decide_equal_finite_specializations():
    # both finite: equal exactly when the normalized specs are identical;
    # one finite, one infinite: always unequal
    b = parse_abelian("C_{3^2}^2")
    eq = DecisionInput(C3_PAIR.a1, C3_PAIR.a2, b, parse_abelian("C_{3^2}^2"))
    assert decide_equal(eq).verdict is Verdict.EQUAL
    assert decide_equal(C3_PAIR).verdict is Verdict.UNEQUAL
    mixed = DecisionInput(parse_passive("D4"), parse_passive("D4"),
                          parse_abelian("C_{2^2}^3 * C_2"),
                          parse_abelian("C_{2^2}^3 * C_2^{aleph_0}"))
    assert decide_equal(mixed).verdict is Verdict.UNEQUAL
    both_infinite = DecisionInput(parse_passive("C_2"), parse_passive("C_2"),
                                  parse_abelian("C_2^{aleph_0}"),
                                  parse_abelian("C_2^{aleph_0}"))
    assert decide_equal(both_infinite).verdict is Verdict.EQUAL


@given(p_components(2, min_factors=1, allow_infinite=False),
       p_components(2, min_factors=1, allow_infinite=False))
def test_decide_equal_on_finite_actives_is_spec_identity(b1, b2):
    if b1.exponent() != b2.exponent():
        return
    a = parse_passive("C_2")
    inp = DecisionInput(a, a, b1, b2)
    assert decide_equal(inp).verdict is (Verdict.EQUAL if b1 == b2 else Verdict.UNEQUAL)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_c3_pair():
    w = separation_witness(parse_passive("C_3"), C3_PAIR.b1, C3_PAIR.b2, 3)
    assert (w.t, w.w) == (1, 2)
    assert (w.class_b1, w.class_b2) == (5, 3)
    assert (w.separating.nilpotency_class, w.separating.burnside_exponent) == (3, 3)
    assert w.larger_input == 1


def test_witness_d4_q8_pair():
    w = separation_witness(parse_passive("Q8"), D4Q8_PAIR.b1, D4Q8_PAIR.b2, 2)
    assert (w.t, w.w) == (1, 2)
    assert (w.class_b1, w.class_b2) == (8, 4)
    assert (w.separating.nilpotency_class, w.separating.burnside_exponent) == (4, 2)


def test_witness_infinite_pair_truncates():
    w = separation_witness(parse_passive("D4"),
                           parse_abelian("C_{2^2}^3 * C_2^{aleph_0}"),
                           parse_abelian("C_{2^2} * C_2^{aleph_0}"), 2)
    assert (w.t, w.w) == (1, 2)
    assert w.class_b1 > w.class_b2


def test_witness_orientation_follows_the_larger_side():
    w = separation_witness(parse_passive("C_3"), C3_PAIR.b2, C3_PAIR.b1, 3)
    assert w.larger_input == 2
    assert (w.class_b1, w.class_b2) == (5, 3)


def test_witness_infinite_against_shorter_finite_side():
    w = separation_witness(parse_passive("C_2"),
                           parse_abelian("C_{2^2}"),
                           parse_abelian("C_{2^2} * C_2^{aleph_0}"), 2)
    assert (w.t, w.w) == (2, 1)
    assert w.larger_input == 2
    assert w.class_b1 > w.class_b2


def test_witness_requires_divergence():
    with pytest.raises(EquivalentComponentsError):
        separation_witness(parse_passive("C_3"), C3_PAIR.b1, C3_PAIR.b1, 3)
    with pytest.raises(ValueError):
        separation_witness(parse_passive("C_2"), C3_PAIR.b1, C3_PAIR.b2, 3)


@st.composite
def witness_inputs(draw):
    """A passive group and two active groups whose p-components diverge,
    over one prime or two.  The p-components share their top power, and
    the q-component of B2 is often B1's, so decide_equal often agrees on
    the exponents and attaches a witness."""
    p, q = draw(st.sampled_from(((2, 3), (3, 2))))
    passive = parse_passive(draw(st.sampled_from((
        f"C_{p}", f"nilpotent(p={p}, s=[2, 1])", f"C_{p} * C_{q}",
        f"nilpotent(p={p}, s=[3, 1]) * C_{{{q}^2}}"))))
    q1 = draw(p_components(q))
    q2 = draw(st.just(q1) | p_components(q))
    b1, b2 = (normalize((PrimaryFactor(p, 5, draw(multiplicities())),
                         *draw(p_components(p)).factors, *qs.factors)) for qs in (q1, q2))
    assume(divergence(b1.p_component(p), b2.p_component(p), p) is not None)
    return p, passive, b1, b2


@given(witness_inputs())
def test_witness_scope_is_whole_exactly_for_p_groups(args):
    p, a, b1, b2 = args
    whole = a.is_p_group() and {*b1.primes(), *b2.primes()} == {p}
    assert separation_witness(a, b1, b2, p).scope == ("whole" if whole else "reduced")
    # decide's witness, at the least prime that diverges, is the witness verb's
    witness = decide_equal(DecisionInput(a, a, b1, b2)).witness
    if witness is not None:
        assert witness == separation_witness(a, b1, b2, witness.p)


def _random_passive(data, p):
    c = data.draw(st.integers(1, 3))
    s = sorted(data.draw(st.lists(st.integers(1, 3), min_size=c, max_size=c)),
               reverse=True)
    return parse_passive(f"nilpotent(p={p}, s=[{', '.join(map(str, s))}])")


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_witness_classes_strictly_separated(p, data):
    b1 = data.draw(p_components(p, min_factors=1, max_power=3))
    b2 = data.draw(p_components(p, min_factors=1, max_power=3))
    from wreathvar import equivalent_p

    if equivalent_p(b1, b2, p):
        return
    w = separation_witness(_random_passive(data, p), b1, b2, p)
    assert w.class_b1 > w.class_b2
    assert w.separating.nilpotency_class == w.class_b2


def _reference_reduced_groups(c1, c2, p):
    """``B1'`` and ``B2'``, larger slot first, by the definition: the
    common prefix and the ``w``-slot (an infinite slot stands in for one
    more copy than the other side), normalized, then raised to
    ``p**(w-1)``."""
    div = divergence(c1, c2, p)
    t, w = div.t, div.w
    slots = [c.factors[t - 1].copies if len(c.factors) >= t and c.factors[t - 1].power == w
             else Cardinal.finite(0) for c in (c1, c2)]
    small, big = sorted(slots)
    sizes = (big.as_int() if not big.is_infinite else small.as_int() + 1, small.as_int())
    return [normalize((*c1.factors[: t - 1], PrimaryFactor(p, w, Cardinal.finite(n))))
            .power(p ** (w - 1)) for n in sizes]


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_witness_reduces_to_the_normalized_prefix_and_slot(p, data):
    # a common finite prefix, then two tails of smaller powers, so that the
    # walk passes the prefix before it diverges
    prefix = data.draw(p_components(p, max_factors=3, max_power=6, allow_infinite=False))
    low = prefix.factors[-1].power - 1 if prefix.factors else 6
    c1, c2 = (normalize((*prefix.factors, *data.draw(p_components(
        p, max_factors=3 if low else 0, max_power=max(low, 1))).factors)) for _ in range(2))
    assume(divergence(c1, c2, p) is not None)
    with mock.patch.object(variety, "shield_class", wraps=variety.shield_class) as spy:
        separation_witness(parse_passive(f"C_{p}"), c1, c2, p)
    big, small = _reference_reduced_groups(c1, c2, p)
    # the smaller side's class is the passive's own when it reduces to 1
    assert [c.args[1] for c in spy.call_args_list] == ([big] if small.is_trivial()
                                                       else [big, small])


def test_witness_corroborated_by_enumeration():
    # reduced groups named by the witness really have distinct classes
    w = separation_witness(parse_passive("C_2"),
                           parse_abelian("C_2^2"), parse_abelian("C_2"), 2)
    assert (w.class_b1, w.class_b2) == (3, 2)
    c2 = concrete_cyclic(2)
    big = concrete_wreath(c2, concrete_abelian(parse_abelian("C_2^2")))
    small = concrete_wreath(c2, concrete_cyclic(2))
    assert nilpotency_class(big) == 3
    assert nilpotency_class(small) == 2


def test_c3_pair_witness_reduced_classes_corroborated():
    # the reduced wreath products behind the 5 > 3 witness, enumerated in
    # full; the bigger one has 3^9 * 9 elements and is the largest oracle
    # instance in the suite
    w = separation_witness(parse_passive("C_3"), C3_PAIR.b1, C3_PAIR.b2, 3)
    assert (w.class_b1, w.class_b2) == (5, 3)
    c3 = concrete_cyclic(3)
    big = concrete_wreath(c3, concrete_abelian(parse_abelian("C_3^2")))
    small = concrete_wreath(c3, concrete_cyclic(3))
    assert nilpotency_class(big) == 5
    assert nilpotency_class(small) == 3


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_values():
    fp = fingerprint(parse_passive("C_3"), parse_abelian("C_{3^2}^2"))
    assert (fp.exponent, fp.nilpotent, fp.nilpotency_class, fp.solubility_bound) == \
        (27, True, 17, 2)
    fp = fingerprint(parse_passive("D4"), parse_abelian("C_{2^2}^3 * C_2"))
    assert (fp.exponent, fp.nilpotent, fp.nilpotency_class, fp.solubility_bound) == \
        (16, True, 22, 3)
    fp = fingerprint(parse_passive("C_2"), parse_abelian("C_2^{aleph_0}"))
    assert (fp.exponent, fp.nilpotent, fp.nilpotency_class) == (4, False, None)


def test_fingerprint_rejects_a_trivial_active():
    with pytest.raises(ValueError, match="the active group must be nontrivial"):
        fingerprint(parse_passive("C_2"), parse_abelian("1"))


def test_fingerprints_agree_while_varieties_differ():
    for pair in (C3_PAIR, D4Q8_PAIR):
        decision = decide_equal(pair)
        assert decision.verdict is Verdict.UNEQUAL
        fp1, fp2 = decision.fingerprints
        assert fp1 == fp2


# ---------------------------------------------------------------------------
# serialization


def test_decision_json_schema():
    doc = decide_equal(D4Q8_PAIR).to_json_dict()
    doc = json.loads(json.dumps(doc))
    assert set(doc) == {"verdict", "hypotheses", "per_prime", "witness", "fingerprints"}
    assert doc["verdict"] == "unequal"
    assert all(set(e) == {"p", "equivalent", "t", "w"} for e in doc["per_prime"])
    assert set(doc["witness"]) == {"p", "t", "w", "class_b1", "class_b2", "separating"}
    assert set(doc["witness"]["separating"]) == {"class", "burnside_exponent"}
    assert doc["witness"]["separating"] == {"class": 4, "burnside_exponent": 2}
    assert all(
        set(fp) == {"exponent", "nilpotent", "class", "solubility_bound"}
        for fp in doc["fingerprints"]
    )
