import json

import pytest
from hypothesis import assume, given, strategies as st

from wreathvar import (
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

from conftest import SMALL_PRIMES, multiplicities, p_components

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
