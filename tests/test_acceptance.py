"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single ``criterion N: PASS`` line (run with ``pytest -s`` to see
them).  Everything is exact integer equality; the only tolerances are
the stated wall-clock budgets.
"""

import random
import time

import pytest

from wreathvar import (
    Cardinal,
    DecisionInput,
    PrimaryFactor,
    Verdict,
    concrete_abelian,
    concrete_passive,
    concrete_preset,
    decide_equal,
    equivalent,
    equivalent_p,
    kp_series_concrete,
    normalize,
    parse_abelian,
    parse_passive,
    passive_atoms,
    separation_witness,
    shield_class,
    shield_params,
    verify_shield,
)

from conftest import kp_terms, plog


def _report(num: int, text: str) -> None:
    print(f"\ncriterion {num}: PASS - {text}")


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# criterion 1: the cyclic-passive pair with class 17


def test_criterion_1_shield_parameters_and_class():
    b1 = parse_abelian("C_{3^2}^2")
    b2 = parse_abelian("C_{3^2} * C_3^4")
    a = parse_passive("C_3")

    def compute():
        p1 = shield_params(b1, 3)
        p2 = shield_params(b2, 3)
        return p1, p2, shield_class(a, b1), shield_class(a, b2)

    p1, p2, c1, c2 = compute()
    assert (p1.d, p1.e, p1.a, p1.b) == (3, (2, 0, 2), 17, 6)
    assert (p2.d, p2.e, p2.a, p2.b) == (3, (5, 0, 1), 17, 6)
    assert c1 == c2 == 17
    elapsed = _best_of(compute)
    assert elapsed < 1e-3, f"took {elapsed:.6f}s"
    _report(1, f"d/e/a/b and class 17 reproduced in {elapsed * 1e6:.0f}us")


# ---------------------------------------------------------------------------
# criterion 2: the D4/Q8 pair with class 22


def test_criterion_2_d4_q8_pair():
    d4, q8 = parse_passive("D4"), parse_passive("Q8")
    b1 = parse_abelian("C_{2^2}^3 * C_2")
    b2 = parse_abelian("C_{2^2} * C_2^7")

    def compute():
        return (
            shield_class(d4, b1),
            shield_class(q8, b2),
            decide_equal(DecisionInput(d4, q8, b1, b2)),
        )

    c1, c2, decision = compute()
    assert c1 == c2 == 22
    fp1, fp2 = decision.fingerprints
    assert fp1 == fp2
    assert (fp1.exponent, fp1.nilpotency_class, fp1.solubility_bound) == (16, 22, 3)
    assert decision.verdict is Verdict.UNEQUAL
    w = decision.witness
    assert (w.separating.nilpotency_class, w.separating.burnside_exponent) == (4, 2)
    elapsed = _best_of(compute)
    assert elapsed < 1e-3, f"took {elapsed:.6f}s"
    _report(2, f"class 22 twice, equal fingerprints, witness N_4 B_2, "
               f"decided in {elapsed * 1e6:.0f}us")


# ---------------------------------------------------------------------------
# criterion 3: the multi-prime pair decided prime by prime


def test_criterion_3_multi_prime_pair():
    passive = parse_passive("D4 * Q8 * C_3 * C_5 * C_7^{aleph_1}")
    b1 = parse_abelian("C_{2^5}^3 * C_{2^4}^{aleph_1} * C_2^8 * C_3^{aleph_1} * C_7^8")
    b2 = parse_abelian(
        "C_{2^5}^3 * C_{2^4}^{aleph_0} * C_{2^3}^2 * C_2^9 * C_3^{aleph_0} * C_7^9")
    inp = DecisionInput(passive, passive, b1, b2)

    decision = decide_equal(inp)
    assert [(pv.p, pv.equivalent) for pv in decision.per_prime] == [
        (2, True), (3, True), (7, False)]
    assert 5 not in [pv.p for pv in decision.per_prime]
    assert decision.verdict is Verdict.UNEQUAL
    elapsed = _best_of(lambda: decide_equal(inp))
    assert elapsed < 1e-3, f"took {elapsed:.6f}s"
    _report(3, f"per-prime verdicts (2: eq, 3: eq, 7: not), 5 ignored, "
               f"in {elapsed * 1e6:.0f}us")


# ---------------------------------------------------------------------------
# criterion 4: decomposition invariants, allowed and forbidden alterations


def test_criterion_4_invariants_and_alterations():
    sample = ("C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} "
              "* C_{5^3}^4 * C_{5^2}")
    base = parse_abelian(sample)
    table = [(f.prime, f.power, f.copies.render()) for f in base.factors]
    assert table == [
        (3, 5, "6"), (3, 3, "aleph_0"), (3, 2, "5"), (3, 1, "aleph_1"),
        (5, 3, "4"), (5, 2, "1"),
    ]
    # everything at and after the first infinite 3-factor may change
    altered = parse_abelian(
        "C_{3^5}^6 * C_{3^3}^{aleph_1} * C_{3^2}^9 * C_3^{aleph_0} "
        "* C_{5^3}^4 * C_{5^2}")
    assert equivalent(base, altered)
    dropped_tail = parse_abelian("C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{5^3}^4 * C_{5^2}")
    assert equivalent(base, dropped_tail)
    # the three protected factors may not
    forbidden = [
        "C_{3^5}^7 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}",
        "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^2 * C_{5^2}",
        "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}^3",
    ]
    for expr in forbidden:
        assert not equivalent(base, parse_abelian(expr))
    _report(4, "invariant table reproduced; allowed alterations equivalent, "
               "all three protected factors flip the verdict")


# ---------------------------------------------------------------------------
# criteria 5 and 6: oracle agreement and the exponent law


ORACLE_INSTANCES = [
    ("C_2", "C_2", 2),
    ("C_3", "C_3", 3),
    ("C_2", "C_{2^2}", 4),
    ("C_2", "C_2^2", None),
    ("C_{2^2}", "C_2", None),
    ("C_2", "C_{2^3}", 8),
    ("D4", "C_2", None),
    ("Q8", "C_2", None),
]


@pytest.fixture(scope="module")
def oracle_reports():
    t0 = time.perf_counter()
    reports = []
    for passive, active, pinned in ORACLE_INSTANCES:
        a_spec = parse_passive(passive)
        b_spec = parse_abelian(active)
        report = verify_shield(a_spec, concrete_passive(passive_atoms(passive)),
                               b_spec, concrete_abelian(b_spec))
        reports.append((passive, active, pinned, report))
    return reports, time.perf_counter() - t0


def test_criterion_5_shield_equals_enumeration(oracle_reports):
    reports, elapsed = oracle_reports
    for passive, active, pinned, report in reports:
        assert report.class_match, f"{passive} wr {active}"
        if pinned is not None:
            assert report.shield_class == pinned, f"{passive} wr {active}"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    pins = ", ".join(f"{p} wr {a} = {r.shield_class}" for p, a, _, r in reports)
    _report(5, f"classes agree on all 8 instances in {elapsed:.2f}s ({pins})")


def test_criterion_6_exponent_law(oracle_reports):
    reports, _ = oracle_reports
    for passive, active, _, report in reports:
        assert report.exponent_match, f"{passive} wr {active}"
    _report(6, "exp(A wr B) = exp(A) * exp(B) on all 8 instances")


# ---------------------------------------------------------------------------
# criterion 7: randomized property suites


CASES = 1000


def _rand_cardinal(rng, allow_infinite=True, allow_zero=False):
    if allow_infinite and rng.random() < 0.3:
        return Cardinal.aleph(rng.randrange(3))
    return Cardinal.finite(rng.randrange(0 if allow_zero else 1, 9))


def _rand_component(rng, p, max_power=4, allow_infinite=True, nonempty=False):
    count = rng.randrange(1 if nonempty else 0, 4)
    powers = rng.sample(range(1, max_power + 1), min(count, max_power))
    return normalize(
        PrimaryFactor(p, u, _rand_cardinal(rng, allow_infinite)) for u in powers
    )


def _rand_equivalent_rewrite(rng, comp, p):
    """An equivalent rewrite of an infinite component: keep the finite
    prefix and the power at the first infinite factor, scramble the rest."""
    k = next(i for i, f in enumerate(comp.factors) if f.copies.is_infinite)
    kf = comp.factors[k]
    tail = [
        PrimaryFactor(p, rng.randrange(1, kf.power + 1), _rand_cardinal(rng))
        for _ in range(rng.randrange(3))
    ]
    return normalize(
        list(comp.factors[:k])
        + [PrimaryFactor(p, kf.power, Cardinal.aleph(rng.randrange(3)))]
        + tail
    )


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260810)

    # the relation is reflexive and symmetric
    for _ in range(CASES):
        p = rng.choice([2, 3, 5])
        a = _rand_component(rng, p)
        b = _rand_component(rng, p)
        assert equivalent_p(a, a, p)
        assert equivalent_p(a, b, p) == equivalent_p(b, a, p)

    # transitive, via equivalent rewrites of a shared infinite base
    for _ in range(CASES):
        p = rng.choice([2, 3, 5])
        base = _rand_component(rng, p, nonempty=True)
        if base.is_finite():
            base = normalize(
                list(base.factors) + [PrimaryFactor(p, 1, Cardinal.aleph(0))])
        m1 = _rand_equivalent_rewrite(rng, base, p)
        m2 = _rand_equivalent_rewrite(rng, base, p)
        assert equivalent_p(base, m1, p) and equivalent_p(base, m2, p)
        assert equivalent_p(m1, m2, p)

    # normalize is idempotent
    for _ in range(CASES):
        factors = [
            PrimaryFactor(rng.choice([2, 3, 5]), rng.randrange(1, 5),
                          _rand_cardinal(rng, allow_zero=True))
            for _ in range(rng.randrange(6))
        ]
        once = normalize(factors)
        assert normalize(once.factors) == once

    # parse inverts render
    for _ in range(CASES):
        spec = normalize(
            f for p in (2, 3, 5)
            for f in _rand_component(rng, p).factors
        )
        assert parse_abelian(spec.render()) == spec

    # finite components: equivalent exactly when identical
    for _ in range(CASES):
        p = rng.choice([2, 3, 5])
        a = _rand_component(rng, p, allow_infinite=False)
        b = a if rng.random() < 0.4 else _rand_component(rng, p, allow_infinite=False)
        assert equivalent_p(a, b, p) == (a == b)

    # finite against infinite: never equivalent
    for _ in range(CASES):
        p = rng.choice([2, 3, 5])
        a = _rand_component(rng, p, allow_infinite=False)
        b = _rand_component(rng, p, nonempty=True)
        if b.is_finite():
            b = normalize(list(b.factors) + [PrimaryFactor(p, 1, Cardinal.aleph(1))])
        assert not equivalent_p(a, b, p)

    # the last nontrivial chain index is exponent/p
    for _ in range(CASES):
        p = rng.choice([2, 3, 5])
        spec = _rand_component(rng, p, allow_infinite=False, nonempty=True)
        assert shield_params(spec, p).d == spec.exponent() // p

    # witnesses separate strictly
    produced = 0
    while produced < CASES:
        p = rng.choice([2, 3, 5])
        b1 = _rand_component(rng, p, max_power=3, nonempty=True)
        b2 = _rand_component(rng, p, max_power=3, nonempty=True)
        if equivalent_p(b1, b2, p):
            continue
        c = rng.randrange(1, 4)
        s = sorted((rng.randrange(1, 4) for _ in range(c)), reverse=True)
        passive = parse_passive(f"nilpotent(p={p}, s=[{', '.join(map(str, s))}])")
        w = separation_witness(passive, b1, b2, p)
        assert w.class_b1 > w.class_b2
        produced += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _report(7, f"8 suites x {CASES} randomized cases in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: symbolic chain orders equal enumerated subgroup orders


def test_criterion_8_series_cross_check():
    for expr, p in (("C_{2^2}", 2), ("C_{3^2}^2", 3), ("C_{2^2} * C_2", 2)):
        spec = parse_abelian(expr)
        symbolic = tuple(p ** plog(term) for term in kp_terms(spec, p))
        concrete = kp_series_concrete(concrete_abelian(spec), p).orders()
        assert symbolic == concrete, expr
    # non-abelian case: the commutator terms of the general definition
    assert kp_series_concrete(concrete_preset("D4"), 2).orders() == (8, 2, 1)
    _report(8, "chain orders agree on C_{2^2}, C_{3^2}^2, C_{2^2} * C_2; "
               "D4 exercises the commutator terms")
