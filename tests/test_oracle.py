import math

import pytest

from wreathvar import (
    BudgetExceededError,
    concrete_abelian,
    concrete_cyclic,
    concrete_passive,
    concrete_preset,
    concrete_product,
    concrete_wreath,
    derived_length_concrete,
    exponent_concrete,
    fingerprint,
    kp_series,
    kp_series_concrete,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    parse_abelian,
    parse_passive,
    passive_atoms,
    subgroup_generated,
    verify_shield,
)
from wreathvar.oracle import (
    derived_series,
    element_order_profile,
    subgroup_exponent,
    wreath_order,
)
from wreathvar.shield import _plog


def symbolic_orders(expr, p):
    """Orders of ``K_1 .. K_{d+1}``, the chain written out."""
    chain = kp_series(parse_abelian(expr), p)
    return tuple(p ** _plog(chain.term(i)) for i in range(1, chain.d + 2))


# ---------------------------------------------------------------------------
# constructions


def test_cyclic():
    c4 = concrete_cyclic(4)
    assert (c4.order, c4.exponent()) == (4, 4)
    assert concrete_cyclic(1).order == 1
    c9 = concrete_cyclic(9)
    assert c9.element_order(c9.generators[0]) == 9


def test_cyclic_budget():
    with pytest.raises(BudgetExceededError):
        concrete_cyclic(10, budget=9)


def test_product():
    klein = concrete_product([concrete_cyclic(2), concrete_cyclic(2)])
    assert (klein.order, klein.exponent()) == (4, 2)
    big = concrete_abelian(parse_abelian("C_{3^2} * C_3^4"))
    assert big.order == 729
    assert concrete_product([]).order == 1


def test_presets():
    d4 = concrete_preset("D4")
    q8 = concrete_preset("Q8")
    for g in (d4, q8):
        assert (g.order, g.exponent()) == (8, 4)
        assert nilpotency_class(g) == 2
    # distinct element-order profiles: the presets are not isomorphic
    assert element_order_profile(d4)[4] == 2
    assert element_order_profile(q8)[4] == 6
    with pytest.raises(ValueError):
        concrete_preset("S4")


def test_wreath_of_cycles_matches_the_dihedral_group():
    w = concrete_wreath(concrete_cyclic(2), concrete_cyclic(2))
    d4 = concrete_preset("D4")
    assert w.order == d4.order == 8
    assert exponent_concrete(w) == 4
    assert nilpotency_class(w) == 2
    assert element_order_profile(w) == element_order_profile(d4)


def test_wreath_orders():
    assert concrete_wreath(concrete_cyclic(3), concrete_cyclic(3)).order == 81
    assert concrete_wreath(concrete_cyclic(2), concrete_cyclic(4)).order == 64


def test_wreath_budget():
    big = concrete_abelian(parse_abelian("C_{3^2}^2"))
    with pytest.raises(BudgetExceededError):
        concrete_wreath(concrete_cyclic(3), big)
    assert wreath_order(3, 81, cap=200_000) is None
    assert wreath_order(2, 2, cap=200_000) == 8


def test_concrete_passive():
    g = concrete_passive(passive_atoms("D4 * C_3"))
    assert (g.order, g.exponent()) == (24, 12)
    with pytest.raises(ValueError):
        concrete_passive(passive_atoms("C_3^{aleph_0}"))
    with pytest.raises(ValueError):
        concrete_passive(passive_atoms("nilpotent(p=2, s=[1])"))


def test_budget_checked_before_expanding_multiplicities():
    # must raise promptly, long before materializing 2^999999999 anything
    with pytest.raises(BudgetExceededError):
        concrete_abelian(parse_abelian("C_2^999999999"))
    with pytest.raises(BudgetExceededError):
        concrete_passive(passive_atoms("C_2^999999999"))


# ---------------------------------------------------------------------------
# subgroup machinery


def test_subgroup_generated_and_normal_closure():
    d4 = concrete_preset("D4")
    rotations = subgroup_generated(d4, [(1, 0)])
    assert len(rotations) == 4
    # the reflection generates a non-normal order-2 subgroup; its closure is larger
    reflection = subgroup_generated(d4, [(0, 1)])
    assert len(reflection) == 2
    assert len(normal_closure(d4, [(0, 1)])) > 2


def test_lower_central_series_abelian():
    chain = lower_central_series(concrete_cyclic(6))
    assert chain.orders() == (6, 1)


def test_lower_central_series_presets():
    d4 = concrete_preset("D4")
    chain = lower_central_series(d4)
    assert chain.orders() == (8, 2, 1)
    assert chain.terms[1] == frozenset({(0, 0), (2, 0)})  # the squares of rotations
    q8 = concrete_preset("Q8")
    assert lower_central_series(q8).orders() == (8, 2, 1)
    assert lower_central_series(q8).terms[1] == frozenset({(0, 0), (2, 0)})


def test_series_terms_are_normal_with_central_quotients():
    g = concrete_wreath(concrete_cyclic(3), concrete_cyclic(3))
    chain = lower_central_series(g)
    for r, term in enumerate(chain.terms[:-1]):
        nxt = chain.terms[r + 1]
        for x in term:
            for gen in g.generators:
                conj = g.mul(g.mul(g.inv(gen), x), gen)
                assert conj in term
                comm = g.mul(g.inv(x), conj)
                assert comm in nxt


def test_nilpotency_classes_of_small_wreaths():
    assert nilpotency_class(concrete_wreath(concrete_cyclic(2), concrete_cyclic(2))) == 2
    assert nilpotency_class(concrete_wreath(concrete_cyclic(3), concrete_cyclic(3))) == 3


def test_non_nilpotent_group_has_no_class():
    s3 = concrete_wreath(concrete_cyclic(3), concrete_cyclic(2))
    # C_3 wr C_2 has order 18 and is not nilpotent (2 does not equal 3):
    # its series stops at a non-trivial term, its exponent has two primes
    assert nilpotency_class(s3) is None
    assert lower_central_series(s3).orders() == (18, 3)
    assert exponent_concrete(s3) == 6
    assert derived_series(s3).orders() == (18, 3, 1)


def test_derived_lengths():
    assert derived_length_concrete(concrete_preset("D4")) == 2
    assert derived_length_concrete(concrete_cyclic(5)) == 1
    assert derived_length_concrete(
        concrete_wreath(concrete_cyclic(2), concrete_cyclic(2))) == 2


def test_exponent_of_trivial_group():
    assert exponent_concrete(concrete_cyclic(1)) == 1
    assert exponent_concrete(concrete_product([])) == 1


def test_exponents_multiply_in_wreaths():
    pairs = [
        (concrete_cyclic(2), concrete_cyclic(2)),
        (concrete_cyclic(4), concrete_cyclic(2)),
        (concrete_preset("D4"), concrete_cyclic(2)),
    ]
    for a, b in pairs:
        w = concrete_wreath(a, b)
        assert exponent_concrete(w) == exponent_concrete(a) * exponent_concrete(b)


# ---------------------------------------------------------------------------
# the generator-based engine against the element-wise definitions
#
# The reference helpers below form a product for every element of a term:
# a commutator with each generator, or with each element, and every
# power up to an element's order.  They are slow, and independent of the
# package's coset and normal-generator reasoning.


def ref_subgroup_generated(G, seeds):
    """Closure of the identity under right multiplication by the seeds."""
    seeds = list(dict.fromkeys(seeds))
    seen, frontier = {G.identity}, [G.identity]
    while frontier:
        fresh = [y for x in frontier for y in (G.mul(x, a) for a in seeds) if y not in seen]
        seen.update(fresh)
        frontier = list(dict.fromkeys(fresh))
    return frozenset(seen)


def ref_normal_closure(G, seeds):
    H = ref_subgroup_generated(G, seeds)
    while True:
        conj = {G.mul(G.mul(G.inv(g), h), g) for g in G.generators for h in H}
        if conj <= H:
            return H
        H = ref_subgroup_generated(G, H | conj)


def ref_commutator(G, x, y):
    return G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))


def ref_lower_central_series(G):
    terms = [frozenset(G.elements)]
    while len(terms[-1]) > 1:
        nxt = ref_normal_closure(
            G, {ref_commutator(G, x, g) for x in terms[-1] for g in G.generators})
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)


def ref_derived_series(G):
    terms = [frozenset(G.elements)]
    while len(terms[-1]) > 1:
        nxt = ref_subgroup_generated(
            G, {ref_commutator(G, x, y) for x in terms[-1] for y in terms[-1]})
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)


def ref_exponent(G, H):
    return math.lcm(*(G.element_order(x) for x in H))


def assert_engine_matches_reference(G, derived=True):
    lcs = lower_central_series(G).terms
    assert lcs == ref_lower_central_series(G), G.label
    assert [subgroup_exponent(G, t) for t in lcs] == [ref_exponent(G, t) for t in lcs], G.label
    assert exponent_concrete(G) == ref_exponent(G, G.elements), G.label
    if derived:
        assert derived_series(G).terms == ref_derived_series(G), G.label


SMALL_GROUPS = {
    "D4": lambda: concrete_preset("D4"),
    "Q8": lambda: concrete_preset("Q8"),
    "C_6": lambda: concrete_cyclic(6),
    "D4 x C_3": lambda: concrete_passive(passive_atoms("D4 * C_3")),
    "C_3 wr C_2": lambda: concrete_wreath(concrete_cyclic(3), concrete_cyclic(2)),
}


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_engine_matches_reference_on_small_groups(name):
    assert_engine_matches_reference(SMALL_GROUPS[name]())


@pytest.mark.parametrize("name", ["D4", "D4 x C_3", "C_3 wr C_2"])
def test_closures_match_reference_on_every_pair_of_elements(name):
    # adjoining the second element to a subgroup it does not normalize
    # must add cosets by every generator, not by the new one alone
    G = SMALL_GROUPS[name]()
    for x in G.elements:
        for y in G.elements:
            assert subgroup_generated(G, [x, y]) == ref_subgroup_generated(G, [x, y])
            assert normal_closure(G, [x, y]) == ref_normal_closure(G, [x, y])


def test_engine_matches_reference_on_the_oracle_sweep():
    # the derived series' reference forms |H|^2 commutators, so it runs
    # on the pairs of at most 128 elements only
    checked = 0
    for _, _, a_conc, b_spec in sweep_pairs(2_500):
        G = concrete_wreath(a_conc, concrete_abelian(b_spec))
        assert_engine_matches_reference(G, derived=G.order <= 128)
        checked += 1
    assert checked == 15


def count_mul_calls(G):
    """Wraps ``G.mul`` so that every product on ``G`` is counted."""
    calls = [0]
    mul = G.mul

    def counted_mul(x, y):
        calls[0] += 1
        return mul(x, y)

    G.mul = counted_mul
    return calls


def test_engine_cost_is_far_below_one_product_per_element():
    # C_2 wr C_2^3, 2 048 elements.  The series takes 398 products from
    # normal generators and 29 142 element-wise; the exponent 2 120 on
    # the ladder and 5 407 walking each element up to its order.
    G = concrete_wreath(concrete_cyclic(2), concrete_abelian(parse_abelian("C_2^3")))
    calls = count_mul_calls(G)
    assert lower_central_series(G).orders() == (2048, 128, 16, 2, 1)
    assert calls[0] <= 2_000
    calls[0] = 0
    assert exponent_concrete(G) == 4
    assert calls[0] <= 3_000


# ---------------------------------------------------------------------------
# the general K-series


def test_kp_concrete_cyclic():
    assert kp_series_concrete(concrete_cyclic(4), 2).orders() == (4, 2, 1)


def test_kp_concrete_matches_symbolic_on_abelian_groups():
    cases = [("C_{2^2}", 2), ("C_{3^2}^2", 3), ("C_{2^2} * C_2", 2)]
    for expr, p in cases:
        conc = concrete_abelian(parse_abelian(expr))
        assert kp_series_concrete(conc, p).orders() == symbolic_orders(expr, p)


def test_kp_concrete_on_a_non_abelian_group():
    # commutator terms contribute here: the derived subgroup of order 2
    # enters every K_i with i <= 2
    chain = kp_series_concrete(concrete_preset("D4"), 2)
    assert chain.orders() == (8, 2, 1)
    assert chain.terms[1] == frozenset({(0, 0), (2, 0)})
    assert kp_series_concrete(concrete_preset("Q8"), 2).orders() == (8, 2, 1)


def test_kp_concrete_rejects_non_p_groups():
    with pytest.raises(ValueError):
        kp_series_concrete(concrete_cyclic(6), 2)


# ---------------------------------------------------------------------------
# cross-validation


@pytest.mark.parametrize(
    "passive,active,expected_class",
    [
        ("C_3", "C_3", 3),
        ("C_2", "C_{2^2}", 4),
        ("C_2", "C_2^2", 3),
    ],
)
def test_verify_shield_agrees(passive, active, expected_class):
    a_spec = parse_passive(passive)
    b_spec = parse_abelian(active)
    report = verify_shield(a_spec, concrete_passive(passive_atoms(passive)),
                           b_spec, concrete_abelian(b_spec))
    assert report.ok
    assert report.shield_class == report.oracle_class == expected_class
    assert report.exponent_match and report.chain_match


def test_verify_shield_rejects_mismatched_spec():
    with pytest.raises(ValueError):
        verify_shield(parse_passive("C_3"), concrete_cyclic(9),
                      parse_abelian("C_3"), concrete_cyclic(3))
    with pytest.raises(ValueError):
        verify_shield(parse_passive("C_3"), concrete_cyclic(3),
                      parse_abelian("C_3^2"), concrete_cyclic(3))


def test_verify_shield_rejects_non_nilpotent_pairs():
    with pytest.raises(ValueError):
        verify_shield(parse_passive("C_3"), concrete_cyclic(3),
                      parse_abelian("C_2"), concrete_cyclic(2))


SWEEP_PASSIVES = ["C_2", "C_{2^2}", "C_{2^3}", "D4", "Q8", "C_3", "C_{3^2}",
                  "C_3 * C_3", "C_5"]
SWEEP_ACTIVES = {
    2: ["C_2", "C_{2^2}", "C_{2^3}", "C_2^2", "C_{2^2} * C_2", "C_2^3"],
    3: ["C_3", "C_{3^2}", "C_3^2"],
    5: ["C_5"],
}


def sweep_pairs(cap):
    """Every nilpotent sweep pair whose wreath product has at most ``cap``
    elements, as (label, passive spec, passive group, active spec)."""
    for pexpr in SWEEP_PASSIVES:
        a_spec = parse_passive(pexpr)
        p = a_spec.parts[0].prime
        a_conc = concrete_passive(passive_atoms(pexpr))
        for bexpr in SWEEP_ACTIVES[p]:
            b_spec = parse_abelian(bexpr)
            if wreath_order(a_conc.order, b_spec.order(), cap=cap) is not None:
                yield f"{pexpr} wr {bexpr}", a_spec, a_conc, b_spec


def test_verify_shield_sweep_over_every_desk_scale_pair():
    checked = 0
    for label, a_spec, a_conc, b_spec in sweep_pairs(20_000):
        report = verify_shield(a_spec, a_conc, b_spec, concrete_abelian(b_spec))
        assert report.ok, f"{label}: {report}"
        checked += 1
    assert checked == 22


def test_derived_length_within_the_solubility_bound_on_the_sweep():
    checked = attained = 0
    for label, a_spec, a_conc, b_spec in sweep_pairs(20_000):
        dl = derived_length_concrete(concrete_wreath(a_conc, concrete_abelian(b_spec)))
        bound = fingerprint(a_spec, b_spec).solubility_bound
        assert dl <= bound, f"{label}: derived length {dl} > {bound}"
        checked += 1
        attained += dl == bound
    # the bound dl(A) + 1 is attained on every pair: 2 over an abelian
    # passive group, 3 over D4 and Q8
    assert attained == checked == 22


def test_verify_report_serializes():
    spec = parse_abelian("C_2")
    report = verify_shield(parse_passive("C_2"), concrete_cyclic(2),
                           spec, concrete_abelian(spec))
    doc = report.to_json_dict()
    assert doc["ok"] and doc["class_match"] and doc["chain_match"]
    assert doc["shield_class"] == doc["oracle_class"] == 2
