import collections
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from wreathvar import (
    BudgetExceededError,
    ConcreteGroup,
    NotNilpotentError,
    baumslag_reason,
    concrete_abelian,
    concrete_cyclic,
    concrete_passive,
    concrete_preset,
    concrete_product,
    concrete_wreath,
    derived_length_concrete,
    exponent_concrete,
    fingerprint,
    kp_series_concrete,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    parse_abelian,
    parse_passive,
    passive_atoms,
    shield_params,
    subgroup_generated,
    verify_shield,
)
from wreathvar import oracle
from wreathvar.oracle import (
    derived_series,
    subgroup_exponent,
    wreath_order,
)

from conftest import kp_terms, p_components, plog


def symbolic_orders(expr, p):
    """Orders of ``K_1 .. K_{d+1}``, the chain written out."""
    return tuple(p ** plog(term) for term in kp_terms(parse_abelian(expr), p))


def element_order_profile(G):
    """How many elements have each order; a cheap isomorphism invariant."""
    return collections.Counter(map(G.element_order, G.elements))


# ---------------------------------------------------------------------------
# constructions


def test_cyclic():
    c4 = concrete_cyclic(4)
    assert (c4.order, exponent_concrete(c4)) == (4, 4)
    assert concrete_cyclic(1).order == 1
    c9 = concrete_cyclic(9)
    assert c9.element_order(c9.generators[0]) == 9
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        concrete_cyclic(0)


def test_cyclic_budget():
    with pytest.raises(BudgetExceededError):
        concrete_cyclic(10, budget=9)


def test_product():
    klein = concrete_product([concrete_cyclic(2), concrete_cyclic(2)])
    assert (klein.order, exponent_concrete(klein)) == (4, 2)
    big = concrete_abelian(parse_abelian("C_{3^2} * C_3^4"))
    assert big.order == 729
    assert concrete_product([]).order == 1
    c3 = concrete_cyclic(3)
    with pytest.raises(BudgetExceededError, match="C_3 x C_3 x C_3: 27 elements exceed "
                                                  "the budget 26"):
        concrete_product([c3, c3, c3], budget=26)
    with pytest.raises(ValueError, match="cannot enumerate the infinite group"):
        concrete_abelian(parse_abelian("C_2^{aleph_0}"))


def test_presets():
    d4 = concrete_preset("D4")
    q8 = concrete_preset("Q8")
    for g in (d4, q8):
        assert (g.order, exponent_concrete(g)) == (8, 4)
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
    assert (g.order, exponent_concrete(g)) == (24, 12)
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


@pytest.mark.parametrize("passive, active, reason", [
    ("C_2", "C_2", None),
    ("C_2", "1", "active group is trivial"),
    ("C_2", "C_2^0", "active group is trivial"),
    ("C_2", "C_2^{aleph_0}", "active group is infinite"),
    ("nilpotent(p=2, s=[1])", "C_2", "inline profiles cannot be enumerated"),
    ("C_2^{aleph_0}", "C_2", "passive group is infinite"),
    ("C_2^7", "C_2", "budget exceeded (passive group alone is larger than 100)"),
    ("C_2", "C_2^8", "budget exceeded (active group alone is larger than 100)"),
    ("D4", "C_2", "budget exceeded (8^2 * 2 elements)"),
    ("C_2", "C_3", "not nilpotent (active group is not a 2-group)"),
    ("C_2 * C_3", "C_2", "not nilpotent (passive group is not a p-group)"),
    # two reasons at once: the first in the planner's order is given
    ("C_3", "C_2^3", "budget exceeded (3^8 * 8 elements)"),
    ("C_2 * C_3", "1", "active group is trivial"),
    ("C_2 * C_3", "C_2^{aleph_0}", "active group is infinite"),
])
def test_skip_reason_names_the_first_reason_in_the_planners_order(passive, active, reason):
    # the manifest line "passive Wr active" under a budget of 100 elements
    assert oracle.skip_reason(passive_atoms(passive), parse_passive(passive),
                              parse_abelian(active), 100) == reason


def test_wreath_of_a_trivial_active_group_is_the_passive_group():
    # A wr 1 is a copy of A under the wreath's label; 1 wr B is B on the
    # translations
    q8 = concrete_preset("Q8")
    w = concrete_wreath(q8, concrete_cyclic(1))
    assert (w.label, q8.label, w.elements) == ("Q8 wr C_1", "Q8", q8.elements)
    assert (w.order, exponent_concrete(w), nilpotency_class(w)) == (8, 4, 2)
    assert element_order_profile(w) == element_order_profile(q8)
    assert_full_axioms(w)
    c4 = concrete_wreath(concrete_cyclic(1), concrete_cyclic(4))
    assert (c4.order, exponent_concrete(c4), nilpotency_class(c4)) == (4, 4, 1)
    assert_full_axioms(c4)


def test_products_and_wreaths_of_at_most_256_points_are_byte_permutations():
    c2, c4 = concrete_cyclic(2), concrete_cyclic(4)
    w = concrete_wreath(c4, concrete_product([c2, c2]))  # 4 * 4 points
    assert all(type(x) is bytes and len(x) == 16 for x in w.elements)
    assert w.identity == bytes(range(16))
    assert concrete_product([c2, c4]).identity == bytes(range(6))
    assert concrete_product([]).elements == (b"",)
    # C_{2^7} wr C_2 has exactly 256 points; C_{2^8} wr C_2 has 512
    assert type(concrete_wreath(concrete_cyclic(128), c2).identity) is bytes
    assert type(concrete_wreath(concrete_cyclic(256), c2).identity) is tuple
    assert type(concrete_product([concrete_cyclic(250), concrete_cyclic(7)]).identity) is tuple


def test_power_squares_per_bit_and_multiplies_per_set_bit_below_the_top():
    G = concrete_wreath(concrete_cyclic(3), concrete_cyclic(3))
    x = G.generators[0]
    calls = count_mul_calls(G)
    for k in range(1, 10):
        expected = x
        for _ in range(k - 1):
            expected = G.mul(expected, x)
        calls[0] = 0
        assert G.power(x, k) == expected, k
        assert calls[0] == k.bit_length() - 1 + bin(k).count("1") - 1, k
    calls[0] = 0
    assert G.power(x, 0) == G.identity and calls[0] == 0
    assert G.mul(G.power(x, -2), G.power(x, 2)) == G.identity


@pytest.mark.parametrize("order", [1, 2, 7, 64, 2_187])
def test_spot_elements_are_the_seeded_choices(order):
    G = concrete_cyclic(order)
    for k in (0, 1, 16, 600):
        assert [G.elements[i] for i in oracle._spot_indices(G.order, k)] == \
            random.Random(0xC0FFEE).choices(G.elements, k=k)


# ---------------------------------------------------------------------------
# the axioms of products and wreath products
#
# Products and wreath products are built from checked groups and check
# only the laws on their generators, the translation action and 200
# seeded triples when built.  The checks below are the full ones, on
# every element and, up to 64 elements, on every triple.


def assert_laws_on_every_element(G):
    e, mul, inv = G.identity, G.mul, G.inv
    members = set(G.elements)
    assert len(members) == G.order and e in members, G.label
    for x in G.elements:
        assert mul(e, x) == x == mul(x, e), (G.label, x)
        assert mul(x, inv(x)) == e == mul(inv(x), x), (G.label, x)


def assert_full_axioms(G):
    """The laws on every element, and closure (a product outside the
    elements has no index) and associativity on every triple, read off
    ``G``'s multiplication table."""
    assert_laws_on_every_element(G)
    index = {x: i for i, x in enumerate(G.elements)}
    table = [[index[G.mul(x, y)] for y in G.elements] for x in G.elements]
    for row_x in table:
        for y, xy in enumerate(row_x):
            # (x y) z == x (y z) for every z at once
            assert table[xy] == [row_x[yz] for yz in table[y]], G.label


def sweep_factors():
    """The passive and active groups of the sweep, one per label."""
    groups = [concrete_passive(passive_atoms(expr)) for expr in SWEEP_PASSIVES]
    groups += [concrete_abelian(parse_abelian(expr))
               for exprs in SWEEP_ACTIVES.values() for expr in exprs]
    return list({g.label: g for g in groups}.values())


def test_products_and_wreaths_of_at_most_64_elements_satisfy_every_axiom():
    factors = sweep_factors()
    built = [concrete_product([g, h])
             for g, h in itertools.combinations_with_replacement(factors, 2)
             if g.order * h.order <= 64]
    built += [concrete_wreath(a, b) for a, b in itertools.product(factors, repeat=2)
              if wreath_order(a.order, b.order, cap=64) is not None]
    built.append(SMALL_GROUPS["C_3 wr C_2"]())
    labels = {G.label for G in built}
    assert {"D4 x Q8", "C_5 wr C_2", "C_2 wr C_2^2", "C_3 wr C_2"} <= labels
    for G in built:
        assert_full_axioms(G)


def test_sweep_wreaths_satisfy_the_laws_on_every_element():
    checked = 0
    for label, _, a_conc, b_spec in sweep_pairs(2_500):
        G = concrete_wreath(a_conc, concrete_abelian(b_spec))
        assert_laws_on_every_element(G)
        draws = iter(random.Random(label).choices(G.elements, k=3 * 2_000))
        for x, y, z in zip(draws, draws, draws):
            assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z)), label
        checked += 1
    assert checked == 15


def invariants(G):
    return (G.order, element_order_profile(G), lower_central_series(G).orders(),
            derived_series(G).orders(), subgroup_exponent(G, G.elements))


def test_byte_permutations_and_index_vectors_build_the_same_wreaths():
    checked = 0
    for label, _, a_conc, b_spec in sweep_pairs(2_500):
        B = concrete_abelian(b_spec)
        on_points, on_indices = (
            ConcreteGroup._from_factors(label, *build(a_conc, B, oracle._tables(B)))
            for build in (oracle._wreath_on_points, oracle._wreath_on_indices))
        assert type(on_points.identity) is bytes and type(on_indices.identity) is tuple
        assert invariants(on_points) == invariants(on_indices), label
        checked += 1
    assert checked == 15


def assert_batches_match_mul(G, seed):
    """``G.right`` and ``G.powers`` against ``G.mul`` on seeded draws."""
    rng = random.Random(seed)
    xs = rng.choices(G.elements, k=200)
    for t in rng.choices(G.elements, k=5):
        assert list(G.right(xs, t)) == [G.mul(x, t) for x in xs], G.label
    for k in (1, 2, 3, 5):
        assert list(G.powers(xs, k)) == [G.power(x, k) for x in xs], (G.label, k)


def test_batched_products_are_the_products_of_mul():
    checked = 0
    for label, _, a_conc, b_spec in sweep_pairs(2_500):
        G = concrete_wreath(a_conc, concrete_abelian(b_spec))
        assert {"right", "powers"} <= vars(G).keys(), label  # byte permutations
        assert_batches_match_mul(G, label)
        checked += 1
    assert checked == 15
    on_indices = concrete_wreath(concrete_cyclic(256), concrete_cyclic(2))
    on_tuples = concrete_product([concrete_cyclic(250), concrete_preset("D4")])
    for G in (on_indices, on_tuples):
        assert not {"right", "powers"} & vars(G).keys(), G.label
        assert_batches_match_mul(G, G.label)
    # the two batches are the only ones; a group's exponent is exponent_concrete's
    assert not hasattr(ConcreteGroup, "muls") and not hasattr(ConcreteGroup, "exponent")


def ref_wreath_elements(A, B):
    """``A wr B``'s elements as byte permutations, each the join of one
    block per point of ``B``: active coordinate by active coordinate in
    the order of ``B.elements``, then the vectors in lexicographic order.
    This is how the byte build listed them before it listed cosets."""
    na = A.order
    a_index = {x: i for i, x in enumerate(A.elements)}
    b_index = {b: j for j, b in enumerate(B.elements)}
    # placed[c][i]: the right multiplication by A.elements[i] on block c
    placed = [[bytes([c * na + a_index[A.mul(x, y)] for x in A.elements])
               for y in A.elements] for c in range(B.order)]
    elements = []
    for b in B.elements:
        blocks = [placed[b_index[B.mul(k, b)]] for k in B.elements]
        elements += map(b"".join, itertools.product(*blocks))
    return elements


def test_byte_wreaths_list_their_elements_in_the_reference_order():
    # the spot check draws elements by index, so the order is pinned too
    c3 = concrete_cyclic(3)
    c3_identity_second = ConcreteGroup("C_3", [1, 0, 2], mul=c3.mul, inv=c3.inv,
                                       identity=0, generators=(1,))
    pairs = [(a_conc, concrete_abelian(b_spec)) for _, _, a_conc, b_spec in sweep_pairs(2_500)]
    pairs += [(concrete_preset("D4"), concrete_abelian(parse_abelian("C_2^2"))),
              (concrete_cyclic(2), c3_identity_second)]
    for A, B in pairs:
        elements, identity, *_ = oracle._wreath_on_points(A, B, oracle._tables(B))
        assert list(elements) == ref_wreath_elements(A, B), (A.label, B.label)
    # on the last pair the base, the identity first, follows the 2^3
    # elements with active coordinate 1
    assert len(pairs) == 17 and identity == bytes(range(6)) == ref_wreath_elements(A, B)[8]


def test_byte_permutations_and_tuples_build_the_same_products():
    factors = sweep_factors()
    checked = 0
    for g, h in itertools.combinations_with_replacement(factors, 2):
        on_points, on_tuples = (
            ConcreteGroup._from_factors(f"{g.label} x {h.label}", *build([g, h]))
            for build in (oracle._product_on_points, oracle._product_on_tuples))
        assert invariants(on_points) == invariants(on_tuples), on_points.label
        checked += 1
    assert checked == len(factors) * (len(factors) + 1) // 2 > 50


def test_products_and_wreaths_check_generators_not_every_element(monkeypatch):
    checked = []
    check_laws = ConcreteGroup._check_laws

    def recorded(G, xs):
        xs = tuple(xs)
        checked.append((G.label, len(xs)))
        check_laws(G, xs)

    monkeypatch.setattr(ConcreteGroup, "_check_laws", recorded)
    c3 = concrete_cyclic(3)
    assert checked == [("C_3", 3)]
    concrete_product([c3, c3])
    concrete_wreath(c3, concrete_cyclic(9))
    assert checked[1:] == [("C_3 x C_3", 2), ("C_9", 9), ("C_3 wr C_9", 2)]


def test_tiny_products_check_every_triple_and_single_factors_are_not_wrapped(monkeypatch):
    checked = []
    check_table, spot_triples = ConcreteGroup._check_table, ConcreteGroup._spot_triples

    def table(G):
        checked.append((G.label, "table", G.order))
        check_table(G)

    def spot(G):
        triples = tuple(spot_triples(G))
        checked.append((G.label, "spot", len(triples)))
        return triples

    monkeypatch.setattr(ConcreteGroup, "_check_table", table)
    monkeypatch.setattr(ConcreteGroup, "_spot_triples", spot)
    c2 = concrete_cyclic(2)
    concrete_product([c2, c2])
    # every triple, from the 4 x 4 table, in place of 200 drawn with repeats
    assert checked == [("C_2", "table", 2), ("C_2 x C_2", "table", 4)]
    checked.clear()
    concrete_product([c2, concrete_cyclic(3)])
    assert checked == [("C_3", "table", 3), ("C_2 x C_3", "table", 6)]
    checked.clear()
    # one cyclic factor is the cyclic group, checked in full once
    c4 = concrete_abelian(parse_abelian("C_4"))
    assert checked == [("C_4", "table", 4)]
    assert (c4.label, c4.order, exponent_concrete(c4)) == ("C_{2^2}", 4, 4)
    checked.clear()
    concrete_abelian(parse_abelian("C_2^3"))  # one C_2, repeated
    assert checked == [("C_2", "table", 2), ("C_2 x C_2 x C_2", "table", 8)]
    checked.clear()
    # 28 elements take the table, 29 and 32 the spot triples
    concrete_cyclic(28)
    concrete_cyclic(29)
    concrete_abelian(parse_abelian("C_2^5"))
    assert checked == [("C_28", "table", 28), ("C_29", "spot", 200),
                       ("C_2", "table", 2), ("C_2 x C_2 x C_2 x C_2 x C_2", "spot", 200)]


def test_a_wrong_rule_is_refused_when_built():
    with pytest.raises(ValueError, match="identity fails"):
        ConcreteGroup("C_4?", range(4), mul=lambda a, b: (a - b) % 4,
                      inv=lambda a: a, identity=0, generators=(1,))
    with pytest.raises(ValueError, match="inverse fails"):
        ConcreteGroup("C_4?", range(4), mul=lambda a, b: (a + b) % 4,
                      inv=lambda a: a, identity=0, generators=(1,))
    # a Latin square with an identity that is not associative: the
    # smallest such loop has 5 elements
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(ValueError, match="associativity fails"):
        ConcreteGroup("loop", range(5), mul=lambda a, b: loop[a][b],
                      inv=lambda a: a, identity=0, generators=(1, 2))
    # 0 + x and x + (-x) are right, but 1 + 3 leaves range(4): a
    # ValueError, not the KeyError of the table's index
    with pytest.raises(ValueError, match="closure fails"):
        ConcreteGroup("Z?", range(4), mul=lambda a, b: a + b,
                      inv=lambda a: -a, identity=0, generators=(1,))
    # products and the inverse law stay in range(4), but -1 does not: the
    # inverses are read off the same table, so that is a closure failure
    with pytest.raises(ValueError, match="closure fails"):
        ConcreteGroup("C_4?", range(4), mul=lambda a, b: (a + b) % 4,
                      inv=lambda a: -a, identity=0, generators=(1,))
    with pytest.raises(ValueError, match="identity not among the elements"):
        ConcreteGroup("C_3?", [1, 2], mul=lambda a, b: (a + b) % 3,
                      inv=lambda a: -a % 3, identity=0, generators=(1,))


def test_a_wrong_product_in_one_cell_is_refused_up_to_28_elements():
    # C_4 x C_7 as byte permutations, with one product changed where
    # neither factor is the identity or the other's inverse: the laws
    # on the generators hold, and associativity fails on some triple,
    # which the 784 products of the table find wherever the cell is
    elements, identity, generators, mul, inv, *batches = oracle._product_on_points(
        [concrete_cyclic(4), concrete_cyclic(7)])
    elements = list(elements)
    assert len(elements) == 28
    for a, b in itertools.product(elements, repeat=2):
        if identity in (a, b) or mul(a, b) == identity:
            continue
        wrong = mul(a, mul(a, b))

        def mul_with_one_wrong_cell(x, y, a=a, b=b, wrong=wrong):
            return wrong if (x, y) == (a, b) else mul(x, y)

        with pytest.raises(ValueError, match="associativity fails"):
            ConcreteGroup._from_factors("C_4 x C_7?", elements, identity, generators,
                                        mul_with_one_wrong_cell, inv, *batches)


def test_a_wrong_product_in_a_drawn_cell_is_refused_above_28_elements():
    # C_4 x C_8, 32 elements, takes the spot triples.  The product of the
    # cell (x, y) of the first seeded triple (x, y, z) of non-identity
    # elements, not all equal, with x y not the identity, is changed to
    # x x y: that triple then reads (x y) z as x x y z and x (y z) as x y z
    elements, identity, generators, mul, inv, *batches = oracle._product_on_points(
        [concrete_cyclic(4), concrete_cyclic(8)])
    elements = list(elements)
    assert len(elements) == 32
    draws = iter([elements[i] for i in oracle._spot_indices(32, 3 * oracle._SPOT_TRIPLES)])
    x, y = next((x, y) for x, y, z in zip(draws, draws, draws)
                if identity not in (x, y, z) and mul(x, y) != identity and not x == y == z)
    wrong = mul(x, mul(x, y))

    def mul_with_one_wrong_cell(a, b):
        return wrong if (a, b) == (x, y) else mul(a, b)

    with pytest.raises(ValueError, match="associativity fails"):
        ConcreteGroup._from_factors("C_4 x C_8?", elements, identity, generators,
                                    mul_with_one_wrong_cell, inv, *batches)


def test_wreath_refuses_an_active_group_that_does_not_act():
    b = concrete_cyclic(3)
    b.mul = lambda x, y: (x - y) % 3  # fixes every point, but is no action
    with pytest.raises(ValueError, match="does not act by translation"):
        concrete_wreath(concrete_cyclic(2), b)
    b.mul = lambda x, y: (x + y + 1) % 3  # moves every point by the identity
    with pytest.raises(ValueError, match="moves a point"):
        concrete_wreath(concrete_cyclic(2), b)


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


def test_the_derived_series_of_a_perfect_group_stalls():
    # A5, the even permutations of 5 points, is its own commutator
    # subgroup: its series stops at the whole group, above the trivial one
    def even(x):
        return sum(x[i] > x[j] for i, j in itertools.combinations(range(5), 2)) % 2 == 0

    a5 = ConcreteGroup(
        label="A5",
        elements=[x for x in itertools.permutations(range(5)) if even(x)],
        mul=lambda x, y: tuple(y[i] for i in x),
        inv=lambda x: tuple(sorted(range(5), key=x.__getitem__)),
        identity=tuple(range(5)),
        generators=((1, 2, 0, 3, 4), (1, 2, 3, 4, 0)),
    )
    assert derived_series(a5).orders() == (60,)
    assert derived_length_concrete(a5) is None
    assert nilpotency_class(a5) is None


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
    """Wraps ``G.mul``, and the batched rules of a group that has its own,
    so that every product on ``G`` is counted once: a ``k``-th power
    counts ``k - 1``, and the default batches chain ``G.mul`` and are
    counted there."""
    calls = [0]
    mul = G.mul

    def counted_mul(x, y):
        calls[0] += 1
        return mul(x, y)

    def counted(batch, per_item=lambda *args: 1):
        def counted_batch(*args):
            products = per_item(*args)
            for item in batch(*args):
                calls[0] += products
                yield item
        return counted_batch

    if "right" in vars(G):
        G.right = counted(G.right)
        G.powers = counted(G.powers, lambda xs, k: k - 1)
    G.mul = counted_mul
    return calls


def test_engine_cost_is_far_below_one_product_per_element():
    # C_2 wr C_2^3, 2 048 elements.  The series takes 398 products from
    # normal generators and 29 142 element-wise.  The exponent squares its
    # rungs of 2 048 and 72 elements, one product per element per rung,
    # where walking each element up to its order takes 5 407.  Products
    # formed in batches, by cosets and rungs, count one each.
    G = concrete_wreath(concrete_cyclic(2), concrete_abelian(parse_abelian("C_2^3")))
    calls = count_mul_calls(G)
    assert lower_central_series(G).orders() == (2048, 128, 16, 2, 1)
    assert calls[0] == 398
    calls[0] = 0
    assert nilpotency_class(G) == 4  # the same terms, sized, not frozen
    assert calls[0] == 398
    calls[0] = 0
    assert exponent_concrete(G) == 4
    assert calls[0] == 2_120


def test_a_cube_rung_forms_two_products_per_element():
    # C_9 wr C_3, 2 187 elements of exponent 27: its rungs of 2 187, 33
    # and 3 elements are cubed, one batch G.powers each
    G = concrete_wreath(concrete_cyclic(9), concrete_cyclic(3))
    calls = count_mul_calls(G)
    assert exponent_concrete(G) == 27
    assert calls[0] == 2 * (2_187 + 33 + 3) == 4_446


def test_nilpotency_class_is_the_length_of_the_series():
    groups = []
    for label, _, a_conc, b_spec in sweep_pairs(2_500):
        B = concrete_abelian(b_spec)
        groups += [ConcreteGroup._from_factors(label, *build(a_conc, B, oracle._tables(B)))
                   for build in (oracle._wreath_on_points, oracle._wreath_on_indices)]
    assert len(groups) == 30
    on_tuples = ConcreteGroup._from_factors(
        "D4 x Q8", *oracle._product_on_tuples([concrete_preset("D4"), concrete_preset("Q8")]))
    assert type(on_tuples.identity) is tuple
    # C_3 wr C_2 stalls at a term of order 3; the trivial group has class 0
    groups += [on_tuples, SMALL_GROUPS["C_3 wr C_2"](), concrete_cyclic(1)]
    classes = [nilpotency_class(G) for G in groups]
    assert classes == [lower_central_series(G).length() for G in groups]
    assert classes[-3:] == [2, None, 0]


# ---------------------------------------------------------------------------
# the general K-series


def test_kp_concrete_cyclic():
    assert kp_series_concrete(concrete_cyclic(4), 2).orders() == (4, 2, 1)
    assert kp_series_concrete(concrete_cyclic(1), 2).terms == (frozenset({0}),)


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


def test_kp_concrete_generates_each_distinct_term_once(monkeypatch):
    generated = []
    spied = oracle.subgroup_generated

    def counted(G, gens):
        generated.append(G.label)
        return spied(G, gens)

    monkeypatch.setattr(oracle, "subgroup_generated", counted)
    for exprs in SWEEP_ACTIVES.values():
        for expr in exprs:
            spec = parse_abelian(expr)
            p = spec.factors[0].prime
            generated.clear()
            chain = kp_series_concrete(concrete_abelian(spec), p)
            assert chain.orders() == symbolic_orders(expr, p), expr
            # an abelian group's term i is its p^j-th powers, j least with
            # p^j >= i: one distinct term per j up to the exponent p^u
            assert len(generated) == max(f.power for f in spec.factors) + 1, expr
    # D4: the vectors of least j over (D4, its derived subgroup) are
    # (0, 0), (1, 0) and (2, 1)
    generated.clear()
    assert kp_series_concrete(concrete_preset("D4"), 2).orders() == (8, 2, 1)
    assert len(generated) == 3


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


@pytest.mark.parametrize("passive", ["C_{2^7}", "C_{2^8}", "C_2^8"])
def test_verify_shield_at_and_past_256_points(passive):
    # 256 points, then 512 on index vectors, over a cyclic and a product
    a_spec, b_spec = parse_passive(passive), parse_abelian("C_2")
    report = verify_shield(a_spec, concrete_passive(passive_atoms(passive)),
                           b_spec, concrete_abelian(b_spec))
    assert report.ok, report


def test_verify_shield_rejects_mismatched_spec():
    with pytest.raises(ValueError):
        verify_shield(parse_passive("C_3"), concrete_cyclic(9),
                      parse_abelian("C_3"), concrete_cyclic(3))
    with pytest.raises(ValueError):
        verify_shield(parse_passive("C_3"), concrete_cyclic(3),
                      parse_abelian("C_3^2"), concrete_cyclic(3))
    d4, c2 = concrete_preset("D4"), parse_abelian("C_2")
    # an active group of the spec's exponent 4 that is not abelian
    with pytest.raises(ValueError, match="active group D4 is not abelian"):
        verify_shield(parse_passive("C_2"), concrete_cyclic(2), parse_abelian("C_4 * C_2"), d4)
    # a passive group of the profile's exponent 4, but of class 2
    with pytest.raises(ValueError, match="profile class 1 does not match D4"):
        verify_shield(parse_passive("nilpotent(p=2, s=[2])"), d4, c2, concrete_abelian(c2))
    # of class 2 as profiled, but its second term has exponent 2
    with pytest.raises(ValueError, match="term 2 has exponent 2, profile says 4"):
        verify_shield(parse_passive("nilpotent(p=2, s=[2, 2])"), d4, c2, concrete_abelian(c2))


def test_verify_shield_rejects_non_nilpotent_pairs():
    for passive, n, active in (("C_3", 3, "C_2"), ("C_2 * C_3", 6, "C_2")):
        a_spec, b_spec = parse_passive(passive), parse_abelian(active)
        with pytest.raises(NotNilpotentError) as err:
            verify_shield(a_spec, concrete_cyclic(n), b_spec, concrete_cyclic(2))
        assert str(err.value) == baumslag_reason(a_spec, b_spec)


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
    for label, a_spec, a_conc, b_spec in sweep_pairs(200_000):
        report = verify_shield(a_spec, a_conc, b_spec, concrete_abelian(b_spec))
        assert report.ok, f"{label}: {report}"
        checked += 1
    # up to C_3 wr C_3^2 (class 5) and C_3 wr C_{3^2} (class 9), 177 147 elements
    assert checked == 24


def test_derived_length_within_the_solubility_bound_on_the_sweep():
    checked = attained = 0
    for label, a_spec, a_conc, b_spec in sweep_pairs(200_000):
        dl = derived_length_concrete(concrete_wreath(a_conc, concrete_abelian(b_spec)))
        bound = fingerprint(a_spec, b_spec).solubility_bound
        assert dl <= bound, f"{label}: derived length {dl} > {bound}"
        checked += 1
        attained += dl == bound
    # the bound dl(A) + 1 is attained on every pair: 2 over an abelian
    # passive group, 3 over D4 and Q8
    assert attained == checked == 24


@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_symbolic_chain_orders_are_the_series_written_out(p, data):
    # verify_shield reads |K_1| .. |K_{d+1}| from the suffix sums of the
    # steps; d = p^(u-1) <= 64
    max_power = max(u for u in range(1, 8) if p ** (u - 1) <= 64)
    B = data.draw(p_components(p, max_factors=4, max_power=max_power,
                               allow_infinite=False, min_factors=1))
    want = tuple(p ** plog(term) for term in kp_terms(B, p))
    assert oracle._symbolic_chain_orders(shield_params(B, p)) == want


def test_verify_report_serializes():
    spec = parse_abelian("C_2")
    report = verify_shield(parse_passive("C_2"), concrete_cyclic(2),
                           spec, concrete_abelian(spec))
    doc = report.to_json_dict()
    assert doc["ok"] and doc["class_match"] and doc["chain_match"]
    assert doc["shield_class"] == doc["oracle_class"] == 2
