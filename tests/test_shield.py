import pytest
from hypothesis import example, given, strategies as st

from wreathvar import (
    Cardinal,
    NotNilpotentError,
    PrimaryFactor,
    ShieldParams,
    baumslag_reason,
    kp_series,
    normalize,
    parse_abelian,
    parse_passive,
    shield_class,
    shield_params,
    wreath_exponent,
)

from wreathvar import shield
from conftest import SMALL_PRIMES, abelian_specs, least_j, p_components, plog


def spec(*triples):
    return normalize(PrimaryFactor(p, u, Cardinal.finite(m)) for p, u, m in triples)


def finite_p_specs(p, max_factors=3, max_power=4):
    return p_components(p, max_factors=max_factors, max_power=max_power,
                        allow_infinite=False, min_factors=1)


def written_out(chain):
    """``K_1 .. K_{d+1}``, rendered: term ``i`` is the one at the least
    ``j`` with ``p**j >= i``."""
    return [chain.terms[least_j(chain.p, i)].render() for i in range(1, chain.d + 2)]


def factor_form(B, p):
    """``(d, a, b)`` straight from the factors: ``a = 1 + sum m_f (p^u_f - 1)``."""
    u = B.factors[0].power
    a = 1 + sum(f.copies.as_int() * (p**f.power - 1) for f in B.factors)
    return p ** (u - 1), a, (p - 1) * p ** (u - 1)


# ---------------------------------------------------------------------------
# the chain


def test_chain_c9_squared():
    chain = kp_series(parse_abelian("C_{3^2}^2"), 3)
    assert [t.render() for t in chain.terms] == ["C_{3^2}^2", "C_3^2", "1"]
    assert written_out(chain) == ["C_{3^2}^2", "C_3^2", "C_3^2", "1"]
    assert chain.d == 3


def test_chain_c4_cubed_times_c2():
    chain = kp_series(parse_abelian("C_{2^2}^3 * C_2"), 2)
    assert [t.render() for t in chain.terms] == ["C_{2^2}^3 * C_2", "C_2^3", "1"]
    assert written_out(chain) == ["C_{2^2}^3 * C_2", "C_2^3", "1"]
    assert chain.d == 2


def test_chain_exponent_p_group_dies_immediately():
    chain = kp_series(parse_abelian("C_2"), 2)
    assert [t.render() for t in chain.terms] == ["C_2", "1"]
    assert written_out(chain) == ["C_2", "1"]
    assert chain.d == 1


def test_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        kp_series(parse_abelian("C_3^{aleph_0}"), 3)
    with pytest.raises(ValueError):
        kp_series(parse_abelian("1"), 3)
    with pytest.raises(ValueError):
        kp_series(parse_abelian("C_3"), 2)
    with pytest.raises(ValueError):
        kp_series(parse_abelian("C_3 * C_5"), 3)


@pytest.mark.parametrize("expr", ["C_{2^21}", "C_{2^60}", "C_{2^60}^3 * C_{2^7} * C_2^5"])
def test_long_chains_match_the_factor_form(expr):
    B = parse_abelian(expr)
    chain = kp_series(B, 2)
    assert len(chain.terms) == B.factors[0].power + 1
    params = shield_params(B, 2)
    assert (params.d, params.a, params.b) == factor_form(B, 2)
    assert params.d == chain.d == B.exponent() // 2


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_chain_terms_recompute_from_the_definition(p, data):
    B = data.draw(finite_p_specs(p))
    chain = kp_series(B, p)
    u = B.factors[0].power
    assert chain.terms == tuple(B.power(p**j) for j in range(u + 1))
    assert chain.terms[0] == B
    assert chain.terms[-1].is_trivial()
    assert chain.d == p ** (u - 1)


# ---------------------------------------------------------------------------
# the parameters


@pytest.mark.parametrize(
    "expr,p,expected",
    [
        ("C_{3^2}^2", 3, (3, (2, 0, 2), 17, 6)),
        ("C_{3^2} * C_3^4", 3, (3, (5, 0, 1), 17, 6)),
        ("C_{2^2}^3 * C_2", 2, (2, (4, 3), 11, 2)),
        ("C_{2^2} * C_2^7", 2, (2, (8, 1), 11, 2)),
        ("C_{2^3}", 2, (4, (1, 1, 0, 1), 8, 4)),
    ],
)
def test_params_golden(expr, p, expected):
    params = shield_params(parse_abelian(expr), p)
    assert (params.d, params.e, params.a, params.b) == expected


@pytest.mark.parametrize(
    "expr,p,stored,d,e",
    [
        ("C_{3^2}^2", 3, (3, (2, 2), 17), 3, (2, 0, 2)),
        ("C_{3^3} * C_3", 3, (3, (2, 1, 1), 29), 9, (2, 0, 1, 0, 0, 0, 0, 0, 1)),
        ("C_{5^2} * C_5^2", 5, (5, (3, 1), 33), 5, (3, 0, 0, 0, 1)),
    ],
)
def test_params_store_p_steps_and_a_and_derive_the_rest(expr, p, stored, d, e):
    params = shield_params(parse_abelian(expr), p)
    assert params == ShieldParams(*stored)
    assert (params.d, params.b, params.e) == (d, (p - 1) * d, e)


def test_params_repr_shows_the_stored_fields():
    params = shield_params(parse_abelian("C_{3^2}^2"), 3)
    assert repr(params) == "ShieldParams(p=3, steps=(2, 2), a=17)"


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_steps_are_the_log_drops_along_the_chain(p, data):
    B = data.draw(finite_p_specs(p, max_power=5))
    chain = kp_series(B, p)
    params = shield_params(B, p)
    assert params.d == chain.d
    assert params.steps == tuple(plog(x) - plog(y) for x, y in zip(chain.terms, chain.terms[1:]))


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_steps_and_a_are_their_sums_over_the_factors(p, data):
    # steps[j] counts the copies of the factors of power above j
    B = data.draw(abelian_specs((p,), max_factors=6, max_power=9, allow_infinite=False,
                                min_factors=1))
    params = shield_params(B, p)
    u = B.factors[0].power
    assert params.steps == tuple(sum(f.copies.as_int() for f in B.factors if f.power > j)
                                 for j in range(u))
    assert params.a == 1 + sum(f.copies.as_int() * (p**f.power - 1) for f in B.factors)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_d_is_exponent_over_p(p, data):
    B = data.draw(finite_p_specs(p))
    assert shield_params(B, p).d == B.exponent() // p


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_e_sums_to_log_order(p, data):
    B = data.draw(finite_p_specs(p))
    assert sum(shield_params(B, p).e) == plog(B)


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_a_matches_the_factor_form_and_the_written_out_e(p, data):
    B = data.draw(finite_p_specs(p, max_power=5))
    params = shield_params(B, p)
    assert (params.d, params.a, params.b) == factor_form(B, p)
    e = params.e
    assert len(e) == params.d
    assert params.a == 1 + (p - 1) * sum(s * es for s, es in enumerate(e, 1))
    assert params.steps == tuple(e[p**j - 1] for j in range(len(params.steps)))


# ---------------------------------------------------------------------------
# nilpotency


def test_baumslag_positive():
    assert baumslag_reason(parse_passive("C_2"), parse_abelian("C_{2^2}")) is None
    assert baumslag_reason(parse_passive("C_3"), parse_abelian("C_{3^2}^2")) is None


def test_baumslag_negative():
    assert baumslag_reason(parse_passive("D4"), parse_abelian(
        "C_{2^2}^3 * C_2^{aleph_0}")) == "active group is infinite"
    assert baumslag_reason(parse_passive("C_2"), parse_abelian("C_3")) == \
        "active group is not a 2-group"
    assert baumslag_reason(parse_passive("C_2 * C_3"), parse_abelian("C_2")) == \
        "passive group is not a p-group"


@given(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=3, unique=True)
       .flatmap(lambda ps: st.tuples(st.sampled_from(ps), abelian_specs(
           tuple(ps), max_factors=6, allow_infinite=False, min_factors=1))))
def test_the_p_group_gate_reads_the_end_factors_as_the_primes(args):
    # the gate reads the first and last factor of the normal form; the
    # list of primes is the reference
    p, B = args
    reason = shield._active_reason(B, p)
    assert (reason is not None) == (B.primes() != [p])
    assert reason in (None, f"active group is not a {p}-group")


def test_baumslag_rejects_trivial_active():
    with pytest.raises(ValueError):
        baumslag_reason(parse_passive("C_2"), parse_abelian("1"))
    # the trivial active group is refused before the passive one is read
    with pytest.raises(ValueError, match="^the active group must be nontrivial$") as err:
        shield_class(parse_passive("C_2 * C_3"), parse_abelian("1"))
    assert not isinstance(err.value, NotNilpotentError)


GATE_PASSIVES = {2: ("C_2", "C_{2^2}", "D4", "Q8"),
                 3: ("C_3", "C_{3^2}", "nilpotent(p=3, s=[2, 1], dl=2)")}


@st.composite
def gate_pairs(draw):
    """A passive p-group and a nontrivial active group, finite or infinite,
    of the prime 2, the prime 3, or both."""
    p = draw(st.sampled_from((2, 3)))
    A = parse_passive(draw(st.sampled_from(GATE_PASSIVES[p])))
    primes = draw(st.sampled_from(((2,), (3,), (2, 3))))
    return A, draw(abelian_specs(primes, max_factors=4, min_factors=1))


@example(pair=(parse_passive("C_2"), parse_abelian("C_3^{aleph_0}")))
@given(pair=gate_pairs())
def test_every_refusal_is_in_baumslag_words(pair):
    A, B = pair
    p = A.parts[0].prime
    reason = baumslag_reason(A, B)
    if any(f.copies.is_infinite for f in B.factors):
        assert reason == "active group is infinite"
    elif {f.prime for f in B.factors} != {p}:
        assert reason == f"active group is not a {p}-group"
    else:
        assert reason is None
    for refuse in (shield_params, kp_series, shield_class):
        args = (A, B) if refuse is shield_class else (B, p)
        if reason is None:
            refuse(*args)
            continue
        with pytest.raises(NotNilpotentError) as err:
            refuse(*args)
        assert str(err.value) == reason, refuse


@pytest.mark.parametrize(
    "passive,active,expected",
    [
        ("C_3", "C_{3^2}^2", 17),
        ("C_3", "C_{3^2} * C_3^4", 17),
        ("D4", "C_{2^2}^3 * C_2", 22),
        ("Q8", "C_{2^2} * C_2^7", 22),
        ("C_2", "C_2", 2),
        ("C_3", "C_3", 3),
        ("C_2", "C_{2^3}", 8),
    ],
)
def test_class_golden(passive, active, expected):
    assert shield_class(parse_passive(passive), parse_abelian(active)) == expected


def test_class_raises_when_not_nilpotent():
    with pytest.raises(NotNilpotentError):
        shield_class(parse_passive("C_2"), parse_abelian("C_2^{aleph_0}"))
    with pytest.raises(NotNilpotentError):
        shield_class(parse_passive("D4 * C_3"), parse_abelian("C_2"))


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_class_monotone_under_new_direct_factor(p, data):
    B = data.draw(finite_p_specs(p))
    extra = data.draw(st.builds(
        PrimaryFactor,
        prime=st.just(p),
        power=st.integers(1, 4),
        copies=st.integers(1, 5).map(Cardinal.finite),
    ))
    A = parse_passive(f"C_{p}")
    bigger = normalize(B.factors + (extra,))
    assert shield_class(A, bigger) >= shield_class(A, B)


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 4), st.data())
def test_abelian_passive_degenerates_to_single_term(p, s1, data):
    B = data.draw(finite_p_specs(p))
    A = parse_passive(f"C_{{{p}^{s1}}}")
    assert A.nilpotency_class == 1
    params = shield_params(B, p)
    assert shield_class(A, B) == params.a + (s1 - 1) * params.b


def test_wreath_exponent():
    assert wreath_exponent(parse_passive("C_3"), parse_abelian("C_{3^2}^2")) == 27
    assert wreath_exponent(parse_passive("D4"), parse_abelian("C_{2^2}^3 * C_2")) == 16
    assert wreath_exponent(parse_passive("C_2"), parse_abelian("C_2")) == 4
    with pytest.raises(ValueError):
        wreath_exponent(parse_passive("C_2"), parse_abelian("1"))
