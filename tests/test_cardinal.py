import pytest
from hypothesis import given

from wreathvar import PrimaryFactor, normalize
from wreathvar.cardinal import ALEPH_0, Cardinal, ZERO

from conftest import cardinals


def merged(*copies):
    """The copies of ``C_2`` that ``normalize`` merges from ``copies``:
    cardinals are summed only there."""
    spec = normalize(PrimaryFactor(2, 1, c) for c in copies)
    return spec.factors[0].copies if spec.factors else ZERO


def test_finite_below_every_aleph():
    assert Cardinal.finite(6) < ALEPH_0
    assert Cardinal.finite(10**9) < ALEPH_0
    assert not ALEPH_0 < Cardinal.finite(6)


def test_alephs_ordered_by_index():
    assert ALEPH_0 < Cardinal.aleph(1)
    assert Cardinal.aleph(2) > Cardinal.aleph(1)


def test_equality_and_reflexivity():
    assert Cardinal.finite(5) == Cardinal.finite(5)
    assert not Cardinal.finite(5) < Cardinal.finite(5)


def test_max():
    assert max(ALEPH_0, Cardinal.aleph(1)) == Cardinal.aleph(1)
    assert max(Cardinal.finite(9), ALEPH_0) == ALEPH_0
    assert max(Cardinal.finite(3), Cardinal.finite(7)) == Cardinal.finite(7)


def test_sum():
    assert merged(Cardinal.finite(2), Cardinal.finite(3)) == Cardinal.finite(5)
    assert merged(Cardinal.finite(8), ALEPH_0) == ALEPH_0
    assert merged(Cardinal.aleph(1), ALEPH_0) == Cardinal.aleph(1)


def test_is_infinite():
    assert ALEPH_0.is_infinite
    assert not ZERO.is_infinite
    assert not Cardinal.finite(10**9).is_infinite


def test_as_int():
    assert Cardinal.finite(7).as_int() == 7
    with pytest.raises(ValueError):
        ALEPH_0.as_int()


def test_negative_rejected():
    with pytest.raises(ValueError):
        Cardinal.finite(-1)


@given(cardinals(), cardinals())
def test_trichotomy(a, b):
    assert (a < b) + (a == b) + (b < a) == 1


@given(cardinals(), cardinals())
def test_order_is_finite_below_aleph_then_by_value(a, b):
    assert (a < b) == ((a.is_infinite, a.value) < (b.is_infinite, b.value))
    assert (a <= b) == ((a.is_infinite, a.value) <= (b.is_infinite, b.value))


@given(cardinals(), cardinals(), cardinals())
def test_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


@given(cardinals(), cardinals())
def test_sum_and_max_commute(a, b):
    assert merged(a, b) == merged(b, a)
    assert max(a, b) == max(b, a)


@given(cardinals(), cardinals(), cardinals())
def test_sum_and_max_associate(a, b, c):
    assert merged(merged(a, b), c) == merged(a, merged(b, c)) == merged(a, b, c)
    assert max(max(a, b), c) == max(a, max(b, c))


@given(cardinals())
def test_zero_is_identity(a):
    assert merged(a, ZERO) == a
    assert max(a, a) == a


@given(cardinals(), cardinals())
def test_sum_infinite_iff_an_operand_is(a, b):
    assert merged(a, b).is_infinite == (a.is_infinite or b.is_infinite)
