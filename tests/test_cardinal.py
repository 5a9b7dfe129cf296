import pytest
from hypothesis import given

from wreathvar.cardinal import ALEPH_0, Cardinal, ZERO

from conftest import cardinals


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
    assert Cardinal.finite(2) + Cardinal.finite(3) == Cardinal.finite(5)
    assert Cardinal.finite(8) + ALEPH_0 == ALEPH_0
    assert Cardinal.aleph(1) + ALEPH_0 == Cardinal.aleph(1)


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


@pytest.mark.parametrize(
    "text,expected",
    [
        ("6", Cardinal.finite(6)),
        ("0", ZERO),
        ("aleph", ALEPH_0),
        ("aleph_0", ALEPH_0),
        ("aleph_3", Cardinal.aleph(3)),
    ],
)
def test_parse(text, expected):
    assert Cardinal.parse(text) == expected


def test_parse_rejects_junk():
    for bad in ("alephs", "aleph_", "-1", "aleph_x", ""):
        with pytest.raises(ValueError):
            Cardinal.parse(bad)


def test_parse_takes_ascii_digits_only():
    # str.isdigit accepts "²", which int() rejects, and the Arabic-Indic
    # three, which int() reads as 3
    for bad in ("²", "aleph_²", "\u0663", "aleph_\u0663"):
        with pytest.raises(ValueError, match="not a cardinal"):
            Cardinal.parse(bad)


@given(cardinals())
def test_render_round_trip(c):
    assert Cardinal.parse(c.render()) == c


@given(cardinals(), cardinals())
def test_trichotomy(a, b):
    assert (a < b) + (a == b) + (b < a) == 1


@given(cardinals(), cardinals(), cardinals())
def test_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


@given(cardinals(), cardinals())
def test_sum_and_max_commute(a, b):
    assert a + b == b + a
    assert max(a, b) == max(b, a)


@given(cardinals(), cardinals(), cardinals())
def test_sum_and_max_associate(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert max(max(a, b), c) == max(a, max(b, c))


@given(cardinals())
def test_zero_is_identity(a):
    assert a + ZERO == a
    assert max(a, a) == a


@given(cardinals(), cardinals())
def test_sum_infinite_iff_an_operand_is(a, b):
    assert (a + b).is_infinite == (a.is_infinite or b.is_infinite)
