import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import wreathvar.oracle
from wreathvar import (
    BudgetExceededError,
    Cardinal,
    DomainError,
    EquivalentComponentsError,
    NotNilpotentError,
    ParseError,
    PrimaryFactor,
    cli,
    groupspec,
    normalize,
    shield_params,
)
from wreathvar.cli import main

from conftest import p_components

SAMPLE = "C_{3^5}^6 * C_{3^3}^{aleph_0} * C_{3^2}^5 * C_3^{aleph_1} * C_{5^3}^4 * C_{5^2}"

DECIDE_ARGS = [
    "--a1", "D4", "--a2", "Q8",
    "--b1", "C_{2^2}^3 * C_2", "--b2", "C_{2^2} * C_2^7",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse


def test_parse_text(capsys):
    code, out, _ = run(capsys, "parse", SAMPLE)
    assert code == 0
    assert "normalized: " + SAMPLE in out
    assert "exponent:   30375" in out
    assert "u_1 = 5" in out and "mult = aleph_0" in out


def test_parse_trivial(capsys):
    code, out, _ = run(capsys, "parse", "1")
    assert code == 0
    assert "trivial group" in out


def test_parse_rewrites_base(capsys):
    code, out, _ = run(capsys, "parse", "C_{4}^2")
    assert code == 0
    assert "C_{2^2}^2" in out


def test_parse_error_has_caret_and_exit_2(capsys):
    code, out, err = run(capsys, "parse", "C_{6}")
    assert code == 2
    assert "not a prime power" in err
    lines = err.splitlines()
    assert lines[-2].strip() == "C_{6}"
    assert lines[-1].index("^") == lines[-2].index("6")


@pytest.mark.parametrize("u", ["20000", "3000000", "7" * 4000])
def test_parse_order_beyond_the_digit_limit_exit_2(capsys, u):
    expr = f"C_{{2^{u}}}"
    code, _, err = run(capsys, "parse", expr)
    assert code == 2
    assert "cyclic order has more than 4300 digits" in err
    lines = err.splitlines()
    assert lines[-1].index("^") == lines[-2].index(u)


@pytest.mark.parametrize("expr", ["C_²", "C_{3^²}", "C_3^²", "C_\u0663"])
def test_parse_non_ascii_digit_exit_2(capsys, expr):
    # str.isdigit accepts "²" and the Arabic-Indic three; the grammar
    # takes ASCII digits only
    code, _, err = run(capsys, "parse", expr)
    assert code == 2
    assert "unexpected character" in err
    bad = next(ch for ch in expr if not ch.isascii())
    lines = err.splitlines()
    assert lines[-1].index("^") == lines[-2].index(bad)


def test_parse_order_at_the_digit_limit(capsys):
    # 2^14284 has 4300 digits, 2^14285 one more
    assert run(capsys, "parse", "C_{2^14284}")[0] == 0
    assert run(capsys, "parse", "C_{2^14285}")[0] == 2


def test_parse_exponent_beyond_the_digit_limit_exit_2(capsys):
    # each order has at most 4300 digits, their lcm 4 215 + 3 818; the
    # caret is under the term that takes it past the limit
    expr = "C_{2^14000} * C_{3^8000}"
    code, out, err = run(capsys, "parse", expr)
    assert (code, out) == (2, "")
    assert "exponent has more than 4300 digits" in err
    lines = err.splitlines()
    assert lines[-1].index("^") == lines[-2].index("C_{3^8000}")
    # a term with no copies has no order in the exponent
    assert run(capsys, "parse", "C_{2^14000} * C_{3^8000}^0")[0] == 0
    # 3 * 2^14283 has 4301 digits, 3 * 2^14282 has 4300
    assert run(capsys, "parse", "C_{2^14283} * C_3")[0] == 2
    assert run(capsys, "parse", "C_{2^14282} * C_3")[0] == 0
    for passive in ("D4 * C_{3^8000} * C_{2^14000}", "nilpotent(p=2, s=[20000])"):
        code, _, err = run(capsys, "classify", "--passive", passive, "--active", "C_2")
        assert code == 2 and "exponent has more than 4300 digits" in err, passive


def test_numbers_past_the_conversion_bound_are_printed_exactly(capsys):
    # the class a = 1 + m (2^14000 - 1) has 4 515 digits, more than
    # Python converts by default; Decimal reads and writes any length
    m = 10**300
    active = f"C_{{2^14000}}^{m}"
    a = 1 + m * (2**14000 - 1)
    bound = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "classify", "--passive", "C_2", "--active", active)
    assert code == 0
    printed = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    assert Decimal(printed["nilpotency class"]) == Decimal(a)
    assert Decimal(printed["wreath exponent"]) == Decimal(2**14001)
    # the verb lifts the bound for its own output only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == bound
    code, out, _ = run(capsys, "--json", "classify", "--passive", "C_2", "--active", active)
    assert code == 0
    doc = json.loads(out, parse_int=Decimal)
    assert doc["fingerprint"]["class"] == doc["params"]["a"] == Decimal(a)


def test_parse_literal_beyond_the_digit_limit_exit_2(capsys):
    assert run(capsys, "parse", "C_2^" + "1" * 4300)[0] == 0
    for digits in (4301, 5000):
        code, _, err = run(capsys, "parse", "C_2^" + "1" * digits)
        assert code == 2
        assert "integer literal has more than 4300 digits" in err
        assert err.splitlines()[-1].index("^") == len("  C_2^")


@contextlib.contextmanager
def _conversion_bound(digits):
    """A block in which Python converts ints of at most ``digits`` digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


needs_conversion_bound = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="Python before 3.11 has no int-to-str bound")


@needs_conversion_bound
@pytest.mark.parametrize("bound", [1000, 10000])
def test_the_digit_limit_does_not_follow_the_conversion_bound(capsys, bound):
    with _conversion_bound(bound):
        assert run(capsys, "parse", "C_2^" + "1" * 4300)[0] == 0
        code, _, err = run(capsys, "parse", "C_2^" + "1" * 4301)
        assert sys.get_int_max_str_digits() == bound
    assert code == 2 and "integer literal has more than 4300 digits" in err


@needs_conversion_bound
def test_a_library_parse_under_a_lowered_bound_refuses_a_longer_literal():
    # the library lifts no bound, so int() refuses the literal itself
    with _conversion_bound(1000), pytest.raises(ValueError):
        groupspec.parse_abelian("C_2^" + "1" * 1001)


def test_parse_json_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "parse", SAMPLE)
    assert code == 0
    doc = json.loads(out)
    assert doc["normalized"] == SAMPLE
    assert doc["exponent"] == 30375
    assert doc["primes"][0]["p"] == 3
    assert doc["primes"][0]["factors"][0] == {"u": 5, "mult": 6}
    assert doc["primes"][0]["factors"][1] == {"u": 3, "mult": "aleph_0"}


# ---------------------------------------------------------------------------
# classify


def test_classify_c3_pair(capsys):
    code, out, _ = run(capsys, "classify", "--passive", "C_3",
                       "--active", "C_{3^2}^2")
    assert code == 0
    assert ("K_3-series, K_i = B^(3^j) for the least j with 3^j >= i: "
            "B^(3^j) = C_{3^(2-j)}^2 (j < 2)\n") in out
    assert "d = 3, e(3^j) = 2 (j < 2), a = 17, b = 6\n" in out
    assert "nilpotency class: 17" in out
    assert "wreath exponent: 27" in out


def test_classify_d4(capsys):
    code, out, _ = run(capsys, "classify", "--passive", "D4",
                       "--active", "C_{2^2}^3 * C_2")
    assert code == 0
    assert "a = 11, b = 2" in out
    assert "nilpotency class: 22" in out
    assert "solubility bound: 3" in out


def test_classify_not_nilpotent(capsys):
    code, out, _ = run(capsys, "classify", "--passive", "C_2",
                       "--active", "C_2^{aleph_0}")
    assert code == 0
    assert "not nilpotent (Baumslag: active group is infinite)" in out


def test_classify_trivial_active_is_a_hypothesis_failure(capsys):
    code, _, err = run(capsys, "classify", "--passive", "C_2", "--active", "1")
    assert code == 3


@pytest.mark.parametrize("passive,message", [
    ("nilpotent(p=2, s=[1, 2])", "lower central exponents must be non-increasing: (1, 2)"),
    ("nilpotent(p=2, s=[0])", "lower central exponents must end at >= 1"),
    ("nilpotent(p=2, s=[1], dl=0)", "derived length must be >= 1"),
    ("C_2 * nilpotent(p=2, s=[0])", "lower central exponents must end at >= 1"),
])
def test_classify_malformed_profile_is_a_parse_error(capsys, passive, message):
    code, out, err = run(capsys, "classify", "--passive", passive, "--active", "C_2")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines == [f"error: {message}", f"  {passive}", lines[-1]]
    assert lines[-1].index("^") == lines[-2].index("nilpotent")


def test_classify_json_agrees_with_text(capsys):
    code, out, _ = run(capsys, "classify", "--json", "--passive", "C_3",
                       "--active", "C_{3^2}^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"p": 3, "d": 3, "a": 17, "b": 6}
    assert doc["fingerprint"]["class"] == 17
    assert doc["chain"] == [{"u": 2, "mult": 2}]
    code, text, _ = run(capsys, "classify", "--passive", "C_3", "--active", "C_{3^2}^2")
    assert code == 0
    assert "d = 3, e(3^j) = 2 (j < 2), a = 17, b = 6\n" in text
    assert f"nilpotency class: {doc['fingerprint']['class']}\n" in text


def test_classify_chain_far_beyond_a_dense_write_out(capsys):
    code, out, _ = run(capsys, "--json", "classify", "--passive", "C_2",
                       "--active", "C_{2^60} * C_{2^3}^5")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"p": 2, "d": 2**59, "a": 2**60 + 5 * 7, "b": 2**59}
    assert doc["chain"] == [{"u": 60, "mult": 1}, {"u": 3, "mult": 5}]
    code, text, _ = run(capsys, "classify", "--passive", "C_2",
                        "--active", "C_{2^60} * C_{2^3}^5")
    assert code == 0
    assert f"d = {2**59}, e(2^j) = 1 (j < 60) + 5 (j < 3), " in text


# classify's output is bounded by its input.  Each cyclic factor of the
# active group adds one run to the series and one addend to e(p^j), each
# echoing the factor's own power and multiplicity: a factor of D digits of
# multiplicity costs at least D + 6 input bytes (' * C_4^m') and at most
# about 2D + 400 output bytes, which sets BYTES_PER_INPUT_BYTE.  The other
# numbers printed (exponents, d, a, b, the class) have at most the digit
# limit plus the digits of the largest multiplicity, a few each, which sets
# BYTES_PER_LIMIT_DIGIT.  Multiplicities run up to the digit limit, spelled
# by repeating a drawn block, since hypothesis draws at most 8 KB of data
# for one example.
BYTES_PER_INPUT_BYTE = 80
BYTES_PER_LIMIT_DIGIT = 8
MOTIVATING_ACTIVE = "C_{2^14000}^1" + "0" * 300
# one multiplicity of the digit limit on the top factor, above 999 others
TOP_HEAVY_ACTIVE = " * ".join(["C_{2^14000}^" + "9" * groupspec._DIGIT_LIMIT]
                              + [f"C_{{2^{u}}}" for u in range(1, 1000)])


def _top_power(p):
    """The largest ``u`` with ``p^u`` within the digit limit."""
    limit = groupspec._DIGIT_LIMIT
    u = int(limit / math.log10(p)) + 1
    while p**u >= 10**limit:
        u -= 1
    return u


@st.composite
def long_multiplicities(draw):
    """A multiplicity of 1 to the digit limit digits."""
    digits = draw(st.integers(1, groupspec._DIGIT_LIMIT))
    block = str(draw(st.integers(1, 10**20)))
    return int((block * (digits // len(block) + 1))[:digits])


@st.composite
def classify_inputs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    top = _top_power(p)
    powers = draw(st.lists(st.just(top) | st.integers(1, top), min_size=1, max_size=40,
                           unique=True))
    mults = long_multiplicities() | st.integers(1, 9)
    active = " * ".join(f"C_{{{p}^{u}}}^{draw(mults)}" for u in powers)
    passive = draw(st.sampled_from(
        [f"C_{p}", f"C_{{{p}^3}}", f"nilpotent(p={p}, s=[4, 2, 1], dl=2)", f"C_{p} * C_11"]))
    return passive, active


def _captured_main(*argv):
    """``main``'s exit code, an argparse refusal's too, and its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue()


def _output_bound(*exprs):
    return (BYTES_PER_INPUT_BYTE * len("".join(exprs).encode())
            + BYTES_PER_LIMIT_DIGIT * groupspec._DIGIT_LIMIT)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@example(("C_2", MOTIVATING_ACTIVE))
@example(("C_2", TOP_HEAVY_ACTIVE))
@given(classify_inputs())
def test_classify_output_is_bounded_by_its_input(inputs):
    passive, active = inputs
    bound = _output_bound(passive, active)
    for flags in ((), ("--json",)):
        code, out = _captured_main("classify", *flags, "--passive", passive, "--active", active)
        assert code == 0
        assert len(out.encode()) <= bound, (flags, len(out.encode()), bound)


def _addends(text):
    """The ``(value, j_below)`` addends of the printed ``e(p^j)``."""
    line = next(line for line in text.splitlines() if line.startswith("d = "))
    e = line.split(" = ", 2)[2].rsplit(", a = ", 1)[0]
    return [(int(v), int(u)) for v, u in re.findall(r"(\d+) \(j < (\d+)\)", e)]


@given(st.sampled_from((2, 3, 5)), st.data())
def test_classify_runs_write_out_to_the_steps(p, data):
    B = data.draw(p_components(p, max_factors=5, max_power=9, allow_infinite=False,
                               min_factors=1))
    argv = ("classify", "--passive", f"C_{p}", "--active", B.render())
    code, text = _captured_main(*argv)
    assert code == 0
    code, out = _captured_main("--json", *argv)
    assert code == 0
    chain = json.loads(out)["chain"]
    assert chain == [{"u": f.power, "mult": f.copies.value} for f in B.factors]
    steps = shield_params(B, p).steps
    for addends in (_addends(text), [(f["mult"], f["u"]) for f in chain]):
        assert len(addends) == len(B.factors)
        assert tuple(sum(v for v, u in addends if j < u) for j in range(len(steps))) == steps


def test_classify_motivating_input_fits_in_40_kb(capsys):
    code, text, _ = run(capsys, "classify", "--passive", "C_2", "--active", MOTIVATING_ACTIVE)
    assert code == 0 and len(text.encode()) < 40_000
    code, out, _ = run(capsys, "classify", "--json", "--passive", "C_2",
                       "--active", MOTIVATING_ACTIVE)
    assert code == 0 and len(out.encode()) < 40_000
    m = 10**300
    with cli._exact_ints():
        doc = json.loads(out)
        assert f"nilpotency class: {doc['fingerprint']['class']}\n" in text
        assert f", e(2^j) = {m} (j < 14000), " in text
    assert doc["chain"] == [{"u": 14000, "mult": m}]
    assert (doc["params"]["d"], doc["params"]["a"]) == (2**13999, 1 + m * (2**14000 - 1))


# parse and witness are held to the same bound, on expressions of one or
# two primes whose exponents reach the digit limit between them
@st.composite
def long_abelian_exprs(draw, primes):
    mults = (long_multiplicities() | st.integers(0, 9)
             | st.integers(0, 3).map("{{aleph_{}}}".format))
    terms = []
    for p in primes:
        top = _top_power(p) // len(primes)
        powers = draw(st.lists(st.just(top) | st.integers(1, top), min_size=1, max_size=12,
                               unique=True))
        terms += [f"C_{{{p}^{u}}}^{draw(mults)}" for u in powers]
    return " * ".join(draw(st.permutations(terms)))


@st.composite
def long_verb_args(draw, verb):
    """The arguments of ``verb`` and the expressions among them."""
    primes = draw(st.sampled_from(((2,), (3,), (7,), (2, 3), (5, 7))))
    if verb == "parse":
        expr = draw(long_abelian_exprs(primes))
        return ["parse", expr], [expr]
    p = primes[0]
    top = _top_power(p)
    passives = st.sampled_from([f"C_{p}", f"C_{{{p}^{top}}}", f"C_{p} * C_11",
                                f"nilpotent(p={p}, s=[{top}, {top // 2}, 1], dl=2)"])
    a1 = draw(passives)
    exprs = [a1, draw(st.just(a1) | passives),
             draw(long_abelian_exprs(primes)), draw(long_abelian_exprs(primes))]
    argv = [verb, "--a1", exprs[0], "--a2", exprs[1], "--b1", exprs[2], "--b2", exprs[3]]
    if draw(st.booleans()):
        argv.append("--assert-var-equal")
    return argv + (["--prime", str(p)] if verb == "witness" else []), exprs


def _assert_output_bounded(argv, exprs):
    bound = _output_bound(*exprs)
    for flags in ((), ("--json",)):
        code, out = _captured_main(argv[0], *flags, *argv[1:])
        assert code in (0, 1, 3), (flags, code)
        assert len(out.encode()) <= bound, (flags, len(out.encode()), bound)


# decide too: its mismatch details print each exponent as its prime-power
# product, and the other numbers are the fingerprints' exponents and classes
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(("parse", "witness", "decide")).flatmap(long_verb_args))
def test_parse_and_witness_output_is_bounded_by_its_input(args):
    _assert_output_bounded(*args)


# decide prints each violated hypothesis's detail once, and each
# fingerprint's exponent and class in full: an active exponent mismatch at
# the digit limit is two short prime powers in its detail and eight numbers
# of the limit's length in the fingerprints, within the bound
def test_decide_output_is_bounded_by_its_input():
    top = _top_power(2)
    exprs = [f"C_{{2^{top}}}"] * 3 + [f"C_{{2^{top - 1}}}"]
    _assert_output_bounded(["decide", "--a1", exprs[0], "--a2", exprs[1],
                            "--b1", exprs[2], "--b2", exprs[3]], exprs)


# a passive exponent mismatch as well adds two more short prime powers,
# exp(A1) and exp(A2)
def test_decide_output_with_both_exponent_mismatches_is_bounded_by_its_input():
    top = _top_power(2)
    exprs = [f"C_{{2^{top}}}", "C_{3^8990}", f"C_{{2^{top}}}", f"C_{{2^{top - 1}}}"]
    _assert_output_bounded(["decide", "--a1", exprs[0], "--a2", exprs[1],
                            "--b1", exprs[2], "--b2", exprs[3]], exprs)


# the witness object of decide --json repeats class_b2 as separating.class,
# and the benchmark's check pins that object key for key, so it cannot shrink
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="decide --json writes 39 304 bytes against the bound of 39 200: "
                   "its witness repeats class_b2 as separating.class")
def test_decide_json_witness_at_the_digit_limit_is_bounded_by_its_input():
    top = _top_power(2)
    exprs = [f"C_{{2^{top}}}"] * 2 + [f"C_{{2^{top}}}^1", f"C_{{2^{top}}}^1 * C_{{2^1}}^1"]
    _assert_output_bounded(["decide", "--a1", exprs[0], "--a2", exprs[1],
                            "--b1", exprs[2], "--b2", exprs[3]], exprs)


# ---------------------------------------------------------------------------
# decide / witness


def test_decide_unequal_exit_1(capsys):
    code, out, _ = run(capsys, "decide", *DECIDE_ARGS)
    assert code == 1
    assert "p = 2: NOT equivalent" in out
    assert "verdict: unequal" in out
    assert "N_4 B_2" in out


def test_decide_equal_exit_0(capsys):
    code, out, _ = run(capsys, "decide", "--a1", "C_3", "--a2", "C_3",
                       "--b1", "C_{3^2}^2", "--b2", "C_{3^2}^2")
    assert code == 0
    assert "verdict: equal" in out


@pytest.mark.parametrize("a1,a2,classes", [
    ("C_4 * C_2", "D4", (3, 4)),
    ("D4", "nilpotent(p=2, s=[2, 2, 1])", (4, 6)),
    # neither is nilpotent: only the solubility bounds, 3 and 2, differ
    ("C_3 * D4", "C_3 * C_4 * C_2", (None, None)),
])
def test_decide_refuses_an_assertion_its_fingerprints_refute_exit_3(capsys, a1, a2, classes):
    # every prime is equivalent, but equal varieties would share their class
    # and their derived length
    argv = ("decide", "--a1", a1, "--a2", a2, "--b1", "C_2", "--b2", "C_2",
            "--assert-var-equal")
    invariant = "nilpotency class" if classes[0] != classes[1] else "solubility bound"
    detail = ("passive variety equality refuted: the wreath products differ in "
              f"{invariant}, so A1 and A2 generate different varieties")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines()[:2] == [f"hypothesis: {detail}", "verdict: not_applicable"]
    assert "equivalent" not in out and "witness" not in out
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 3
    doc = json.loads(out)
    assert (doc["verdict"], doc["hypotheses"], doc["per_prime"], doc["witness"]) == (
        "not_applicable", [detail], [], None)
    assert tuple(fp["class"] for fp in doc["fingerprints"]) == classes


def test_an_unexpected_exception_is_an_internal_error_exit_5(capsys, monkeypatch):
    # a fault of the program must not read as a verdict (exit 1 is unequal),
    # nor, when it is a plain ValueError, as a refusal of the input (exit 3)
    for error in (RuntimeError, ValueError):
        def boom(inp):
            raise error("boom")

        monkeypatch.setattr(cli, "decide_equal", boom)
        code, out, err = run(capsys, "decide", *DECIDE_ARGS)
        assert code == cli.EXIT_INTERNAL == 5
        assert (out, err) == ("", f"error: internal error: {error.__name__}: boom\n")


def test_the_refusals_of_the_input_are_domain_errors():
    for error in (ParseError, NotNilpotentError, EquivalentComponentsError,
                  BudgetExceededError):
        assert issubclass(error, DomainError)
    assert issubclass(DomainError, ValueError)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


# any --prime is an answer (0 or 1) or a refusal (3) on one line, never an
# internal error: negatives, 0, 1, composites, primes in and out of the
# actives, and a prime above the proof bound
@settings(max_examples=60)
@example(-3)
@example(0)
@example(1)
@example(4)
@example(2**61 - 1)
@example(2**127 - 1)
@given(st.integers(-50, 10**6))
def test_any_witness_prime_exits_0_1_or_3(p):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["witness", *DECIDE_ARGS, "--prime", str(p)])
    assert code in (0, 1, 3), (p, code, err.getvalue())
    if code == 3:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    if p == 2**127 - 1:  # a prime above the proof bound is refused
        assert (code, err.getvalue()) == (3, (
            f"error: primality of {p} cannot be certified: deterministic Miller-Rabin "
            f"is proven only below {groupspec._MR_TIERS[-1][0]}\n"))
        return
    prime = p == 2**61 - 1 or _prime_by_trial_division(p)
    assert code == (3 if not prime else 1 if p == 2 else 0), p
    if not prime:
        assert err.getvalue() == f"error: {p} is not a prime\n"


def test_decide_hypothesis_failure_exit_3(capsys):
    code, out, _ = run(capsys, "decide", "--a1", "C_2", "--a2", "C_2",
                       "--b1", "C_3", "--b2", "C_3")
    assert code == 3
    assert "verdict: not_applicable" in out


def test_decide_multi_prime_walkthrough(capsys):
    passive = "D4 * Q8 * C_3 * C_5 * C_7^{aleph_1}"
    code, out, _ = run(
        capsys, "decide", "--a1", passive, "--a2", passive,
        "--b1", "C_{2^5}^3 * C_{2^4}^{aleph_1} * C_2^8 * C_3^{aleph_1} * C_7^8",
        "--b2", "C_{2^5}^3 * C_{2^4}^{aleph_0} * C_{2^3}^2 * C_2^9 * C_3^{aleph_0} * C_7^9",
    )
    assert code == 1
    assert "p = 2: equivalent" in out
    assert "p = 3: equivalent" in out
    assert "p = 7: NOT equivalent" in out
    assert "p = 5" not in out


def test_decide_json_and_text_agree(capsys):
    code_j, out_j, _ = run(capsys, "decide", "--json", *DECIDE_ARGS)
    code_t, out_t, _ = run(capsys, "decide", *DECIDE_ARGS)
    assert code_j == code_t == 1
    doc = json.loads(out_j)
    assert doc["verdict"] == "unequal"
    w = doc["witness"]
    assert f"reduced classes: {w['class_b1']}" in out_t
    assert f"> {w['class_b2']}" in out_t
    assert f"N_{w['separating']['class']} B_{w['separating']['burnside_exponent']}" in out_t
    for fp in doc["fingerprints"]:
        assert f"exponent {fp['exponent']}" in out_t
        assert f"class {fp['class']}" in out_t


def test_witness_verb(capsys):
    code, out, _ = run(capsys, "witness", *DECIDE_ARGS, "--prime", "2")
    assert code == 1
    assert "divergence t = 1, w = 2" in out
    assert "N_4 B_2" in out


@pytest.mark.parametrize("argv, line", [
    # (C_2 x C_3) wr C_2 is not nilpotent; only its reduced product
    # C_2 wr C_2 lies in N_2
    (["decide", "--a1", "C_2 * C_3", "--a2", "C_2 * C_3", "--b1", "C_2", "--b2", "C_2^2"],
     "N_2 B_1: contains A_2 wr B1', not A_2 wr B2' (the reduced products)"),
    (["--demo"], "N_49 B_1: contains A_7 wr B1', not A_7 wr B2' (the reduced products)"),
    # A and both B are 2-groups: the claim is made for the whole products
    (["witness", *DECIDE_ARGS, "--prime", "2"],
     "N_4 B_2: contains the B2 wreath product, not the B1 one"),
], ids=["two-prime-passive", "demo-multi-prime", "p-groups"])
def test_witness_claims_the_whole_products_only_for_p_groups(capsys, argv, line):
    out = run(capsys, *argv)[1]
    claims = [x for x in out.splitlines() if "separating variety" in x]
    assert f"  separating variety {line}" in claims
    if argv[0] == "decide":
        assert "nilpotent false" in out
        assert claims == [f"  separating variety {line}"]


@pytest.mark.parametrize("verb", ["decide", "witness"])
def test_witness_json_names_the_larger_side_and_the_scope_of_the_claim(capsys, verb):
    # B2 has the larger reduced class, and the passive is not a p-group
    argv = [verb, "--a1", "C_2 * C_3", "--a2", "C_2 * C_3", "--b1", "C_4 * C_3",
            "--b2", "C_4^2 * C_3", *(["--prime", "2"] if verb == "witness" else [])]
    text = run(capsys, *argv)[1]
    doc = json.loads(run(capsys, "--json", *argv)[1])
    assert (doc["larger_input"], doc["scope"]) == (2, "reduced")
    assert f"reduced classes: {doc['witness']['class_b1']} (side B2)" in text
    assert "not A_2 wr B2' (the reduced products)" in text


def test_witness_equivalent_prime_exit_0(capsys):
    code, out, _ = run(capsys, "witness", "--a1", "C_3", "--a2", "C_3",
                       "--b1", "C_{3^2}^2", "--b2", "C_{3^2}^2", "--prime", "3")
    assert code == 0
    assert "no witness" in out


def test_witness_after_only_an_active_exponent_mismatch_exit_1(capsys):
    code, out, err = run(capsys, "witness", "--a1", "C_2", "--a2", "C_2",
                         "--b1", "C_2", "--b2", "C_{2^2}", "--prime", "2")
    assert code == 1
    assert err == ""
    assert "p = 2: NOT equivalent" in out
    assert "divergence t = 1, w = 2" in out
    assert "separating variety N_1 B_2" in out


def test_witness_fatal_hypothesis_exit_3(capsys):
    code, out, err = run(capsys, "witness", "--a1", "C_2", "--a2", "C_3",
                         "--b1", "C_5", "--b2", "C_{5^2}", "--prime", "5")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "hypothesis: passive exponent mismatch: exp(A1)=2, exp(A2)=3",
        "hypothesis: prime 5 of the active exponent does not divide the passive exponent",
        "hypothesis: passive variety equality not asserted: A1 and A2 differ and are "
        "not a whitelisted pair",
    ]


def test_witness_json(capsys):
    code, out, _ = run(capsys, "--json", "witness", *DECIDE_ARGS, "--prime", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"]["class_b1"] == 8
    assert (doc["larger_input"], doc["scope"]) == (1, "whole")
    assert doc["witness"]["separating"] == {"class": 4, "burnside_exponent": 2}


# ---------------------------------------------------------------------------
# oracle-verify


def write_manifest(tmp_path, text):
    path = tmp_path / "manifest.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_oracle_verify_all_match(capsys, tmp_path):
    manifest = write_manifest(
        tmp_path, "C_2 Wr C_2\nC_3 Wr C_3\nC_2 Wr C_{2^2}\n\n# a comment\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    assert out.count(": ok") == 3
    assert "0 mismatch(es) in 3 line(s)" in out


def test_oracle_verify_parses_each_passive_expression_once(capsys, tmp_path, monkeypatch):
    # every passive expression, valid or not, is read by passive_atoms
    parsed = []
    passive_atoms = groupspec.passive_atoms

    def recorded(text):
        parsed.append(text)
        return passive_atoms(text)

    monkeypatch.setattr(groupspec, "passive_atoms", recorded)
    monkeypatch.setattr(cli, "passive_atoms", recorded)
    manifest = write_manifest(tmp_path, "C_2 Wr C_2\nD4 * C_2 Wr C_2\n")
    code, _, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    assert parsed == ["C_2", "D4 * C_2"]


def test_oracle_verify_budget_skip(capsys, tmp_path):
    # one line per skip reason
    manifest = write_manifest(tmp_path, "\n".join([
        "C_2 Wr C_2^{aleph_0}",
        "nilpotent(p=2, s=[1]) Wr C_2",
        "C_2^{aleph_0} Wr C_2",
        "C_2^999999999 Wr C_2",
        "C_2 Wr C_2^999999999",
        "C_3 Wr C_{3^2}^2",
    ]) + "\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    assert out.splitlines() == [
        "C_2 Wr C_2^{aleph_0}: skipped (active group is infinite)",
        "nilpotent(p=2, s=[1]) Wr C_2: skipped (inline profiles cannot be enumerated)",
        "C_2^{aleph_0} Wr C_2: skipped (passive group is infinite)",
        "C_2^999999999 Wr C_2: skipped "
        "(budget exceeded (passive group alone is larger than 200000))",
        "C_2 Wr C_2^999999999: skipped "
        "(budget exceeded (active group alone is larger than 200000))",
        "C_3 Wr C_{3^2}^2: skipped (budget exceeded (3^81 * 81 elements))",
        "0 mismatch(es) in 6 line(s)",
    ]


def test_oracle_verify_skips_absurd_multiplicities_quickly(capsys, tmp_path):
    manifest = write_manifest(
        tmp_path, "C_2^999999999 Wr C_2\nC_2 Wr C_2^999999999\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    assert out.count("skipped (budget exceeded") == 2


def test_oracle_verify_skips_a_multiplicity_beyond_float_range(capsys, tmp_path):
    line = "C_2 Wr C_2^1" + "0" * 400
    manifest = write_manifest(tmp_path, line + "\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    assert out.splitlines()[0] == (
        f"{line}: skipped (budget exceeded (active group alone is larger than 200000))")


def test_oracle_verify_skips_a_non_nilpotent_line(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "C_2 Wr C_2\nC_2 Wr C_3\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C_2 Wr C_2: ok ")
    assert lines[1:] == [
        "C_2 Wr C_3: skipped (not nilpotent (active group is not a 2-group))",
        "0 mismatch(es) in 2 line(s)",
    ]


def test_oracle_verify_skips_a_trivial_active_group_in_either_spelling(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "C_2 Wr C_2\nC_2 Wr 1\nC_2 Wr C_2^0\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C_2 Wr C_2: ok ")
    assert lines[1:] == [
        "C_2 Wr 1: skipped (active group is trivial)",
        "C_2 Wr C_2^0: skipped (active group is trivial)",
        "0 mismatch(es) in 3 line(s)",
    ]
    code, out, _ = run(capsys, "oracle-verify", "--json", "--manifest", manifest)
    assert code == 0
    doc = json.loads(out)
    assert doc["lines"][0]["status"] == "ok"
    assert doc["lines"][1:] == [
        {"line": line, "status": "skipped", "reason": "active group is trivial"}
        for line in ("C_2 Wr 1", "C_2 Wr C_2^0")
    ]


def test_oracle_verify_reads_a_manifest_behind_a_byte_order_mark(capsys, tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "manifest.txt"
    for flags in ((), ("--json",)):
        path.write_text("C_2 Wr C_2\nC_2 Wr C_3\n", encoding="utf-8")
        want = run(capsys, "oracle-verify", *flags, "--manifest", path.name)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "oracle-verify", *flags, "--manifest", path.name) == want
        assert want[0] == 0


# oracle-verify is held to the bound of the other verbs, with the manifest
# as its input: an enumerated line prints a few small numbers beside its
# echo, a skipped one its echo and a reason, and a malformed one ends the
# run on standard error
ENUMERABLE_LINES = ("C_2 Wr C_2", "C_3 Wr C_3", "C_2 Wr C_{2^2}", "D4 Wr C_2", "Q8 wr C_2",
                    "C_4 Wr C_2", "C_2^2 Wr C_2")
TRIVIAL_ACTIVE = ("C_2 Wr 1", "C_2 Wr C_2^0")
NON_NILPOTENT = ("C_2 * C_3 Wr C_2", "C_2 Wr C_3", "D4 * C_3 Wr C_{2^2}")


@st.composite
def skipped_lines(draw):
    """A line skipped for its budget or its infinite group, with
    multiplicities of up to the digit limit and powers at it."""
    m1, m2 = (draw(long_multiplicities() | st.just("{aleph_1}")) for _ in range(2))
    u2, u3 = _top_power(2), _top_power(3)
    return draw(st.sampled_from((
        f"C_2 Wr C_2^{m1}", f"C_2^{m1} Wr C_2", f"C_{{2^{u2}}}^{m1} Wr C_{{2^{u2}}}^{m2}",
        f"nilpotent(p=3, s=[{u3}]) Wr C_3^{m1}")))


@st.composite
def manifests(draw):
    lines = draw(st.lists(st.sampled_from(ENUMERABLE_LINES + NON_NILPOTENT + TRIVIAL_ACTIVE)
                          | skipped_lines(),
                          min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "C_2 C_2 Wr C_2")
    return "".join(line + "\n" for line in lines)


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(manifests())
def test_oracle_verify_output_is_bounded_by_its_manifest(text):
    bound = _output_bound(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for flags in ((), ("--json",)):
            code, out = _captured_main("oracle-verify", *flags, "--manifest", path)
            assert code == (2 if "C_2 C_2" in text else 0), (flags, code)
            assert len(out.encode()) <= bound, (flags, len(out.encode()), bound)


def test_oracle_verify_missing_manifest_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "oracle-verify", "--manifest", str(tmp_path / "missing.txt"))
    assert code == 2
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_oracle_verify_undecodable_manifest_exit_2(capsys, tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"C_2 Wr C_2\n\xff\n")
    code, out, err = run(capsys, "oracle-verify", "--manifest", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("passive, at", [
    ("D4 * C_{3^8000} * C_{2^14000}", 18),
    ("C_{3^8000} *  nilpotent(p=2, s=[14000])", 14),
])
def test_oracle_verify_passive_exponent_overflow_points_at_its_atom(capsys, tmp_path,
                                                                    passive, at):
    manifest = write_manifest(tmp_path, f"{passive} Wr C_2\n")
    code, out, err = run(capsys, "oracle-verify", "--manifest", manifest)
    assert (code, out) == (2, "")
    first, line, caret = err.splitlines()
    assert first == f"{manifest}:1: error: exponent has more than 4300 digits (at position {at})"
    assert line == f"  {passive} Wr C_2"
    assert caret.index("^") - 2 == at


def test_oracle_verify_empty_manifest(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "# nothing here\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 0
    assert "0 mismatch(es) in 0 line(s)" in out


def test_oracle_verify_bad_line_exit_2(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "C_2 C_2\n")
    code, _, err = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 2
    assert "expected" in err


def test_oracle_verify_malformed_profile_exit_2(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "C_2 Wr C_2\nnilpotent(p=2, s=[1], dl=0) Wr C_2\n")
    code, out, err = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 2
    assert out == ""
    line = "nilpotent(p=2, s=[1], dl=0) Wr C_2"
    assert err == (f"{manifest}:2: error: derived length must be >= 1 (at position 0)\n"
                   f"  {line}\n  ^\n")


def test_oracle_verify_parse_error_points_into_the_line(capsys, tmp_path):
    line = "C_2 Wr   C_{2^2} * C_{6}"
    manifest = write_manifest(tmp_path, f"  {line}\n")
    code, out, err = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 2
    assert out == ""
    col = line.index("6")
    assert err == (f"{manifest}:1: error: 6 is not a prime power (at position {col})\n"
                   f"  {line}\n  {' ' * col}^\n")


def test_oracle_verify_mismatch_exit_4(capsys, tmp_path, monkeypatch):
    # force a wrong enumerated class to exercise the strongest failure path
    monkeypatch.setattr(wreathvar.oracle, "nilpotency_class", lambda G: 999)
    manifest = write_manifest(tmp_path, "C_2 Wr C_2\n")
    code, out, _ = run(capsys, "oracle-verify", "--manifest", manifest)
    assert code == 4
    assert "mismatch" in out


def test_oracle_verify_json(capsys, tmp_path):
    manifest = write_manifest(tmp_path, "C_2 Wr C_2\n")
    code, out, _ = run(capsys, "--json", "oracle-verify", "--manifest", manifest)
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == 0
    assert doc["lines"][0]["report"]["shield_class"] == 2


# ---------------------------------------------------------------------------
# demo


def test_demo_reproduces_the_worked_examples(capsys):
    code, out, _ = run(capsys, "--demo")
    assert code == 0
    assert "exponent:   30375" in out
    assert "nilpotency class: 17" in out
    assert "nilpotency class: 22" in out
    assert "p = 7: NOT equivalent" in out
    assert "N_4 B_2" in out


def test_no_verb_prints_the_usage_and_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert out.startswith("usage: wreathvar") and err == ""


# ---------------------------------------------------------------------------
# hostile inputs: each runs in its own process, so a hang fails the test


SRC = Path(__file__).resolve().parent.parent / "src"


def run_process(*argv, stdin=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "wreathvar.cli", *argv], env=env,
                          input=stdin, capture_output=True, text=True, timeout=10)
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [["parse", "C_4 * C_2"], ["--demo"], ["parse", "C_6"],
                                  ["decide", *DECIDE_ARGS], []])
def test_console_script_exits_with_the_code_of_main(monkeypatch, argv):
    # the [project.scripts] entry point: main's code becomes the exit status
    want = _captured_main(*argv)[0]
    monkeypatch.setattr(sys, "argv", ["wreathvar", *argv])
    with pytest.raises(SystemExit) as exit_, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.console_main()
    assert exit_.value.code == want


def assert_caret_at(err, expr, col):
    lines = err.splitlines()
    assert lines[-2] == f"  {expr}"
    assert lines[-1] == "  " + " " * col + "^"


def test_semiprime_of_two_ten_digit_primes_is_not_a_prime_power():
    expr = "C_1000000016000000063"  # 1000000007 * 1000000009
    code, _, err = run_process("parse", expr)
    assert code == 2
    assert "1000000016000000063 is not a prime power" in err
    assert_caret_at(err, expr, 2)


def test_braced_semiprime_is_not_a_prime():
    expr = "C_{1000000016000000063^2}"
    code, _, err = run_process("parse", expr)
    assert code == 2
    assert "1000000016000000063 is not a prime" in err
    assert_caret_at(err, expr, 3)


def test_classify_with_a_seventeen_digit_prime():
    p = "10000000000000061"
    code, out, _ = run_process("classify", "--passive", f"C_{p}", "--active", f"C_{{{p}}}")
    assert code == 0
    assert f"nilpotency class: {p}" in out  # a = 1 + (p - 1)


def test_prime_above_the_proof_bound_cannot_be_certified():
    expr = f"C_{2**89 - 1}"
    code, _, err = run_process("parse", expr)
    assert code == 2
    assert f"primality of {2**89 - 1} cannot be certified" in err
    assert_caret_at(err, expr, 2)


def test_four_thousand_three_hundred_digit_literal_is_refused():
    n = 10**4299
    n += next(c for c in range(1, 100) if math.gcd(n + c, math.factorial(42)) == 1)
    expr = f"C_{n}"
    code, out, err = run_process("parse", expr)
    assert code == 2
    assert out == ""
    assert "cannot be certified" in err
    assert_caret_at(err, expr, 2)


def test_a_semiprime_deep_in_a_long_expression_is_refused_at_its_column():
    terms = ["C_{3^2}^4", "C_43 ^ {aleph_1}", "C_{ 9999999967 }^2", "C_8"] * 75
    terms[249] = "C_1000000016000000063"  # 1000000007 * 1000000009
    expr = " * ".join(terms)
    code, out, err = run_process("parse", expr)
    assert code == 2
    assert out == ""
    assert "1000000016000000063 is not a prime power" in err
    assert_caret_at(err, expr, expr.index("C_1000000016000000063") + 2)


def test_a_profile_of_huge_exponent_is_refused_at_once():
    expr = "nilpotent(p=2, s=[100000000000000000000])"
    code, out, err = run_process("classify", "--passive", expr, "--active", "C_2")
    assert (code, out) == (2, "")
    assert "exponent has more than 4300 digits" in err
    assert_caret_at(err, expr, 0)


def test_parse_twenty_thousand_terms():
    # one argument may hold at most 128 KiB on Linux, so terms are spelled
    # without spaces
    rng = random.Random(20000)
    bases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (43, 1)]
    factors, terms = [], []
    for _ in range(20_000):
        p, u = rng.choice(bases)
        if rng.random() < 0.01:
            copies, mult = Cardinal.aleph(rng.randint(0, 2)), "^{aleph_%d}"
        else:
            copies, mult = Cardinal.finite(rng.randint(0, 9)), "^%d"
        factors.append(PrimaryFactor(p, u, copies))
        terms.append(f"C_{p**u}" + mult % copies.value)
    expr = "*".join(terms)
    assert len(expr) < 2**17
    code, out, _ = run_process("parse", expr)
    assert code == 0
    assert out.splitlines()[0] == f"normalized: {normalize(factors).render()}"


def test_parse_an_expression_of_200000_bytes_from_standard_input():
    # longer than one argument may be on Linux (128 KiB)
    rng = random.Random(200_000)
    bases = [(2, 1), (2, 2), (3, 2), (5, 1), (43, 1), (9999999967, 1)]
    factors, terms, size = [], [], 0
    while size < 200_000:
        p, u = rng.choice(bases)
        copies = rng.randint(0, 9)
        factors.append(PrimaryFactor(p, u, Cardinal.finite(copies)))
        terms.append(f"C_{{{p}^{u}}}^{copies}" if u > 1 else f"C_{p}^{{{copies}}}")
        size += len(terms[-1]) + 3
    expr = " * ".join(terms) + "\n"
    assert len(expr.encode()) >= 200_000
    code, out, _ = run_process("parse", "-", stdin=expr)
    assert code == 0
    assert out.splitlines()[0] == f"normalized: {normalize(factors).render()}"


def test_an_expression_from_standard_input_in_any_slot(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("C_{3^2} * C_3^4\n"))
    code, out, _ = run(capsys, "witness", "--a1", "C_3", "--a2", "C_3",
                       "--b1", "C_{3^2}^2", "--b2", "-", "--prime", "3")
    assert code == 1
    assert "NOT equivalent" in out
    monkeypatch.setattr(sys, "stdin", io.StringIO("C_6"))
    code, _, err = run(capsys, "classify", "--passive", "-", "--active", "C_2")
    assert code == 2
    assert err.splitlines()[-2:] == ["  C_6", "    ^"]


def test_at_most_one_expression_from_standard_input(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["decide", "--a1", "-", "--a2", "D4", "--b1", "C_2", "--b2", "-"])
    assert exit_.value.code == 2
    assert "at most one expression" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hostile input, every verb: the numbers of the grammar at and past their
# limits, in every slot of every verb

TEN_DIGIT_PRIMES = (1_000_000_007, 1_000_000_009, 9_999_999_967)
# the least 30-digit prime, past the bound of the proven Miller-Rabin bases
THIRTY_DIGIT_PRIME = 10**29 + 319
PAST_THE_LIMIT = "1" + "0" * groupspec._DIGIT_LIMIT
# refused pieces: syntax faults, and digit runs one digit past the limit
MALFORMED_PIECES = ("C_", "C_{2^}", "C_2^", "C_{6}", "C_{2^3", "C_2^{aleph_}", "C_2^{-1}",
                    "C_\u0663", "C_2 C_2", "nilpotent(p=2, s=[])", "aleph_0", "D5", "",
                    f"C_{PAST_THE_LIMIT}", f"C_2^{PAST_THE_LIMIT}",
                    f"C_3^{{aleph_{PAST_THE_LIMIT}}}", f"nilpotent(p=2, s=[{PAST_THE_LIMIT}])")
HOSTILE_SECONDS = 5


def hostile_numbers():
    """A digit run: small, a 10-digit prime or the product of two, a
    30-digit prime, or of up to the digit limit's digits."""
    return (st.integers(0, 12) | st.sampled_from(TEN_DIGIT_PRIMES)
            | st.lists(st.sampled_from(TEN_DIGIT_PRIMES), min_size=2, max_size=2).map(math.prod)
            | st.just(THIRTY_DIGIT_PRIME) | long_multiplicities()).map(str)


@st.composite
def hostile_pieces(draw, p, passive):
    """A piece of the grammar, mostly over the call's prime ``p``, whose
    numbers are drawn from :func:`hostile_numbers`."""
    number = hostile_numbers()
    kinds = ["cyclic"] * 8 + ["malformed"] + (["preset", "profile"] if passive else ["1"])
    kind = draw(st.sampled_from(kinds))
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED_PIECES))
    if kind == "1":
        return kind
    if kind == "preset":
        return draw(st.sampled_from(("D4", "Q8")))
    base = draw(st.one_of([st.just(str(p))] * 3 + [number]))
    if kind == "profile":
        s = ", ".join(draw(st.lists(number, min_size=1, max_size=3)))
        dl = draw(st.none() | number)
        return f"nilpotent(p={base}, s=[{s}]" + ("" if dl is None else f", dl={dl}") + ")"
    u = draw(st.one_of([st.just(u) for u in (None, "1", "2", str(_top_power(p)))] + [number]))
    base = draw(st.sampled_from((base, f"{{{base}}}"))) if u is None else f"{{{base}^{u}}}"
    m = draw(st.none() | number | number.map("{{{}}}".format)
             | st.just("{aleph}") | number.map("{{aleph_{}}}".format))
    return f"C_{base}" if m is None else f"C_{base}^{m}"


def hostile_exprs(p, passive=False):
    return st.lists(hostile_pieces(p, passive), min_size=1, max_size=3).map(" * ".join)


@st.composite
def hostile_calls(draw):
    """A verb's arguments and the text of its input: for ``oracle-verify``
    the manifest, which the test writes to the file that ``--manifest`` names."""
    verb = draw(st.sampled_from(("parse", "classify", "decide", "witness", "oracle-verify")))
    p = draw(st.sampled_from((2, 3, 5) + TEN_DIGIT_PRIMES))
    if verb == "parse":
        expr = draw(hostile_exprs(p))
        return ["parse", expr], expr
    if verb == "classify":
        passive, active = draw(hostile_exprs(p, passive=True)), draw(hostile_exprs(p))
        return ["classify", "--passive", passive, "--active", active], passive + active
    if verb == "oracle-verify":
        lines = draw(st.lists(st.tuples(hostile_exprs(p, passive=True), hostile_exprs(p)),
                              min_size=1, max_size=4))
        text = "".join(f"{passive} Wr {active}\n" for passive, active in lines)
        return ["oracle-verify", "--manifest"], text
    a1 = draw(hostile_exprs(p, passive=True))
    exprs = [a1, draw(st.just(a1) | hostile_exprs(p, passive=True)),
             draw(hostile_exprs(p)), draw(hostile_exprs(p))]
    argv = [verb, "--a1", exprs[0], "--a2", exprs[1], "--b1", exprs[2], "--b2", exprs[3]]
    if draw(st.booleans()):
        argv.append("--assert-var-equal")
    if verb == "witness":
        exprs.append(draw(st.sampled_from((str(p), "-1")) | hostile_numbers()))
        argv += ["--prime", exprs[-1]]
    return argv, "".join(exprs)


def _hostile_example(verb, *args):
    """An explicit call, whose input is every argument but the options' names."""
    return [verb, *args], "".join(arg for arg in args if not arg.startswith("--"))


# a 10-digit prime's factor with a multiplicity and an aleph index of the
# digit limit's digits
HUGE_MULTIPLE = f"C_{TEN_DIGIT_PRIMES[0]}^{'9' * groupspec._DIGIT_LIMIT}"
HUGE_ALEPH = f"C_{TEN_DIGIT_PRIMES[0]}^{{aleph_{'9' * groupspec._DIGIT_LIMIT}}}"
HUGE_PAIR = ("--a1", f"C_{TEN_DIGIT_PRIMES[0]}", "--a2", f"C_{TEN_DIGIT_PRIMES[0]}",
             "--b1", HUGE_MULTIPLE, "--b2", HUGE_ALEPH)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(_hostile_example("classify", "--passive", "C_2", "--active", MOTIVATING_ACTIVE))
@example(_hostile_example("parse", f"C_{math.prod(TEN_DIGIT_PRIMES[:2])}"))
@example(_hostile_example("decide", *HUGE_PAIR))
@example(_hostile_example("witness", *HUGE_PAIR, "--prime", str(TEN_DIGIT_PRIMES[0])))
@example(_hostile_example("witness", "--a1", "C_2", "--a2", "C_2", "--b1", "C_2^3",
                          "--b2", "C_2", "--prime", str(THIRTY_DIGIT_PRIME)))
@example((["oracle-verify", "--manifest"], f"C_{TEN_DIGIT_PRIMES[0]} Wr {HUGE_MULTIPLE}\n"))
@given(hostile_calls())
def test_every_verb_exits_0_to_3_with_bounded_json_on_hostile_input(call):
    argv, text = call
    bound = _output_bound(text)
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "oracle-verify":
            argv = argv + [os.path.join(tmp, "manifest.txt")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        for flags in ((), ("--json",)):
            start = time.perf_counter()
            code, out = _captured_main(argv[0], *flags, *argv[1:])
            seconds = time.perf_counter() - start
            assert code in (0, 1, 2, 3), (flags, code)
            assert seconds < HOSTILE_SECONDS, (flags, seconds)
            assert len(out.encode()) <= bound, (flags, len(out.encode()), bound)
            if flags and out:
                with cli._exact_ints():
                    json.loads(out)
