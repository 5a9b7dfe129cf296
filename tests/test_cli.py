import json

import pytest

import wreathvar.oracle
from wreathvar.cli import main

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


def test_parse_literal_beyond_the_digit_limit_exit_2(capsys):
    assert run(capsys, "parse", "C_2^" + "1" * 4300)[0] == 0
    for digits in (4301, 5000):
        code, _, err = run(capsys, "parse", "C_2^" + "1" * digits)
        assert code == 2
        assert "integer literal has more than 4300 digits" in err
        assert err.splitlines()[-1].index("^") == len("  C_2^")


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
            "C_{3^2}^2, C_3^2, 1") in out
    assert "d = 3, e(3^j) = [2, 2], a = 17, b = 6" in out
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


def test_classify_json_agrees_with_text(capsys):
    code, out, _ = run(capsys, "classify", "--json", "--passive", "C_3",
                       "--active", "C_{3^2}^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"d": 3, "steps": [2, 2], "a": 17, "b": 6}
    assert doc["fingerprint"]["class"] == 17
    assert doc["chain"] == ["C_{3^2}^2", "C_3^2", "1"]


def test_classify_chain_far_beyond_a_dense_write_out(capsys):
    code, out, _ = run(capsys, "--json", "classify", "--passive", "C_2",
                       "--active", "C_{2^60}")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"d": 2**59, "steps": [1] * 60, "a": 2**60, "b": 2**59}
    assert len(doc["chain"]) == 61 and doc["chain"][-1] == "1"


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


def test_oracle_verify_missing_manifest_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "oracle-verify", "--manifest", str(tmp_path / "missing.txt"))
    assert code == 2
    assert err.startswith("error: [Errno 2] No such file or directory")


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
