"""Tests of the benchmark's own code: generators, checkers, statistics,
and a tiny smoke run of each workload."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import check
import compare
import gen
import run
import workloads
from tracing import Tracer, entries, percentile, self_times
from wreathvar import Verdict

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_round(name: str, seed: int = 5):
    return next(workloads.WORKLOADS[name].rounds(seed))


def cheap(op) -> bool:
    """Ops that finish in milliseconds, for the smoke runs."""
    if op.kind == "verify":
        return int(op.stratum.split("/")[1]) <= 128
    return op.stratum.split("/")[1] in ("2^9", "3^6", "7^4", "big7", "20", "50") \
        or op.kind == "cli"


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    def inputs(seed):
        rounds = workloads.WORKLOADS[name].rounds(seed)
        ops = next(rounds) + next(rounds)
        return "\n".join(repr(op.inputs) for op in ops).encode()

    assert inputs(11) == inputs(11)
    if name != "oracle-sweep":  # a fixed list; the seed only orders it
        assert inputs(11) != inputs(12)


def test_spelled_groups_normalize_to_the_generated_group():
    from wreathvar import parse_abelian

    rng = random.Random(3)
    for _ in range(50):
        group = {p: gen.random_component(rng, gen.max_power(p, 100))
                 for p in rng.sample(gen.SMALL_PRIMES, 3)}
        text = gen.spell_group(rng, group, rng.randint(1, 60))
        assert parse_abelian(text).render() == gen.render_group(group)


def test_wide_ops_have_their_stratum_term_count():
    for op in workloads.WORKLOADS["symbolic-wide"].pool(7):
        n_terms = int(op.stratum.split("/")[1])
        actives = op.inputs[2:4] if op.kind == "decide" else op.inputs[1:3]
        assert [b.count(" * ") + 1 for b in actives] == [n_terms, n_terms], op.stratum


def test_alterations_have_the_intended_equivalence():
    rng = random.Random(4)
    for _ in range(200):
        comp = gen.random_component(rng, 6)
        assert check.equivalent(comp, gen.allowed_alteration(rng, comp))
        bad = gen.forbidden_alteration(rng, comp)
        assert not check.equivalent(comp, bad) and bad[0][0] == comp[0][0]
        assert gen.exponent_alteration(rng, comp, 6)[0][0] != comp[0][0]


def test_generated_primes_are_prime():
    rng = random.Random(5)
    for _ in range(20):
        p = gen.prime_in(rng, 10**6, 10**7)
        assert all(p % f for f in range(2, int(p**0.5) + 1))
    assert gen.SMALL_PRIMES[:5] == (2, 3, 5, 7, 11)


# ---------------------------------------------------------------------------
# checkers


def test_closed_form_matches_the_worked_example():
    # C_3 wr C_9^2: d = 3, e = (2, 0, 2), a = 17, b = 6, class 17
    comp = ((2, gen.fin(2)),)
    d, a, b, e = check.closed_params(3, comp)
    assert (d, a, b) == (3, 17, 6) and e == {1: 2, 3: 2}
    assert check.closed_class(3, (1,), comp) == 17
    assert check.closed_class(3, (1,), ((2, gen.fin(1)), (1, gen.fin(4)))) == 17
    assert check.closed_class(2, (2, 1), ()) == 2


def test_checker_rejects_a_wrong_class():
    op = next(op for op in first_round("symbolic-deep") if op.stratum == "classify/2^9")
    fp, chain, params = workloads.run_classify(op.inputs)
    assert check.check_classify((fp, chain, params), op.want) is None
    wrong = dataclasses.replace(fp, nilpotency_class=fp.nilpotency_class + 1)
    assert "fingerprint" in check.check_classify((wrong, chain, params), op.want)
    wrong_params = dataclasses.replace(params, a=params.a - 1)
    assert check.check_classify((fp, chain, wrong_params), op.want)

    verify = next(op for op in first_round("oracle-sweep") if op.stratum == "verify/8")
    report = workloads.run_verify(verify.inputs)
    assert check.check_report(report, verify.want) is None
    assert check.check_report(report, verify.want + 1)


def test_checker_rejects_a_wrong_verdict_and_witness():
    ops = [op for op in first_round("symbolic-wide") if op.kind == "decide"]
    for op in ops:
        decision = workloads.run_decide(op.inputs)
        assert check.check_decision(decision, op.want) is None
        other = Verdict.EQUAL if decision.verdict != Verdict.EQUAL else Verdict.UNEQUAL
        assert "verdict" in check.check_decision(dataclasses.replace(decision, verdict=other), op.want)
    op = next(op for op in first_round("symbolic-wide") if op.kind == "witness")
    w = workloads.run_witness(op.inputs)
    assert check.check_witness(w, op.want) is None
    assert check.check_witness(dataclasses.replace(w, class_b1=w.class_b2), op.want)
    assert check.check_witness(dataclasses.replace(w, t=w.t + 1), op.want)


# ---------------------------------------------------------------------------
# statistics and spans


def test_percentile_is_the_harrell_davis_estimate():
    assert percentile([3.0], 95) == pytest.approx(3.0)
    assert percentile([7.0] * 30, 95) == pytest.approx(7.0)
    assert percentile([5, 1, 4, 2, 3], 50) == pytest.approx(3)
    # on 1..n the estimate is about q*n + 1/2
    assert percentile(range(1, 1002), 95) == pytest.approx(951.45, rel=1e-3)
    assert percentile(range(1, 1002), 25) == pytest.approx(250.75, rel=1e-3)
    # between two classes it weighs both, where the order statistic jumps
    two_classes = [1.0] * 21 + [2.0] * 23
    assert 1.0 < percentile(two_classes, 50) < 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("bench.op", 0, 100, None, 1),
        ("variety.decide", 10, 90, 0, 1),
        ("shield.class", 20, 50, 1, 1),
        ("shield.class", 40, 70, 1, 1),  # overlaps its sibling: union is 20..70
        ("groupspec.parse", 95, 99, 0, 1),
    ]
    st = self_times(spans)
    assert st == {"bench.op": 100 - 80 - 4, "variety.decide": 80 - 50,
                  "shield.class": 60, "groupspec.parse": 4}
    assert entries(spans, "shield.class") == 2
    assert entries([("groupspec.parse", 0, 9, None, 1), ("groupspec.parse", 2, 5, 0, 1)],
                   "groupspec.parse") == 1
    # without overlap, self times add up to the root's wall time
    nested = [s for s in spans if s[1] != 40]
    assert sum(self_times(nested).values()) == 100


def test_tracer_records_nesting_and_counters(tmp_path):
    tr = Tracer()
    tr.op = 7
    assert tr.call("bench.op", lambda: tr.call("groupspec.parse", len, "abc")) == 3
    tr.count("shield.chain_terms", 5)
    names = [s[0] for s in tr.spans]
    assert names == ["bench.op", "groupspec.parse"]
    assert tr.spans[1][3] == 0 and tr.spans[0][3] is None
    tr.write(tmp_path / "spans.jsonl")
    lines = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert lines[1]["layer"] == "groupspec" and lines[1]["op"] == 7


def test_instrument_spans_calls_inside_the_package_and_restores_them():
    from wreathvar import shield, variety

    op = next(op for op in first_round("symbolic-wide") if op.kind == "witness")
    originals = (variety.shield_class, shield.shield_class, shield.kp_series)
    tr = Tracer()
    with workloads.instrument(tr):
        assert variety.shield_class is not originals[0]
        traced = workloads.run_witness(op.inputs)
    assert (variety.shield_class, shield.shield_class, shield.kp_series) == originals
    assert traced == workloads.run_witness(op.inputs)
    names = [s[0] for s in tr.spans]
    assert names.count("variety.witness") == 1 and "groupspec.equivalence" in names
    # separation_witness -> shield_class -> shield_params -> kp_series, all inside the package
    path, i = [], names.index("shield.kp_series")
    while i is not None:
        path.append(tr.spans[i][0])
        i = tr.spans[i][3]
    assert path == ["shield.kp_series", "shield.params", "shield.class", "variety.witness"]
    assert tr.counters["shield.chain_terms"] > 0


def test_classify_checker_accepts_a_sparsely_stored_chain():
    op = next(op for op in first_round("symbolic-deep") if op.stratum == "classify/2^9")
    fp, chain, params = workloads.run_classify(op.inputs)
    sparse = types.SimpleNamespace(p=chain.p, d=chain.d, terms=(chain.terms[0], chain.terms[-1]))
    assert check.check_classify((fp, sparse, params), op.want) is None
    short = types.SimpleNamespace(p=chain.p, d=chain.d // 2, terms=sparse.terms)
    assert check.check_classify((fp, short, params), op.want)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [130.0] * 5, 0.1, "lower") == "worse"
    assert compare.verdict(base, [80.0] * 5, 0.1, "lower") == "better"
    assert compare.verdict(base, [100.2] * 5, 0.1, "lower") == "same"
    assert compare.verdict(base, [80.0] * 5, 0.1, "higher") == "worse"
    assert compare.verdict([50.0, 100.0, 150.0, 200.0], [120.0] * 4, 0.1, "lower") == "unresolved"


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_traced_and_untraced(name, tmp_path):
    env = run.child_env()
    cli = workloads.CliRunner(env, str(tmp_path / "manifest.txt"))
    runner = run.Runner(workloads, cli)
    ops = [op for op in first_round(name) if cheap(op)][:6]
    assert ops
    tr = Tracer()
    traced = run.measure_traced(runner, iter([ops]), 1, tr)
    assert runner.failures == []
    assert runner.attempted == len(ops) == len(runner.latencies)
    m = run.layer_metrics(tr, traced, {"bare": [0.05], "import": [0.03], "wall": [0.09]})
    assert m["bench.traced_ops"] == len(ops)
    layer_total = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layer_total + m["bench.overhead_s"] == pytest.approx(m["bench.traced_wall_s"], rel=0.05)


def test_measure_keeps_each_ops_best_over_whole_passes():
    runner = run.Runner(workloads, None)
    pool = [op for op in first_round("symbolic-wide") if cheap(op)][:3]
    probes = []
    best = run.measure(runner, pool, 0.05, lambda: probes.append(1), 0.0)
    assert runner.failures == []
    passes, rest = divmod(runner.attempted, len(pool))
    assert passes >= 1 and rest == 0
    assert best == [min(runner.latencies[i::len(pool)]) for i in range(len(pool))]
    assert len(probes) == runner.attempted  # before every op when every=0


def test_known_failures_fail_or_answer_correctly():
    rng = random.Random(0)
    runner = run.Runner(workloads, None)
    for stratum in workloads.KNOWN_FAILURES:
        op = workloads.deep_op(rng, stratum)
        runner.attempted += 1
        result = runner.untraced(op)
        if result is None:
            assert "MAX_CHAIN" in runner.failures[-1]
        else:
            assert check.check_classify(result, op.want) is None


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    # cli-verbs is left out of BENCHMARK.json; it runs by hand
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "cli-verbs"]


def _run_cli(args, cwd, out):
    cmd = [sys.executable, "perfbench/run.py", *args, "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_result_line(tmp_path, trace, section):
    proc = _run_cli(["--workload", "symbolic-wide", "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)], ROOT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC[section]]
    record = json.loads((tmp_path / f"symbolic-wide-trace{trace}-seed1.json").read_text())
    assert {"seed", "python", "nproc", "loadavg_before", "loadavg_after", "commit",
            "samples"} <= set(record)


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "symbolic-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
