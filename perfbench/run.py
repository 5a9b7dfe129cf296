#!/usr/bin/env python3
"""Run one benchmark workload against the ``wreathvar`` sources of this checkout.

    python3 perfbench/run.py --workload symbolic-wide --seed 1 --seconds 36 --trace 0

One closed-loop client (this process, no threads) sends each op after the
previous one returns; ``cli-verbs`` runs one child process at a time.
With ``--trace 0`` the run passes again and again over one fixed pool of
ops and reports the end-to-end metrics from each op's best latency; with
``--trace 1`` it runs a fixed number of rounds, each op once untraced and
once traced, and reports the per-layer metrics.  Every answer is checked
against values the benchmark computes itself.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with sample counts and the machine's
state, goes to ``perfbench/out/results/`` (or ``--out``) for
``compare.py``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from tracing import Tracer, entries, layer_of, percentile, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# name -> unit; the same lists as BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "groupspec.parse_s": "s", "groupspec.parse_calls": "count",
    "groupspec.factors_parsed": "count", "groupspec.equivalence_s": "s",
    "groupspec.equivalence_calls": "count", "groupspec.primes_s": "s", "groupspec.self_s": "s",
    "shield.kp_series_s": "s", "shield.params_s": "s", "shield.class_s": "s",
    "shield.calls": "count", "shield.chain_terms": "count", "shield.self_s": "s",
    "variety.hypotheses_s": "s", "variety.witness_s": "s", "variety.fingerprint_s": "s",
    "variety.decide_s": "s", "variety.verdict_equal": "count",
    "variety.verdict_unequal": "count", "variety.verdict_not_applicable": "count",
    "variety.self_s": "s",
    "oracle.construct_s": "s", "oracle.lcs_s": "s", "oracle.exponent_s": "s",
    "oracle.kp_concrete_s": "s", "oracle.elements": "count", "oracle.lcs_terms": "count",
    "oracle.mul_calls": "count", "oracle.self_s": "s",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.verb_s": "s", "cli.self_s": "s",
    "bench.traced_ops": "count", "bench.traced_wall_s": "s", "bench.overhead_s": "s",
    "bench.trace_overhead_pct": "%",
}
LAYERS = ("groupspec", "shield", "variety", "oracle", "cli")
SETUP_PROBES = 12
IMPORT_PROBE = ("import time; t = time.perf_counter(); import wreathvar; "
                "print(time.perf_counter() - t)")


class NoResult(Exception):
    """The run cannot produce a result; nothing is printed on standard output."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_probe(env: dict, code: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise NoResult(f"probe {code!r} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout


def setup(env: dict, bare: bool, n: int) -> dict:
    """``n`` fresh-process imports of ``wreathvar``, after one that compiles
    bytecode."""
    run_probe(env, IMPORT_PROBE)
    probes = {"wall": [], "import": [], "bare": []}
    for _ in range(n):
        probe_setup(env, probes, bare)
    return probes


def probe_setup(env: dict, probes: dict, bare: bool = False) -> None:
    """One fresh-process import of ``wreathvar`` into ``probes``, and with
    ``bare`` an empty interpreter run before it."""
    if bare:
        probes["bare"].append(run_probe(env, "pass")[0])
    wall, out = run_probe(env, IMPORT_PROBE)
    probes["wall"].append(wall)
    probes["import"].append(float(out))


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git repository; git
    looks no higher than the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Executes, times and checks ops; counts failures without stopping."""

    def __init__(self, workloads_mod, cli):
        self.w = workloads_mod
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.latencies: list[float] = []  # seconds, completed ops only

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(self.attempted)
        self.failures.append(f"{op.stratum}: {message}")

    def untraced(self, op):
        """Runs the op once; returns its answer (None when it raised)."""
        if op.kind == "cli":
            self.cli.prepare(op)
            run, check_fn, arg = self.cli.run, self.w.check_cli, op
        else:
            run, check_fn, _ = self.w.KINDS[op.kind]
            arg = op.inputs
        start = time.perf_counter()
        try:
            result = run(arg)
        except Exception as exc:  # a failed op is counted, never fatal
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - start)
        err = check_fn(result, op.want)
        if err:
            self.fail(op, err)
        return result

    def traced(self, op, tr):
        """Runs the op again with the package instrumented; returns
        (answer, wall seconds)."""
        if op.kind == "cli":
            fn, arg = functools.partial(tr.call, "cli.process", self.cli.run), op
        else:
            fn, arg = self.w.KINDS[op.kind][0], op.inputs
        with self.w.instrument(tr):
            start = time.perf_counter()
            try:
                result = tr.call("bench.op", fn, arg)
            except Exception as exc:  # a failed op is counted, never fatal
                self.fail(op, f"traced run raised {type(exc).__name__}: {exc}")
                return None, time.perf_counter() - start
            return result, time.perf_counter() - start


def measure(runner: Runner, pool: list, seconds: float,
            between: Callable[[], None], every: float) -> list[float]:
    """Whole passes over the same ``pool`` of ops, starting another while
    less than ``seconds`` have passed; returns the best latency of each op
    that completed.  ``between()`` runs between two ops once ``every``
    seconds.

    The host's speed drifts by up to 1.6x over a few seconds.  An op's best
    over passes spread across the run is taken at the host's fast phases,
    so it moves with the program rather than with the host."""
    best = [math.inf] * len(pool)
    start = last = time.perf_counter()
    while True:
        for i, op in enumerate(pool):
            if time.perf_counter() - last >= every:
                between()
                last = time.perf_counter()
            runner.attempted += 1
            done = len(runner.latencies)
            runner.untraced(op)
            if len(runner.latencies) > done:
                best[i] = min(best[i], runner.latencies[-1])
        if time.perf_counter() - start >= seconds:
            break
    best = [b for b in best if b < math.inf]
    if not best:
        raise NoResult(f"no op completed; first failure: {runner.failures[0]}")
    return best


def measure_traced(runner: Runner, rounds, n_rounds: int, tr) -> dict:
    """Each op untraced, then traced; the two answers must agree."""
    untraced_s = traced_s = 0.0
    verb_s = []
    for _ in range(n_rounds):
        for op in next(rounds):
            runner.attempted += 1
            tr.op = runner.attempted
            before = len(runner.latencies)
            good = runner.untraced(op)
            if len(runner.latencies) == before:
                continue
            untraced_s += runner.latencies[-1]
            result, wall = runner.traced(op, tr)
            traced_s += wall
            if op.kind == "cli":
                verb_s.append(wall)
                same = result is not None and (result.returncode, result.stdout) == (
                    good.returncode, good.stdout)
            else:
                key = runner.w.KINDS[op.kind][2]
                same = result is not None and key(result) == key(good)
            if not same:
                runner.fail(op, "traced answer differs from the untraced one")
    return {"untraced_s": untraced_s, "traced_s": traced_s, "cli_walls": verb_s}


def layer_metrics(tr, traced: dict, probes: dict) -> dict:
    st = {k: v / 1e9 for k, v in self_times(tr.spans).items()}
    index_layer = [layer_of(s[0]) for s in tr.spans]
    shield_entries = sum(1 for s in tr.spans if layer_of(s[0]) == "shield"
                         and (s[3] is None or index_layer[s[3]] != "shield"))
    by_layer = Counter()
    for name, seconds in st.items():
        by_layer[layer_of(name)] += seconds
    interpreter = statistics.median(probes["bare"])
    import_s = statistics.median(probes["import"])
    import_wall = statistics.median(probes["wall"])
    walls = traced["cli_walls"]
    m = {
        "groupspec.parse_s": st.get("groupspec.parse", 0.0),
        "groupspec.parse_calls": entries(tr.spans, "groupspec.parse"),
        "groupspec.factors_parsed": tr.counters["groupspec.factors_parsed"],
        "groupspec.equivalence_s": st.get("groupspec.equivalence", 0.0),
        "groupspec.equivalence_calls": entries(tr.spans, "groupspec.equivalence"),
        "groupspec.primes_s": st.get("groupspec.primes", 0.0),
        "shield.kp_series_s": st.get("shield.kp_series", 0.0),
        "shield.params_s": st.get("shield.params", 0.0),
        "shield.class_s": st.get("shield.class", 0.0),
        "shield.calls": shield_entries,
        "shield.chain_terms": tr.counters["shield.chain_terms"],
        "variety.hypotheses_s": st.get("variety.hypotheses", 0.0),
        "variety.witness_s": st.get("variety.witness", 0.0),
        "variety.fingerprint_s": st.get("variety.fingerprint", 0.0),
        "variety.decide_s": st.get("variety.decide", 0.0),
        "variety.verdict_equal": tr.counters["variety.verdict_equal"],
        "variety.verdict_unequal": tr.counters["variety.verdict_unequal"],
        "variety.verdict_not_applicable": tr.counters["variety.verdict_not_applicable"],
        "oracle.construct_s": st.get("oracle.construct", 0.0),
        "oracle.lcs_s": st.get("oracle.lcs", 0.0),
        "oracle.exponent_s": st.get("oracle.exponent", 0.0),
        "oracle.kp_concrete_s": st.get("oracle.kp_concrete", 0.0),
        "oracle.elements": tr.counters["oracle.elements"],
        "oracle.lcs_terms": tr.counters["oracle.lcs_terms"],
        "oracle.mul_calls": tr.counters["oracle.mul_calls"],
        "cli.interpreter_s": interpreter,
        "cli.import_s": import_s,
        # a verb child's time beyond a fresh interpreter importing the package
        "cli.verb_s": statistics.median(walls) - import_wall if walls else 0.0,
        "bench.traced_ops": sum(1 for s in tr.spans if s[0] == "bench.op"),
        "bench.traced_wall_s": traced["traced_s"],
        "bench.overhead_s": by_layer["bench"],
        "bench.trace_overhead_pct": (100.0 * (traced["traced_s"] - traced["untraced_s"])
                                     / traced["untraced_s"]) if traced["untraced_s"] else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(by_layer[layer])
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT / "results",
                    help="directory for the full result record")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except NoResult as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run(args) -> int:
    if not (SRC / "wreathvar" / "__init__.py").is_file():
        raise NoResult(f"no wreathvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wreathvar
    import workloads

    if Path(wreathvar.__file__).resolve().parent != (SRC / "wreathvar").resolve():
        raise NoResult(f"imported wreathvar from {wreathvar.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise NoResult(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    args.out.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    env = child_env()
    manifest = OUT / f"manifest-{os.getpid()}.txt"
    cli = workloads.CliRunner(env, str(manifest))
    runner = Runner(workloads, cli)
    try:
        # a timed run spreads its set-up probes over the timed phase, so
        # that their median covers the host's slow and fast phases alike
        probes = setup(env, bare=bool(args.trace), n=SETUP_PROBES if args.trace else 1)
        if args.trace:
            tr = Tracer()
            n_rounds = max(1, round(args.seconds * workload.trace_rounds_per_s))
            traced = measure_traced(runner, workload.rounds(args.seed), n_rounds, tr)
            metrics = layer_metrics(tr, traced, probes)
            units = PER_LAYER
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tr.write(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            best = measure(runner, workload.pool(args.seed), args.seconds,
                           functools.partial(probe_setup, env, probes),
                           args.seconds / SETUP_PROBES)
            who = resource.RUSAGE_CHILDREN if workload.name == "cli-verbs" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": statistics.median(probes["wall"]),
                "ops_per_s": len(best) / sum(best),
                "latency_p50_ms": 1e3 * percentile(best, 50),
                "latency_p95_ms": 1e3 * percentile(best, 95),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        manifest.unlink(missing_ok=True)
    # the latencies behind the metrics: every run of an op traced, or each
    # op's best untraced
    lat = runner.latencies if args.trace else best
    p95 = percentile(lat, 95) if lat else 0.0
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "attempted": runner.attempted,
        "failed": len(runner.failed_ops),
        "fail_ratio": len(runner.failed_ops) / runner.attempted,
        "failures": runner.failures[:20],
        "samples": {"latency": len(lat), "beyond_p95": sum(1 for x in lat if x > p95),
                    "op_runs": len(runner.latencies), "setup_probes": len(probes["wall"])},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "commit": git_commit(),
    }
    out_path = args.out / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':32s} {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for line in record["failures"]:
        print(f"failed: {line}")
    print(f"samples: {record['samples']}; load {load_before} -> {record['loadavg_after']}; "
          f"record in {out_path}")
    print(json.dumps({
        "correct": not runner.failed_ops,
        "attempted": runner.attempted,
        "failed": len(runner.failed_ops),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
