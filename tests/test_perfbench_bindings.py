"""The frozen benchmark binds package functions by name at import time
(``perfbench/workloads.py``, ``TRACED``); a rename or removal in the
package must fail here rather than only when the benchmark runs."""

import importlib
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("check")


@pytest.fixture
def tracing(perfbench):
    return importlib.import_module("tracing")


def test_every_traced_binding_resolves(perfbench):
    workloads, _ = perfbench
    assert workloads.TRACED
    for module, name, _span, _hook in workloads.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_known_failures_answer_correctly(perfbench):
    # the classify ops the benchmark keeps out of its workloads, with
    # K_p-chains of 2^21 + 1 and 3^13 + 1 terms
    workloads, check = perfbench
    rng = random.Random(0)
    assert workloads.KNOWN_FAILURES
    for stratum in workloads.KNOWN_FAILURES:
        op = workloads.deep_op(rng, stratum)
        assert check.check_classify(workloads.run_classify(op.inputs), op.want) is None


def test_one_symbolic_wide_op_of_each_kind_answers_correctly(perfbench):
    # the checkers read the decision and witness records by attribute, so
    # a renamed or dropped attribute fails here
    workloads, _ = perfbench
    for kind in workloads.WIDE_KINDS:
        op = workloads.wide_op(random.Random(0), (kind, 20))
        run, check_op, _key = workloads.KINDS[op.kind]
        assert check_op(run(op.inputs), op.want) is None, kind


def test_an_instrumented_oracle_sweep_op_reports_what_a_plain_one_does(perfbench, tracing):
    # instrument rewraps the wreath product's mul; products formed in
    # batches do not go through it, and must not change the report
    workloads, check = perfbench
    stratum = next(s for s in workloads.oracle_pairs() if s[:2] == ("D4", "C_2"))
    op = workloads.sweep_op(random.Random(0), stratum)
    plain = workloads.run_verify(op.inputs)
    tr = tracing.Tracer()
    with workloads.instrument(tr):
        traced = workloads.run_verify(op.inputs)
    assert traced == plain and plain.ok
    assert check.check_report(plain, op.want) is None
    assert tr.counters["oracle.elements"] == plain.wreath_order == 128
    assert tr.counters["oracle.mul_calls"] > 0
