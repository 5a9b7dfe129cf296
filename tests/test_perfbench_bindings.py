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
