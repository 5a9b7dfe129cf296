"""The frozen benchmark binds package functions by name at import time
(``perfbench/workloads.py``, ``TRACED``); a rename or removal in the
package must fail here rather than only when the benchmark runs."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.TRACED
    for module, name, _span, _hook in workloads.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
