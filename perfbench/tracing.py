"""In-memory spans recorded around calls into each layer, and the
statistics the runner reports.

A span is ``(name, start_ns, end_ns, parent, op)``; its layer is the part
of the name before the first dot.  The package itself holds no tracing:
``Tracer.instrument`` rebinds chosen functions of its modules, for the
length of a block, to wrappers that run them inside spans, so calls the
package makes internally are traced as well as the benchmark's own.
"""

from __future__ import annotations

import functools
import json
import math
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    """Records nested spans and counters for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def spanned(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``; ``hook(tracer, result)`` then
        records counters from the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    @contextmanager
    def instrument(self, modules, targets: dict):
        """Within the block, every name in ``modules`` that is bound to a
        function of ``targets`` (``{function: (span name, hook)}``) is bound
        to its spanned wrapper instead; the block's end restores them."""
        wrappers = {fn: self.spanned(fn, name, hook) for fn, (name, hook) in targets.items()}
        saved = [(mod, attr, value) for mod in modules for attr, value in vars(mod).items()
                 if isinstance(value, types.FunctionType) and value in wrappers]
        for mod, attr, value in saved:
            setattr(mod, attr, wrappers[value])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer_of(name), "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def entries(spans, name: str) -> int:
    """Spans called ``name`` that were not opened inside another one of
    that name: the calls made from outside."""
    return sum(1 for s in spans if s[0] == name and (s[3] is None or spans[s[3]][0] != name))


def _covered(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, int]:
    """Nanoseconds per span name: each span's duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if s < end and e > start]
        out[name] += (end - start) - _covered(inside)
    return dict(out)


def percentile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-th percentile.

    It is a mean of all the sorted values, the ``i``-th weighted by the
    probability that a Beta((n+1)q/100, (n+1)(1-q/100)) variable falls in
    ``((i-1)/n, i/n)``.  Where a run has a few dozen samples, or the
    percentile falls between two classes of ops, it varies much less from
    run to run than a single order statistic does.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    n = len(xs)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # midpoint rule, k points per rank interval: it never evaluates the
    # endpoints, where the density may be infinite; dividing by the sum of
    # the weights removes the rule's error in scale
    k = 8
    weights = [sum(density((i + (j + 0.5) / k) / n) for j in range(k)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)

