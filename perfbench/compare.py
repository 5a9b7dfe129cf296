#!/usr/bin/env python3
"""Compare two sets of benchmark result records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of the records that
``run.py`` writes, e.g. runs of the parent commit with ``--out base`` and
of the change with ``--out new``, several seeds each.  For every workload
and metric the tool prints each side's median and quartiles and, for the
end-to-end metrics, a verdict under the bounds in BENCHMARK.json:

* worse: the new median is worse than the base median by more than the bound;
* better: the new median is better by more than the spread between the
  base's quartiles, and the new runs win at least nine tenths of all
  base/new pairs;
* unresolved: the base's own quartile spread exceeds the bound, and the
  runs of the two sides overlap;
* same: none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """``{(workload, trace): {metric: [values]}}`` from the records under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = defaultdict(lambda: defaultdict(list))
    for f in files:
        record = json.loads(f.read_text())
        for name, m in record["metrics"].items():
            out[(record["workload"], record["trace"])][name].append(m["value"])
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base, new, bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1  # positive differences are worse
    q1, med, q3 = quartiles(base)
    new_med = statistics.median(new)
    worse_by = sign * (new_med - med) / med
    spread = (q3 - q1) / med
    if spread > bound:
        if all(sign * (b - a) < 0 for a in base for b in new):
            return "better"
        if all(sign * (b - a) > 0 for a in base for b in new):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(sign * (b - a) < 0 for a in base for b in new) / (len(base) * len(new))
    if -worse_by > spread and wins >= 0.9:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':14s} {'metric':30s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in base[key]:
            a, b = base[key][name], new[key].get(name)
            if not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            if trace == 0 and name in bounds:
                v = verdict(a, b, bounds[name]["bound"], bounds[name]["better"])
            else:
                v = "-"
            print(f"{workload:14s} {name:30s} {_fmt(qa):>34s} {_fmt(qb):>34s} "
                  f"{change:>+8.1%}  {v} (runs {len(a)}/{len(b)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
