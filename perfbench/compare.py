"""Compare saved benchmark runs of two commits, metric by metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the standard output of one or more runs of run.py: a detail
line followed by a result line per run. For every workload, trace mode and
metric it prints each side's median and quartiles and the change of the
medians. It refuses, with exit code 2, to compare runs whose kernel backend
differs: a stray compiled `_speedups*.so` would otherwise pass for a gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> tuple[set, dict]:
    """The backends seen and {(workload, trace): {metric: [values]}}."""
    backends = set()
    runs = defaultdict(lambda: defaultdict(list))
    detail = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "detail" in obj:
                detail = obj["detail"]
                continue
            if detail is None:
                raise ValueError(f"{path}: result line without a detail line before it")
            backends.add(detail["env"]["backend"])
            group = runs[(detail["workload"], detail["trace"])]
            for name, m in obj["metrics"].items():
                group[name].append(m["value"])
            detail = None
    return backends, runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (back_a, runs_a), (back_b, runs_b) = load(argv[0]), load(argv[1])
    if len(back_a | back_b) != 1:
        print(f"error: refusing to compare kernel backends {sorted(back_a)} and {sorted(back_b)}",
              file=sys.stderr)
        return 2
    print(f"{'workload':<14}{'trace':>6}  {'metric':<32}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}{'median':>9}")
    for key in sorted(runs_a.keys() & runs_b.keys()):
        for name in runs_a[key]:
            if name not in runs_b[key]:
                continue
            a, b = quartiles(runs_a[key][name]), quartiles(runs_b[key][name])
            delta = f"{(b[1] - a[1]) / a[1]:+.1%}" if a[1] else "n/a"
            fa = "/".join(f"{x:.4g}" for x in a)
            fb = "/".join(f"{x:.4g}" for x in b)
            print(f"{key[0]:<14}{key[1]:>6}  {name:<32}{fa:>34}{fb:>34}{delta:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
