"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py`` (``.perfbench/results.jsonl``).
Only untraced runs at the paper shape and ``run_seconds`` from
``BENCHMARK.json`` are compared (the benchmark's own tests append
shrunken runs to the same file), and only when every such record of both sets
comes from a matching host (cores, CPU model, Python and NumPy versions);
otherwise the comparison is refused with exit code 2. For each workload
and end-to-end metric it prints both medians and quartiles and a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``worse`` — the change's median is worse than the base's by more than
  the bound;
* ``unresolved`` — the base's own spread (interquartile range over
  median) is wider than the bound and the runs overlap;
* ``ok`` — otherwise.

Exit code 1 if any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from harness import COMPARABLE_HOST_KEYS, ROOT, same_host


def _load(path: str, seconds: float) -> list[dict]:
    with open(path) as fh:
        return [
            r for r in map(json.loads, fh)
            if r["trace"] == 0 and r["shape"] == "paper" and r["seconds"] == seconds
        ]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines, worse_any = [], False
    for entry in spec["end_to_end"]:
        name, bound, lower = entry["name"], entry["bound"], entry["better"] == "lower"
        for workload in [w["name"] for w in spec["workloads"]]:
            a = [r["metrics"][name] for r in base if r["workload"] == workload]
            b = [r["metrics"][name] for r in change if r["workload"] == workload]
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            change_share = (qb[1] - qa[1]) / qa[1]
            worsening = change_share if lower else -change_share
            spread = (qa[2] - qa[0]) / qa[1]
            overlap = min(b) <= max(a) and min(a) <= max(b)
            if worsening > bound:
                verdict, worse_any = "worse", True
            elif spread > bound and overlap:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"{workload:14s} {name:18s} base {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                f"n={len(a)}  change {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b)}  "
                f"{change_share:+.1%} (bound {bound:.0%})  {verdict}"
            )
    return lines, worse_any


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = (_load(path, spec["run_seconds"]) for path in argv)
    records = base + change
    if not records:
        print(f"no untraced paper-shape {spec['run_seconds']} s records to compare",
              file=sys.stderr)
        return 2
    reference = records[0]["host"]
    mismatched = [r for r in records if not same_host(r["host"], reference)]
    if mismatched:
        keys = ", ".join(COMPARABLE_HOST_KEYS)
        print(f"refusing to compare: {len(mismatched)} record(s) come from a host "
              f"whose {keys} differ from {reference}", file=sys.stderr)
        return 2
    lines, worse = compare(base, change, spec)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
