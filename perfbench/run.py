"""The repository's benchmark: one command, four workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-trace --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload for half the time untraced and half with
spans around every call into the program's layers, and prints the
per-layer metrics plus the tracing overhead: the traced half's span
count times the measured cost of one span, as a share of that half's
wall time. The details also give the traced half's median latency over
the untraced half's, minus one, but that difference is at noise level
where the timed phase runs few or no spans. ``BENCHMARK.json`` at the
checkout root names the workloads and metrics; a per-layer metric of a
layer the workload never calls reads 0.

Every output is checked against its reference before any number is
kept; a mismatch prints ``"correct": false`` and exits 1. Each run
appends its full record (host fingerprint, percentiles with sample
counts, counters) to ``.perfbench/results.jsonl``; traced runs also
write their spans to ``.perfbench/trace-<workload>-<seed>.json``. The
last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

from harness import OUT_DIR, ROOT, SRC, CheckFailed, Outcome, Spans, host_fingerprint

#: workload name -> module running it
WORKLOADS = {
    "fig5-trace": "fig5_trace",
    "plan-hot": "plan_hot",
    "plan-sweep": "plan_sweep",
    "fuzz-campaign": "fuzz_campaign",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(module, args, spans: Spans, seconds: float) -> Outcome:
    return module.run(seed=args.seed, seconds=seconds, shape=args.shape, spans=spans)


def _report(metrics: dict[str, dict]) -> None:
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape",
        choices=("paper", "small"),
        default="paper",
        help="'small' shrinks every world for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as err:
        print(f"perfbench: cannot import the program from {SRC}: {err}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the checkout's {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    module = importlib.import_module(WORKLOADS[args.workload])
    host = host_fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} shape={args.shape}")
    print(f"host: {json.dumps(host, sort_keys=True)}")

    started = time.perf_counter()
    spans = Spans(enabled=bool(args.trace))
    try:
        if args.trace:
            untraced = _run(module, args, Spans(enabled=False), args.seconds / 2)
            t0 = time.perf_counter()
            outcome = _run(module, args, spans, args.seconds / 2)
            traced_s = time.perf_counter() - t0
            outcome.layers["trace.overhead_share"] = (
                len(spans.records) * Spans.cost_s() / traced_s
            )
            base = untraced.metrics["latency_p50_ms"]
            outcome.details["traced_p50_over_untraced"] = (
                outcome.metrics["latency_p50_ms"] / base - 1
            )
            outcome.attempted += untraced.attempted
            outcome.failed += untraced.failed
        else:
            outcome = _run(module, args, spans, args.seconds)
    except CheckFailed as err:
        print(f"CHECK FAILED: {err}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = outcome.layers if args.trace else outcome.metrics
    unknown = sorted(set(produced) - {m["name"] for m in declared})
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if not args.trace and name not in produced:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": float(produced.get(name, 0)), "unit": entry["unit"]}

    print(f"details: {json.dumps(outcome.details, sort_keys=True, default=str)}")
    _report(metrics)
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": args.shape,
        "wall_s": round(time.perf_counter() - started, 3),
        "host": host,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "details": outcome.details,
    }
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(spans.to_json()))
        print(f"spans: {len(spans.records)} written to {trace_path.relative_to(ROOT)}")
        self_s = sorted(spans.self_times().items(), key=lambda kv: -kv[1])
        print("self time (s): " + ", ".join(f"{name}={sec:.4f}" for name, sec in self_s))
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
