"""The benchmark's own tests.

Run from the checkout root: ``python3 -m pytest -q perfbench``. Every
workload runs at its shrunken shape and must print every metric; a
perturbed trace or served result must fail the run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import openloop
import run as bench
from harness import ROOT, SRC, CheckFailed, Spans, Tail

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


# -- the contract -------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- every workload, shrunken ---------------------------------------------------

#: Layer metrics each workload's traced run must measure as non-zero.
OWN_LAYERS = {
    "fig5-trace": ["apps.build_s", "simmpi.run_s", "simmpi.messages", "shard.windows",
                   "commgraph.graph_s", "clustering.strategies_s", "models.evaluate_s"],
    "plan-hot": ["query.parse_ms", "query.key_ms", "query.serialize_ms", "query.build_ms",
                 "query.score_ms.montecarlo", "query.score_ms.waste_curve",
                 "service.cache_mb", "service.peak_rss_mb", "service.low_rate_p50_ms"],
    "plan-sweep": ["query.build_ms", "query.score_ms.survival", "query.tables_mb",
                   "service.cache_mb"],
    "fuzz-campaign": ["fuzz.generate_ms", "fuzz.execute_ms", "fuzz.execute_tail_ms"],
}


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_prints_every_metric(workload, trace):
    seed = 5
    out = _cli("--workload", workload, "--seed", str(seed), "--seconds", "1.5",
               "--trace", str(trace), "--shape", "small")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, entry["name"]
    if trace:
        for name in OWN_LAYERS[workload]:
            assert result["metrics"][name]["value"] > 0, name
        spans = json.loads((harness.OUT_DIR / f"trace-{workload}-{seed}.json").read_text())
        ids = {s["id"] for s in spans["spans"]}
        assert ids and all(s["parent"] is None or s["parent"] in ids for s in spans["spans"])
        assert all(s["end_s"] >= s["start_s"] for s in spans["spans"])


def test_without_the_program_the_run_fails(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no
    result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = _cli("--workload", "plan-hot", "--seed", "1", "--seconds", "1",
               env=env, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- perturbed outputs fail the run ----------------------------------------------


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_perturbed_sharded_trace_fails_the_run(monkeypatch, capsys):
    from repro.simmpi.shard import ShardedEngine

    real_run = ShardedEngine.run

    def perturbed(self, workload):
        results = real_run(self, workload)
        self.tracer.bytes_matrix[0, 1] += 1
        return results

    monkeypatch.setattr(ShardedEngine, "run", perturbed)
    code = bench.main(["--workload", "fig5-trace", "--seed", "1", "--seconds", "0.1",
                       "--shape", "small"])
    assert code == 1
    assert _last_json(capsys)["correct"] is False


def test_perturbed_served_result_fails_the_run(monkeypatch, capsys):
    real_exchange = openloop.exchange

    def perturbed(port, raw, timeout):
        status, body = real_exchange(port, raw, timeout)
        if raw.startswith(b"POST /query ") and status == 200:
            payload = json.loads(body)
            payload["values"][0][1] += 1e-9
            body = (json.dumps(payload) + "\n").encode()
        return status, body

    import plan

    monkeypatch.setattr(plan, "exchange", perturbed)
    code = bench.main(["--workload", "plan-hot", "--seed", "1", "--seconds", "0.5",
                       "--shape", "small"])
    assert code == 1
    assert _last_json(capsys)["correct"] is False


def test_unstable_fuzz_classification_fails_the_run(monkeypatch):
    import fuzz_campaign
    from repro.fuzz import autopilot

    real = autopilot.run_campaign

    def flaky(config):
        report = real(config)
        report.results[0] = type(report.results[0])(classification="deadlock")
        return report

    monkeypatch.setattr(autopilot, "run_campaign", flaky)
    with pytest.raises(CheckFailed, match="not the pinned stream"):
        fuzz_campaign.run(seed=1, seconds=0.1, shape="small", spans=Spans(False))


# -- helpers ------------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    tail = Tail.of(range(1, 101))
    assert tail.value == 90 and tail.percentile == 90.0 and tail.samples == 100
    assert Tail.of([3.0, 1.0]).value == 3.0  # too few samples: the maximum


def test_spans_self_time_subtracts_children():
    spans = Spans(True)
    with spans.span("outer", 7):
        with spans.span("inner", 7):
            pass
    outer, inner = sorted(spans.records, key=lambda r: r.name != "outer")
    assert inner.parent == outer.id and inner.request == outer.request == 7
    self_s = spans.self_times()
    assert self_s["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    assert Spans(False).span("x").__enter__() is None


def test_schedule_comes_from_the_seed():
    a = openloop.poisson_schedule(np.random.default_rng([3, 1]), 200.0, 400)
    b = openloop.poisson_schedule(np.random.default_rng([3, 1]), 200.0, 400)
    c = openloop.poisson_schedule(np.random.default_rng([4, 1]), 200.0, 400)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert len(a) == 400 and 1.5 < a[-1] < 2.5
    picks = openloop.shuffled_cycles(np.random.default_rng(1), 7, 21)
    assert sorted(picks.tolist()) == sorted(list(range(7)) * 3)
    assert openloop.step_count(100.0, 10.0, 42) == 1008
    assert openloop.step_count(2.0, 2.5, 64) == 5


def test_failed_requests_count_over_the_limit_and_late_growth_is_a_backlog():
    ok = openloop.Step(rate=1, limit_ms=10, samples_ms=[1.0] * 30, late_ms=[0.1] * 30)
    assert ok.meets_limit and not ok.backlog and ok.attempted == 30 and ok.failed == 0
    failing = openloop.Step(rate=1, limit_ms=10, samples_ms=[1.0] * 30 + [math.inf] * 11,
                            late_ms=[0.1] * 41)
    assert failing.failed == 11
    assert failing.tail.value == math.inf and not failing.meets_limit
    growing = openloop.Step(rate=1, limit_ms=10, samples_ms=[1.0] * 40,
                            late_ms=[float(i) for i in range(40)])
    assert growing.backlog and not growing.meets_limit


def test_windowed_tail_is_the_median_of_window_tails():
    values = [float(i % 100) for i in range(1000)]  # ten identical windows
    tail = Tail.windowed(values, 100)
    assert tail.windows == 10 and tail.value == 89.0 and tail.samples == 1000
    assert Tail.windowed(values[:150], 100) == Tail.of(values[:150])


def test_peak_rss_counts_live_children():
    own_mb = harness._status_kb(os.getpid(), "VmRSS") / 1024
    with harness.PeakRss() as rss:
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; b = b'x' * 2**26; time.sleep(0.4)"]
        )
        child.wait(timeout=30)
    assert rss.mb > own_mb + 60  # the child's 64 MiB


def test_peak_rss_leaves_out_memory_freed_before_the_block():
    block = b"x" * 2**27  # 128 MiB, resident, then returned to the system
    del block
    with harness.PeakRss() as rss:
        pass
    assert rss.mb < harness.vm_hwm_mb(os.getpid()) - 100


def test_compare_keeps_only_untraced_paper_runs_at_run_seconds(tmp_path):
    import compare

    def record(**kw):
        return json.dumps({"trace": 0, "shape": "paper", "seconds": SPEC["run_seconds"], **kw})

    path = tmp_path / "results.jsonl"
    path.write_text("\n".join([
        record(seed=1),
        record(seed=2, trace=1),
        record(seed=3, shape="small"),
        record(seed=4, seconds=1.5),
    ]) + "\n")
    assert [r["seed"] for r in compare._load(str(path), SPEC["run_seconds"])] == [1]


def test_span_cost_is_a_small_positive_time():
    assert 0 < Spans.cost_s() < 1e-3
