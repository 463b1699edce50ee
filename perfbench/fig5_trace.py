"""fig5-trace: the paper's §V experiment, traced and clustered.

One pass builds the fig5 world (64 nodes x 16 application ranks plus one
FTI encoder per node, 100 iterations, a checkpoint every 25), traces it
on the default single-process :class:`Engine`, turns the trace into the
application graph, builds the paper's four strategies and scores them
(Table II). The same world then runs on ``ShardedEngine(2, workers=2)``.

Checks, before any number is kept: the message count matches the
shape's pinned count and the count matrix sums to it; every pass traces
byte-identically to the first; the sharded traces are byte-identical and
its clocks bit-identical to the single-process run; Table II is
satisfied only by the expected strategy.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from harness import Outcome, PeakRss, Spans, Tail, check, fresh_setup_seconds, median

#: ``world`` feeds ``fig5_workload``; ``messages`` and ``satisfying`` are
#: the pinned outputs the checks compare against.
SHAPES = {
    "paper": {
        "world": dict(nodes=64, app_per_node=16, iterations=100, checkpoint_every=25),
        "messages": 424_384,
        "satisfying": ("hierarchical-64-4",),
    },
    "small": {
        "world": dict(nodes=16, app_per_node=2, iterations=8, checkpoint_every=4),
        "messages": 1_488,
        "satisfying": (),
    },
}

SHARDS = 2
SHARD_WORKERS = 2
MIN_PASSES = 2
SETUP_REPEATS = 3

DEOPT_REASONS = ("partial-world", "external-destination")


def setup(shape: str):
    """Everything a pass needs before the engine starts."""
    from repro.apps.workload import fig5_workload
    from repro.machine.tsubame2 import tsubame2_fti_machine, tsubame2_machine

    world = SHAPES[shape]["world"]
    workload = fig5_workload(**world)
    workload.build_programs()
    network = tsubame2_fti_machine(world["nodes"], world["app_per_node"]).network
    app_machine = tsubame2_machine(world["nodes"], world["app_per_node"])
    return workload, network, app_machine


def _traces_equal(a, b) -> bool:
    if not (
        np.array_equal(a.bytes_matrix, b.bytes_matrix)
        and np.array_equal(a.count_matrix, b.count_matrix)
        and sorted(a.kind_matrices) == sorted(b.kind_matrices)
    ):
        return False
    return all(
        np.array_equal(a.kind_matrices[k], b.kind_matrices[k]) for k in a.kind_matrices
    )


def one_pass(shape: str, network, app_machine, spans: Spans, request: int) -> dict:
    """Trace → Table II on the single-process engine, then the sharded run."""
    from repro.apps.workload import fig5_workload
    from repro.commgraph.builder import app_graph_from_trace
    from repro.core.evaluator import ClusteringEvaluator
    from repro.core.scenario import Scenario
    from repro.simmpi.engine import Engine
    from repro.simmpi.shard import ShardedEngine
    from repro.simmpi.tracing import TraceRecorder

    world = SHAPES[shape]["world"]
    out: dict = {}
    with spans.span("fig5.pass", request):
        t_pass = time.perf_counter()
        with spans.span("apps.build", request):
            workload = fig5_workload(**world)
            programs = workload.build_programs()
        tracer = TraceRecorder(workload.nranks, by_kind=True)
        engine = Engine(workload.nranks, network=network, tracer=tracer)
        with spans.span("simmpi.run", request):
            t0 = time.perf_counter()
            engine.run(programs)
            out["run_s"] = time.perf_counter() - t0
        with spans.span("commgraph.graph", request):
            graph = app_graph_from_trace(tracer, workload.placement)
        scenario = Scenario(
            name="fig5-traced",
            machine=app_machine,
            graph=graph,
            iterations=world["iterations"],
        )
        evaluator = ClusteringEvaluator(scenario)
        with spans.span("clustering.strategies", request):
            strategies = evaluator.paper_strategies()
        with spans.span("models.evaluate", request):
            report = evaluator.evaluate_all(strategies)
        out["design_s"] = time.perf_counter() - t_pass

        sharded_tracer = TraceRecorder(workload.nranks, by_kind=True)
        sharded = ShardedEngine(
            SHARDS, workers=SHARD_WORKERS, network=network, tracer=sharded_tracer
        )
        with spans.span("shard.run", request):
            t0 = time.perf_counter()
            sharded.run(workload)
            out["shard_s"] = time.perf_counter() - t0

    out.update(
        nranks=workload.nranks,
        iterations=world["iterations"],
        tracer=tracer,
        clocks=engine.rank_times(),
        sharded_tracer=sharded_tracer,
        sharded_clocks=sharded.rank_times(),
        satisfying=tuple(report.satisfying()),
        kernel_iterations=engine.kernel_iterations,
        kernel_deopts=dict(engine.kernel_deopts),
        shard_windows=sharded.windows_run,
        shard_kernel_iterations=sharded.kernel_iterations,
        shard_kernel_deopts=dict(sharded.kernel_deopts),
    )
    return out


def check_pass(shape: str, result: dict, reference: dict | None) -> None:
    expected = SHAPES[shape]
    tracer = result["tracer"]
    total = int(tracer.total_messages)
    check(
        total == expected["messages"],
        f"fig5 traced {total} messages, expected {expected['messages']}",
    )
    check(
        int(tracer.count_matrix.sum()) == total,
        f"fig5 count matrix sums to {int(tracer.count_matrix.sum())}, "
        f"tracer counted {total}",
    )
    check(
        _traces_equal(tracer, result["sharded_tracer"]),
        "sharded trace differs from the single-process trace",
    )
    check(
        result["clocks"] == result["sharded_clocks"],
        "sharded virtual clocks differ from the single-process clocks",
    )
    check(
        result["satisfying"] == expected["satisfying"],
        f"Table II satisfied by {result['satisfying']}, "
        f"expected {expected['satisfying']}",
    )
    if reference is not None:
        check(
            _traces_equal(tracer, reference["tracer"])
            and result["clocks"] == reference["clocks"],
            "fig5 trace or clocks differ between passes",
        )


def run(*, seed: int, seconds: float, shape: str, spans: Spans) -> Outcome:
    # The fig5 world is the paper's fixed experiment: the seed selects
    # nothing here, so every seed runs the same inputs.
    del seed
    setup_s = fresh_setup_seconds("fig5-trace", shape, SETUP_REPEATS)
    _, network, app_machine = setup(shape)
    passes: list[dict] = []
    with PeakRss() as rss:
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - started
        ) * (len(passes) + 1) / len(passes) <= seconds:
            # Collect the previous pass's garbage outside the timed calls.
            gc.collect()
            result = one_pass(shape, network, app_machine, spans, request=len(passes))
            check_pass(shape, result, passes[0] if passes else None)
            # Keep only the first pass's trace; later passes are compared
            # against it and their matrices dropped.
            if passes:
                for key in ("tracer", "sharded_tracer", "clocks", "sharded_clocks"):
                    result.pop(key)
            passes.append(result)

    rank_iters = passes[0]["nranks"] * passes[0]["iterations"]
    design = [p["design_s"] * 1e3 for p in passes]
    tail = Tail.of(design)
    outcome = Outcome(
        attempted=len(passes),
        failed=0,
        metrics={
            "setup_s": median(setup_s),
            "peak_rss_mb": rss.mb,
            "ok_share": 1.0,
            "work_per_s": rank_iters / median(p["shard_s"] for p in passes),
            "latency_p50_ms": median(design),
            "latency_tail_ms": tail.value,
        },
        details={
            "passes": len(passes),
            "design_ms": [round(d, 3) for d in design],
            "design_tail": tail.describe(),
            "single_rank_iters_per_s": round(
                rank_iters / median(p["run_s"] for p in passes), 1
            ),
            "sharded_rank_iters_per_s": round(
                rank_iters / median(p["shard_s"] for p in passes), 1
            ),
            "messages": int(passes[0]["tracer"].total_messages),
            "kernel_iterations": passes[0]["kernel_iterations"],
            "kernel_deopts": passes[0]["kernel_deopts"],
            "shard_windows": passes[0]["shard_windows"],
            "shard_kernel_deopts": passes[0]["shard_kernel_deopts"],
            "table2_satisfying": list(passes[0]["satisfying"]),
        },
    )
    if spans.enabled:
        first = passes[0]
        iterations = first["iterations"]
        outcome.layers = {
            "apps.build_s": median(spans.durations("apps.build")),
            "simmpi.run_s": median(spans.durations("simmpi.run")),
            "simmpi.rank_iters_per_s": rank_iters / median(spans.durations("simmpi.run")),
            "simmpi.kernel_iter_share": first["kernel_iterations"] / iterations,
            "simmpi.kernel_deopts": sum(first["kernel_deopts"].values()),
            "simmpi.messages": int(first["tracer"].total_messages),
            "shard.run_s": median(spans.durations("shard.run")),
            "shard.windows": first["shard_windows"],
            "shard.kernel_iter_share": first["shard_kernel_iterations"] / iterations,
            "shard.kernel_deopts": sum(first["shard_kernel_deopts"].values()),
            "commgraph.graph_s": median(spans.durations("commgraph.graph")),
            "clustering.strategies_s": median(spans.durations("clustering.strategies")),
            "models.evaluate_s": median(spans.durations("models.evaluate")),
        }
        for reason in DEOPT_REASONS:
            outcome.layers[f"simmpi.deopts.{reason}"] = first["kernel_deopts"].get(reason, 0)
            outcome.layers[f"shard.deopts.{reason}"] = first["shard_kernel_deopts"].get(
                reason, 0
            )
    return outcome

