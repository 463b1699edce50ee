"""plan-sweep: a design-space sweep against a cold, too-small cache.

Monte-Carlo queries at n=20000 (ten times plan-hot's samples) and
survival queries over 512 and 1024 nodes x 16 processes, 4 strategies x
4 cluster sizes, each Monte-Carlo seed drawn from the run seed and the
arrivals in seed-shuffled order. The 32 table bundles total about
600 MiB, over twice the service's default 256 MiB cache, so
table builds, evictions and large-n scoring dominate and per-request
overhead is noise. Every served query is checked against an in-process
``run_query`` after the load and before any number is kept.
"""

from __future__ import annotations

import numpy as np

from harness import Outcome, Spans
from plan import Item, PlanConfig, run_plan

CONFIG = PlanConfig(
    limit_ms=1000.0,
    low_rate=2.0,
    high_rate=8.0,
    saturation_cycles_per_s=0.27,
    warm=False,
)

STRATEGIES = ("naive", "size-guided", "distributed", "consecutive")

SHAPES = {
    "paper": dict(nnodes=(512, 1024), procs_per_node=16, sizes=(8, 16, 32, 64), n_samples=20_000),
    "small": dict(nnodes=(16, 32), procs_per_node=4, sizes=(8, 16), n_samples=500),
}


def mix(seed: int, shape: str) -> list[Item]:
    from repro.core.query import ClusteringSpec, MachineSpec, ReliabilityQuery

    size = SHAPES[shape]
    rng = np.random.default_rng([seed, 0])
    items = []
    for nnodes in size["nnodes"]:
        machine = MachineSpec(preset="tsubame2", nnodes=nnodes, procs_per_node=size["procs_per_node"])
        for strategy in STRATEGIES:
            for cluster_size in size["sizes"]:
                clustering = ClusteringSpec(strategy=strategy, cluster_size=cluster_size)
                items.append(Item(ReliabilityQuery(
                    metric="montecarlo",
                    machine=machine,
                    clustering=clustering,
                    n_samples=size["n_samples"],
                    seed=int(rng.integers(0, 2**31)),
                )))
                items.append(Item(ReliabilityQuery(
                    metric="survival", machine=machine, clustering=clustering
                )))
    return items


def run(*, seed: int, seconds: float, shape: str, spans: Spans) -> Outcome:
    return run_plan(CONFIG, mix(seed, shape), seed=seed, seconds=seconds, spans=spans)
