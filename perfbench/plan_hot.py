"""plan-hot: the standing dashboard mix against a warm table cache.

Traffic shaped like ``default_query_mix()``: 32 Monte-Carlo queries at
n=2000 (4 strategies x 8 seeds), expected-waste, campaign and survival
queries, and one streamed ``waste_curve``; the run seed draws every
query's seed and the arrival schedule. Every table is built during
set-up, so requests only score (about a millisecond) and per-request
overhead dominates: wire parse, table-key hashing, dispatch, summaries
and the HTTP write.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from harness import Outcome, Spans
from plan import Item, PlanConfig, run_plan

CONFIG = PlanConfig(
    limit_ms=50.0,
    low_rate=50.0,
    high_rate=100.0,
    saturation_cycles_per_s=10.0,
    warm=True,
)

SHAPES = {
    "paper": dict(nnodes=128, procs_per_node=8, n_samples=2000, seeds=8, points=12),
    "small": dict(nnodes=16, procs_per_node=4, n_samples=200, seeds=2, points=6),
}


def mix(seed: int, shape: str) -> list[Item]:
    from repro.service.loadgen import default_query_mix, sweep_query

    size = SHAPES[shape]
    rng = np.random.default_rng([seed, 0])
    queries = default_query_mix(
        nnodes=size["nnodes"],
        procs_per_node=size["procs_per_node"],
        n_samples=size["n_samples"],
        seeds=size["seeds"],
    )
    stream = sweep_query(
        nnodes=size["nnodes"], procs_per_node=size["procs_per_node"], points=size["points"]
    )
    seeds = rng.integers(0, 2**31, size=len(queries) + 1)
    items = [Item(replace(q, seed=int(s))) for q, s in zip(queries, seeds)]
    items.append(Item(replace(stream, seed=int(seeds[-1])), stream=True))
    return items


def run(*, seed: int, seconds: float, shape: str, spans: Spans) -> Outcome:
    return run_plan(CONFIG, mix(seed, shape), seed=seed, seconds=seconds, spans=spans)
