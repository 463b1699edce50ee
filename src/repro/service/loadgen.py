"""Load generator + equivalence harness behind ``BENCH_service.json``.

Every benchmark and smoke run follows the same discipline as the rest of
``benchmarks/``: *prove the fast path equals the reference, then time
it*. :func:`verify_equivalence` asserts, for every distinct query in the
mix, that the service's answer is bit-equal to a direct in-process
:func:`repro.core.query.run_query`. Only then does :func:`run_load` hammer the
server from concurrent threads and record queries/s with p50/p99
latency and the cache hit rate.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    ReliabilityQuery,
    run_query,
)
from repro.service.client import ServiceClient
from repro.service.http import ServiceThread


def default_query_mix(
    *,
    nnodes: int = 128,
    procs_per_node: int = 8,
    n_samples: int = 2000,
    seeds: int = 8,
) -> list[ReliabilityQuery]:
    """The benchmark's standing query mix: Monte-Carlo sweeps over the
    paper's strategies (coalescible by table), campaign questions, and a
    deterministic survival curve — the traffic a planning dashboard
    would generate."""
    machine = MachineSpec(
        preset="tsubame2", nnodes=nnodes, procs_per_node=procs_per_node
    )
    strategies = [
        ClusteringSpec(strategy="naive", cluster_size=32),
        ClusteringSpec(strategy="size-guided", cluster_size=8),
        ClusteringSpec(strategy="distributed", cluster_size=16),
        ClusteringSpec(strategy="consecutive", cluster_size=64),
    ]
    mix: list[ReliabilityQuery] = []
    for clustering in strategies:
        for seed in range(seeds):
            mix.append(
                ReliabilityQuery(
                    metric="montecarlo",
                    machine=machine,
                    clustering=clustering,
                    n_samples=n_samples,
                    seed=seed,
                )
            )
    for i, clustering in enumerate(strategies):
        mix.append(
            ReliabilityQuery(
                metric="expected_waste",
                machine=machine,
                clustering=clustering,
                n_campaigns=3,
                seed=100 + i,
            )
        )
        mix.append(
            ReliabilityQuery(
                metric="campaign",
                machine=machine,
                clustering=clustering,
                seed=200 + i,
            )
        )
    mix.append(
        ReliabilityQuery(
            metric="survival", machine=machine, clustering=strategies[0]
        )
    )
    return mix


def sweep_query(
    *, nnodes: int = 128, procs_per_node: int = 8, points: int = 12
) -> ReliabilityQuery:
    """A checkpoint-interval sweep sized for the streaming endpoint."""
    return ReliabilityQuery(
        metric="waste_curve",
        machine=MachineSpec(
            preset="tsubame2", nnodes=nnodes, procs_per_node=procs_per_node
        ),
        clustering=ClusteringSpec(strategy="naive", cluster_size=32),
        sweep=tuple(900.0 * (i + 1) for i in range(points)),
        n_campaigns=2,
        seed=7,
    )


def verify_equivalence(
    client: ServiceClient, queries, *, stream: ReliabilityQuery | None = None
) -> int:
    """Assert the service answers ``queries`` bit-equal to direct calls.

    Per query: service == in-process ``run_query``; for ``stream``, the
    streamed chunks concatenate to the in-process curve. Raises
    ``AssertionError`` on the first mismatch; returns the number of
    checks performed.
    """
    checks = 0
    for query in queries:
        served = client.query(query)
        direct = run_query(query)
        assert served == direct, (
            f"service diverged from in-process run_query for {query.metric} "
            f"({query.clustering.key()}, seed {query.seed})"
        )
        checks += 1
    if stream is not None:
        partials, final = client.query_streamed(stream)
        direct = run_query(stream)
        assert final == direct, "streamed final result != in-process run_query"
        flattened = [tuple(point) for chunk in partials for point in chunk]
        assert flattened == list(direct.curve), (
            "streamed partial chunks do not concatenate to the full curve"
        )
        assert len(partials) > 1, (
            f"sweep of {len(stream.sweep)} points arrived in "
            f"{len(partials)} chunk(s); expected a genuine stream"
        )
        checks += 1
    return checks


@dataclass(frozen=True)
class LoadReport:
    """One load-generator run, as recorded into ``BENCH_service.json``."""

    queries: int
    errors: int
    concurrency: int
    workers: int
    seconds: float
    queries_per_s: float
    p50_ms: float
    p99_ms: float
    cache_hit_rate: float
    coalesced: int
    scoring_passes: int

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "errors": self.errors,
            "concurrency": self.concurrency,
            "workers": self.workers,
            "seconds": round(self.seconds, 4),
            "queries_per_s": round(self.queries_per_s, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "coalesced": self.coalesced,
            "scoring_passes": self.scoring_passes,
        }

    def summary(self) -> str:
        return (
            f"{self.queries_per_s:,.0f} queries/s over {self.queries} "
            f"queries ({self.concurrency} clients, {self.workers} workers): "
            f"p50 {self.p50_ms:.1f} ms, p99 {self.p99_ms:.1f} ms, "
            f"cache hit rate {100 * self.cache_hit_rate:.0f}%, "
            f"{self.coalesced} coalesced into {self.scoring_passes} passes"
        )


def run_load(
    host: str,
    port: int,
    queries,
    *,
    concurrency: int = 8,
    repeat: int = 1,
) -> LoadReport:
    """Drive the service from ``concurrency`` threads and measure.

    Each thread owns a client and walks its round-robin slice of the
    (repeated) query list, timing every request wall-clock. Rates come
    from one shared wall-clock window; percentiles from the per-request
    samples; cache/coalescing counters from the server's ``/stats``.
    """
    work = [query for _ in range(repeat) for query in queries]
    slices: list[list[ReliabilityQuery]] = [[] for _ in range(concurrency)]
    for i, query in enumerate(work):
        slices[i % concurrency].append(query)

    def _client_run(batch):
        client = ServiceClient(host, port)
        latencies, errors = [], 0
        for query in batch:
            t0 = time.perf_counter()
            try:
                client.query(query)
            except Exception:  # noqa: BLE001 - counted, not raised
                errors += 1
                continue
            latencies.append(time.perf_counter() - t0)
        return latencies, errors

    stats_client = ServiceClient(host, port)
    before = stats_client.stats()
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = list(pool.map(_client_run, slices))
    elapsed = time.perf_counter() - t0
    after = stats_client.stats()

    latencies = sorted(s for lat, _ in outcomes for s in lat)
    errors = sum(e for _, e in outcomes)
    n = len(latencies)
    if not n:
        raise RuntimeError(f"all {len(work)} queries failed")
    p50 = statistics.median(latencies)
    p99 = latencies[min(n - 1, int(0.99 * n))]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return LoadReport(
        queries=n,
        errors=errors,
        concurrency=concurrency,
        workers=after["workers"],
        seconds=elapsed,
        queries_per_s=n / elapsed,
        p50_ms=1e3 * p50,
        p99_ms=1e3 * p99,
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        coalesced=after["coalesced"] - before["coalesced"],
        scoring_passes=after["scoring_passes"] - before["scoring_passes"],
    )


def run_self_test(*, workers: int = 0, verbose: bool = True) -> int:
    """Start a server, drive it, assert equivalence, shut down cleanly.

    The CI service smoke (`python -m repro serve --self-test`): a handful
    of queries across every metric, one streamed sweep, bit-equality
    (service == run_query), and a short concurrent burst to confirm
    batching/caching engage. Returns 0 on success.
    """
    mix = default_query_mix(n_samples=500, seeds=2)
    stream = sweep_query(points=6)
    with ServiceThread(workers=workers) as running:
        client = ServiceClient(running.host, running.port)
        assert client.healthz().get("ok") is True
        checks = verify_equivalence(client, mix, stream=stream)
        report = run_load(
            running.host, running.port, mix, concurrency=4, repeat=2
        )
        if report.errors:
            raise AssertionError(f"{report.errors} queries failed under load")
        stats = client.stats()
        if verbose:
            print(
                f"self-test ok: {checks} equivalence checks "
                f"(workers={workers})"
            )
            print(f"load: {report.summary()}")
            print(
                f"dispatcher: {stats['dispatcher']['batches']} batches, "
                f"largest {stats['dispatcher']['largest_batch']}"
            )
    return 0
