"""Shared machinery of the plan-* workloads.

The service runs as ``python -m repro serve`` in its own process. One
run starts it several times (set-up time is the median), verifies every
distinct query it serves against an in-process ``run_query`` and drives
it with open-loop Poisson steps at a low and a high fixed rate, then
saturates it: whole cycles of the mix back to back over the one
connection. The saturation phase gives the end-to-end throughput and
latency; the fixed-rate steps give latency from each request's due time,
the generator's lateness and whether a backlog built up.

Latency from due time was the end-to-end figure first, but on a 2-core
host it moved with the host's wake-up latency: across ten seeds the
plan-hot p50 at 100 requests/s spread by 25% and its tail by 60%, and
one cold plan-sweep cycle spread by 47-61%. Back-to-back requests keep
the service busy, so their latency tracks its own cost.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from harness import (
    ROOT,
    Outcome,
    PeakRss,
    Spans,
    Tail,
    check,
    child_env,
    median,
    vm_hwm_mb,
)
from openloop import exchange, http_request, run_step, saturate, step_count

SETUP_REPEATS = 3
#: Repetitions of the microsecond-scale parse/key/serialize calls timed
#: in one span.
MICRO_REPEATS = 20
#: Shares of the run's seconds for the low and the high fixed-rate step;
#: saturation takes the rest.
LOW_SHARE = 0.1
HIGH_SHARE = 0.3


@dataclass(frozen=True)
class PlanConfig:
    """Rates (requests per second) and latency limit of one workload."""

    limit_ms: float
    low_rate: float
    high_rate: float
    #: cycles through the mix per second of saturation the run gets
    saturation_cycles_per_s: float
    #: serve every distinct query once during set-up (a warm cache)
    warm: bool


@dataclass(frozen=True)
class Item:
    """One distinct request of a traffic mix."""

    query: object  # ReliabilityQuery
    stream: bool = False

    def raw(self) -> bytes:
        path = "/query/stream" if self.stream else "/query"
        return http_request("POST", path, self.query.to_json().encode())


class Server:
    """``python -m repro serve`` on a free port, in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline()
        found = re.search(r"http://[^:/]+:(\d+)", banner)
        if found is None:
            self.stop()
            raise RuntimeError(f"service did not start (banner {banner!r})")
        self.port = int(found.group(1))
        deadline = time.perf_counter() + 30
        while True:
            try:
                if self.get("/healthz").get("ok") is True:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.005)

    def get(self, path: str) -> dict:
        status, body = exchange(self.port, http_request("GET", path), 30.0)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float | None:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()


def start_server(items: list[Item], warm: bool) -> tuple[Server, dict[int, bytes], float]:
    """Start the service (and warm its cache when asked); returns the
    server, the bodies served while warming and the set-up wall time."""
    t0 = time.perf_counter()
    server = Server()
    bodies: dict[int, bytes] = {}
    try:
        if warm:
            for key, item in enumerate(items):
                status, body = exchange(server.port, item.raw(), 60.0)
                check(status == 200, f"warm-up query {key} answered {status}: {body[:200]!r}")
                bodies[key] = body
    except BaseException:
        server.stop()
        raise
    return server, bodies, time.perf_counter() - t0


def _dechunk(body: bytes) -> list[dict]:
    """JSON lines of a chunked (``Transfer-Encoding: chunked``) body."""
    lines, rest = [], body
    while True:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            return lines
        lines.append(json.loads(rest[:size]))
        rest = rest[size + 2:]


def served_result(item: Item, body: bytes):
    """The :class:`QueryResult` a response body carries; a stream's
    partial curves must also concatenate to its final curve."""
    from repro.core.query import QueryResult

    if not item.stream:
        return QueryResult.from_json(body)
    lines = _dechunk(body)
    check(lines and "result" in lines[-1], f"stream ended without a result: {lines[-1:]}")
    final = QueryResult.from_dict(lines[-1]["result"])
    partials = [tuple(point) for line in lines[:-1] for point in line["curve"]]
    check(len(lines) > 2, f"stream arrived in {len(lines) - 1} chunk(s), expected several")
    check(partials == list(final.curve), "streamed chunks do not concatenate to the final curve")
    return final


def verify(items: list[Item], bodies: dict[int, bytes], spans: Spans, warm: bool) -> dict:
    """Check every served body against an in-process ``run_query`` on
    freshly built tables. Traced, also time the query layer's public calls
    (parse, table key, build, score per metric, serialize) on the same
    queries; scoring is timed as the workload's cache serves it: on warm
    tables (a second call) when ``warm``, else on the fresh tables (the
    first call, as after a cache miss). Returns per-key in-process
    milliseconds and table bytes."""
    from repro.core.query import build_tables, run_query

    by_table: dict[str, list[int]] = {}
    for key in sorted(bodies):
        by_table.setdefault(items[key].query.table_key(), []).append(key)
    inproc_ms: dict[int, float] = {}
    tables_bytes = 0
    for keys in by_table.values():
        with spans.span("query.build"):
            tables = build_tables(items[keys[0]].query)
        for key in keys:
            item = items[key]
            with nullcontext() if warm else spans.span(f"query.score.{item.query.metric}"):
                direct = run_query(item.query, tables=tables)
            served = served_result(item, bodies[key])
            check(
                served == direct,
                f"served {item.query.metric} ({item.query.clustering.key()}, "
                f"seed {item.query.seed}) differs from in-process run_query",
            )
            if spans.enabled:
                inproc_ms[key] = _time_query_layer(item, direct, tables, spans, warm)
        tables_bytes += tables.nbytes()
        del tables
    return {"inproc_ms": inproc_ms, "tables_mb": tables_bytes / 2**20, "tables": len(by_table)}


def _time_query_layer(item: Item, direct, tables, spans: Spans, score_span: bool) -> float:
    """In-process milliseconds to serve ``item`` without the HTTP layer:
    one parse, table key, score (tables warm, as in the service's cache)
    and serialize. The microsecond-scale calls are timed over
    ``MICRO_REPEATS`` repetitions, each parsed query keyed once; the
    scoring span is recorded only when ``score_span``."""
    from repro.core.query import ReliabilityQuery, run_query

    body = item.query.to_json()
    t0 = time.perf_counter()
    with spans.span("query.parse"):
        parsed = [ReliabilityQuery.from_json(body) for _ in range(MICRO_REPEATS)]
    t1 = time.perf_counter()
    with spans.span("query.key"):
        for query in parsed:
            query.table_key()
    t2 = time.perf_counter()
    with spans.span(f"query.score.{item.query.metric}") if score_span else nullcontext():
        run_query(parsed[0], tables=tables)
    t3 = time.perf_counter()
    with spans.span("query.serialize"):
        for _ in range(MICRO_REPEATS):
            direct.to_json()
    t4 = time.perf_counter()
    return ((t1 - t0 + t2 - t1 + t4 - t3) / MICRO_REPEATS + (t3 - t2)) * 1e3


def run_plan(
    cfg: PlanConfig,
    items: list[Item],
    *,
    seed: int,
    seconds: float,
    spans: Spans,
) -> Outcome:
    rng = np.random.default_rng([seed, 1])
    raws = [item.raw() for item in items]
    setups = []
    for attempt in range(SETUP_REPEATS):
        server, warm_bodies, elapsed = start_server(items, cfg.warm)
        setups.append(elapsed)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    try:
        verified = verify(items, warm_bodies, spans, cfg.warm) if warm_bodies else None
        expected = dict(warm_bodies)
        before = server.get("/stats")
        with PeakRss() as rss:
            low = run_step(
                server.port, raws, expected, rng, spans,
                rate=cfg.low_rate, count=step_count(cfg.low_rate, seconds * LOW_SHARE, len(raws)),
                limit_ms=cfg.limit_ms,
            )
            high = run_step(
                server.port, raws, expected, rng, spans,
                rate=cfg.high_rate,
                count=step_count(cfg.high_rate, seconds * HIGH_SHARE, len(raws)),
                limit_ms=cfg.limit_ms,
                first_request_id=low.attempted,
            )
            saturation_s = seconds * (1 - LOW_SHARE - HIGH_SHARE)
            burst = saturate(
                server.port, raws, expected, rng,
                cycles=max(1, round(saturation_s * cfg.saturation_cycles_per_s)),
                timeout=max(10 * cfg.limit_ms / 1e3, 1.0),
            )
            after = server.get("/stats")
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()

    for phase in (low, high, burst):
        check(
            not phase.mismatches,
            f"{len(phase.mismatches)} response(s) differ from the first answer to "
            f"the same query (query {phase.mismatches[0][0] if phase.mismatches else ''})",
        )
    if verified is None:
        verified = verify(items, expected, spans, cfg.warm)

    attempted = low.attempted + high.attempted + burst.completed + burst.failed
    failed = low.failed + high.failed + burst.failed
    cache0, cache1 = before["cache"], after["cache"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    outcome = Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": rss.mb,
            "ok_share": (attempted - failed) / attempted,
            "work_per_s": burst.per_s,
            "latency_p50_ms": burst.p50_ms,
            "latency_tail_ms": burst.tail.value,
        },
        details={
            "limit_ms": cfg.limit_ms,
            "low": low.describe(),
            "high": high.describe(),
            "saturation": burst.describe(),
            "distinct_served": len(expected),
            "tables": verified["tables"],
            "server_peak_rss_mb": server_rss,
            "stats_after": after,
        },
    )
    if spans.enabled:
        inproc = verified["inproc_ms"]
        layers = {
            "query.parse_ms": _per_call(spans, "query.parse"),
            "query.key_ms": _per_call(spans, "query.key"),
            "query.serialize_ms": _per_call(spans, "query.serialize"),
            "query.build_ms": median(spans.durations("query.build")) * 1e3,
            "query.tables_mb": verified["tables_mb"],
            "service.low_rate_p50_ms": low.p50_ms,
            "service.low_rate_tail_ms": low.tail.value,
            "service.self_ms": low.p50_ms - median(inproc[k] for k in low.picks if k in inproc),
            "service.cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
            "service.cache_evictions": cache1["evictions"] - cache0["evictions"],
            "service.cache_mb": cache1["bytes"] / 2**20,
            "service.peak_rss_mb": server_rss or 0.0,
            "loadgen.late_p50_ms": median(high.late_ms),
            "loadgen.late_tail_ms": Tail.of(high.late_ms).value,
            "loadgen.backlog_steps": low.backlog + high.backlog,
        }
        for metric in ("montecarlo", "expected_waste", "campaign", "survival", "waste_curve"):
            durations = spans.durations(f"query.score.{metric}")
            if durations:
                layers[f"query.score_ms.{metric}"] = median(durations) * 1e3
        outcome.layers = layers
    return outcome


def _per_call(spans: Spans, name: str) -> float:
    return median(spans.durations(name)) * 1e3 / MICRO_REPEATS
