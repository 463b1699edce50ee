"""Service-layer tests: cache budget, HTTP hardening, streaming, equivalence.

Small generic shapes keep table builds cheap; every equivalence assert
is exact (``==``) because the service's contract is bit-equality with
in-process :func:`repro.core.query.run_query`.
"""

import json
import socket
import threading

import pytest

from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    ReliabilityQuery,
    run_query,
)
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceThread,
    TableCache,
)

MACHINE = MachineSpec(nnodes=8, procs_per_node=2)


def query(*, cluster_size=4, strategy="naive", seed=0, metric="montecarlo", **kw):
    return ReliabilityQuery(
        metric=metric,
        machine=MACHINE,
        clustering=ClusteringSpec(strategy=strategy, cluster_size=cluster_size),
        n_samples=kw.pop("n_samples", 100),
        seed=seed,
        **kw,
    )


class TestTableCache:
    def test_hit_and_miss_accounting(self):
        cache = TableCache()
        cache.get(query(seed=0))
        cache.get(query(seed=1))  # same tables, different seed
        cache.get(query(cluster_size=2))
        stats = cache.stats()
        assert stats == {
            "entries": 2,
            "bytes": stats["bytes"],
            "max_bytes": cache.max_bytes,
            "hits": 1,
            "misses": 2,
            "evictions": 0,
        }
        assert stats["bytes"] > 0

    def test_returns_same_tables_object_on_hit(self):
        cache = TableCache()
        assert cache.get(query()) is cache.get(query(seed=5))

    def test_evicts_lru_under_byte_budget(self):
        cache = TableCache(max_bytes=1)  # pathological: nothing fits
        cache.get(query(cluster_size=2))
        cache.get(query(cluster_size=4))
        stats = cache.stats()
        # The most recent entry always survives; the older one is evicted.
        assert len(cache) == 1
        assert stats["evictions"] == 1
        assert query(cluster_size=4) in cache
        assert query(cluster_size=2) not in cache

    def test_generous_budget_keeps_everything(self):
        cache = TableCache(max_bytes=1 << 30)
        for size in (2, 4, 8):
            cache.get(query(cluster_size=size))
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 0

    def test_eviction_preserves_results(self):
        """Eviction is a cache concern only — answers stay identical."""
        tight = TableCache(max_bytes=1)
        roomy = TableCache(max_bytes=1 << 30)
        queries = [query(cluster_size=s, seed=s) for s in (2, 4, 2, 8, 4)]
        got_tight = [run_query(q, tables=tight.get(q)) for q in queries]
        got_roomy = [run_query(q, tables=roomy.get(q)) for q in queries]
        assert got_tight == got_roomy == [run_query(q) for q in queries]


def bad_labels_query():
    """Valid on the wire, but its 2 labels cannot cover the 16 ranks: the
    error surfaces when the service builds the query's tables."""
    return ReliabilityQuery(
        metric="montecarlo",
        machine=MACHINE,
        clustering=ClusteringSpec(strategy="labels", l1=(0, 1)),
        n_samples=10,
    )


def raw_exchange(host, port, request: bytes) -> tuple[int, dict]:
    """Send raw request bytes; return the status and the JSON body."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def server():
    with ServiceThread() as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.host, server.port)


class TestHttpService:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_query_roundtrip_exact(self, client):
        q = query(seed=7)
        assert client.query(q) == run_query(q)

    def test_campaign_metrics_roundtrip(self, client):
        q = query(metric="expected_waste", n_campaigns=1, seed=4)
        assert client.query(q) == run_query(q)

    def test_unknown_field_is_400(self, client):
        import http.client
        import json

        conn = http.client.HTTPConnection(client.host, client.port)
        try:
            conn.request(
                "POST", "/query", body=json.dumps({"v": 1, "metrik": "x"})
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert "metrik" in payload["error"]
        finally:
            conn.close()

    def test_bad_query_raises_service_error(self, client):
        with pytest.raises(ServiceError) as err:
            client.query(bad_labels_query())
        assert err.value.status == 400

    def test_bad_query_does_not_affect_the_next(self, client):
        """A query that fails while scoring is answered 400 on its own;
        the next query on the same server is still exact."""
        with pytest.raises(ServiceError) as err:
            client.query(bad_labels_query())
        assert err.value.status == 400
        assert "16" in str(err.value)
        good = query(seed=11)
        assert client.query(good) == run_query(good)

    @pytest.mark.parametrize("length", ["abc", "1e3", "-5", "+5", "0x10", ""])
    def test_malformed_content_length_is_400(self, client, length):
        request = f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        status, payload = raw_exchange(client.host, client.port, request.encode())
        assert status == 400
        assert "Content-Length" in payload["error"]
        control = query(seed=6)
        assert client.query(control) == run_query(control)

    @pytest.mark.parametrize(
        "length", ["16777217", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_oversized_content_length_is_413(self, client, length):
        """Past the body cap — even with more digits than int() parses."""
        request = f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        status, payload = raw_exchange(client.host, client.port, request.encode())
        assert status == 413
        assert payload["error"] == "body too large"
        control = query(seed=6)
        assert client.query(control) == run_query(control)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._get("/nope")
        assert err.value.status == 404

    def test_stats_exposed(self, client):
        client.query(query())
        stats = client.stats()
        assert stats["requests"] > 0
        # The cache counters the benchmark's plan workloads read.
        for key in ("hits", "misses", "evictions", "bytes"):
            assert isinstance(stats["cache"][key], int)
        assert stats["cache"]["hits"] + stats["cache"]["misses"] > 0

    def test_stream_non_streamable_metric_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.query_streamed(query(metric="montecarlo"))
        assert err.value.status == 400

    def test_streamed_sweep_matches_unstreamed(self, client):
        q = query(
            metric="waste_curve",
            sweep=tuple(600.0 * (i + 1) for i in range(9)),
            n_campaigns=1,
            seed=3,
        )
        partials, final = client.query_streamed(q)
        direct = run_query(q)
        assert final == direct
        assert len(partials) == 3  # 9 points / DEFAULT_STREAM_CHUNK(4) -> 4+4+1
        flattened = [tuple(p) for chunk in partials for p in chunk]
        assert flattened == list(direct.curve)

    def test_streamed_survival_defaults_sweep(self, client):
        q = query(metric="survival")
        partials, final = client.query_streamed(q)
        assert final == run_query(q)
        assert sum(len(c) for c in partials) == len(final.curve)

    def test_concurrent_clients_agree_with_direct(self, server):
        queries = [query(seed=s) for s in range(8)]
        expected = [run_query(q) for q in queries]
        results = [None] * len(queries)

        def worker(i):
            results[i] = ServiceClient(server.host, server.port).query(
                queries[i]
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected


class TestServiceThreadLifecycle:
    def test_start_stop(self):
        q = query(seed=2)
        with ServiceThread() as running:
            client = ServiceClient(running.host, running.port)
            assert client.query(q) == run_query(q)
        # Context exit stopped the server: the port no longer answers.
        with pytest.raises(OSError):
            ServiceClient(running.host, running.port, timeout=2).healthz()
