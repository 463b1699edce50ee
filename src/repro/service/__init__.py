"""Reliability-planning service: campaign-as-a-service.

The Monte-Carlo/campaign evaluation layer wrapped in a long-running
asyncio HTTP service (stdlib only, no framework): clients POST
:class:`~repro.core.query.ReliabilityQuery` JSON and receive
expected-waste / survival-curve / Monte-Carlo results at interactive
latency. The moving parts:

* :class:`~repro.service.cache.TableCache` — byte-budget LRU over
  resolved lookup-table bundles, keyed by the query's canonical
  ``table_key`` (clustering × placement × encoding × taxonomy);
* :class:`~repro.service.http.ReliabilityService` — the asyncio HTTP
  front end: it owns one cache and answers each request inline on its
  event loop as ``run_query(query, tables=cache.get(query))``, with
  chunked streaming for large sweep queries;
* :mod:`~repro.service.loadgen` — the load generator behind
  ``BENCH_service.json``, which asserts service results bit-equal to
  direct in-process calls before recording any rate.

Run it with ``python -m repro serve`` (``--self-test`` starts a server,
drives it, checks equivalence and shuts down — the CI smoke).
"""

from repro.service.cache import TableCache
from repro.service.http import ReliabilityService, ServiceThread
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import LoadReport, run_load, run_self_test

__all__ = [
    "LoadReport",
    "ReliabilityService",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "TableCache",
    "run_load",
    "run_self_test",
]
