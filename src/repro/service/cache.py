"""Byte-budget LRU cache of resolved query-table bundles.

One entry per canonical ``table_key`` — the per-(clustering, placement,
encoding, taxonomy) lookup tables every query against that configuration
shares. Entries are *live* objects whose footprint grows as queries touch
new cascade lengths (the per-``f`` run caches fill in), so the budget is
enforced against a fresh :meth:`~repro.core.query.QueryTables.nbytes`
measurement on every insertion, not a size recorded at build time.

The service owns one instance and scores every request against it.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

from repro.core.query import QueryTables, ReliabilityQuery, build_tables

#: Default byte budget of the whole cache (plenty for dozens of paper-scale
#: table bundles; a 1024-rank bundle is a few hundred KiB).
DEFAULT_CACHE_BYTES = 256 << 20


class TableCache:
    """LRU of :class:`QueryTables`, evicted by byte budget."""

    def __init__(self, *, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, QueryTables] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, query: ReliabilityQuery) -> QueryTables:
        """The table bundle for ``query`` — served from cache or built;
        pass it on as ``run_query(query, tables=...)``."""
        key = query.table_key()
        with self._lock:
            tables = self._entries.get(key)
            if tables is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return tables
        # Build outside the lock: table construction is the slow part and
        # concurrent misses for *different* keys shouldn't serialize. Two
        # racing misses for the same key both build; last insert wins.
        tables = build_tables(query)
        with self._lock:
            self.misses += 1
            self._entries[key] = tables
            self._entries.move_to_end(key)
            self._trim()
        return self._entries.get(key, tables)

    def _trim(self) -> None:
        """Drop least-recently-used entries until under budget (the
        most-recent entry always stays, even when it alone exceeds the
        budget — a cache that cannot hold the working query is still more
        useful than one that thrashes it)."""
        while len(self._entries) > 1 and self.total_bytes() > self.max_bytes:
            self._entries.popitem(last=False)
            self.evictions += 1

    def total_bytes(self) -> int:
        """Current footprint (remeasured — run caches grow after insert)."""
        return sum(entry.nbytes() for entry in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, query: ReliabilityQuery) -> bool:
        return query.table_key() in self._entries

    def stats(self) -> dict:
        """Counters for the service's ``/stats`` endpoint."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
