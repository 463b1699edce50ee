"""Load generation against the reliability service, over one connection.

Open-loop steps follow a seeded Poisson schedule: a request is due at
its arrival time whether or not earlier requests have finished, waits
while the connection is busy, and is timed from the moment it was due,
so a stall also charges the requests queued behind it. The generator
reports how late it sent each request and whether that lateness grew
over the step (a backlog). A refused, failed or timed-out request counts
as failed and as over the latency limit; one the generator gave up on
because it was already far past due counts the same way.

One connection, not two: with two, the service's event-loop and scoring
threads contend for the interpreter lock and flip between a fast and a
several-times-slower regime from one run to the next, which made the
sustained rate spread by over 40% across seeds on a 2-core host.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from harness import Tail, median


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


def exchange(port: int, raw: bytes, timeout: float) -> tuple[int, bytes]:
    """Send one request on a fresh connection and read the whole response
    (the service closes the connection after it); returns status and
    body. Raises ``OSError`` (including timeouts) or ``ValueError``."""
    deadline = time.perf_counter() + timeout
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError("response not complete before the deadline")
            sock.settimeout(remaining)
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    head, sep, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("response without a header terminator")
    return int(head.split(b" ", 2)[1]), body


def poisson_schedule(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from the step start) of ``count`` Poisson
    arrivals at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def step_count(rate: float, seconds: float, items: int) -> int:
    """Arrivals for a step of about ``seconds`` at ``rate``: whole cycles
    through the ``items`` distinct requests when the step holds at least
    one, so every run offers the same mix."""
    count = max(1, round(rate * seconds))
    if 2 * count >= items:
        count = max(1, round(count / items)) * items
    return count


def shuffled_cycles(rng: np.random.Generator, items: int, count: int) -> np.ndarray:
    """``count`` picks from ``items`` requests: back-to-back seeded
    permutations, so every run offers the same mix in a different order."""
    cycles = -(-count // items)
    return np.concatenate([rng.permutation(items) for _ in range(cycles)])[:count]


#: Samples per window of a windowed tail (see ``Tail.windowed``): the tail
#: of a 100-sample window is its p90. Unwindowed, the tail of a phase
#: rode on a handful of stalled requests (plan-hot, ~6000 samples) or on
#: how many of the heaviest tables a cold cycle happened to rebuild
#: (plan-sweep), and spread by 30-79% across seeds on a 2-core host; the
#: p95 of 200-sample windows still spread by 37% on plan-hot.
TAIL_WINDOW = 100


@dataclass
class _Timed:
    #: one latency per request, in the order sent; ``inf`` if it failed
    samples_ms: list[float] = field(default_factory=list)
    mismatches: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(math.isinf(x) for x in self.samples_ms)

    @property
    def p50_ms(self) -> float:
        return median(self.samples_ms)

    @property
    def tail(self) -> Tail:
        return Tail.windowed(self.samples_ms, TAIL_WINDOW)


@dataclass
class Step(_Timed):
    """One fixed-rate open-loop step."""

    rate: float = 0.0
    limit_ms: float = 0.0
    late_ms: list[float] = field(default_factory=list)
    dropped: int = 0
    picks: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples_ms)

    @property
    def backlog(self) -> bool:
        """Lateness grew by more than half the latency limit between the
        first and the last quarter of the step, or requests were dropped."""
        if self.dropped:
            return True
        quarter = max(1, len(self.late_ms) // 4)
        if len(self.late_ms) < 8:
            return False
        grew = median(self.late_ms[-quarter:]) - median(self.late_ms[:quarter])
        return grew > self.limit_ms / 2

    @property
    def meets_limit(self) -> bool:
        return not self.backlog and self.tail.value <= self.limit_ms

    def describe(self) -> dict:
        return {
            "rate": round(self.rate, 3),
            "attempted": self.attempted,
            "failed": self.failed,
            "dropped": self.dropped,
            "p50_ms": round(self.p50_ms, 4),
            "tail": self.tail.describe(),
            "late_p50_ms": round(median(self.late_ms), 4) if self.late_ms else None,
            "late_tail": Tail.of(self.late_ms).describe() if self.late_ms else None,
            "backlog": self.backlog,
            "meets_limit": self.meets_limit,
        }


def run_step(
    port: int,
    requests: list[bytes],
    expected: dict[int, bytes],
    rng: np.random.Generator,
    spans,
    *,
    rate: float,
    count: int,
    limit_ms: float,
    first_request_id: int = 0,
) -> Step:
    """Offer ``count`` requests at ``rate`` per second, cycling through
    seeded shuffles of ``requests``. A response body must equal the
    first body seen for that request (``expected`` is filled in on first
    sight); differing bodies are collected on ``Step.mismatches``."""
    dues = poisson_schedule(rng, rate, count)
    picks = shuffled_cycles(rng, len(requests), len(dues)).tolist()
    step = Step(rate=rate, limit_ms=limit_ms, picks=picks)
    timeout = max(10 * limit_ms / 1e3, 1.0)
    give_up = 3 * limit_ms / 1e3
    start = time.perf_counter() + 0.02
    for i, (offset, key) in enumerate(zip(dues.tolist(), picks)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        step.late_ms.append((sent - due) * 1e3)
        if sent - due > give_up:
            step.dropped += 1
            step.samples_ms.append(math.inf)
            continue
        try:
            with spans.span("loadgen.request", first_request_id + i):
                status, body = exchange(port, requests[key], timeout)
        except (OSError, ValueError, IndexError):
            status, body = None, b""
        if status != 200:
            step.samples_ms.append(math.inf)
            continue
        step.samples_ms.append((time.perf_counter() - due) * 1e3)
        if body != expected.setdefault(key, body):
            step.mismatches.append((key, body))
    return step


@dataclass
class Burst(_Timed):
    """Closed-loop saturation: whole cycles sent back to back."""

    seconds: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.samples_ms) - self.failed

    @property
    def per_s(self) -> float:
        return self.completed / self.seconds

    def describe(self) -> dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "seconds": round(self.seconds, 4),
            "per_s": round(self.per_s, 3),
            "p50_ms": round(self.p50_ms, 4),
            "tail": self.tail.describe(),
        }


def saturate(
    port: int,
    requests: list[bytes],
    expected: dict[int, bytes],
    rng: np.random.Generator,
    *,
    cycles: int,
    timeout: float,
) -> Burst:
    """Send ``cycles`` seeded shuffles of ``requests`` back to back over
    one connection: the service's throughput when a request is always
    waiting, and its latency without queueing."""
    burst = Burst()
    start = time.perf_counter()
    for _ in range(cycles):
        for key in rng.permutation(len(requests)).tolist():
            sent = time.perf_counter()
            try:
                status, body = exchange(port, requests[key], timeout)
            except (OSError, ValueError, IndexError):
                status, body = None, b""
            if status != 200:
                burst.samples_ms.append(math.inf)
                continue
            burst.samples_ms.append((time.perf_counter() - sent) * 1e3)
            if body != expected.setdefault(key, body):
                burst.mismatches.append((key, body))
    burst.seconds = time.perf_counter() - start
    return burst
