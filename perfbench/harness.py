"""Shared pieces of the benchmark: host fingerprint, output checks,
latency statistics, in-memory spans, peak-RSS accounting and fresh-process
set-up timing.

Nothing here imports the program under test, so the helpers also run in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout the benchmark runs from
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Fingerprint fields that must match before two results are compared.
COMPARABLE_HOST_KEYS = ("cores", "cpu_model", "python", "numpy")


class CheckFailed(RuntimeError):
    """A program output did not match its reference; the run records no
    number."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds (not an
    ``assert``: the checks must also run under ``python -O``)."""
    if not condition:
        raise CheckFailed(message)


# -- host fingerprint -------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """Content hash of the program's sources; identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }


def same_host(a: dict, b: dict) -> bool:
    return all(a.get(k) == b.get(k) for k in COMPARABLE_HOST_KEYS)


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no such percentile exists; the maximum
    is reported instead and ``percentile`` says so (100). A windowed tail
    is the median of that statistic over consecutive windows of samples.
    """

    value: float
    percentile: float
    samples: int
    windows: int = 1

    @classmethod
    def of(cls, values) -> "Tail":
        ordered = sorted(values)
        n = len(ordered)
        if n == 0:
            raise ValueError("tail of no samples")
        k = n - 11 if n >= 11 else n - 1
        return cls(ordered[k], 100.0 * (k + 1) / n, n)

    @classmethod
    def windowed(cls, values: list[float], window: int) -> "Tail":
        """Median over consecutive windows of ``window`` samples (the last
        one takes the remainder); one window below ``2 * window``."""
        count = len(values) // window
        if count < 2:
            return cls.of(values)
        bounds = [i * window for i in range(count)] + [len(values)]
        tails = [cls.of(values[a:b]) for a, b in zip(bounds, bounds[1:])]
        return cls(
            median(t.value for t in tails),
            median(t.percentile for t in tails),
            len(values),
            count,
        )

    def describe(self, unit: str = "ms") -> str:
        if self.samples < 11:
            return f"max={self.value:.4g} {unit} (n={self.samples})"
        label = f"p{self.percentile:.2f}={self.value:.4g} {unit} (n={self.samples}"
        if self.windows > 1:
            label += f", median of {self.windows} windows"
        return label + ")"


# -- spans ------------------------------------------------------------------


@dataclass
class SpanRecord:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


class _Span:
    __slots__ = ("_spans", "_name", "_request", "_id", "_parent", "_start")

    def __init__(self, spans: "Spans", name: str, request: int | None):
        self._spans = spans
        self._name = name
        self._request = request

    def __enter__(self):
        spans = self._spans
        spans._next_id += 1
        self._id = spans._next_id
        self._parent = spans._stack[-1] if spans._stack else None
        spans._stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        spans = self._spans
        spans._stack.pop()
        spans.records.append(
            SpanRecord(self._id, self._name, self._start, end, self._parent, self._request)
        )
        return False


_NULL_SPAN = nullcontext()


class Spans:
    """In-memory span recorder around calls into the program's layers.

    Each span keeps its name, start, end, parent span (the enclosing span)
    and an optional request id shared by the spans of one request. The
    benchmark calls the program from one thread, so one stack tracks the
    parents. Disabled, :meth:`span` returns a shared no-op context, so the
    untraced run pays one attribute test per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, request)

    @staticmethod
    def cost_s() -> float:
        """Seconds one recorded span adds around the call it wraps: the
        median over five batches of 20,000 empty spans."""
        batches = []
        for _ in range(5):
            spans = Spans(enabled=True)
            t0 = time.perf_counter()
            for _ in range(20_000):
                with spans.span("empty", 0):
                    pass
            batches.append((time.perf_counter() - t0) / 20_000)
        return median(batches)

    def durations(self, name: str) -> list[float]:
        return [r.end - r.start for r in self.records if r.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered
        by direct children (children of one span run one after another)."""
        child_time: dict[int, float] = {}
        for r in self.records:
            if r.parent is not None:
                child_time[r.parent] = child_time.get(r.parent, 0.0) + (
                    r.end - r.start
                )
        totals: dict[str, float] = {}
        for r in self.records:
            own = (r.end - r.start) - child_time.get(r.id, 0.0)
            totals[r.name] = totals.get(r.name, 0.0) + own
        return totals

    def to_json(self) -> dict:
        origin = min((r.start for r in self.records), default=0.0)
        return {
            "spans": [
                {
                    "id": r.id,
                    "name": r.name,
                    "start_s": round(r.start - origin, 9),
                    "end_s": round(r.end - origin, 9),
                    "parent": r.parent,
                    "request": r.request,
                }
                for r in self.records
            ],
            "self_s": {k: round(v, 9) for k, v in sorted(self.self_times().items())},
        }


# -- peak resident memory ---------------------------------------------------


def _status_kb(pid: int, key: str) -> int | None:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def vm_hwm_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of one live process, in MiB."""
    kb = _status_kb(pid, "VmHWM")
    return None if kb is None else kb / 1024.0


def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                found.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return found


#: Seconds between two polls of :class:`PeakRss`.
POLL_S = 0.05


class PeakRss:
    """Peak RSS summed over this process and its live descendants, within
    the ``with`` block.

    A polling thread reads each live process's ``VmHWM`` (the kernel's own
    per-process high-water mark) and keeps the largest sum seen at one
    poll, so processes that never coexist (the workers of successive
    sharded runs) are not added together. This process's ``VmHWM`` counts
    only once it rises above its value at entry, since only then was the
    peak reached inside the block; until then its polled ``VmRSS`` counts,
    so memory the benchmark itself used and freed before the block (such
    as reference tables built to check outputs) stays out. Where ``/proc``
    is missing, falls back to ``getrusage`` (self plus the largest reaped
    child).
    """

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._own_hwm_kb = _status_kb(os.getpid(), "VmHWM")

    def poll(self) -> None:
        own = os.getpid()
        hwm = _status_kb(own, "VmHWM") or 0
        total = hwm if hwm > self._own_hwm_kb else _status_kb(own, "VmRSS") or 0
        pending = _children(own)
        while pending:
            pid = pending.pop()
            total += _status_kb(pid, "VmHWM") or 0
            pending.extend(_children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(POLL_S):
            self.poll()

    def __enter__(self) -> "PeakRss":
        if self._own_hwm_kb is not None:
            self.poll()
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
            self.poll()

    @property
    def mb(self) -> float:
        if self.peak_kb:
            return self.peak_kb / 1024.0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + kids) / 1024.0


# -- processes --------------------------------------------------------------


def child_env() -> dict:
    """Environment for child interpreters: the program's sources first on
    the import path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def fresh_setup_seconds(workload: str, shape: str, repeats: int) -> list[float]:
    """Wall time of ``repeats`` set-ups, each in a fresh interpreter: the
    cost a user pays to start the workload (interpreter, imports, world
    construction)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, shape],
            env=child_env(),
            cwd=ROOT,
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


# -- results ----------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds end-to-end values (untraced run), ``layers`` the
    per-layer values (traced run only), ``details`` the human-readable
    record: percentiles with sample counts, generator lateness, counters.
    """

    attempted: int
    failed: int
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
