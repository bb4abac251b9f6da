"""Measurement plumbing shared by every workload: spans, memory, op counts.

Nothing here imports the library under test, so the benchmark's own
bookkeeping can never be what fails an import check.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


# --------------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    """In-memory spans around calls into the library's layers.

    Each span has a name, start, end, parent and request id; children are
    linked to the innermost open span of the same thread.  Spans recorded
    from another thread (or timed from a schedule rather than a ``with``
    block) go through :meth:`add` with an explicit parent.  A disabled
    recorder keeps nothing, so untraced runs pay one attribute test per
    span.  Spans are only written out by :meth:`write`, at the end of a run.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent[0] if parent else None, request_id)
            )

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total and self time (ms).

        Self time is a span's duration minus the part of its interval that
        its children cover (overlapping children are merged first).
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        summary: Dict[str, dict] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = summary.setdefault(
                span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            entry["count"] += 1
            entry["total_ms"] += span.duration_ms
            entry["self_ms"] += (span.end - span.start - covered) * 1000.0
        return summary

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "spans": [asdict(span) for span in self.spans],
            "self_times": self.self_times(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


# --------------------------------------------------------------------------- #
# Process-tree peak RSS
# --------------------------------------------------------------------------- #
def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children[int(fields[1])].append(int(entry))
    return children


def _high_water_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def release_free_memory() -> None:
    """Hand freed heap pages back to the OS (glibc ``malloc_trim``).

    Pool workers are forked, and a forked worker's resident set starts as
    the main process's; trimming after generating inputs and after each
    retired set-up keeps what the allocator happened to hold out of it.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class PeakRssSampler:
    """Peak of the summed resident high-water marks of this process tree.

    Every ``interval`` seconds the sampler walks the descendants of this
    process (pool workers, cluster agents, their helpers) and sums each
    live process's ``VmHWM``; the reported peak is the largest such sum.
    ``VmHWM`` is itself a per-process peak, so short spikes between samples
    are not missed and the interval can stay long: walking ``/proc`` holds
    the interpreter lock, which the measured threads would feel.  Call
    :meth:`sample` before tearing processes down.  :meth:`reset` starts a
    fresh window and drops processes that belong to set-ups already retired.
    """

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self._ignored: set = set()
        self._peak_kb = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def descendants(self) -> List[int]:
        children = _children_map()
        found, frontier = [], [os.getpid()]
        while frontier:
            pid = frontier.pop()
            for child in children.get(pid, ()):
                found.append(child)
                frontier.append(child)
        return found

    def sample(self) -> None:
        pids = [os.getpid()] + [p for p in self.descendants() if p not in self._ignored]
        total = sum(_high_water_kb(pid) for pid in pids)
        with self._lock:
            self._peak_kb = max(self._peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "PeakRssSampler":
        self._thread.start()
        return self

    def reset(self) -> None:
        """Forget the peak so far and ignore every process alive right now."""
        with self._lock:
            self._ignored = set(self.descendants())
            self._peak_kb = 0

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self.sample()
        self._stop.set()
        self._thread.join()
        return self._peak_kb / 1024.0


# --------------------------------------------------------------------------- #
# Operation counts
# --------------------------------------------------------------------------- #
class OpCounter:
    """Attempted / succeeded / failed operations per phase, errors by kind.

    Failures are counted, never raised: an error frame, a timeout and an
    exception (``BrokenProcessPool`` from a killed pool worker included)
    all count as one failed operation of their phase.
    """

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, phase: str, ok: bool, error: Optional[str] = None) -> None:
        with self._lock:
            self.attempted[phase] += 1
            if not ok:
                self.failed[phase] += 1
                self.errors[f"{phase}:{error or 'unknown'}"] += 1

    def call(self, phase: str, function, *args, **kwargs):
        """Run one operation; returns ``(ok, result_or_None)``."""
        try:
            result = function(*args, **kwargs)
        except Exception as error:  # counted, never fatal: see class doc
            self.record(phase, False, type(error).__name__)
            return False, None
        self.record(phase, True)
        return True, result

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def lines(self) -> List[str]:
        lines = [
            f"  {phase}: attempted={self.attempted[phase]} "
            f"succeeded={self.attempted[phase] - self.failed[phase]} "
            f"failed={self.failed[phase]}"
            for phase in sorted(self.attempted)
        ]
        lines += [f"  error {kind}: {count}" for kind, count in sorted(self.errors.items())]
        return lines


class FitLog:
    """``fit(callback=)`` timestamps: one per completed outer iteration."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.stamps: List[List[float]] = []

    def begin(self) -> "FitLog":
        self.starts.append(time.perf_counter())
        self.stamps.append([])
        return self

    def __call__(self, iteration, history) -> bool:
        self.stamps[-1].append(time.perf_counter())
        return False

    def iteration_ms(self) -> List[float]:
        deltas = []
        for start, stamps in zip(self.starts, self.stamps):
            previous = start
            for stamp in stamps:
                deltas.append((stamp - previous) * 1000.0)
                previous = stamp
        return deltas
