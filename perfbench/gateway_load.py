"""Open-loop NDJSON load against a running ``ServingGateway``.

One sender (the calling thread) writes each frame when it falls due and
runs writer events inline; one receiver thread reads every connection.
That is the whole client: one process, two threads, at most two sockets.
Latency is taken from each frame's due time, so a sender that falls behind
charges its delay to the requests it delayed; how late it ran is reported
separately.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from harness import OpCounter, SpanRecorder, median, percentile


@dataclass
class Event:
    """One scheduled action: a request frame, or a writer call."""

    due: float  # seconds after the start of the run
    request: object = None  # RecommendRequest
    write: Optional[str] = None  # writer event name, passed to ``on_write``


@dataclass
class Sent:
    request: object
    text: str  # the request's own JSON, without the wire id
    due: float
    sent: float
    replies: List[tuple] = field(default_factory=list)  # (time, frame)


class OpenLoop:
    def __init__(self, address, n_connections: int = 2) -> None:
        self._socks = [socket.create_connection(address) for _ in range(n_connections)]
        for sock in self._socks:  # one frame per send: no Nagle hold-back
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        self.sent: Dict[int, Sent] = {}
        self.unmatched: List[dict] = []
        self._done_sending = False
        self._deadline = float("inf")
        self.start = 0.0

    def close(self) -> None:
        for sock in self._socks:
            sock.close()

    def _receive(self) -> None:
        selector = selectors.DefaultSelector()
        buffers = {}
        for sock in self._socks:
            selector.register(sock, selectors.EVENT_READ)
            buffers[sock] = b""
        try:
            while time.perf_counter() < self._deadline:
                with self._lock:
                    replied = sum(1 for entry in self.sent.values() if entry.replies)
                    if self._done_sending and replied >= len(self.sent):
                        return
                for key, _mask in selector.select(timeout=0.05):
                    chunk = key.fileobj.recv(1 << 20)
                    now = time.perf_counter()
                    if not chunk:
                        selector.unregister(key.fileobj)
                        continue
                    data = buffers[key.fileobj] + chunk
                    *lines, buffers[key.fileobj] = data.split(b"\n")
                    for line in lines:
                        self._on_line(now, line)
        finally:
            selector.close()

    def _on_line(self, now: float, line: bytes) -> None:
        frame = json.loads(line)
        with self._lock:
            entry = self.sent.get(frame.get("id"))
            if entry is None:
                self.unmatched.append(frame)
            else:
                entry.replies.append((now, frame))

    def run(
        self,
        events: List[Event],
        on_write: Optional[Callable[[str], None]] = None,
        drain_timeout: float = 30.0,
    ) -> None:
        """Send every event on schedule, then wait for the replies."""
        receiver = threading.Thread(target=self._receive, name="load-receiver")
        receiver.start()
        start = self.start = time.perf_counter()
        try:
            for rid, event in enumerate(events):
                due = start + event.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if event.write is not None:
                    on_write(event.write)
                    continue
                frame = event.request.to_dict()
                request_text = json.dumps(frame, separators=(",", ":"))
                frame["id"] = rid
                line = json.dumps(frame, separators=(",", ":")).encode() + b"\n"
                with self._lock:
                    self.sent[rid] = Sent(event.request, request_text, due, time.perf_counter())
                self._socks[rid % len(self._socks)].sendall(line)
        finally:
            with self._lock:
                self._done_sending = True
                self._deadline = time.perf_counter() + drain_timeout
            receiver.join()

    def stats(self) -> dict:
        """The gateway's ``stats`` op over the first connection (after the run)."""
        sock = self._socks[0]
        sock.sendall(b'{"op":"stats","id":"stats"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            data += chunk
        return json.loads(data.splitlines()[-1])["stats"]


@dataclass
class LoadReport:
    """Per-kind latencies and layer numbers of one open-loop run."""

    latency_ms: Dict[str, List[float]]
    late_ms: List[float]
    queue_ms: List[float]
    serve_ms: List[float]
    overhead_ms: List[float]
    duplicates: int
    unmatched: int
    ok: List[Sent]


def analyse(
    loop: OpenLoop, ops: OpCounter, recorder: SpanRecorder, kind_of: Callable
) -> LoadReport:
    """Count every frame's outcome and split its round trip into layers.

    A frame with no reply, or an error reply, is one failed operation of
    its kind; a frame with more than one reply is a protocol violation
    counted in ``duplicates``.
    """
    latency: Dict[str, List[float]] = {}
    late, queue, serve, overhead, ok = [], [], [], [], []
    duplicates = 0
    for rid, entry in sorted(loop.sent.items()):
        kind = kind_of(entry.request)
        late.append((entry.sent - entry.due) * 1000.0)
        if not entry.replies:
            ops.record(kind, False, "no-reply")
            continue
        duplicates += len(entry.replies) - 1
        received, frame = entry.replies[0]
        if not frame.get("ok"):
            ops.record(kind, False, (frame.get("error") or {}).get("code"))
            continue
        ops.record(kind, True)
        ok.append(entry)
        latency.setdefault(kind, []).append((received - entry.due) * 1000.0)
        round_trip = (received - entry.sent) * 1000.0
        queue.append(frame["queue_ms"])
        serve.append(frame["serve_ms"])
        overhead.append(round_trip - frame["queue_ms"] - frame["serve_ms"])
        parent = recorder.add("gateway.request", entry.due, received, request_id=str(rid))
        recorder.add("gateway.round_trip", entry.sent, received, parent, str(rid))
    return LoadReport(
        latency, late, queue, serve, overhead, duplicates, len(loop.unmatched), ok
    )


def layer_metrics(report: LoadReport, stats: dict) -> Dict[str, float]:
    """Batching and gateway layer numbers from the frames and the stats op."""
    return {
        "runtime.batching.queue_ms": median(report.queue_ms),
        "runtime.batching.serve_ms": median(report.serve_ms),
        "runtime.batching.occupancy": float(stats["batching"]["mean_occupancy"]),
        "runtime.gateway.overhead_ms": median(report.overhead_ms),
        "runtime.gateway.errors": float(sum(stats["gateway"]["errors"].values())),
        "bench.generator_late_ms": percentile(report.late_ms, 99),
    }
