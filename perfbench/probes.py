"""Per-layer probes for the traced run, timed from outside each layer.

A workload's measured phase already yields the numbers of the layers it
drives (see ``Result.layers``); these probes fill in the rest on the same
workload's own model and runtime, so every traced run reports every layer.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from repro.api import RecommendRequest, RecommendResponse
from repro.parallel.cluster import ClusterExecutor
from repro.runtime import BatchingFrontEnd, GatewayThread, RecommenderRuntime
from repro.serving.fold_in import fold_in_users

import corpus
from gateway_load import Event, OpenLoop, analyse, layer_metrics
from harness import OpCounter, SpanRecorder, median
from workloads import State, cluster_layers

REPEATS = 3


def _timed_ms(rec: SpanRecorder, name: str, function, *args, **kwargs) -> List[float]:
    times = []
    for _ in range(REPEATS):
        begin = time.perf_counter()
        with rec.span(name):
            function(*args, **kwargs)
        times.append((time.perf_counter() - begin) * 1000.0)
    return times


def engine(state: State, rec: SpanRecorder) -> Dict[str, float]:
    """BLAS, score and top-N stages over 1024 users, in engine-sized chunks.

    The engine never scores more rows at once than its buffer budget
    allows (about 160 rows at 100k float64 items), so the stages are timed
    over the chunks it would really form.  ``topn`` runs unpipelined, so
    that mask plus select is ``topn`` minus ``score``.
    """
    engine = state.runtime.engine
    rng = np.random.default_rng(state.seed + 4)
    n_users = engine.train_matrix.n_users
    users = np.sort(rng.choice(n_users, size=min(1024, n_users), replace=False))
    size = engine.effective_chunk_size()
    chunks = [users[i : i + size] for i in range(0, len(users), size)]
    user_factors = engine.serving_user_factors
    item_factors = engine.serving_item_factors
    block = np.empty((size, engine.n_items), dtype=engine.serving_dtype)

    def blas():
        for chunk in chunks:
            np.matmul(user_factors[chunk], item_factors.T, out=block[: len(chunk)])

    def score():
        for chunk in chunks:
            engine.score_chunk(chunk)

    engine.topn(users, n_items=50, pipeline=False)  # warm the buffer pool
    before = engine.pool.stats().allocations
    topn_ms = _timed_ms(rec, "serving.engine.topn", engine.topn, users, n_items=50, pipeline=False)
    allocations = engine.pool.stats().allocations - before
    return {
        "serving.engine.blas_ms": median(_timed_ms(rec, "serving.engine.blas", blas)),
        "serving.engine.score_ms": median(_timed_ms(rec, "serving.engine.score_chunk", score)),
        "serving.engine.topn_ms": median(topn_ms),
        "serving.engine.pool_allocations": float(allocations),
    }


def fold_in(state: State, rec: SpanRecorder) -> Dict[str, float]:
    """``fold_in_users`` on a fixed cold batch of 16 baskets of 8 items."""
    baskets = corpus.cold_rows(np.random.default_rng(state.seed + 5), state.matrix, 16)
    times = _timed_ms(rec, "serving.fold_in", fold_in_users, state.runtime.model, baskets)
    return {"serving.fold_in.call_ms": median(times)}


def dispatch(state: State, rec: SpanRecorder) -> Dict[str, float]:
    """``runtime.recommend`` minus in-process ``engine.topn``, same 1024 users."""
    runtime = state.runtime
    n_users = runtime.engine.train_matrix.n_users
    users = list(range(min(1024, n_users)))
    request = RecommendRequest(users=users, n_items=50)
    remote = _timed_ms(rec, "runtime.recommend", runtime.recommend, request, shard_size=512)
    local = _timed_ms(rec, "serving.engine.topn", runtime.engine.topn, users, n_items=50)
    return {
        "runtime.dispatch_ms": median(remote) - median(local),
        "parallel.shm.task_bytes": float(runtime.last_serving_stats.max_task_bytes or 0),
    }


def update(state: State, rec: SpanRecorder) -> Dict[str, float]:
    return {"runtime.update_ms": median(_timed_ms(rec, "runtime.update", state.runtime.update))}


def ingest(state: State, rec: SpanRecorder) -> Dict[str, float]:
    """Three ingests of two new users each (baskets drawn like cold starts)."""
    runtime = state.runtime
    baskets = corpus.cold_rows(np.random.default_rng(state.seed + 6), state.matrix, 2 * REPEATS)
    times = []
    for index in range(REPEATS):
        first = runtime.train_matrix.n_users
        rows = baskets[2 * index : 2 * index + 2]
        pairs = [(first + k, item) for k, row in enumerate(rows) for item in row]
        begin = time.perf_counter()
        with rec.span("data.ingest"):
            runtime.ingest(pairs, n_new_users=len(rows))
        times.append((time.perf_counter() - begin) * 1000.0)
    return {"data.ingest_ms": median(times)}


def codec(samples, rec: SpanRecorder) -> Dict[str, float]:
    """Replays request decode + response encode on the workload's own frames."""
    times = []
    with rec.span("api.codec"):
        for request_text, response in samples:
            begin = time.perf_counter()
            RecommendRequest.from_json(request_text)
            response.to_json()
            times.append((time.perf_counter() - begin) * 1e6)
    return {"api.codec_us": median(times)}


def gateway(state: State, rec: SpanRecorder, ops: OpCounter):
    """A short open loop through a fresh front-end and gateway on this runtime.

    Returns the batching/gateway layer numbers and the frames it served,
    for the codec replay.
    """
    runtime = state.runtime
    rng = np.random.default_rng(state.seed + 7)
    n_users = runtime.engine.train_matrix.n_users
    events = [
        Event(i / 100.0, RecommendRequest(
            users=[int(u) for u in rng.integers(0, n_users, size=4)], n_items=10,
            tenant=f"tenant-{i % 4}",
        ))
        for i in range(60)
    ]
    with BatchingFrontEnd(runtime, max_delay_ms=2.0, max_batch_users=256) as front:
        with GatewayThread(front, max_inflight=64) as thread:
            loop = OpenLoop(thread.address, n_connections=1)
            try:
                loop.run(events)
                stats = loop.stats()
            finally:
                loop.close()
    report = analyse(loop, ops, rec, lambda request: "probe.gateway")
    samples = [(e.text, RecommendResponse.from_dict(e.replies[0][1])) for e in report.ok]
    return layer_metrics(report, stats), samples


class ClusterProbe:
    """Cold and warm 512-user calls on a fresh 2-node cluster, then shutdown.

    The shutdown (today ~10 s: the agents do not exit on request and are
    killed after a timeout) runs on a background thread; :meth:`join`
    waits for it and adds ``parallel.cluster.shutdown_s``.
    """

    def __init__(self, state: State, rec: SpanRecorder) -> None:
        model = state.runtime.model
        rng = np.random.default_rng(state.seed + 8)
        n_users = model.train_matrix.n_users
        requests = [
            RecommendRequest(
                users=[int(u) for u in rng.integers(0, n_users, size=512)], n_items=50
            )
            for _ in range(6)
        ]
        cluster = ClusterExecutor(n_nodes=2)
        runtime = RecommenderRuntime(executor=cluster)
        times = []
        try:
            runtime.publish(model)
            for request in requests:
                begin = time.perf_counter()
                with rec.span("parallel.cluster.call"):
                    runtime.recommend(request, shard_size=256)
                times.append((time.perf_counter() - begin) * 1000.0)
            serial = _timed_ms(rec, "serving.engine.topn", runtime.engine.topn, requests[-1].users, n_items=50)
            counts = [
                n for stats in cluster.node_stats().values() for n in stats["fetch_counts"].values()
            ]
        finally:
            runtime.close()
            self.metrics: Dict[str, float] = {}
            self._thread = threading.Thread(target=self._shutdown, args=(cluster,))
            self._thread.start()
        self.metrics.update(cluster_layers(times[:1], times[1:], serial, counts))

    def _shutdown(self, cluster: ClusterExecutor) -> None:
        begin = time.perf_counter()
        cluster.shutdown()
        self.metrics["parallel.cluster.shutdown_s"] = time.perf_counter() - begin

    def join(self) -> Dict[str, float]:
        self._thread.join()
        return self.metrics
