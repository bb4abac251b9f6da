"""The four workloads: set-up, measured phase and output checks.

Each workload's ``setup(seed)`` builds everything the measured phase needs
(corpus, runtime, fitted and published model, front doors) and is timed by
the caller; ``measure`` runs the timed phase for a number of seconds,
checks every output it can afford to and returns the end-to-end metrics
plus the layer numbers the phase itself exposes.  Teardown is never timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import RecommendRequest, RecommendResponse
from repro.core.ocular import OCuLaR
from repro.evaluation.metrics import recall_at_m
from repro.parallel.cluster import ClusterExecutor
from repro.runtime import BatchingFrontEnd, GatewayThread, RecommenderRuntime
from repro.serving import TopNEngine
from repro.serving.fold_in import recommend_folded

import corpus
from gateway_load import Event, OpenLoop, analyse, layer_metrics
from harness import FitLog, OpCounter, SpanRecorder, median, percentile

#: Pool size of every process runtime, sized for a 2-core host.
WORKERS = 2


@dataclass
class State:
    """Everything one set-up built; ``closers`` run in order on teardown."""

    seed: int
    runtime: RecommenderRuntime
    model: object
    matrix: object
    fit_log: FitLog
    extra: dict = field(default_factory=dict)
    closers: List[Callable[[], None]] = field(default_factory=list)
    cluster: Optional[ClusterExecutor] = None


@dataclass
class Result:
    """What one measured phase produced.

    ``metrics`` holds the shared end-to-end metrics every workload reports
    (``rows_per_s``, ``p50_ms``, ``tail_ms``); ``named`` holds the
    workload's own headline numbers with their units, printed for people.
    """

    metrics: Dict[str, float]
    named: Dict[str, tuple]
    checks: Dict[str, bool]
    layers: Dict[str, float]
    codec_samples: List[tuple]  # (request JSON, RecommendResponse)
    notes: List[str] = field(default_factory=list)


def _fit(runtime, model, matrix, fit_log: FitLog):
    runtime.fit(model, matrix, callback=fit_log.begin())
    return model


def fit_layers(histories, fit_log: FitLog) -> Dict[str, float]:
    """core.* numbers: callback iteration times and the cold/warm histories."""
    cold = [h for h in histories if not h.warm_started]
    warm = [h for h in histories if h.warm_started]
    every = cold + warm
    rates = [
        rate
        for h in every
        for rate in (h.mean_item_acceptance_rate, h.mean_user_acceptance_rate)
    ]
    return {
        "core.fit.iter_ms": median(fit_log.iteration_ms()),
        "core.fit.iterations_cold": float(sum(h.n_iterations for h in cold)),
        "core.fit.iterations_warm": float(sum(h.n_iterations for h in warm)),
        "core.sweep.backtracks": float(sum(h.total_backtracks for h in every)),
        "core.sweep.acceptance_rate": float(np.mean(rates)),
        "core.workspace.allocations": float(sum(h.total_workspace_allocations for h in every)),
        "core.workspace.peak_bytes": float(max(h.peak_workspace_bytes for h in every)),
    }


def rows_equal(got, expected) -> bool:
    if len(got) != len(expected):
        return False
    return all(np.array_equal(np.asarray(a), np.asarray(b)) for a, b in zip(got, expected))


# --------------------------------------------------------------------------- #
# batch-itemheavy
# --------------------------------------------------------------------------- #
class BatchItemHeavy:
    """Nightly batch: every user of a 10k x 100k corpus gets a top-50 list.

    Per-user cost is O(items), so the serving engine does almost all the
    work; the gateway, batching, fold-in and training run only in set-up or
    not at all, so their optimisations should show no change here.
    """

    name = "batch-itemheavy"
    request_users = 1024
    shard_size = 512  # two shards per request: both pool workers serve
    n_items = 50
    checked_rows = 8  # per request, against the in-process engine

    def setup(self, seed: int) -> State:
        matrix = corpus.item_heavy(seed)
        runtime = RecommenderRuntime(executor="process", max_workers=WORKERS)
        log = FitLog()
        model = OCuLaR(
            n_coclusters=64, regularization=5.0, max_iterations=1, tolerance=0.0,
            random_state=seed,
        )
        _fit(runtime, model, matrix, log)
        runtime.publish()
        runtime.recommend(RecommendRequest(users=range(64), n_items=self.n_items), shard_size=32)
        return State(seed, runtime, model, matrix, log)

    def measure(self, state: State, seconds: float, rec: SpanRecorder, ops: OpCounter) -> Result:
        runtime = state.runtime
        n_users = state.matrix.n_users
        engines = {runtime.generation: runtime.engine}
        served, cursor, answered, request_ms = 0, 0, [], []
        start = time.perf_counter()
        while True:
            users = list(range(cursor, min(cursor + self.request_users, n_users)))
            cursor = 0 if cursor + self.request_users >= n_users else cursor + self.request_users
            request = RecommendRequest(users=users, n_items=self.n_items)
            begin = time.perf_counter()
            with rec.span("batch.request", request_id=str(len(answered))):
                with rec.span("runtime.recommend"):
                    ok, response = ops.call(
                        "recommend", runtime.recommend, request, shard_size=self.shard_size
                    )
            if ok:
                request_ms.append((time.perf_counter() - begin) * 1000.0)
                served += len(users)
                answered.append((request, response))
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        rng = np.random.default_rng(state.seed + 1)
        correct = True
        for request, response in answered:
            picks = np.sort(rng.choice(len(request.users), size=self.checked_rows, replace=False))
            engine = engines.get(response.generation)
            if engine is None or len(response.rankings) != len(request.users):
                correct = False
                continue
            expected = engine.topn([request.users[p] for p in picks], n_items=self.n_items)
            correct &= rows_equal([response.rankings[p] for p in picks], expected)
        return Result(
            metrics={
                "rows_per_s": served / elapsed,
                "p50_ms": median(request_ms),
                "tail_ms": percentile(request_ms, 90),
            },
            named={"batch_users_per_s": (served / elapsed, "1/s")},
            checks={"rankings equal the in-process engine": correct and bool(answered)},
            layers=fit_layers([state.model.history_], state.fit_log),
            codec_samples=[(req.to_json(), resp) for req, resp in answered[:4]],
            notes=[f"{len(answered)} requests of {self.request_users} users in {elapsed:.2f}s"],
        )


# --------------------------------------------------------------------------- #
# train-refit
# --------------------------------------------------------------------------- #
class TrainRefit:
    """Cold fit with a fixed budget, then three ingest + warm-refit cycles.

    The core sweeps and shared-memory publication dominate; serving is not
    timed.  Repeated fits in one long-lived runtime are the runtime's
    intended use, so the workers' memory growth across fits shows in
    ``peak_rss_mb``.  The job is fixed-size: it runs once whatever the
    ``--seconds`` value.
    """

    name = "train-refit"
    iterations = 6  # cold budget, and the warm refits' cap
    recall_floor = 0.10

    def setup(self, seed: int) -> State:
        plan = corpus.refit_plan(seed)
        runtime = RecommenderRuntime(executor="process", max_workers=WORKERS)
        state = State(seed, runtime, None, plan.train, FitLog())
        state.extra["plan"] = plan
        return state

    def measure(self, state: State, seconds: float, rec: SpanRecorder, ops: OpCounter) -> Result:
        runtime, plan, log = state.runtime, state.extra["plan"], state.fit_log
        model = OCuLaR(
            n_coclusters=32, regularization=5.0, max_iterations=self.iterations,
            tolerance=0.0, random_state=state.seed,
        )
        state.model = model
        histories, ingest_ms, fit_ms, warm = [], [], [], True
        start = time.perf_counter()
        with rec.span("train.cold_fit"):
            fitted, _ = ops.call("fit", _fit, runtime, model, plan.train, log)
        fit_ms.append((time.perf_counter() - start) * 1000.0)
        if fitted:
            histories.append(model.history_)
        for index, delta in enumerate(plan.deltas):
            pairs = delta.pairs(runtime.train_matrix.n_users)
            with rec.span("train.cycle", request_id=f"cycle-{index}"):
                begin = time.perf_counter()
                with rec.span("data.ingest"):
                    ops.call(
                        "ingest", runtime.ingest, pairs,
                        n_new_users=len(delta.new_user_rows),
                    )
                ingest_ms.append((time.perf_counter() - begin) * 1000.0)
                begin = time.perf_counter()
                with rec.span("runtime.refit"):
                    ok, _ = ops.call(
                        "refit", runtime.refit, mode="warm", callback=log.begin()
                    )
                refit_ms = (time.perf_counter() - begin) * 1000.0
            if ok:
                fit_ms.append(refit_ms)
                histories.append(model.history_)
                warm &= runtime.last_refit_mode == "warm" and model.history_.warm_started
        recall, finite = 0.0, False
        if getattr(model, "is_fitted", False):
            factors = model.factors_
            finite = bool(
                np.isfinite(factors.user_factors).all() and np.isfinite(factors.item_factors).all()
            )
            engine = TopNEngine.from_model(model)
            users = sorted(plan.test_items)
            ranked = engine.topn(users, n_items=50)
            recall = float(
                np.mean([recall_at_m(ranked[i], plan.test_items[u], 50) for i, u in enumerate(users)])
            )
        # Every outer iteration sweeps every item row and every user row.
        rows = sum(h.n_iterations for h in histories) * (
            runtime.train_matrix.n_users + runtime.train_matrix.n_items
        )
        # Iteration times from the fit callbacks: the first of each fit also
        # carries plan publication and (warm) the factor extension.
        iteration_ms = log.iteration_ms()
        layers = fit_layers(histories, log) if histories else {}
        layers["data.ingest_ms"] = median(ingest_ms)
        return Result(
            metrics={
                "rows_per_s": rows / (sum(fit_ms) / 1000.0) if fit_ms else 0.0,
                "p50_ms": median(iteration_ms),
                "tail_ms": percentile(iteration_ms, 90),
            },
            named={
                "fit_s": (fit_ms[0] / 1000.0 if fitted else 0.0, "s"),
                "refit_s": (sum(fit_ms[1:]) / 1000.0, "s"),
                "recall_at_50": (recall, "ratio"),
            },
            checks={
                "factors are finite": finite,
                f"recall_at_50 >= {self.recall_floor}": recall >= self.recall_floor,
                "refits ran warm": warm and len(histories) == 1 + len(plan.deltas),
            },
            layers=layers,
            codec_samples=[],
            notes=[
                f"delta sizes {[d.n_pairs for d in plan.deltas]} pairs on "
                f"{plan.train.nnz} training positives",
            ],
        )


# --------------------------------------------------------------------------- #
# online-mixed
# --------------------------------------------------------------------------- #
class OnlineMixed:
    """B2B front door: gateway + micro-batcher under an open loop, with writes.

    The catalogue is small, so engine-kernel gains should show no change
    here; admission, batching, the codec, fold-in and generation swaps
    dominate.  A writer ingests new users every second (requests for them
    are served by fold-in at once) and swaps the generation every 3 s.
    """

    name = "online-mixed"
    rate = 60.0  # offered requests/s; 90-120 saturates a 2-core host
    cold_every = 10  # every 10th request is a cold start
    users_per_request = 4
    fresh_every = 20  # every 20th request names a user ingested this run
    n_items = 10
    tenants = 4
    new_users_per_ingest = 2
    update_every_s = 3

    def setup(self, seed: int) -> State:
        data = corpus.online_corpus(seed)
        runtime = RecommenderRuntime(executor="process", max_workers=WORKERS)
        log = FitLog()
        model = OCuLaR(
            n_coclusters=32, regularization=5.0, max_iterations=2, tolerance=0.0,
            random_state=seed,
        )
        _fit(runtime, model, data.matrix, log)
        runtime.publish()
        # A static 2 ms batching window, so every run batches by the same
        # policy (the adaptive delay follows the measured arrivals).
        front = BatchingFrontEnd(runtime, max_delay_ms=2.0, max_batch_users=256)
        gateway = GatewayThread(front, max_inflight=64).start()
        state = State(seed, runtime, model, data.matrix, log)
        state.extra.update(corpus=data, gateway=gateway)
        state.closers += [gateway.close, front.close]
        rng = np.random.default_rng(seed)
        warm_up = OpenLoop(gateway.address, n_connections=1)
        try:
            warm_up.run(
                [Event(i * 0.01, RecommendRequest(users=(i, i + 1), n_items=self.n_items)) for i in range(8)]
                + [Event(0.1, RecommendRequest(
                    interactions=corpus.cold_rows(rng, data.matrix, 1), n_items=self.n_items
                ))]
            )
        finally:
            warm_up.close()
        return state

    def schedule(self, state: State, seconds: float) -> List[Event]:
        """Requests and writer events, all drawn from the workload seed."""
        rng = np.random.default_rng(state.seed + 2)
        n_base = state.matrix.n_users
        n_requests = int(self.rate * seconds)
        cold = corpus.cold_rows(rng, state.matrix, n_requests)
        ingests = [k + 0.5 for k in range(int(seconds))]
        writes = [Event(t, write="ingest") for t in ingests]
        writes += [
            Event(float(t), write="update") for t in range(2, int(seconds), self.update_every_s)
        ]
        requests = []
        for i in range(n_requests):
            due = i / self.rate
            tenant = f"tenant-{i % self.tenants}"
            # Evenly spread, so runs differ in which rows they ask for, not
            # in how the slow requests bunch up.
            if i % self.cold_every == self.cold_every // 2:
                request = RecommendRequest(
                    interactions=(cold[i],), n_items=self.n_items, tenant=tenant
                )
            else:
                users = [int(u) for u in rng.integers(0, n_base, size=self.users_per_request)]
                ingested = self.new_users_per_ingest * sum(1 for t in ingests if t < due)
                if ingested and i % self.fresh_every == 0:
                    users[0] = n_base + int(rng.integers(0, ingested))
                request = RecommendRequest(users=users, n_items=self.n_items, tenant=tenant)
            requests.append(Event(due, request))
        # At equal due times the writer goes first, so a request never names
        # a user whose ingest is still pending.
        return sorted(requests + writes, key=lambda e: (e.due, e.write is None))

    def measure(self, state: State, seconds: float, rec: SpanRecorder, ops: OpCounter) -> Result:
        runtime, data = state.runtime, state.extra["corpus"]
        engines = {runtime.generation: runtime.engine}
        fresh_rows: Dict[int, List[int]] = {}
        ingest_ms, update_ms = [], []

        def on_write(kind: str) -> None:
            begin = time.perf_counter()
            if kind == "ingest":
                first = runtime.train_matrix.n_users
                rows = data.new_user_rows[len(fresh_rows) : len(fresh_rows) + self.new_users_per_ingest]
                pairs = [(first + k, item) for k, row in enumerate(rows) for item in row]
                with rec.span("data.ingest"):
                    ok, _ = ops.call("ingest", runtime.ingest, pairs, n_new_users=len(rows))
                if ok:
                    fresh_rows.update({first + k: row for k, row in enumerate(rows)})
                ingest_ms.append((time.perf_counter() - begin) * 1000.0)
            else:
                with rec.span("runtime.update"):
                    ok, generation = ops.call("update", runtime.update)
                if ok:
                    engines[generation] = runtime.engine
                update_ms.append((time.perf_counter() - begin) * 1000.0)

        loop = OpenLoop(state.extra["gateway"].address, n_connections=2)
        try:
            loop.run(self.schedule(state, seconds), on_write)
            stats = loop.stats()
        finally:
            loop.close()
        report = analyse(loop, ops, rec, lambda r: "known" if r.kind == "topn" else "coldstart")
        correct = self._check(report, engines, fresh_rows, state.model)
        layers = layer_metrics(report, stats)
        layers["data.ingest_ms"] = median(ingest_ms)
        layers["runtime.update_ms"] = median(update_ms)
        known = report.latency_ms.get("known", [])
        coldstart = report.latency_ms.get("coldstart", [])
        every = known + coldstart
        last_reply = max((e.replies[0][0] for e in report.ok), default=loop.start + seconds)
        return Result(
            metrics={
                "rows_per_s": sum(e.request.n_rows for e in report.ok) / (last_reply - loop.start),
                "p50_ms": median(every),
                "tail_ms": percentile(every, 98),
            },
            named={
                "known_p50_ms": (median(known), "ms"),
                "known_p99_ms": (percentile(known, 99), "ms"),
                "coldstart_p50_ms": (median(coldstart), "ms"),
                "coldstart_p90_ms": (percentile(coldstart, 90), "ms"),
            },
            checks={
                "every frame gets exactly one reply": report.duplicates == 0
                and report.unmatched == 0
                and all(entry.replies for entry in loop.sent.values()),
                "rankings equal the in-process engine": correct,
            },
            layers=layers,
            codec_samples=[
                (entry.text, RecommendResponse.from_dict(entry.replies[0][1]))
                for entry in report.ok[:200]
            ],
            notes=[
                f"{len(known)} known and {len(coldstart)} cold-start replies; "
                f"generator late p50 {median(report.late_ms):.3f} ms, "
                f"p99 {percentile(report.late_ms, 99):.3f} ms, max {max(report.late_ms):.3f} ms",
                f"gateway errors by code: {stats['gateway']['errors']}",
            ],
        )

    def _check(self, report, engines, fresh_rows, model) -> bool:
        """Every served row against the engine of the generation it reports.

        Known users go through one ``topn`` per generation; users ingested
        during the run and cold-start baskets through one
        ``recommend_folded`` per generation.
        """
        known, folded = {}, {}
        for entry in report.ok:
            frame = entry.replies[0][1]
            generation = frame["generation"]
            if generation not in engines or len(frame["rankings"]) != entry.request.n_rows:
                return False
            if entry.request.kind == "folded":
                for row, got in zip(entry.request.interactions, frame["rankings"]):
                    folded.setdefault(generation, []).append((list(row), got))
                continue
            for user, got in zip(entry.request.users, frame["rankings"]):
                if user in fresh_rows:
                    folded.setdefault(generation, []).append((fresh_rows[user], got))
                else:
                    known.setdefault(generation, []).append((user, got))
        for generation, rows in known.items():
            expected = engines[generation].topn([u for u, _ in rows], n_items=self.n_items)
            if not rows_equal([got for _, got in rows], expected):
                return False
        for generation, rows in folded.items():
            expected = recommend_folded(
                engines[generation], [r for r, _ in rows], model=model, n_items=self.n_items
            )
            if not rows_equal([got for _, got in rows], expected):
                return False
        return True


# --------------------------------------------------------------------------- #
# cluster-swap
# --------------------------------------------------------------------------- #
class ClusterSwap:
    """Runtime over a 2-node loopback cluster, one caller in a closed loop.

    Each cycle: ``update()``, one cold 512-user call, 20 warm calls, one
    cold-start call.  The only workload that uses ``parallel.cluster``;
    per-call RPC cost and per-generation node fetches dominate it.
    """

    name = "cluster-swap"
    call_users = 512
    shard_size = 256  # two shards per call: both nodes fetch each generation
    warm_calls = 20
    n_items = 50

    def setup(self, seed: int) -> State:
        matrix = corpus.serving_corpus(seed)
        cluster = ClusterExecutor(n_nodes=2)
        runtime = RecommenderRuntime(executor=cluster)
        log = FitLog()
        model = OCuLaR(
            n_coclusters=32, regularization=5.0, max_iterations=2, tolerance=0.0,
            random_state=seed,
        )
        state = State(seed, runtime, model, matrix, log, cluster=cluster)
        _fit(runtime, model, matrix, log)
        runtime.publish()
        runtime.recommend(RecommendRequest(users=range(64), n_items=self.n_items), shard_size=32)
        return state

    def measure(self, state: State, seconds: float, rec: SpanRecorder, ops: OpCounter) -> Result:
        runtime = state.runtime
        rng = np.random.default_rng(state.seed + 3)
        n_users = state.matrix.n_users
        engines, checked = {}, []
        cold_ms, warm_ms, coldstart_ms, update_ms = [], [], [], []

        def call(phase, times, request, keep):
            begin = time.perf_counter()
            with rec.span(f"cluster.{phase}"):
                ok, response = ops.call(phase, runtime.recommend, request, shard_size=self.shard_size)
            if ok:
                times.append((time.perf_counter() - begin) * 1000.0)
                if keep:
                    checked.append((request, response))

        def users():
            return [int(u) for u in rng.integers(0, n_users, size=self.call_users)]

        start = time.perf_counter()
        cycle = 0
        while time.perf_counter() - start < seconds:
            with rec.span("cluster.cycle", request_id=f"cycle-{cycle}"):
                begin = time.perf_counter()
                with rec.span("runtime.update"):
                    ok, generation = ops.call("update", runtime.update)
                if ok:
                    update_ms.append((time.perf_counter() - begin) * 1000.0)
                    engines[generation] = runtime.engine
                call("cold_call", cold_ms, RecommendRequest(users=users(), n_items=self.n_items), True)
                for k in range(self.warm_calls):
                    call("warm_call", warm_ms, RecommendRequest(users=users(), n_items=self.n_items),
                         k in (0, self.warm_calls - 1))
                basket = corpus.cold_rows(rng, state.matrix, 1)
                call("coldstart_call", coldstart_ms,
                     RecommendRequest(interactions=basket, n_items=self.n_items), True)
            cycle += 1
        elapsed = time.perf_counter() - start
        correct, serial_ms = True, []
        for request, response in checked:
            engine = engines.get(response.generation)
            if engine is None:
                correct = False
                continue
            if request.kind == "topn":
                begin = time.perf_counter()
                expected = engine.topn(request.users, n_items=self.n_items)
                serial_ms.append((time.perf_counter() - begin) * 1000.0)
            else:
                expected = recommend_folded(
                    engine, request.interactions, model=state.model, n_items=self.n_items
                )
            correct &= rows_equal(response.rankings, expected)
        node_stats = runtime.executor.node_stats()
        counts = [n for stats in node_stats.values() for n in stats["fetch_counts"].values()]
        layers = cluster_layers(cold_ms, warm_ms, serial_ms, counts)
        layers["runtime.update_ms"] = median(update_ms)
        every = cold_ms + warm_ms + coldstart_ms
        ranked = self.call_users * (len(cold_ms) + len(warm_ms)) + len(coldstart_ms)
        return Result(
            metrics={
                "rows_per_s": ranked / elapsed,
                "p50_ms": median(every),
                "tail_ms": percentile(every, 95),
            },
            named={
                "cluster_cold_call_ms": (median(cold_ms), "ms"),
                "cluster_warm_call_ms": (median(warm_ms), "ms"),
                "cluster_warm_call_p95_ms": (percentile(warm_ms, 95), "ms"),
                "cluster_coldstart_call_ms": (median(coldstart_ms), "ms"),
            },
            checks={
                "rankings equal the serial engine": correct and bool(checked),
                "each node fetches each array once": bool(counts) and max(counts) == 1,
                "both nodes served": len(node_stats) == 2,
            },
            layers=layers,
            codec_samples=[(req.to_json(), resp) for req, resp in checked[:4] if req.kind == "topn"],
            notes=[f"{cycle} cycles; {len(warm_ms)} warm calls"],
        )


def cluster_layers(cold_ms, warm_ms, serial_ms, fetch_counts) -> Dict[str, float]:
    return {
        "parallel.cluster.rpc_ms": median(warm_ms) - median(serial_ms),
        "parallel.cluster.fetch_ms": median(cold_ms) - median(warm_ms),
        "parallel.cluster.fetches_per_generation": float(max(fetch_counts, default=0)),
    }


WORKLOADS = {w.name: w for w in (BatchItemHeavy(), TrainRefit(), OnlineMixed(), ClusterSwap())}
