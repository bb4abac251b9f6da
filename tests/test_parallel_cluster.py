"""Tests for the multi-machine RPC cluster executor.

Covers the acceptance criteria of the cluster tentpole: serving and
training parity with the single-process paths at 1/2/3 nodes, fault
injection (a node dying mid-``serve_sharded`` and mid-sweep re-dispatches
its in-flight shards with no duplicated or missing users), the per-node
object store's fetch-once-per-generation guarantee, eviction on
retirement, and the executor lifecycle contract (typed post-shutdown
errors, :class:`~repro.exceptions.WorkerCrashError` when every node is
gone).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
import types
from multiprocessing import AuthenticationError, get_context
from multiprocessing.connection import Listener
from pathlib import Path

import numpy as np
import pytest

from repro.api import RecommendRequest
from repro.core.backends import ParallelBackend
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import (
    ConfigurationError,
    ExecutorShutDownError,
    WorkerCrashError,
)
from repro.parallel import ClusterExecutor
from repro.parallel.cluster import TASK_DELAY_ENV, _accept, _agent_main, _connect
from repro.runtime import RecommenderRuntime
from repro.serving.batch import serve_sharded
from repro.serving.engine import TopNEngine

N_ITEMS = 10
MODEL_KWARGS = dict(
    n_coclusters=6, regularization=5.0, max_iterations=3, tolerance=0.0, random_state=0
)


def slow_square(value: int) -> int:
    """Slow enough that a mid-call kill lands while shards are in flight."""
    time.sleep(0.05)
    return value * value


def boom(tag: str) -> None:
    raise ValueError(f"task failed: {tag}")


def sleep_forever() -> None:  # pragma: no cover - killed by the timeout path
    time.sleep(3600)


def fetch_sum(ref) -> float:
    """Attach a published ref inside the agent and reduce it."""
    return float(ref.attach().sum())


def zero_bytes(n_bytes: int) -> bytes:
    return bytes(n_bytes)


def nodelay(connection) -> int:
    """The TCP_NODELAY flag of a connection's socket."""
    with socket.socket(fileno=os.dup(connection.fileno())) as sock:
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def open_channel(executor, kind: str):
    """A raw authenticated channel to node 0, past the hello."""
    connection = _connect(executor._nodes[0].address, executor._authkey)
    connection.send(("hello", kind, 99, executor._store.address))
    return connection


def request(connection, message):
    connection.send(message)
    assert connection.poll(10), f"no reply to {message!r}"
    return connection.recv()


@pytest.fixture(scope="module")
def corpus():
    matrix, _ = make_netflix_like(n_users=150, n_items=60, random_state=0)
    return matrix


@pytest.fixture(scope="module")
def model(corpus):
    return OCuLaR(**MODEL_KWARGS).fit(corpus)


@pytest.fixture(scope="module")
def reference(corpus, model):
    """Single-process ground truth: the engine's own rankings."""
    engine = TopNEngine.from_model(model)
    users = list(range(corpus.shape[0]))
    return engine, users, engine.topn(users, n_items=N_ITEMS)


def assert_rankings_equal(result, users, expected):
    """Exact-parity check: every user present once, every list identical."""
    assert result.users == users
    assert len(result.rankings) == len(users)
    for got, want in zip(result.rankings, expected):
        assert np.array_equal(got, want)


class TestClusterBasics:
    def test_map_and_starmap_roundtrip(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            assert executor.map(slow_square, range(8)) == [v * v for v in range(8)]
            assert executor.max_workers == 2

    def test_task_exception_propagates_and_nodes_survive(self):
        # A failing *task* is the task's problem, not the node's: the error
        # arrives as itself (remote traceback attached as the cause) and
        # both nodes keep serving.
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            with pytest.raises(ValueError, match="task failed: a") as excinfo:
                executor.starmap(boom, [("a",), ("b",)])
            assert excinfo.value.__cause__ is not None
            assert len(executor._live_nodes()) == 2
            assert executor.map(slow_square, [3]) == [9]

    def test_publish_after_shutdown_raises_typed_error(self):
        executor = ClusterExecutor(n_nodes=1, task_timeout=60)
        executor.shutdown()
        with pytest.raises(ExecutorShutDownError):
            executor.publish("slot", np.ones(3))
        assert executor.unpublish("slot") is False

    def test_agent_processes_are_reaped_on_shutdown(self):
        # Agents exit on request (exit code 0), not by SIGKILL after a
        # join timeout, and they are joined together.
        executor = ClusterExecutor(n_nodes=2, task_timeout=60)
        processes = [node.process for node in executor._nodes]
        assert all(process.is_alive() for process in processes)
        start = time.monotonic()
        executor.shutdown()
        assert time.monotonic() - start < 2.0
        assert [process.exitcode for process in processes] == [0, 0]


class TestTransport:
    def test_driver_channels_disable_nagle(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            for node in executor._nodes:
                assert nodelay(node.task_conn) and nodelay(node.ctrl_conn)

    def test_channel_helpers_disable_nagle_on_both_ends(self):
        authkey = b"repro-test-authkey"
        listener = Listener(("127.0.0.1", 0), authkey=authkey)
        accepted = []
        acceptor = threading.Thread(target=lambda: accepted.append(_accept(listener)))
        acceptor.start()
        client = _connect(listener.address, authkey)
        acceptor.join(timeout=10)
        try:
            assert nodelay(client) and nodelay(accepted[0])
        finally:
            client.close()
            for connection in accepted:
                connection.close()
            listener.close()

    def test_large_reply_round_trip_has_no_delayed_ack_stall(self):
        # A frame over 16 KiB leaves in two send() calls; under Nagle's
        # algorithm a payload below one loopback MSS then waits for the
        # receiver's delayed ACK (~40 ms) on a large share of calls.
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            executor.map(zero_bytes, [32 * 1024])
            times = []
            for _ in range(20):
                begin = time.perf_counter()
                assert len(executor.map(zero_bytes, [32 * 1024])[0]) == 32 * 1024
                times.append((time.perf_counter() - begin) * 1000.0)
        times.sort()
        assert times[17] < 20.0, times  # 90th percentile of 20 calls


class TestChannelHardening:
    def test_bad_handshake_or_hello_closes_only_that_channel(self):
        with ClusterExecutor(n_nodes=1, task_timeout=60) as executor:
            address = executor._nodes[0].address
            with pytest.raises(AuthenticationError):
                _connect(address, b"wrong-key")
            for raw in (b"", b"\xff" * 8):  # hang-up, garbage length header
                with socket.create_connection(address) as sock:
                    sock.sendall(raw)
            store = executor._store.address
            for hello in (b"garbage", ("hello",), ("hello", "gossip", 0, store),
                          ("hello", "ctrl", 0, "no-port")):
                connection = _connect(address, executor._authkey)
                connection.send(hello)
                assert connection.poll(10)
                with pytest.raises(EOFError):
                    connection.recv()
                connection.close()
            assert executor.map(slow_square, [5]) == [25]
            assert list(executor.node_stats()) == [0]

    def test_malformed_ctrl_frames_get_typed_errors(self):
        with ClusterExecutor(n_nodes=1, task_timeout=60) as executor:
            connection = open_channel(executor, "ctrl")
            try:
                reply = request(connection, ("frobnicate",))
                assert reply[0] == "error" and "unknown ctrl op" in reply[2]
                for frame in ("not-a-tuple", (), (42,), ("evict",), ("evict", 5),
                              ("die_after", "soon")):
                    reply = request(connection, frame)
                    assert reply[0] == "error" and len(reply) == 4, (frame, reply)
                connection.send_bytes(b"\x80\x05not a pickle")
                assert connection.poll(10) and connection.recv()[0] == "error"
                assert request(connection, ("ping",)) == ("ok", "pong")
            finally:
                connection.close()
            assert executor.map(slow_square, [3]) == [9]

    def test_malformed_task_frames_get_typed_errors(self, monkeypatch):
        # A function the node cannot import fails as itself on the driver
        # instead of killing the channel (which would read as node death).
        module = types.ModuleType("repro_driver_only")

        def driver_only(value):  # pragma: no cover - never runs on a node
            return value

        driver_only.__module__, driver_only.__qualname__ = module.__name__, "f"
        module.f = driver_only
        monkeypatch.setitem(sys.modules, module.__name__, module)
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            with pytest.raises(ModuleNotFoundError):
                executor.map(driver_only, [1])
            assert len(executor._live_nodes()) == 2
            connection = open_channel(executor, "task")
            try:
                assert request(connection, ("task",))[0] == "error"
                assert request(connection, ("task", slow_square, (3,))) == ("ok", 9)
            finally:
                connection.close()
            assert executor.map(slow_square, [4]) == [16]


class TestServingParity:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_serve_sharded_matches_single_process_engine(self, reference, n_nodes):
        # The acceptance criterion: rankings through executor="cluster" at
        # 1/2/3 nodes are np.array_equal to the single-process TopNEngine.
        engine, users, expected = reference
        with ClusterExecutor(n_nodes=n_nodes, task_timeout=60) as executor:
            result = serve_sharded(
                engine, users, n_items=N_ITEMS, executor=executor, shard_size=16
            )
        assert_rankings_equal(result, users, expected)
        assert result.n_shards == 10

    def test_node_death_mid_serve_redispatches_shards(self, reference, monkeypatch):
        # Deterministic machine loss: node 0 exits hard right before
        # replying to its first shard (the per-task delay keeps the other
        # nodes busy long enough that node 0 is guaranteed to draw work).
        # The driver must re-dispatch that shard (and anything else queued
        # on the node) to the survivors — identical rankings, no duplicated
        # or missing users.
        monkeypatch.setenv(TASK_DELAY_ENV, "50")
        engine, users, expected = reference
        with ClusterExecutor(n_nodes=3, task_timeout=30) as executor:
            executor.inject_death_after(0, 0)
            result = serve_sharded(
                engine, users, n_items=N_ITEMS, executor=executor, shard_size=16
            )
            assert len(executor._live_nodes()) == 2
        assert_rankings_equal(result, users, expected)

    def test_sigkill_mid_call_redispatches(self, monkeypatch):
        # The undeterministic variant: SIGKILL one agent while a starmap is
        # in flight; the driver discovers the death organically (EOF on the
        # task channel) and re-dispatches.
        monkeypatch.setenv(TASK_DELAY_ENV, "30")
        executor = ClusterExecutor(n_nodes=2, task_timeout=30)
        try:
            outcome = {}

            def run():
                outcome["results"] = executor.starmap(
                    slow_square, [(i,) for i in range(40)]
                )

            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.3)
            executor.kill_node(0)
            worker.join(timeout=90)
            assert not worker.is_alive()
            assert outcome["results"] == [i * i for i in range(40)]
            assert len(executor._live_nodes()) == 1
        finally:
            executor.shutdown()


class TestTrainingParity:
    def test_node_death_mid_sweep_matches_vectorized_factors(self, corpus, monkeypatch):
        # Training sweeps fan shards over the same executor; killing a node
        # mid-fit must leave the learned factors bit-identical to the
        # single-process backend (shards re-dispatch, order-stable stitch).
        # The per-task delay guarantees node 1 draws work before dying.
        monkeypatch.setenv(TASK_DELAY_ENV, "30")
        expected = OCuLaR(**MODEL_KWARGS).fit(corpus).factors_
        with ClusterExecutor(n_nodes=2, task_timeout=30) as executor:
            executor.inject_death_after(1, 0)
            backend = ParallelBackend(n_shards=4, executor=executor)
            model = OCuLaR(**MODEL_KWARGS).fit(corpus, backend=backend)
            assert len(executor._live_nodes()) == 1
        assert np.array_equal(model.factors_.user_factors, expected.user_factors)
        assert np.array_equal(model.factors_.item_factors, expected.item_factors)


class TestObjectStore:
    def test_each_node_fetches_a_generation_once(self, corpus, reference):
        # The acceptance criterion on the store: for one published
        # generation, every node pulls each descriptor's bytes at most once
        # no matter how many shards reference it.
        engine, users, expected = reference
        runtime = RecommenderRuntime(executor="cluster", max_workers=2)
        try:
            runtime.fit(OCuLaR(**MODEL_KWARGS), corpus)
            runtime.publish()
            for _ in range(2):  # repeat calls must hit the node caches
                response = runtime.recommend(
                    RecommendRequest(users=users, n_items=N_ITEMS)
                )
                for got, want in zip(response.rankings, expected):
                    assert np.array_equal(got, want)
            stats = runtime._executor.node_stats()
            assert len(stats) == 2
            for node_stats in stats.values():
                assert node_stats["fetch_counts"], "node never fetched anything"
                assert all(
                    count == 1 for count in node_stats["fetch_counts"].values()
                ), node_stats["fetch_counts"]
        finally:
            runtime.close()

    def test_refresh_mints_new_key_and_retires_old(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            first = executor.publish("slot", np.arange(6, dtype=np.float64))
            total = executor.starmap(fetch_sum, [(first,), (first,)])
            assert total == [15.0, 15.0]
            second = executor.publish("slot", np.arange(8, dtype=np.float64))
            assert second.key != first.key
            assert executor.active_store_keys() == [second.key]
            # Every node that cached the old generation evicted it.
            for node_stats in executor.node_stats().values():
                if first.key in node_stats["fetch_counts"]:
                    assert first.key in node_stats["evicted"]
                assert first.key not in node_stats["store_keys"]

    def test_unpublish_evicts_node_caches(self):
        with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
            ref = executor.publish("slot", np.ones(4))
            executor.starmap(fetch_sum, [(ref,), (ref,)])
            assert executor.unpublish("slot") is True
            assert executor.active_store_keys() == []
            for node_stats in executor.node_stats().values():
                if ref.key in node_stats["fetch_counts"]:
                    assert ref.key in node_stats["evicted"]

    def test_publish_snapshots_the_array(self):
        # Mutating the source after publish must not leak into what nodes
        # fetch — same snapshot semantics as the shared-memory memcpy.
        with ClusterExecutor(n_nodes=1, task_timeout=60) as executor:
            source = np.ones(5)
            ref = executor.publish("slot", source)
            source[:] = 99.0
            assert executor.map(fetch_sum, [ref]) == [5.0]


class TestFaultExhaustion:
    def test_all_nodes_dead_raises_worker_crash_with_index(self):
        executor = ClusterExecutor(n_nodes=1, task_timeout=30, max_task_retries=2)
        try:
            executor.inject_death_after(0, 0)
            with pytest.raises(WorkerCrashError) as excinfo:
                executor.starmap(slow_square, [(i,) for i in range(4)])
            assert excinfo.value.executor == "ClusterExecutor"
            assert excinfo.value.task_index == 0
        finally:
            executor.shutdown()

    def test_hung_node_is_declared_dead_by_timeout(self):
        # A node that accepts a task and never replies must not hang the
        # driver: task_timeout declares it dead; with no survivors the call
        # fails fast with the typed crash error.
        executor = ClusterExecutor(n_nodes=1, task_timeout=1.0, max_task_retries=1)
        try:
            start = time.monotonic()
            with pytest.raises(WorkerCrashError):
                executor.starmap(sleep_forever, [()])
            assert time.monotonic() - start < 20.0
        finally:
            executor.shutdown()

    def test_retry_budget_exhaustion_raises(self):
        # Two nodes, zero retries allowed: the first death immediately
        # fails its in-flight task instead of silently re-dispatching.
        executor = ClusterExecutor(n_nodes=2, task_timeout=30, max_task_retries=0)
        try:
            executor.inject_death_after(0, 0)
            executor.inject_death_after(1, 0)
            with pytest.raises(WorkerCrashError):
                executor.starmap(slow_square, [(i,) for i in range(6)])
        finally:
            executor.shutdown()


class TestExternalAgents:
    def test_connects_to_externally_started_agents(self):
        # The true multi-machine path: agents started out-of-band (here: a
        # spawn-context process running the module entry point), the driver
        # given only addresses + authkey.
        authkey = b"repro-test-authkey"
        context = get_context("spawn")
        parent, child = context.Pipe(duplex=False)
        agent = context.Process(
            target=_agent_main, args=("127.0.0.1", 0, authkey, child), daemon=True
        )
        agent.start()
        child.close()
        assert parent.poll(30), "external agent never reported its address"
        address = tuple(parent.recv())
        parent.close()
        try:
            with ClusterExecutor(
                addresses=[address], authkey=authkey, task_timeout=60
            ) as executor:
                assert executor.max_workers == 1
                assert executor.map(slow_square, [7]) == [49]
                with pytest.raises(ConfigurationError):
                    executor.kill_node(0)  # not ours to SIGKILL
        finally:
            agent.terminate()
            agent.join(timeout=10)

    def test_cli_agent_outlives_drivers_and_exits_on_shutdown(self):
        # A standalone agent serves one driver after another (a driver's
        # shutdown closes only its channels); a ctrl shutdown stops it
        # promptly with exit code 0.
        authkey = os.urandom(16)
        source = str(Path(sys.modules["repro"].__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        agent = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel.cluster", "--authkey", authkey.hex()],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        try:
            host, _, port = agent.stdout.readline().split()[-1].rpartition(":")
            address = (host, int(port))
            for value in (6, 7):
                with ClusterExecutor(
                    addresses=[address], authkey=authkey, task_timeout=60
                ) as executor:
                    # A builtin: the agent process cannot import this test module.
                    assert executor.starmap(pow, [(value, 2)]) == [value * value]
            assert agent.poll() is None
            connection = _connect(address, authkey)
            connection.send(("hello", "ctrl", 0, ("127.0.0.1", 1)))
            assert request(connection, ("shutdown",)) == ("ok", None)
            connection.close()
            assert agent.wait(timeout=10) == 0
        finally:
            if agent.poll() is None:
                agent.kill()
                agent.wait()

    def test_external_addresses_require_authkey(self):
        with pytest.raises(ConfigurationError, match="authkey"):
            ClusterExecutor(addresses=["127.0.0.1:1"])
