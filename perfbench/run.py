"""Repository benchmark: four workloads over the OCuLaR training and serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload batch-itemheavy --seed 1 --seconds 10 --trace 0

Workloads (their reasons are in ``BENCHMARK.json`` and ``workloads.py``):
``batch-itemheavy``, ``train-refit``, ``cluster-swap`` and ``online-mixed``.
``online-mixed`` runs by name but is not listed in ``BENCHMARK.json``: on a
shared 2-core host, bursts of outside load roughly double its millisecond
latencies in some runs, so its spread across seeds exceeds any allowed bound.

Every run sets the workload up three times (``setup_s`` is the median),
measures one untraced phase on the last set-up and checks its outputs.
Every workload reports the same end-to-end metrics, each defined from the
workload's own operations:

* ``rows_per_s`` -- ranked lists (training: factor rows swept) per second;
* ``p50_ms`` / ``tail_ms`` -- median and tail latency of the workload's
  operations: 1024-user requests (tail: p90 of ~12), training iterations
  from the fit callbacks (tail: p90, the first iteration of each fit),
  gateway requests of both kinds timed from their due time (tail: p98) or
  cluster calls of every kind (tail: p95);
* ``setup_s``.

``peak_rss_mb`` (resident high-water marks summed over the main process,
pool workers and cluster agents) is printed but is not a gated metric: at identical
inputs it moves by about 30% from run to run, because each pool worker
builds sweep workspaces for whichever training shards it happens to draw.

The workload's own headline numbers (``batch_users_per_s``, ``fit_s``,
``known_p99_ms``, ``cluster_cold_call_ms``, ...) are printed above the
result line.

``--trace 1`` then sets up once more (untimed) and measures again with
spans recorded around every call into the library; the
per-layer metrics come from that traced phase plus probes on the same
runtime, and ``trace.overhead_pct`` is the change of ``p50_ms`` between the
two.  Spans are written to ``perfbench/traces/``.

The last line of standard output is the JSON result.  Operation failures
are counted, never fatal; a missing library makes the run exit with code 2
before printing any result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import sys
import threading
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _teardown(state, shutdown_s: dict, release_free_memory):
    """Close a set-up (never timed); a cluster shuts down on a thread."""
    for close in state.closers:
        close()
    state.runtime.close()
    gc.collect()
    release_free_memory()
    if state.cluster is None:
        return None

    def shutdown():
        begin = time.perf_counter()
        state.cluster.shutdown()
        shutdown_s[id(state)] = time.perf_counter() - begin

    thread = threading.Thread(target=shutdown, name="cluster-shutdown")
    thread.start()
    return thread


def _layers(state, result, rec, ops, probes, workloads):
    """The traced phase's own layer numbers, completed by probes."""
    layers = dict(result.layers)
    runtime = state.runtime
    if runtime.engine is None:
        runtime.publish()
    if "core.fit.iter_ms" not in layers:
        layers.update(workloads.fit_layers([state.model.history_], state.fit_log))
    cluster = None
    if "parallel.cluster.rpc_ms" not in layers:
        cluster = probes.ClusterProbe(state, rec)
    samples = result.codec_samples
    if "runtime.batching.queue_ms" not in layers:
        gateway, gateway_samples = probes.gateway(state, rec, ops)
        layers.update(gateway)
        samples = samples or gateway_samples
    layers.update(probes.codec(samples, rec))
    layers.update(probes.engine(state, rec))
    layers.update(probes.fold_in(state, rec))
    layers.update(probes.dispatch(state, rec))
    if "runtime.update_ms" not in layers:
        layers.update(probes.update(state, rec))
    if "data.ingest_ms" not in layers:
        layers.update(probes.ingest(state, rec))
    if cluster is not None:
        layers.update(cluster.join())
    return layers


def _child_pids() -> list:
    """Direct children of this process, zombies included, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    Shared memory starts multiprocessing's resource tracker, which is never
    waited for and would otherwise outlive the run as an orphan; the fork
    server (if a pool started one) is the same.  Both are stopped through
    their own shutdown.  Any other child still here is a leak: it gets
    SIGTERM, then SIGKILL after ``grace_s``, and is reaped either way.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
    pending = set(_child_pids())
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if not pending:
            break
        if time.monotonic() >= deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            break
        time.sleep(0.05)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    args = _parse(argv)
    # One BLAS thread per process: the pool and the cluster supply the
    # parallelism, and nested BLAS threads would oversubscribe the cores.
    # Set before NumPy loads; pool workers and agents inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import probes
        import workloads
        from harness import OpCounter, PeakRssSampler, SpanRecorder, median, release_free_memory
    except ImportError as error:
        print(f"perfbench: cannot import the library under test: {error}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    workload = workloads.WORKLOADS[args.workload]
    ops = OpCounter()
    sampler = PeakRssSampler().start()
    setup_s, threads, shutdown_s = [], [], {}
    results, layers, rec = [], {}, SpanRecorder(bool(args.trace))
    state = None
    try:
        for index in range(SETUPS):
            if state is not None:
                threads.append(_teardown(state, shutdown_s, release_free_memory))
                state = None
            if index == SETUPS - 1:
                sampler.reset()
            begin = time.perf_counter()
            state = workload.setup(args.seed)
            setup_s.append(time.perf_counter() - begin)
        results.append(workload.measure(state, args.seconds, SpanRecorder(False), ops))
        if args.trace:
            # A fresh (untimed) set-up for the traced phase: training
            # workloads change their runtime, and one set-up at a time keeps
            # the item-heavy workload's memory in bounds.
            threads.append(_teardown(state, shutdown_s, release_free_memory))
            state = workload.setup(args.seed)
            results.append(workload.measure(state, args.seconds, rec, ops))
            layers = _layers(state, results[-1], rec, ops, probes, workloads)
    finally:
        sampler.sample()
        if state is not None:
            threads.append(_teardown(state, shutdown_s, release_free_memory))
        for thread in threads:
            if thread is not None:
                thread.join()
        peak_rss_mb = sampler.stop()
    if state is not None and id(state) in shutdown_s:
        layers.setdefault("parallel.cluster.shutdown_s", shutdown_s[id(state)])

    result = results[-1]
    checks = {f"{name} (pass {i + 1})": ok for i, r in enumerate(results) for name, ok in r.checks.items()}
    if args.trace:
        untraced, traced = results[0].metrics["p50_ms"], result.metrics["p50_ms"]
        layers["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0 if untraced else 0.0
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = dict(result.metrics, setup_s=median(setup_s))
    metrics, correct = {}, all(checks.values())
    for entry in wanted:
        value = float(values.get(entry["name"], float("nan")))
        if not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("set-up: " + " ".join(f"{s:.3f}" for s in setup_s) + " s")
    print(f"  peak_rss_mb = {peak_rss_mb:.1f} MiB (main process + pool workers + cluster agents)")
    for name, (value, unit) in result.named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in (note for r in results for note in r.notes):
        print(f"  {note}")
    print("operations:")
    for line in ops.lines():
        print(line)
    print("checks:")
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAILED'}] {name}")
    print("metrics:")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        self_times = rec.self_times()
        print("span self time (ms), largest first:")
        for name, entry in sorted(self_times.items(), key=lambda kv: -kv[1]["self_ms"])[:15]:
            print(f"  {name}: count={entry['count']} total={entry['total_ms']:.1f} self={entry['self_ms']:.1f}")
        path = os.path.join(ROOT, "perfbench", "traces", f"{args.workload}-seed{args.seed}.json")
        rec.write(path, extra={"layers": layers, "operations": ops.lines()})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
