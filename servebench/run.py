"""Run one workload against a served store; print metrics and a result line.

Usage, from the root of the repository::

    python3 servebench/run.py --workload serve-read --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``servebench/README.md``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 whenever that line was printed; any error exits
non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (durability directories, span files).
WORK_DIR = os.path.join(ROOT, ".servebench")

#: Worker processes of the served store: one per core.
WORKERS = max(1, min(8, len(os.sched_getaffinity(0))))
#: Closed-loop callers, each on its own connection.  One: a request
#: already keeps about a core busy between the caller, the server and a
#: worker, so more callers on a small machine saturate the cores and the
#: run times the scheduler (see README.md, "Sizing").
CONNECTIONS = 1
#: Untraced runs set the store up this many times, and measure this many
#: slices on each store (see run_untraced).
SETUPS = 5
SLICES_PER_SETUP = 3
#: The traced run alternates this many slices between its two servers.
TRACE_SLICES = 10
#: Seconds of each closed-loop slice the ladder's self-check compares with.
REFERENCE_SECONDS = 1.0
PRELOAD_BATCH = 1000
#: The tail percentile: the highest one with at least ten samples beyond
#: it on every workload (a bulk workload completes ~10^2-10^3 calls).
TAIL_QUANTILE = 0.90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Session:
    """One served store: its server process, clients and durability
    directory."""

    def __init__(self, workload, preload, scratch: str,
                 telemetry: bool = False) -> None:
        from servebench.server import ServerProcess, serve_command

        self.workload = workload
        self.preload = preload
        self.durability_dir = tempfile.mkdtemp(prefix="store-", dir=scratch)
        self.server = ServerProcess(
            serve_command(workload, WORKERS, self.durability_dir,
                          telemetry), ROOT)
        self.clients = []
        self.problems = []

    @property
    def durable(self) -> bool:
        return self.workload.durability_mode is not None

    def setup(self) -> float:
        """Spawn, connect, preload, first barrier; returns the seconds it
        took until the store was ready."""
        from servebench.loadgen import connect
        from servebench.workloads import value_of

        started = time.perf_counter()
        self.server.start()
        self.clients = [connect(self.server.port)
                        for _ in range(CONNECTIONS)]
        pairs = [(key, value_of(key)) for key in self.preload]
        for start in range(0, len(pairs), PRELOAD_BATCH):
            self.clients[0].insert_many(pairs[start:start + PRELOAD_BATCH])
        if self.durable:
            self.clients[0].barrier()
        return time.perf_counter() - started

    def finish(self, streams, callers, audits=()) -> float:
        """Check the final contents, drain the server, check the disk.

        A final barrier, then ``items()`` must equal the oracle and
        ``digest()`` must equal a fresh in-process build of the oracle's
        contents.  After the SIGTERM drain, on a secure store, the
        forensics audit must find no deleted key in the default namespace
        nor in the ``(namespace, deleted keys)`` pairs of ``audits``.
        Returns the durability directory's bytes per live payload byte
        (0 for an in-memory store).
        """
        from repro.api import make_sharded_engine
        from repro.net.server import engine_digest

        from servebench.ladder import sequential_config
        from servebench.workloads import (
            PAYLOAD_BYTES_PER_ENTRY,
            deleted_keys,
            final_state,
        )

        completed = [caller.completed for caller in callers]
        expected = sorted(final_state(self.preload, streams,
                                      completed).items())
        client = self.clients[0]
        if self.durable:
            client.barrier()
        served = sorted(client.items())
        if served != expected:
            self.problems.append(
                "items() differs from the oracle: %d missing, %d unexpected"
                % (len(set(expected) - set(served)),
                   len(set(served) - set(expected))))
        fresh = make_sharded_engine(config=sequential_config())
        try:
            fresh.insert_many(expected)
            if client.digest() != engine_digest(fresh):
                self.problems.append(
                    "digest() differs from a fresh build of the oracle's "
                    "contents: the layout depends on history")
        finally:
            fresh.close()
        self.stop()
        if self.workload.durability_mode == "secure":
            for name, deleted in (("default", deleted_keys(
                    streams, completed)),) + tuple(audits):
                self.audit(name, deleted)
        if not self.durable:
            return 0.0
        return disk_bytes(os.path.join(self.durability_dir, "default")) \
            / (len(expected) * PAYLOAD_BYTES_PER_ENTRY)

    def stop(self) -> None:
        """Close the clients, then SIGTERM the server so it drains."""
        for client in self.clients:
            client.close()
        self.clients = []
        if not self.server.stop():
            self.problems.extend(self.server.problems)

    def audit(self, name: str, deleted) -> None:
        """The stolen-directory attack must find no deleted key."""
        from repro.history.forensics import audit_durability_dir

        report = audit_durability_dir(
            os.path.join(self.durability_dir, name), deleted)
        if not report.clean:
            self.problems.append(
                "forensics audit of namespace %r found %d trace(s) of "
                "deleted keys, e.g. %s" % (name, len(report.findings),
                                           report.findings[0]))

    def close(self) -> None:
        """Release everything, on success and error paths alike: a server
        still running is drained (so it removes its shared memory), and
        killed if it does not drain in time."""
        self.stop()
        shutil.rmtree(self.durability_dir, ignore_errors=True)


def disk_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, names in os.walk(directory)
               for name in names)


def tally(callers) -> dict:
    latencies = {}
    for caller in callers:
        for kind, values in caller.latencies_s.items():
            latencies.setdefault(kind, []).extend(
                value * 1000.0 for value in values)
    return {
        "latencies_ms": latencies,
        "attempted": sum(caller.attempted for caller in callers),
        "failed": sum(caller.failed for caller in callers),
        "wrong": [line for caller in callers for line in caller.wrong],
        "errors": [line for caller in callers for line in caller.errors],
    }


def gated_latencies(workload, counts: dict):
    """The call latencies (ms) the end-to-end percentiles are taken over:
    those of the workload's gated call kinds."""
    return [value for kind in workload.gated_kinds
            for value in counts["latencies_ms"].get(kind, [])]


def slice_figures(piece: dict) -> dict:
    """One slice's throughput, gated median latency and CPU cost (a figure
    the slice has no calls for is left out, and a slice whose streams had
    already run out has none)."""
    from servebench.measure import percentile

    if not piece["keys"]:
        return {}
    figures = {"ops_per_s": piece["keys"] / piece["elapsed"]}
    if piece["latencies_ms"]:
        figures["latency_p50_ms"] = percentile(piece["latencies_ms"], 0.5)
    figures["server_cpu_us_per_op"] = piece["cpu_s"] / piece["keys"] * 1e6
    return figures


def end_to_end_metrics(workload, counts: dict, slices, setups, rss_mb):
    """The untraced run's metrics, in ``BENCHMARK.json`` order.

    Throughput, median latency and CPU cost are medians of the per-slice
    figures, so a burst of contention on the host that slows one slice
    does not move them.  Set-up time and memory are medians over the run's
    servers.
    """
    from servebench.measure import Metric

    figures = [figure for figure in map(slice_figures, slices) if figure]

    def median(name: str) -> float:
        return statistics.median(figure[name] for figure in figures
                                 if name in figure)

    calls = sum(len(values) for kind, values
                in counts["latencies_ms"].items() if kind != "barrier")
    return [
        Metric("ops_per_s", median("ops_per_s"), "1/s", calls),
        Metric("latency_p50_ms", median("latency_p50_ms"), "ms",
               len(gated_latencies(workload, counts))),
        Metric("setup_s", statistics.median(setups), "s", len(setups)),
        Metric("server_rss_mb", statistics.median(rss_mb), "MB",
               len(rss_mb)),
        Metric("server_cpu_us_per_op", median("server_cpu_us_per_op"),
               "us", len(figures)),
    ]


def closed_loop_metrics(workload, counts: dict, disk_ratio: float,
                        durable: bool):
    """The closed loop's figures that are not gated: the tail latency of
    the gated call kind over all its calls, barrier latency and disk use
    (zero where the workload has no barriers or no disk)."""
    from servebench.measure import Metric, percentile

    gated = gated_latencies(workload, counts)
    barriers = counts["latencies_ms"].get("barrier", [])
    return [
        Metric("latency_p%d_ms" % round(TAIL_QUANTILE * 100),
               percentile(gated, TAIL_QUANTILE), "ms", len(gated)),
        Metric("barrier_p50_ms",
               percentile(barriers, 0.5) if barriers else 0.0, "ms",
               len(barriers)),
        Metric("disk_bytes_per_live_byte", disk_ratio, "ratio",
               1 if durable else 0),
    ]


def tail_warning(workload, counts: dict) -> list:
    """A warning line when the gated calls do not support the tail."""
    from servebench.measure import MIN_SAMPLES_BEYOND, samples_beyond

    beyond = samples_beyond(len(gated_latencies(workload, counts)),
                            TAIL_QUANTILE)
    if beyond >= MIN_SAMPLES_BEYOND:
        return []
    return ["WARNING: only %d samples beyond the tail percentile; it is not "
            "supported by this run" % beyond]


def kind_report(counts: dict) -> list:
    """One line per call kind: calls, p50, p90 and share of call time."""
    from servebench.measure import percentile

    latencies = counts["latencies_ms"]
    total = sum(sum(values) for values in latencies.values())
    return ["%-13s n=%-6d p50 %9.4g ms  p90 %9.4g ms  %5.1f%% of call "
            "time" % (kind, len(values), percentile(values, 0.5),
                      percentile(values, TAIL_QUANTILE),
                      100.0 * sum(values) / total)
            for kind, values in sorted(latencies.items())]


def measure_slice(workload, server, callers, seconds: float) -> dict:
    """Run the closed loop for ``seconds`` more; the slice's elapsed time,
    keys, server CPU seconds and gated call latencies (ms)."""
    from servebench.loadgen import run_closed_loop

    keys = sum(caller.keys for caller in callers)
    seen = [{kind: len(caller.latencies_s.get(kind, ()))
             for kind in workload.gated_kinds} for caller in callers]
    cpu_s = server.cpu_seconds()
    elapsed = run_closed_loop(callers, seconds)
    return {
        "elapsed": elapsed,
        "keys": sum(caller.keys for caller in callers) - keys,
        "cpu_s": server.cpu_seconds() - cpu_s,
        "latencies_ms": [value * 1000.0 for caller, counts
                         in zip(callers, seen)
                         for kind in workload.gated_kinds
                         for value in caller.latencies_s.get(
                             kind, [])[counts[kind]:]],
    }


def run_untraced(workload, preload, streams, seconds, scratch):
    """Set the store up :data:`SETUPS` times.  Each store serves
    :data:`SLICES_PER_SETUP` equal slices of the measured time, replaying
    every connection's stream from its start, and is checked and drained
    after them, so a run spreads over that many server processes."""
    from servebench.loadgen import Caller

    setups, rss_mb, disk_ratios, callers, slices = [], [], [], [], []
    problems = []
    for _ in range(SETUPS):
        session = Session(workload, preload, scratch)
        try:
            setups.append(session.setup())
            slice_callers = [Caller(client, stream) for client, stream
                             in zip(session.clients, streams)]
            for _ in range(SLICES_PER_SETUP):
                slices.append(measure_slice(
                    workload, session.server, slice_callers,
                    seconds / (SETUPS * SLICES_PER_SETUP)))
            rss_mb.append(session.server.rss_mb())
            disk_ratios.append(session.finish(streams, slice_callers))
            problems.extend(session.problems)
        finally:
            session.close()
        callers.extend(slice_callers)
    counts = tally(callers)
    info = ["%s %.6g (n=%d)" % (metric.name, metric.value, metric.samples)
            for metric in closed_loop_metrics(
                workload, counts, statistics.median(disk_ratios),
                session.durable)
            if metric.samples]
    info.append("fail_frac %.6g (%d of %d calls)"
                % (counts["failed"] / max(1, counts["attempted"]),
                   counts["failed"], counts["attempted"]))
    info.extend(kind_report(counts))
    info.extend("slice %d: %s" % (index, json.dumps(slice_figures(piece)))
                for index, piece in enumerate(slices))
    info.extend(tail_warning(workload, counts))
    return (end_to_end_metrics(workload, counts, slices, setups, rss_mb),
            counts, problems, info)


def call_seconds(callers) -> float:
    """Client seconds the callers spent in data calls (not barriers)."""
    return sum(sum(values) for caller in callers
               for kind, values in caller.latencies_s.items()
               if kind != "barrier")


def run_traced(workload, preload, streams, seconds, scratch, span_path):
    """Two servers of the same store, one with the program's request
    tracing on (``repro serve --telemetry``), serve alternating slices
    (ABBA order) of the same streams, each replayed from its start.  Then
    the ladder runs against the untraced server, whose closed-loop call
    times it is checked against."""
    from servebench.ladder import Ladder
    from servebench.loadgen import Caller, run_closed_loop
    from servebench.measure import Metric, SpanLog

    sessions = [Session(workload, preload, scratch),
                Session(workload, preload, scratch, telemetry=True)]
    logs = [SpanLog(), SpanLog()]
    rates = [[0, 0.0], [0, 0.0]]
    try:
        for session in sessions:
            session.setup()
        callers = [[Caller(client, stream) for client, stream
                    in zip(session.clients, streams)]
                   for session in sessions]
        for index in range(TRACE_SLICES):
            side = (index + 1) // 2 % 2
            keys_before = sum(caller.keys for caller in callers[side])
            rates[side][1] += run_closed_loop(
                callers[side], seconds / TRACE_SLICES, logs[side])
            rates[side][0] += sum(caller.keys for caller in callers[side]) \
                - keys_before
        loop_s_per_key = call_seconds(callers[0]) / sum(
            caller.keys for caller in callers[0])

        def closed_reference() -> float:
            """Client seconds per key of one more slice on the untraced
            server (of its whole loop, once its streams have run out)."""
            before = (call_seconds(callers[0]),
                      sum(caller.keys for caller in callers[0]))
            run_closed_loop(callers[0], REFERENCE_SECONDS, logs[0])
            keys = sum(caller.keys for caller in callers[0]) - before[1]
            if not keys:
                return loop_s_per_key
            return (call_seconds(callers[0]) - before[0]) / keys

        ladder = Ladder(workload, preload, streams[0], CONNECTIONS, WORKERS,
                        scratch)
        layer_metrics = ladder.run(sessions[0].server.port,
                                   closed_reference)
        disk_ratio = sessions[0].finish(
            streams, callers[0],
            [(name, ladder.deleted_in()) for name in ladder.namespaces])
        sessions[1].finish(streams, callers[1])
        problems = ladder.wrong + sessions[0].problems + sessions[1].problems
    finally:
        for session in sessions:
            session.close()
    spans = logs[0]
    spans.spans.extend(ladder.spans.spans)
    spans.write(span_path)
    counts = tally(callers[0])
    both = tally(callers[0] + callers[1])
    counts["attempted"] = both["attempted"] + len(ladder.requests) * len(
        ladder.namespaces)
    counts["failed"] = both["failed"]
    counts["wrong"] = both["wrong"]
    counts["errors"] = both["errors"]
    untraced = rates[0][0] / rates[0][1]
    traced = rates[1][0] / rates[1][1]
    metrics = layer_metrics + [
        Metric("trace.overhead_frac", 1.0 - traced / untraced, "ratio",
               rates[0][0] + rates[1][0]),
    ] + closed_loop_metrics(workload, counts, disk_ratio,
                            sessions[0].durable)
    info = ["LADDER SELF-CHECK FAILED: " + line for line in ladder.check] \
        or ["ladder self-check passed"]
    info.extend(tail_warning(workload, counts))
    return metrics, counts, problems, info


def benchmark_names(trace: bool):
    """The metric names ``BENCHMARK.json`` promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [entry["name"]
            for entry in spec["per_layer" if trace else "end_to_end"]]


def stop_resource_tracker() -> None:
    """Stop (and reap) the helper process ``multiprocessing`` starts for the
    in-process engines' shared memory, so the run leaves no process."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _terminate(signum, _frame) -> None:
    """SIGTERM/SIGINT unwind through every ``finally``, which stops the
    server this run started."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _terminate)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: the program's source (src/repro) is not here; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from servebench.measure import result_line, table
    from servebench.server import descendants, shm_segments
    from servebench.workloads import WORKLOADS, make_streams

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    preload, streams = make_streams(workload, args.seed, CONNECTIONS,
                                    args.seconds)
    shm_before = shm_segments()
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if args.trace:
            metrics, counts, problems, info = run_traced(
                workload, preload, streams, args.seconds, scratch,
                os.path.join(WORK_DIR, "spans-%s-seed%d.jsonl"
                             % (workload.name, args.seed)))
        else:
            metrics, counts, problems, info = run_untraced(
                workload, preload, streams, args.seconds, scratch)
    except Exception:  # noqa: BLE001 - the run failed: no result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = [metric.name for metric in metrics]
    if names != benchmark_names(bool(args.trace)):
        print("error: metrics %s do not match BENCHMARK.json" % names,
              file=sys.stderr)
        return 1
    stop_resource_tracker()
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append("shared-memory segments outlived the run: %s"
                        % leaked)
    children = descendants(os.getpid())
    if children:
        problems.append("processes outlived the run: %s" % sorted(children))
    problems = counts["wrong"] + problems
    print("workload %s seed %d: %d connection(s), %d worker(s), %gs, "
          "trace=%d" % (workload.name, args.seed, CONNECTIONS, WORKERS,
                        args.seconds, args.trace))
    for line in table(metrics) + info:
        print("  " + line)
    for line in problems[:20]:
        print("INCORRECT: " + line)
    for line in counts["errors"][:20]:
        print("FAILED: " + line)
    print(result_line(not problems, counts["attempted"], counts["failed"],
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
