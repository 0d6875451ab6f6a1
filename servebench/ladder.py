"""The traced run's per-layer ladder.

The ladder replays one fixed, seeded request sequence (a prefix of
connection 0's stream, split into the per-shard wire requests the client
sends) through the layers of the store, each rung on fresh state that
holds the same preload:

========================  ================================================
rung (span name)          what is called
========================  ================================================
``api.sharded``           ``ShardedDictionaryEngine``, sequential; its
                          calls into each b-treap shard are ``structure.*``
                          child spans of the same call
``api.process_engine``    the process engine (workers, default data plane)
``replication``           the served config in-process: replicas, op logs,
                          fsync and barriers (durable workloads only)
``net.client``            the served store over loopback, fresh namespace
========================  ================================================

The benchmark records a span around every call into a layer.  The span of
request ``i`` on one rung is the parent of the span of request ``i`` on
the rung below it, and the two ``codec`` spans of a request (its bodies
encoded and decoded in-process) are children of its ``net.client`` span.
A layer's self time is its span time minus the time its child spans
cover, so the ``net.client`` self time is the served round trip minus the
in-process time of the same request on the same engine type minus codec
time: ``server.self_us_per_request``.

Each rung is replayed :data:`REPEATS` times on fresh state, and the
replay with the median total time provides the rung's spans.

**Self-check.**  Two halves, each of which can fail:

* The ladder's client time must describe the closed loop it decomposes.
  Its ``net.client`` time per key is compared with the closed loop's
  client time per key on the same server (the same calls' times as the
  loop's ``client.*`` spans), measured in a short slice of the loop right
  after each served replay, so that both see the host at the same speed.
  The loop runs ``C`` callers at once and the ladder one, so the loop may
  be slower, but by no more than ``C`` times (each call waits behind at
  most ``C - 1`` others), and not faster: the ratio must lie within
  ``[1 / (1 + r), C * (1 + r)]`` with ``r`` = :data:`CLOSED_LOOP_TOLERANCE`.
* No layer's self time may be negative by more than
  :data:`SELF_CHECK_TOLERANCE` of the client's time: a negative self time
  means a rung ran slower than the rung that wraps it, so the
  decomposition would not describe the request.

The result line carries the ratio and the number of failed halves
(``ladder.closed_loop_ratio``, ``ladder.self_check_failures``); a failure
does not mark the program's answers incorrect.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import EngineConfig, make_sharded_engine
from repro.errors import KeyNotFound
from repro.net.protocol import WireCodec, group_for_routing
from repro.replication.oplog import OpLog

from servebench.loadgen import connect, execute
from servebench.measure import Metric, SpanLog, self_seconds
from servebench.server import BLOCK_SIZE, SHARDS, STORE_SEED, STRUCTURE
from servebench.workloads import (
    MISSING,
    Op,
    Stream,
    Workload,
    answer_is_correct,
    value_of,
)

#: Calls of connection 0's stream the ladder replays, per traffic mix.
LADDER_CALLS = {"point-read": 2000, "insert-contains": 40,
                "insert-delete": 40}
#: Fresh replays per rung; the one with the median total is kept.
REPEATS = 3
#: How far below zero a layer's self time may read, as a share of the
#: client's time (timing noise between separate replays).
SELF_CHECK_TOLERANCE = 0.10
#: Slack on the bounds of the closed loop's time over the ladder's: the
#: host's speed drifts between the two measurements, and the loop's calls
#: also wait behind connection 0's barriers, which the per-key times leave
#: out (a server-bound workload reads close to ``C``).
CLOSED_LOOP_TOLERANCE = 0.5

#: In-process rungs, bottom up.
ENGINE_RUNGS = ("api.sharded", "api.process_engine", "replication")
STRUCTURE_METHODS = ("insert", "delete", "search", "contains")

Interval = Tuple[float, float]


def store_config(workload: Workload, workers: int,
                 durability_dir: Optional[str] = None) -> EngineConfig:
    """The served store's config."""
    config = EngineConfig(inner=STRUCTURE, shards=SHARDS,
                          block_size=BLOCK_SIZE, seed=STORE_SEED,
                          parallel="process", max_workers=workers,
                          replication=workload.replication,
                          read_policy=workload.read_policy)
    if workload.durability_mode is not None:
        config = config.replace(durability_dir=durability_dir,
                                durability_mode=workload.durability_mode)
    return config


def sequential_config() -> EngineConfig:
    """The in-memory, single-process twin of every served store."""
    return EngineConfig(inner=STRUCTURE, shards=SHARDS,
                        block_size=BLOCK_SIZE, seed=STORE_SEED)


def split_requests(ops: Sequence[Op], router,
                   shard_ids: Sequence[int]) -> List[Op]:
    """The wire requests the client sends for ``ops``: one per owning shard
    of a bulk call, in shard order, each with its share of the answer."""
    requests = []
    for op in ops:
        if op.kind not in ("insert_many", "contains_many", "delete_many"):
            requests.append(op)
            continue
        groups = group_for_routing(router, shard_ids,
                                   [(key, key) for key in op.keys])
        for _shard, group in sorted(groups.items()):
            positions = [position for position, _key in group]
            keys = tuple(op.keys[position] for position in positions)
            if op.kind == "insert_many":
                expected: object = len(keys)
            else:
                expected = tuple(op.expected[position]
                                 for position in positions)
            requests.append(Op(op.kind, keys, expected))
    return requests


def call_engine(engine, op: Op) -> object:
    """One request on an in-process engine, as the server makes it."""
    if op.kind == "search":
        try:
            return engine.search(op.keys[0])
        except KeyNotFound:
            return MISSING
    if op.kind == "contains":
        return engine.contains(op.keys[0])
    if op.kind == "insert_many":
        return engine.insert_many([(key, value_of(key)) for key in op.keys])
    if op.kind == "contains_many":
        return engine.contains_many(op.keys)
    if op.kind == "delete_many":
        return engine.delete_many(op.keys)
    return engine.barrier()


def time_structure_calls(structure, calls: List[Tuple[str, float, float]]
                         ) -> None:
    """Record every call the engine makes into the shards of
    ``structure`` as ``(method, start, end)`` in ``calls``."""
    clock = time.perf_counter

    def timed(method: str, bound: Callable) -> Callable:
        def call(*args):
            started = clock()
            try:
                return bound(*args)
            finally:
                calls.append((method, started, clock()))
        return call

    for shard in structure.shards:
        for method in STRUCTURE_METHODS:
            setattr(shard, method, timed(method, getattr(shard, method)))


class Replay:
    """One replay of the request sequence on one rung."""

    def __init__(self) -> None:
        self.intervals: List[Interval] = []
        #: Per data request: the structure calls it made (``api.sharded``).
        self.structure: List[List[Tuple[str, float, float]]] = []
        self.barriers_s: List[float] = []
        self.stats: Dict[str, float] = {}

    @property
    def total(self) -> float:
        return sum(end - start for start, end in self.intervals)


class Ladder:
    """Replays the request sequence rung by rung and derives the
    per-layer metrics."""

    def __init__(self, workload: Workload, preload: Sequence[int],
                 stream: Stream, connections: int, workers: int,
                 scratch: str) -> None:
        self.workload = workload
        self.preload = list(preload)
        self.connections = connections
        self.workers = workers
        self.scratch = scratch
        self.durable = workload.durability_mode is not None
        probe = make_sharded_engine(config=sequential_config())
        try:
            self.requests = split_requests(
                stream.ops[:LADDER_CALLS[workload.mix]],
                probe.structure.router, probe.structure.shard_ids)
        finally:
            probe.close()
        self.data = [op for op in self.requests if op.kind != "barrier"]
        self.spans = SpanLog()
        self.wrong: List[str] = []
        #: The self-check's problems (empty when it passes).
        self.check: List[str] = []
        #: Served namespaces the ladder created (audited after the drain).
        self.namespaces: List[str] = []

    def _check(self, rung: str, op: Op, answer: object) -> None:
        if not answer_is_correct(op, answer):
            self.wrong.append("ladder %s: %s %r -> %r" % (
                rung, op.kind, op.keys[:4], answer))

    def _replay(self, rung: str, target, call: Callable) -> Replay:
        replay = Replay()
        clock = time.perf_counter
        for op in self.requests:
            if op.kind == "barrier" and rung not in ("replication",
                                                     "net.client"):
                continue  # only the durable rungs have barriers
            started = clock()
            answer = call(target, op)
            ended = clock()
            self._check(rung, op, answer)
            if op.kind == "barrier":
                replay.barriers_s.append(ended - started)
            else:
                replay.intervals.append((started, ended))
        return replay

    def run_engine(self, rung: str, config: EngineConfig) -> Replay:
        """The request sequence on one fresh, preloaded in-process engine."""
        engine = make_sharded_engine(config=config)
        try:
            engine.insert_many([(key, value_of(key))
                                for key in self.preload])
            calls: List[Tuple[str, float, float]] = []
            if rung == "api.sharded":
                time_structure_calls(engine.structure, calls)
                ios = engine.structure.io_stats().total_ios
            replay = self._replay(rung, engine, call_engine)
            if rung == "api.sharded":
                replay.stats["structure.ios"] = \
                    engine.structure.io_stats().total_ios - ios
                replay.structure = _assign(calls, replay.intervals)
            return replay
        finally:
            engine.close()

    def run_served(self, port: int, namespace: str) -> Replay:
        """The request sequence over the wire on a fresh namespace of the
        running server, with the namespace's stats delta."""
        self.namespaces.append(namespace)
        with connect(port, namespace=namespace) as client:
            pairs = [(key, value_of(key)) for key in self.preload]
            for start in range(0, len(pairs), 1000):
                client.insert_many(pairs[start:start + 1000])
            before = client.stats()
            replay = self._replay("net.client", client, execute)
            after = client.stats()
        replay.stats = {name: float(after[name]) - float(before.get(name, 0))
                        for name in after
                        if isinstance(after[name], (int, float))}
        return replay

    def codec_intervals(self) -> Tuple[List[Tuple[Interval, Interval]], int]:
        """Encode, then decode, each request's body and its reply's values
        with the wire codec, in-process; returns the intervals and the
        encoded bytes."""
        codec = WireCodec()
        clock = time.perf_counter
        intervals = []
        size = 0
        for op in self.data:
            if op.kind == "insert_many":
                bodies = [[(key, value_of(key)) for key in op.keys]]
            else:
                bodies = [list(op.keys)]
            if op.kind == "search":
                bodies.append([None if op.expected is MISSING
                               else op.expected])
            elif op.kind == "delete_many":
                bodies.append(list(op.expected))
            started = clock()
            encoded = [codec.encode_values(values) for values in bodies]
            if op.kind == "contains_many":
                encoded.append(WireCodec.encode_flags(op.expected))
                bodies.append(list(op.expected))
            middle = clock()
            for (tag, blob), values in zip(encoded, bodies):
                codec.decode_body(tag, blob, len(values))
                size += len(blob)
            intervals.append(((started, middle), (middle, clock())))
        return intervals, size

    def commit_ms(self) -> List[float]:
        """``OpLog.append`` per key plus one ``commit`` per write request,
        fsync on, over the request sequence's writes."""
        times = []
        path = os.path.join(self.scratch, "ladder.oplog")
        with OpLog(path, fsync=True, truncate=True) as log:
            for op in self.data:
                if not op.writes:
                    continue
                started = time.perf_counter()
                for key in op.keys:
                    if op.kind == "insert_many":
                        log.append("insert", key, value_of(key))
                    else:
                        log.append("delete", key)
                log.commit()
                times.append((time.perf_counter() - started) * 1000.0)
        os.unlink(path)
        return times

    def run(self, port: int,
            closed_reference: Callable[[], float]) -> List[Metric]:
        """Run every rung; return the per-layer metrics.  After each
        replay on the server at ``port``, ``closed_reference()`` runs a
        slice of the closed loop there and returns its client seconds per
        key, which the self-check compares with."""
        process = store_config(self.workload, self.workers).replace(
            replication=1, read_policy="primary", durability_dir=None,
            durability_mode="logged")
        references = []

        def served(index: int) -> Replay:
            replay = self.run_served(port, "ladder-%d" % index)
            references.append(closed_reference())
            return replay

        makers = {
            "api.sharded": lambda index: self.run_engine(
                "api.sharded", sequential_config()),
            "api.process_engine": lambda index: self.run_engine(
                "api.process_engine", process),
            "net.client": served,
        }
        if self.durable:
            makers["replication"] = lambda index: self.run_engine(
                "replication", store_config(
                    self.workload, self.workers,
                    os.path.join(self.scratch, "ladder-%d" % index)))
        replays = {}
        for rung, make in makers.items():
            runs = sorted((make(index) for index in range(REPEATS)),
                          key=lambda replay: replay.total)
            replays[rung] = runs[len(runs) // 2]
        codec, codec_bytes = self.codec_intervals()
        self._record_spans(replays, codec)
        return self._metrics(replays, codec_bytes,
                             self.commit_ms() if self.durable else [],
                             statistics.median(references))

    def _record_spans(self, replays: Dict[str, Replay], codec) -> None:
        for index, op in enumerate(self.data):
            root = self.spans.add("net.client",
                                  *replays["net.client"].intervals[index],
                                  request=index)
            self.spans.add("codec.encode", *codec[index][0], request=index,
                           parent=root)
            self.spans.add("codec.decode", *codec[index][1], request=index,
                           parent=root)
            parent = root
            for rung in reversed(ENGINE_RUNGS):
                if rung in replays:
                    parent = self.spans.add(
                        rung, *replays[rung].intervals[index],
                        request=index, parent=parent)
            for method, started, ended in \
                    replays["api.sharded"].structure[index]:
                self.spans.add("structure." + method, started, ended,
                               request=index, parent=parent)

    def _metrics(self, replays: Dict[str, Replay], codec_bytes: int,
                 commit: Sequence[float],
                 closed_s_per_key: float) -> List[Metric]:
        spans = self.spans.spans
        own = self_seconds(spans)
        delta = replays["net.client"].stats
        requests = len(self.data)
        keys = sum(len(op.keys) for op in self.data)
        reads = sum(len(op.keys) for op in self.data if not op.writes)
        writes = sum(1 for op in self.data if op.writes)
        client_s = sum(span.seconds for span in spans
                       if span.name == "net.client")

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def structure_us(methods: Sequence[str]) -> Metric:
            names = ["structure." + method for method in methods]
            chosen = [span.seconds for span in spans if span.name in names]
            return Metric("structure.us_per_key." + methods[0]
                          if len(methods) == 1 else
                          "structure.us_per_key.lookup",
                          ratio(sum(chosen), len(chosen)) * 1e6, "us",
                          len(chosen))

        def histogram(suffix: str) -> float:
            return sum(value for name, value in delta.items()
                       if name.startswith("engine.latency.")
                       and name.endswith(suffix))

        closed_loop_ratio = ratio(closed_s_per_key, ratio(client_s, keys))
        self.check = self_check(own, client_s, closed_loop_ratio,
                                self.connections)
        barriers = delta.get("erasure.barriers", 0.0)
        barrier_s = replays["replication"].barriers_s if self.durable else []
        metrics = [
            Metric("client.us_per_request", ratio(client_s, requests) * 1e6,
                   "us", requests),
            Metric("server.self_us_per_request",
                   ratio(own["net.client"], requests) * 1e6, "us",
                   requests),
            Metric("server.engine_us_per_call",
                   ratio(histogram(".sum_ms"), histogram(".count")) * 1e3,
                   "us", int(histogram(".count"))),
            Metric("codec.encode_us_per_key",
                   ratio(own["codec.encode"], keys) * 1e6, "us", keys),
            Metric("codec.decode_us_per_key",
                   ratio(own["codec.decode"], keys) * 1e6, "us", keys),
            Metric("codec.bytes_per_key", ratio(codec_bytes, keys), "bytes",
                   keys),
            Metric("process.self_us_per_call",
                   ratio(own["api.process_engine"], requests) * 1e6, "us",
                   requests),
            Metric("process.bytes_per_key",
                   ratio(delta.get("plane.bytes", 0.0), keys), "bytes",
                   keys),
            Metric("process.frames_per_call",
                   ratio(delta.get("plane.frames", 0.0), requests), "count",
                   requests),
            Metric("replication.self_us_per_key",
                   ratio(own.get("replication", 0.0), keys) * 1e6, "us",
                   keys if self.durable else 0),
            Metric("oplog.fsyncs_per_write_call",
                   ratio(delta.get("plane.fsync_batches", 0.0), writes),
                   "count", writes),
            Metric("oplog.commit_ms", ratio(sum(commit), len(commit)), "ms",
                   len(commit)),
            Metric("replication.replica_read_frac",
                   ratio(delta.get("replica_reads.replica_reads", 0.0),
                         reads), "ratio", reads),
            Metric("barrier.self_ms",
                   statistics.median(barrier_s) * 1e3 if barrier_s else 0.0,
                   "ms", len(barrier_s)),
            Metric("erasure.redactions_per_barrier",
                   ratio(delta.get("erasure.redactions", 0.0), barriers),
                   "count", int(barriers)),
            Metric("sharded.self_us_per_key",
                   ratio(own["api.sharded"], keys) * 1e6, "us", keys),
            structure_us(("search", "contains")),
            structure_us(("insert",)),
            structure_us(("delete",)),
            Metric("structure.ios_per_key",
                   ratio(replays["api.sharded"].stats["structure.ios"],
                         keys), "count", keys),
            Metric("ladder.closed_loop_ratio", closed_loop_ratio, "ratio",
                   requests),
            Metric("ladder.self_check_failures", float(len(self.check)),
                   "count", requests),
        ]
        return metrics

    def deleted_in(self) -> List[int]:
        """Keys the request sequence deletes (in each served namespace)."""
        return [key for op in self.data if op.kind == "delete_many"
                for key in op.keys]


def _assign(calls: Sequence[Tuple[str, float, float]],
            intervals: Sequence[Interval]
            ) -> List[List[Tuple[str, float, float]]]:
    """Group structure calls under the request interval they fell in."""
    grouped: List[List[Tuple[str, float, float]]] = [[] for _ in intervals]
    index = 0
    for call in calls:
        while call[1] > intervals[index][1]:
            index += 1
        grouped[index].append(call)
    return grouped


def self_check(own: Dict[str, float], client_s: float,
               closed_loop_ratio: float, connections: int) -> List[str]:
    """Problems with the decomposition (empty when it holds); see the
    module docstring."""
    problems = []
    low = 1.0 / (1.0 + CLOSED_LOOP_TOLERANCE)
    high = connections * (1.0 + CLOSED_LOOP_TOLERANCE)
    if not low <= closed_loop_ratio <= high:
        problems.append("the closed loop's client time per key is %.3g "
                        "times the ladder's, outside [%.3g, %.3g]"
                        % (closed_loop_ratio, low, high))
    for name, value in sorted(own.items()):
        if value < -SELF_CHECK_TOLERANCE * client_s:
            problems.append("layer %s has self time %.6fs, below -%g of the "
                            "client's %.6fs" % (name, value,
                                                SELF_CHECK_TOLERANCE,
                                                client_s))
    return problems
