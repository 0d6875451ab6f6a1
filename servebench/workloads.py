"""Workload definitions, key ownership and the seeded op streams.

Every input of a run comes from ``--seed``: the preloaded keys, and one
pre-generated op stream per connection.  The streams only contain ops
whose outcome is defined by the current contract of the store:

* inserts of keys that are absent (fresh keys, never used before);
* deletes of keys that are present (keys the connection owns);
* reads of any key, hits and misses alike.

Failing batches (a duplicate insert, a delete of an absent key) are out of
scope until the bulk-op failure contract is written down; the streams
never produce one.

**Ownership keeps the oracle exact under concurrency.**  Connection ``c``
of ``C`` owns the preloaded keys at positions ``c, c + C, ...`` and every
fresh key ``FRESH_BASE + i * C + c``.  A connection writes and deletes
only keys it owns, and a key that more than one connection reads is never
written after the preload.  So the expected answer of every op is known
when the stream is generated, and the final contents of the store are a
function of how many ops each connection completed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Preloaded keys are drawn from ``[0, KEY_SPACE)``.
KEY_SPACE = 10 ** 8
#: Fresh key ``i`` of connection ``c`` of ``C`` is ``FRESH_BASE + i*C + c``.
FRESH_BASE = 2 * 10 ** 8
#: Keys at or above ``MISS_BASE`` are never inserted: reads of them miss.
MISS_BASE = 4 * 10 ** 8
#: Key ``k`` stores ``VALUE_BASE + k``.  Values and keys are disjoint, so a
#: deleted key's byte pattern can never be a live value's bytes: the
#: forensics audit of the durability directory is exact.
VALUE_BASE = 10 ** 12
#: Bytes of user payload per live entry: an 8-byte key and an 8-byte value.
PAYLOAD_BYTES_PER_ENTRY = 16

#: Zipf exponent of the point-read key popularity (YCSB's default).
ZIPF_S = 0.99
#: Share of point reads that ask for a preloaded key: most lookups of a
#: served store find their key, and the remaining fifth keeps the typed
#: ``KeyNotFound`` reply path in every run with thousands of samples.
READ_HIT_SHARE = 0.8
#: Share of a ``contains_many`` batch that asks for a present key.  Nothing
#: in the workload's purpose favours either answer, so both are equally
#: likely (and both walk a shard's tree to a leaf).
BULK_HIT_SHARE = 0.5

#: Marks a ``search`` whose correct answer is the typed ``KeyNotFound``.
MISSING = object()


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the store it runs against."""

    name: str
    #: ``"point-read"``, ``"insert-contains"`` or ``"insert-delete"``.
    mix: str
    #: ``None`` (in-memory store), ``"logged"`` or ``"secure"``.
    durability_mode: Optional[str]
    replication: int
    read_policy: str
    preload: int
    #: Keys per write call (1 for the point-op mix) and per
    #: ``contains_many`` call.
    batch: int
    read_batch: int
    #: Connection 0 issues a barrier after this many of its write calls
    #: (0: never).
    barrier_every: int
    #: Upper bound on calls per second per connection; sizes the stream.
    max_calls_per_s: int
    #: The call kinds whose latency the end-to-end percentiles report: the
    #: kind the workload exists to measure.  Pooling two kinds of very
    #: different cost would put the median on the edge between them.
    gated_kinds: Tuple[str, ...]
    #: Cap on the fresh keys all connections insert into one store:
    #: ``items()`` must fit one reply frame (8 MiB, 121k pairs).  A run
    #: whose streams end before ``--seconds`` measures the time they took.
    max_fresh_keys: int = 0


#: Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="serve-read",
        mix="point-read", durability_mode=None, replication=1,
        read_policy="primary", preload=20_000, batch=1, read_batch=1,
        barrier_every=0, max_calls_per_s=5_000,
        gated_kinds=("search", "contains")),
    Workload(
        name="ingest-bulk",
        mix="insert-contains", durability_mode="logged", replication=2,
        read_policy="round-robin", preload=4_000, batch=256,
        read_batch=256, barrier_every=0, max_calls_per_s=400,
        gated_kinds=("insert_many",), max_fresh_keys=110_000),
    Workload(
        name="secure-churn",
        mix="insert-delete", durability_mode="secure", replication=2,
        read_policy="round-robin", preload=4_000, batch=32, read_batch=0,
        barrier_every=8, max_calls_per_s=200,
        gated_kinds=("delete_many",)),
)}


@dataclass(frozen=True)
class Op:
    """One client call and its expected answer.

    ``expected`` is the value (or :data:`MISSING`) for ``search``, a bool
    for ``contains``, the inserted count for ``insert_many``, a tuple of
    flags for ``contains_many``, a tuple of values for ``delete_many`` and
    ``None`` for ``barrier``.
    """

    kind: str
    keys: Tuple[int, ...]
    expected: object

    @property
    def writes(self) -> bool:
        return self.kind in ("insert_many", "delete_many")


@dataclass
class Stream:
    """The pre-generated calls of one connection."""

    connection: int
    ops: List[Op]
    #: Read-only streams repeat from the start when they run out.
    cyclic: bool


def value_of(key: int) -> int:
    return VALUE_BASE + key


def owner_of_position(position: int, connections: int) -> int:
    """The connection that owns the preloaded key at ``position``."""
    return position % connections


def fresh_key(connection: int, index: int, connections: int) -> int:
    """The ``index``-th fresh key of ``connection`` (owned by it alone)."""
    return FRESH_BASE + index * connections + connection


def preload_keys(workload: Workload, seed: int) -> List[int]:
    rng = random.Random("%s/%d/preload" % (workload.name, seed))
    return rng.sample(range(KEY_SPACE), workload.preload)


def stream_length(workload: Workload, seconds: float,
                  connections: int) -> int:
    """Calls per connection: enough for ``seconds`` at the rate bound,
    within the fresh-key cap."""
    calls = max(16, int(workload.max_calls_per_s * seconds) + 1)
    if workload.max_fresh_keys:
        # Every other call inserts ``batch`` fresh keys.
        calls = min(calls, 2 * (workload.max_fresh_keys // connections
                                // workload.batch))
    return calls


def make_streams(workload: Workload, seed: int, connections: int,
                 seconds: float) -> Tuple[List[int], List[Stream]]:
    """The preload and one stream per connection for ``seed``."""
    preload = preload_keys(workload, seed)
    calls = stream_length(workload, seconds, connections)
    streams = []
    for connection in range(connections):
        rng = random.Random("%s/%d/conn%d" % (workload.name, seed,
                                              connection))
        if workload.mix == "point-read":
            ops = _point_reads(rng, preload, calls)
        elif workload.mix == "insert-contains":
            ops = _insert_contains(rng, workload, preload, connection,
                                   connections, calls)
        else:
            ops = _insert_delete(rng, workload, preload, connection,
                                 connections, calls)
        streams.append(Stream(connection=connection, ops=ops,
                              cyclic=workload.mix == "point-read"))
    return preload, streams


def _zipf_cum_weights(count: int) -> List[float]:
    return list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(count)))


def _point_reads(rng: random.Random, preload: Sequence[int],
                 calls: int) -> List[Op]:
    """Skewed single-key reads: hot preloaded keys and hot absent keys."""
    misses = [MISS_BASE + rank for rank in range(max(1, len(preload) // 4))]
    hit_keys = rng.choices(preload, cum_weights=_zipf_cum_weights(
        len(preload)), k=calls)
    miss_keys = rng.choices(misses, cum_weights=_zipf_cum_weights(
        len(misses)), k=calls)
    ops = []
    for index in range(calls):
        hit = rng.random() < READ_HIT_SHARE
        key = hit_keys[index] if hit else miss_keys[index]
        if rng.random() < 0.5:
            ops.append(Op("search", (key,),
                          value_of(key) if hit else MISSING))
        else:
            ops.append(Op("contains", (key,), hit))
    return ops


def _fresh_batch(workload: Workload, connection: int, connections: int,
                 next_fresh: int) -> Tuple[int, ...]:
    return tuple(fresh_key(connection, index, connections)
                 for index in range(next_fresh, next_fresh + workload.batch))


def _insert_contains(rng: random.Random, workload: Workload,
                     preload: Sequence[int], connection: int,
                     connections: int, calls: int) -> List[Op]:
    """Fresh inserts alternating with reads of present and absent keys.

    Nothing is ever deleted, so every preloaded key stays present and any
    connection may read it; fresh keys are read only by their owner.
    """
    present = list(preload)
    ops = []
    next_fresh = 0
    for index in range(calls):
        if index % 2 == 0:
            keys = _fresh_batch(workload, connection, connections,
                                next_fresh)
            next_fresh += workload.batch
            present.extend(keys)
            ops.append(Op("insert_many", keys, len(keys)))
            continue
        keys, flags = [], []
        for _ in range(workload.read_batch):
            if rng.random() < BULK_HIT_SHARE:
                keys.append(rng.choice(present))
                flags.append(True)
            else:
                keys.append(rng.randrange(MISS_BASE, MISS_BASE + KEY_SPACE))
                flags.append(False)
        ops.append(Op("contains_many", tuple(keys), tuple(flags)))
    return ops


def _insert_delete(rng: random.Random, workload: Workload,
                   preload: Sequence[int], connection: int,
                   connections: int, calls: int) -> List[Op]:
    """Fresh inserts alternating with deletes of owned live keys.

    The live set of each connection keeps its size; connection 0 adds a
    barrier after every ``barrier_every`` write calls.
    """
    live = [key for position, key in enumerate(preload)
            if owner_of_position(position, connections) == connection]
    ops = []
    next_fresh = 0
    writes = 0
    for index in range(calls):
        if index % 2 == 0:
            keys = _fresh_batch(workload, connection, connections,
                                next_fresh)
            next_fresh += workload.batch
            live.extend(keys)
            ops.append(Op("insert_many", keys, len(keys)))
        else:
            doomed = []
            for pick in sorted(rng.sample(range(len(live)), workload.batch),
                               reverse=True):
                doomed.append(live[pick])
                live[pick] = live[-1]
                live.pop()
            ops.append(Op("delete_many", tuple(doomed),
                          tuple(value_of(key) for key in doomed)))
        writes += 1
        if (connection == 0 and workload.barrier_every
                and writes % workload.barrier_every == 0):
            ops.append(Op("barrier", (), None))
    return ops


def completed_ops(stream: Stream, completed: int) -> List[Op]:
    """The ops a connection finished, in order; a cyclic stream never
    writes, so its ops leave the contents as preloaded."""
    if stream.cyclic:
        return []
    return stream.ops[:completed]


def final_state(preload: Sequence[int], streams: Sequence[Stream],
                completed: Sequence[int]) -> Dict[int, int]:
    """The exact contents after each connection finished its prefix.

    Connections touch disjoint key sets, so the order in which their
    writes interleaved does not matter.
    """
    state = {key: value_of(key) for key in preload}
    for stream, count in zip(streams, completed):
        for op in completed_ops(stream, count):
            if op.kind == "insert_many":
                for key in op.keys:
                    state[key] = value_of(key)
            elif op.kind == "delete_many":
                for key in op.keys:
                    del state[key]
    return state


def deleted_keys(streams: Sequence[Stream],
                 completed: Sequence[int]) -> List[int]:
    """Every key a completed op deleted (none is ever re-inserted)."""
    return [key for stream, count in zip(streams, completed)
            for op in completed_ops(stream, count)
            if op.kind == "delete_many" for key in op.keys]


def answer_is_correct(op: Op, answer: object) -> bool:
    """Whether ``answer`` is the store's correct reply to ``op``.

    ``answer`` is :data:`MISSING` when a ``search`` raised the typed
    ``KeyNotFound``; that is the correct reply for an absent key.
    """
    if op.kind == "search":
        return answer is op.expected if op.expected is MISSING \
            else answer == op.expected
    if op.kind in ("contains_many", "delete_many"):
        return tuple(answer) == op.expected
    if op.kind == "barrier":
        return isinstance(answer, dict)
    return answer == op.expected
