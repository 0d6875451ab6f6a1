"""The closed-loop load generator and its answer checks.

One thread per connection, each a closed-loop caller on its own
:class:`~repro.net.client.ReproClient` with a single pooled socket: it
sends its next call only when the previous one has been answered, and
checks every answer against the expectation the stream carries.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import KeyNotFound, ReproError
from repro.net.client import ReproClient

from servebench.measure import SpanLog
from servebench.workloads import (
    MISSING,
    Op,
    Stream,
    answer_is_correct,
    value_of,
)

CLIENT_TIMEOUT_S = 60.0


def connect(port: int, namespace: str = "default") -> ReproClient:
    return ReproClient("127.0.0.1", port, namespace=namespace, pool_size=1,
                       timeout=CLIENT_TIMEOUT_S)


def execute(client: ReproClient, op: Op) -> object:
    """Issue ``op``; a typed ``KeyNotFound`` from ``search`` is the answer
    :data:`MISSING`, not a failure."""
    if op.kind == "search":
        try:
            return client.search(op.keys[0])
        except KeyNotFound:
            return MISSING
    if op.kind == "contains":
        return client.contains(op.keys[0])
    if op.kind == "insert_many":
        return client.insert_many([(key, value_of(key)) for key in op.keys])
    if op.kind == "contains_many":
        return client.contains_many(op.keys)
    if op.kind == "delete_many":
        return client.delete_many(op.keys)
    if op.kind == "barrier":
        return client.barrier()
    raise ValueError("unknown op kind %r" % (op.kind,))


class Caller:
    """One connection's closed loop over its stream."""

    def __init__(self, client: ReproClient, stream: Stream) -> None:
        self.client = client
        self.stream = stream
        #: Ops finished (answered or failed) so far, across all phases.
        self.completed = 0
        self.stopped = False
        #: Seconds per answered call, by call kind (barriers included).
        self.latencies_s: Dict[str, List[float]] = {}
        self.keys = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.errors: List[str] = []

    def next_op(self) -> Optional[Op]:
        ops = self.stream.ops
        if self.completed >= len(ops) and not self.stream.cyclic:
            return None
        return ops[self.completed % len(ops)]

    def run_until(self, deadline: float,
                  spans: Optional[SpanLog] = None) -> None:
        clock = time.perf_counter
        while not self.stopped and clock() < deadline:
            op = self.next_op()
            if op is None:
                return
            self.attempted += 1
            started = clock()
            try:
                answer = execute(self.client, op)
            except (ReproError, OSError) as error:
                # A failed write leaves its keys in an unknown state, so
                # the oracle cannot follow this connection any further.
                self.failed += 1
                self.errors.append("%s failed: %r" % (op.kind, error))
                self.stopped = op.writes
                if not self.stopped:
                    self.completed += 1
                continue
            ended = clock()
            self.completed += 1
            if spans is not None:
                spans.add("client." + op.kind, started, ended,
                          request=(self.stream.connection << 32)
                          | self.attempted)
            if not answer_is_correct(op, answer):
                self.wrong.append("%s %r -> %r, expected %r" % (
                    op.kind, op.keys[:4], _short(answer), _short(
                        op.expected)))
            self.latencies_s.setdefault(op.kind, []).append(ended - started)
            self.keys += len(op.keys)


def _short(value: object) -> object:
    if isinstance(value, (list, tuple)) and len(value) > 4:
        return tuple(value[:4]) + ("...",)
    return value


def run_closed_loop(callers: Sequence[Caller], seconds: float,
                    spans: Optional[SpanLog] = None) -> float:
    """Run every caller in its own thread for ``seconds``; return the
    elapsed wall time (until the last in-flight call was answered)."""
    started = time.perf_counter()
    deadline = started + seconds
    errors: List[BaseException] = []

    def body(caller: Caller) -> None:
        try:
            caller.run_until(deadline, spans)
        except BaseException as error:  # noqa: B036 - reported below
            errors.append(error)
            raise

    threads = [threading.Thread(target=body, args=(caller,), daemon=True)
               for caller in callers]
    # The streams are large and long-lived: keep the cyclic collector from
    # pausing the callers to scan them.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 2 * CLIENT_TIMEOUT_S)
    finally:
        gc.enable()
        gc.unfreeze()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a caller did not finish its last call")
    if errors:
        raise RuntimeError("a caller crashed: %r" % (errors[0],))
    return time.perf_counter() - started
