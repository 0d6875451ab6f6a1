"""Tests of the benchmark's own logic: no server is started here.

Run with ``PYTHONPATH=src python3 -m pytest servebench -q`` from the root
of the repository.
"""

from __future__ import annotations

import json
import os

import pytest

from servebench import measure, run, workloads
from servebench.ladder import (
    CLOSED_LOOP_TOLERANCE,
    SELF_CHECK_TOLERANCE,
    self_check,
    split_requests,
)
from servebench.loadgen import execute
from servebench.workloads import (
    FRESH_BASE,
    MISS_BASE,
    MISSING,
    WORKLOADS,
    Op,
    answer_is_correct,
    final_state,
    make_streams,
    owner_of_position,
    value_of,
)
from repro.errors import KeyNotFound

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 0.2


def owner_of(key, preload, connections):
    if key >= FRESH_BASE:
        return (key - FRESH_BASE) % connections
    return owner_of_position(preload.index(key), connections)


# --------------------------------------------------------------------------- #
# Key ownership and defined outcomes
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("connections", [1, 2, 3])
def test_connections_write_only_keys_they_own(name, connections):
    preload, streams = make_streams(WORKLOADS[name], 7, connections, SECONDS)
    read_by = {}
    for stream in streams:
        for op in stream.ops:
            for key in op.keys:
                if op.writes:
                    assert owner_of(key, preload, connections) \
                        == stream.connection
                else:
                    read_by.setdefault(key, set()).add(stream.connection)
    written = {key for stream in streams for op in stream.ops if op.writes
               for key in op.keys}
    shared_reads = {key for key, readers in read_by.items()
                    if len(readers) > 1}
    assert not shared_reads & written


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_streams_insert_only_absent_and_delete_only_present_keys(name):
    preload, streams = make_streams(WORKLOADS[name], 3, 2, SECONDS)
    present = set(preload)
    ever = set(preload)
    for stream in streams:
        for op in stream.ops:
            if op.kind == "insert_many":
                assert not set(op.keys) & ever
                assert op.expected == len(op.keys)
                present.update(op.keys)
                ever.update(op.keys)
            elif op.kind == "delete_many":
                assert set(op.keys) <= present
                assert op.expected == tuple(value_of(k) for k in op.keys)
                present.difference_update(op.keys)
            elif op.kind in ("search", "contains"):
                hit = op.keys[0] in present
                assert hit == (op.keys[0] < MISS_BASE)
                if op.kind == "search":
                    assert op.expected == (value_of(op.keys[0]) if hit
                                           else MISSING)
                else:
                    assert op.expected is hit
            elif op.kind == "contains_many":
                assert op.expected == tuple(key in present
                                            for key in op.keys)


def test_streams_are_a_function_of_the_seed():
    workload = WORKLOADS["secure-churn"]
    first = make_streams(workload, 11, 2, SECONDS)
    assert first == make_streams(workload, 11, 2, SECONDS)
    assert first != make_streams(workload, 12, 2, SECONDS)


def test_read_streams_mix_hits_and_misses_with_skew():
    _preload, streams = make_streams(WORKLOADS["serve-read"], 5, 1, 2.0)
    ops = streams[0].ops
    misses = sum(1 for op in ops if op.keys[0] >= MISS_BASE)
    assert 0.1 < misses / len(ops) < 0.3
    counts = {}
    for op in ops:
        counts[op.keys[0]] = counts.get(op.keys[0], 0) + 1
    assert max(counts.values()) > 20 * len(ops) / len(counts)


def test_final_state_follows_completed_prefixes():
    preload, streams = make_streams(WORKLOADS["secure-churn"], 2, 2,
                                    SECONDS)
    state = final_state(preload, streams, [2, 0])
    inserted, deleted = streams[0].ops[0], streams[0].ops[1]
    assert inserted.kind == "insert_many" and deleted.kind == "delete_many"
    assert set(inserted.keys) - set(deleted.keys) <= set(state)
    assert not set(deleted.keys) & set(state)
    assert len(state) == len(preload)
    assert workloads.deleted_keys(streams, [2, 0]) == list(deleted.keys)
    assert final_state(preload, streams, [0, 0]) == {
        key: value_of(key) for key in preload}


# --------------------------------------------------------------------------- #
# Oracle verdicts
# --------------------------------------------------------------------------- #

class _Client:
    """Answers like a store holding ``{1: value_of(1)}``."""

    def search(self, key):
        if key == 1:
            return value_of(1)
        raise KeyNotFound(key)


def test_typed_miss_is_a_correct_answer_not_a_failure():
    miss = Op("search", (2,), MISSING)
    hit = Op("search", (1,), value_of(1))
    assert execute(_Client(), miss) is MISSING
    assert answer_is_correct(miss, execute(_Client(), miss))
    assert answer_is_correct(hit, execute(_Client(), hit))
    assert not answer_is_correct(hit, MISSING)
    assert not answer_is_correct(miss, value_of(2))
    assert not answer_is_correct(miss, None)


def test_bulk_verdicts_compare_every_answer():
    flags = Op("contains_many", (1, 2), (True, False))
    assert answer_is_correct(flags, [True, False])
    assert not answer_is_correct(flags, [True, True])
    deletes = Op("delete_many", (1, 2), (value_of(1), value_of(2)))
    assert answer_is_correct(deletes, [value_of(1), value_of(2)])
    assert not answer_is_correct(deletes, [value_of(1), None])
    assert answer_is_correct(Op("insert_many", (1, 2), 2), 2)
    assert not answer_is_correct(Op("insert_many", (1, 2), 2), 1)
    assert answer_is_correct(Op("contains", (1,), False), False)
    assert not answer_is_correct(Op("contains", (1,), False), True)


# --------------------------------------------------------------------------- #
# Percentiles and their sample-count rule
# --------------------------------------------------------------------------- #

def test_percentile_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(100, 0.9) == 10
    assert measure.percentile_supported(100, 0.9)
    assert not measure.percentile_supported(99, 0.9)
    assert not measure.percentile_supported(999, 0.99)
    assert measure.percentile_supported(1000, 0.99)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile(values[::-1], 0.5) == 50


def test_run_tail_percentile_is_supported_by_a_slow_run():
    # secure-churn completes ~600-750 delete calls in a 25 s run; 300
    # leaves room for a slow host.
    assert measure.percentile_supported(300, run.TAIL_QUANTILE)


# --------------------------------------------------------------------------- #
# Metric names
# --------------------------------------------------------------------------- #

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_end_to_end_names_and_units_match_benchmark_json():
    counts = {"latencies_ms": {"insert_many": [float(i)
                                               for i in range(1, 201)],
                               "contains_many": [1000.0] * 200}}
    # The third slice ran during a burst of host contention.
    slices = [{"elapsed": elapsed, "keys": 1000, "cpu_s": cpu_s,
               "latencies_ms": [latency] * 3}
              for elapsed, cpu_s, latency in ((2.0, 0.005, 5.0),
                                              (2.5, 0.006, 7.0),
                                              (10.0, 0.1, 100.0))]
    metrics = run.end_to_end_metrics(WORKLOADS["ingest-bulk"], counts,
                                     slices, [1.0, 2.0, 3.0], [90.0])
    assert [(m.name, m.unit) for m in metrics] == [
        (entry["name"], entry["unit"]) for entry in _spec()["end_to_end"]]
    values = [metric.value for metric in metrics]
    assert values[:3] == [400.0, 7.0, 2.0]
    assert values[4] == pytest.approx(6.0)
    tail = run.closed_loop_metrics(WORKLOADS["ingest-bulk"], counts, 0.0,
                                   True)[0]
    assert (tail.name, tail.value, tail.samples) == ("latency_p90_ms", 180.0,
                                                     200)
    assert metrics[0].samples == 400


def test_slices_after_the_streams_ran_out_do_not_count():
    counts = {"latencies_ms": {"insert_many": [5.0] * 10}}
    slices = [{"elapsed": 2.0, "keys": 1000, "cpu_s": 0.004,
               "latencies_ms": [5.0] * 5}] * 2 + [
        {"elapsed": 0.0001, "keys": 0, "cpu_s": 0.0, "latencies_ms": []}] * 3
    assert run.slice_figures(slices[-1]) == {}
    metrics = run.end_to_end_metrics(WORKLOADS["ingest-bulk"], counts,
                                     slices, [1.0], [90.0])
    assert [metrics[0].value, metrics[1].value, metrics[4].value] \
        == [500.0, 5.0, pytest.approx(4.0)]
    assert metrics[4].samples == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_percentiles_cover_only_the_gated_call_kind(name):
    workload = WORKLOADS[name]
    _preload, streams = make_streams(workload, 1, 2, SECONDS)
    kinds = {op.kind for stream in streams for op in stream.ops}
    assert set(workload.gated_kinds) <= kinds
    # A slow second kind must not move the gated median.
    counts = {"latencies_ms": {kind: [1.0] * 100 if kind in
                               workload.gated_kinds else [50.0] * 300
                               for kind in kinds}}
    assert run.gated_latencies(workload, counts) == [1.0] * 100 * len(
        workload.gated_kinds)
    lines = run.kind_report(counts)
    assert [line.split()[0] for line in lines] == sorted(kinds)


def test_per_layer_names_and_units_match_benchmark_json():
    from servebench.ladder import Ladder, Replay

    workload = WORKLOADS["secure-churn"]
    preload, streams = make_streams(workload, 1, 2, SECONDS)
    ladder = Ladder(workload, preload, streams[0], 2, 2, "unused")
    replays = {}
    for depth, rung in enumerate(("api.sharded", "api.process_engine",
                                  "replication", "net.client")):
        replay = Replay()
        for index, op in enumerate(ladder.data):
            start = 10.0 * index + 4 - depth
            replay.intervals.append((start, 10.0 * index + 6 + depth))
            replay.structure.append(
                [("insert" if op.kind == "insert_many" else "delete",
                  start + 0.1, start + 0.2)])
        replays[rung] = replay
    replays["api.sharded"].stats["structure.ios"] = 3.0
    replays["replication"].barriers_s = [0.5]
    codec = [((0.0, 0.1), (0.1, 0.2)) for _ in ladder.data]
    ladder._record_spans(replays, codec)
    keys = sum(len(op.keys) for op in ladder.data)
    client_s = sum(end - start
                   for start, end in replays["net.client"].intervals)
    metrics = ladder._metrics(replays, 100, [1.0], 1.5 * client_s / keys)
    assert ladder.check == []
    by_name = {metric.name: metric.value for metric in metrics}
    assert by_name["ladder.closed_loop_ratio"] == pytest.approx(1.5)
    assert by_name["ladder.self_check_failures"] == 0
    layer = [(m.name, m.unit) for m in metrics]
    closed = [(m.name, m.unit)
              for m in run.closed_loop_metrics(
                  workload, {"latencies_ms": {"delete_many": [1.0]}}, 0.0,
                  False)]
    overhead = [("trace.overhead_frac", "ratio")]
    assert layer + overhead + closed == [
        (entry["name"], entry["unit"]) for entry in _spec()["per_layer"]]


def test_self_check_flags_a_rung_slower_than_its_parent():
    assert self_check({"net.client": 0.7, "api.sharded": 0.3}, 1.0, 1.0,
                      2) == []
    slow = self_check({"net.client": -0.5, "api.sharded": 1.5}, 1.0, 1.0,
                      2)
    assert len(slow) == 1 and "net.client" in slow[0]
    assert -0.5 < -SELF_CHECK_TOLERANCE


def test_self_check_bounds_the_closed_loop_against_the_ladder():
    own = {"net.client": 0.7, "api.sharded": 0.3}
    low = 1.0 / (1.0 + CLOSED_LOOP_TOLERANCE)
    high = 2 * (1.0 + CLOSED_LOOP_TOLERANCE)
    assert self_check(own, 1.0, low * 1.001, 2) == []
    assert self_check(own, 1.0, high * 0.999, 2) == []
    # The ladder's client is slower than C concurrent callers...
    assert self_check(own, 1.0, low * 0.99, 2)
    # ... or the closed loop is slower than C callers queueing can explain.
    assert self_check(own, 1.0, high * 1.01, 2)
    assert self_check(own, 1.0, 1.6, 1)


def test_split_requests_cover_every_key_once():
    from repro.api import make_sharded_engine

    from servebench.ladder import sequential_config

    engine = make_sharded_engine(config=sequential_config())
    keys = tuple(range(100))
    op = Op("contains_many", keys, tuple(key % 2 == 0 for key in keys))
    parts = split_requests([op], engine.structure.router,
                           engine.structure.shard_ids)
    assert sorted(key for part in parts for key in part.keys) == list(keys)
    for part in parts:
        assert part.expected == tuple(key % 2 == 0 for key in part.keys)
        assert len({engine.structure.shard_of(key)
                    for key in part.keys}) == 1
