"""Telemetry end-to-end guarantees.

The two contracts the subsystem lives by:

1. *No influence*: enabling telemetry changes nothing observable about the
   run — digests, cycles and the encoded logs are bit-identical to a run
   with it disabled (the disabled path itself is the seed behaviour).
2. *Honesty*: the counters agree with the recording's own ground truth
   (chunk counts, event counts, log sizes) and the exported trace is a
   valid Chrome trace-event document covering every instrumented layer.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro import session, workloads
from repro.capo.events import KINDS
from repro.capo.recording import FLIGHT_META_KEY
from repro.config import DEFAULT_CONFIG
from repro.errors import ConfigError, ReproError
from repro.mrr.chunk import Reason
from repro.mrr.logfmt import encode_chunks
from repro.replay.checkpoint import base_replayer
from repro.telemetry import NULL_TELEMETRY, Telemetry, validate_trace
from repro.telemetry.metrics import Counter as CounterMetric, Histogram
from repro.workloads.base import WorkloadHarness
from tests.replay.test_write_through import BUFFERED_CONFIG


def _record(config=None, **kwargs):
    program, inputs = workloads.build("counter", threads=2)
    return session.record(program, seed=3, config=config,
                          input_files=inputs, **kwargs)


def _traced(sampling=1, **kwargs):
    return _record(telemetry=Telemetry(sampling=sampling), **kwargs)


def test_disabled_run_uses_null_telemetry():
    outcome = _record()
    assert outcome.telemetry is NULL_TELEMETRY
    assert not outcome.telemetry.enabled
    assert len(outcome.telemetry.tracer) == 0
    assert len(outcome.telemetry.metrics) == 0


def test_enabled_run_is_bit_identical_to_disabled():
    plain = _record()
    traced = _traced()
    assert traced.final_memory_digest == plain.final_memory_digest
    assert traced.total_cycles == plain.total_cycles
    assert traced.units == plain.units
    assert traced.rsm_stats == plain.rsm_stats
    # the logs themselves are bit-identical
    assert (encode_chunks(traced.recording.chunks)
            == encode_chunks(plain.recording.chunks))
    assert [dataclasses.astuple(e) for e in traced.recording.events] \
        == [dataclasses.astuple(e) for e in plain.recording.events]


def test_counters_match_recording_totals():
    outcome = _traced()
    recording = outcome.recording
    snap = outcome.telemetry.snapshot()
    assert snap["mrr.chunks_total"] == len(recording.chunks)
    assert snap["capo.input_events"] == len(recording.events)
    assert snap["recording.chunks"] == len(recording.chunks)
    assert snap["recording.chunk_log_bytes"] == recording.chunk_log_bytes()
    assert snap["recording.input_log_bytes"] == recording.input_log_bytes()
    assert snap["kernel.syscalls"] == outcome.kernel_stats["syscalls"]
    # per-reason chunk counters partition the total
    by_reason = sum(value for name, value in snap.items()
                    if name.startswith("mrr.chunks."))
    assert by_reason == len(recording.chunks)
    # chunk-size histogram saw every chunk
    assert snap["mrr.chunk_instructions"]["count"] == len(recording.chunks)


def test_trace_covers_all_recording_layers(tmp_path):
    outcome = _traced()
    tracer = outcome.telemetry.tracer
    assert {"machine", "mrr", "capo", "kernel"} <= tracer.categories()
    document = json.loads(tracer.save(tmp_path / "t.json").read_text())
    assert validate_trace(document) == []


def test_replay_metrics_and_stalls():
    outcome = _traced()
    telemetry = outcome.telemetry
    result = session.replay_recording(outcome.recording, telemetry=telemetry)
    snap = telemetry.snapshot()
    assert snap["replay.chunks"] == result.stats.chunks
    assert snap["replay.schedule_chunks"] == len(outcome.recording.chunks)
    assert snap["replay.events_applied"] == result.stats.events
    assert "replay" in telemetry.tracer.categories()


def test_pending_store_stalls_sum_the_threads_counts():
    """A byte store then a word load of the same word forwards nothing:
    each such load, in a chunk replayed through the FIFO, commits the
    thread's withheld stores, and the metric sums those stalls over every
    replay thread. ``BUFFERED_CONFIG`` cuts short chunks and drains the
    store buffer rarely, so some chunks end with the byte still buffered
    and the next one replays through the FIFO."""
    harness = WorkloadHarness(2, "stalls")
    harness.b.space("cells", 8)
    harness.emit_main()
    harness.b.label("body")
    harness.b.ins("shl", "r1", "rdi", 2)
    harness.b.ins("add", "r1", "r1", "cells")
    with harness.b.for_range("r6", 0, 40):
        harness.b.ins("storeb", "[r1]", 7)
        harness.b.ins("load", "r2", "[r1]")
    harness.b.ins("ret")
    outcome = session.record(harness.build(), seed=1, config=BUFFERED_CONFIG)
    telemetry = Telemetry()
    replayer = base_replayer(outcome.recording, telemetry=telemetry)
    replayer.run()
    stalls = [ctx.withheld.stalls for ctx in replayer.threads.values()]
    assert len(stalls) == 2 and all(stalls)
    assert telemetry.snapshot()["replay.pending_store_stalls"] == sum(stalls)


def test_explicit_telemetry_overrides_config():
    telemetry = Telemetry(sampling=4)
    outcome = _record(telemetry=telemetry)  # the default config
    assert outcome.telemetry is telemetry
    assert telemetry.snapshot()["mrr.chunks_total"] == \
        len(outcome.recording.chunks)


def test_counters_are_read_from_the_stats_twins():
    # The counters with a stats twin are published from it when the run
    # ends, every one of them, even at 0.
    program, inputs = workloads.build("sigping", scale=1)
    telemetry = Telemetry()
    outcome = session.record(program, seed=1, input_files=inputs,
                             telemetry=telemetry)
    snap = telemetry.snapshot()
    bus = outcome.machine_stats["bus"]
    kernel = outcome.kernel_stats
    rsm = outcome.rsm_stats
    assert (snap["machine.bus_reads"], snap["machine.bus_writes"],
            snap["machine.bus_upgrades"]) == (
        bus["reads"], bus["read_exclusives"], bus["upgrades"])
    assert snap["machine.bus.reads"] == bus["reads"]
    for name in ("syscalls", "preemptions", "blocks", "signals_delivered"):
        assert snap[f"kernel.{name}"] == kernel[name]
    for name, count in kernel["syscalls_by_name"].items():
        assert snap[f"kernel.syscalls.{name}"] == count
    assert snap["mrr.chunks_total"] == rsm["chunks"]
    for name in ("cbuf_drains", "input_events", "input_payload_bytes",
                 "input_payload_dedup_bytes"):
        assert snap[f"capo.{name}"] == rsm[name]
    assert snap["capo.sphere_threads"] == len(
        {event.rthread for event in outcome.recording.events})
    assert snap["kernel.signals_delivered"] > 0
    # A run without recording has no RSM, so no capo/mrr counters.
    bare = Telemetry()
    session.simulate(program, seed=1, input_files=inputs, telemetry=bare)
    names = bare.snapshot()
    assert names["kernel.blocks"] == kernel["blocks"]
    assert not any(name.startswith(("capo.", "mrr.")) for name in names)


def _sigping(telemetry, config=None, **kwargs):
    program, inputs = workloads.build("sigping", scale=1)
    return session.record(program, seed=1, input_files=inputs,
                          config=config, telemetry=telemetry, **kwargs)


def _flight_config(window=2):
    return dataclasses.replace(
        DEFAULT_CONFIG,
        capo=dataclasses.replace(DEFAULT_CONFIG.capo, flight_window=window))


def _histogram(values):
    histogram = Histogram("expected")
    for value in values:
        histogram.observe(value)
    return histogram.snapshot()


def test_chunk_and_event_metrics_are_taken_from_the_logs():
    # The per-reason split, the snoop cuts and the size and RSW
    # histograms are the recording's own chunk entries; the per-kind
    # split is its events, every kind present even at 0.
    telemetry = Telemetry()
    outcome = _sigping(telemetry)
    chunks, events = outcome.recording.chunks, outcome.recording.events
    snap = telemetry.snapshot()
    reasons = Counter(chunk.reason for chunk in chunks)
    assert {name: value for name, value in snap.items()
            if name.startswith("mrr.chunks.")} == {
        f"mrr.chunks.{reason}": count for reason, count in reasons.items()}
    assert snap["mrr.snoop_terminations"] == sum(
        reasons[reason] for reason in Reason.CONFLICTS)
    assert snap["mrr.chunk_instructions"] == _histogram(
        chunk.icount for chunk in chunks)
    assert snap["mrr.chunk_rsw"] == _histogram(chunk.rsw for chunk in chunks)
    kinds = Counter(event.kind for event in events)
    assert {kind: snap[f"capo.input_events.{kind}"] for kind in KINDS} == {
        kind: kinds[kind] for kind in KINDS}
    assert 0 in {snap[f"capo.input_events.{kind}"] for kind in KINDS}
    assert snap["kernel.dispatches"] == outcome.kernel_stats["dispatches"]
    assert snap["kernel.futex_wakes"] == \
        outcome.kernel_stats["syscalls_by_name"].get("futex_wake", 0)
    assert snap["machine.store_drains"] == \
        outcome.machine_stats["store_drains"] > 0
    assert snap["machine.coherent_copy_lines"] == \
        outcome.machine_stats["coherent_copy_lines"]


def test_a_flight_window_publishes_what_the_unbounded_run_does():
    # A flight ring keeps no chunk log and evicts its oldest epochs; the
    # chunk metrics still cover every chunk of the run, because every
    # entry passes the CBUF drain handler once in either retention mode.
    unbounded, flight = Telemetry(), Telemetry()
    _sigping(unbounded)
    outcome = _sigping(flight, config=_flight_config())
    full, windowed = unbounded.snapshot(), flight.snapshot()
    assert windowed["capture.evictions"] > 0
    assert len(outcome.recording.chunks) < windowed["mrr.chunks_total"]

    def record_side(snap):
        return {name: value for name, value in snap.items()
                if not name.startswith(("capture.", "recording."))}

    assert record_side(windowed) == record_side(full)
    for telemetry in (unbounded, flight):
        batches = telemetry.metrics.histogram("capo.cbuf_batch_entries")
        assert batches.total == telemetry.snapshot()["mrr.chunks_total"]
    ring = outcome.recording.metadata[FLIGHT_META_KEY]
    assert windowed["capture.chunks_seen"] == ring["chunks_seen"]
    assert windowed["capture.evictions"] == ring["evictions"]
    assert windowed["capture.chunks_retained"] == len(outcome.recording.chunks)
    assert windowed["capture.events_retained"] == len(outcome.recording.events)


def test_a_run_that_raises_counts_the_entries_left_in_the_cbufs():
    telemetry = Telemetry()
    with pytest.raises(ReproError):
        _sigping(telemetry, max_units=5000)
    snap = telemetry.snapshot()
    by_reason = sum(value for name, value in snap.items()
                    if name.startswith("mrr.chunks."))
    assert snap["mrr.chunk_instructions"]["count"] == by_reason \
        == snap["mrr.chunk_rsw"]["count"] == snap["mrr.chunks_total"]
    # Some entries never reached a drain.
    drained = telemetry.metrics.histogram("capo.cbuf_batch_entries").total
    assert 0 < drained < snap["mrr.chunks_total"]


def test_published_metrics_sum_over_the_overhead_passes():
    # measure_overhead shares one Telemetry across its off, hw and full
    # passes: each published counter and histogram is the sum of the
    # three runs' own.
    from repro.perf.overhead import measure_overhead

    program, inputs = workloads.build("sigping", scale=1)
    shared = Telemetry()
    measure_overhead(program, seed=1, input_files=inputs, telemetry=shared)
    passes = []
    for mode in session.MODES:
        telemetry = Telemetry()
        session.simulate(program, seed=1, mode=mode, input_files=inputs,
                         telemetry=telemetry)
        passes.append(telemetry)
    metrics = shared.metrics
    assert metrics.counter("mrr.chunks.syscall").value > 0
    for name, metric in metrics._metrics.items():
        if isinstance(metric, CounterMetric):
            assert metric.value == sum(
                telemetry.metrics.counter(name).value
                for telemetry in passes if name in telemetry.metrics), name
        elif isinstance(metric, Histogram) and name.startswith("mrr.chunk"):
            parts = [telemetry.metrics.histogram(name)
                     for telemetry in passes if name in telemetry.metrics]
            assert len(parts) == 2
            assert metric.count == sum(part.count for part in parts)
            assert metric.total == sum(part.total for part in parts)
            assert metric.buckets == dict(sum(
                (Counter(part.buckets) for part in parts), Counter()))


def test_counters_sum_over_a_shared_telemetry():
    telemetry = Telemetry()
    first = _record(telemetry=telemetry)
    second = _record(telemetry=telemetry)
    snap = telemetry.snapshot()
    assert snap["mrr.chunks_total"] == (first.rsm_stats["chunks"]
                                        + second.rsm_stats["chunks"])
    assert snap["kernel.syscalls"] == 2 * first.kernel_stats["syscalls"]


def test_a_run_that_raises_still_publishes_its_counts():
    program, inputs = workloads.build("sigping", scale=1)
    telemetry = Telemetry()
    try:
        session.record(program, seed=1, input_files=inputs, max_units=5000,
                       telemetry=telemetry)
    except ReproError:
        pass
    else:  # pragma: no cover - the unit budget is far below the run
        raise AssertionError("the run should exceed max_units")
    snap = telemetry.snapshot()
    assert snap["mrr.chunks_total"] > 0
    assert snap["kernel.syscalls"] > 0


def test_bloom_false_positives_counted_under_tiny_signature():
    # A 32-bit signature over a racy workload saturates quickly: snoop
    # hits are then mostly false positives, which the exact shadow sets
    # detect. The run must still record and count every termination.
    program, inputs = workloads.build("counter", threads=4)
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        mrr=dataclasses.replace(DEFAULT_CONFIG.mrr, signature_bits=32,
                                saturation_threshold=1.0))
    outcome = session.record(program, seed=1, config=config,
                             input_files=inputs, telemetry=Telemetry())
    snap = outcome.telemetry.snapshot()
    assert snap["mrr.snoop_terminations"] > 0
    assert snap["mrr.bloom_false_positives"] <= snap["mrr.snoop_terminations"]


def test_telemetry_config_round_trips_in_bundle(tmp_path):
    # Telemetry is not part of the config, so a traced run's bundle
    # carries no telemetry section and loads to the run's config.
    from repro.capo.recording import Recording

    outcome = _traced(sampling=16)
    path = outcome.recording.save(tmp_path / "rec")
    manifest = json.loads((path / "manifest.json").read_text())
    assert "telemetry" not in manifest["config"]
    assert Recording.load(path).config == outcome.recording.config


def test_traced_and_untraced_runs_save_identical_bundles(tmp_path):
    plain = _record().recording.save(tmp_path / "plain")
    traced = _traced(sampling=16).recording.save(tmp_path / "traced")
    names = sorted(entry.name for entry in plain.iterdir())
    assert names == sorted(entry.name for entry in traced.iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes()


def test_old_bundles_without_telemetry_section_load(tmp_path):
    from repro.capo.recording import Recording

    outcome = _record()
    path = outcome.recording.save(tmp_path / "rec")
    manifest = json.loads((path / "manifest.json").read_text())
    assert "telemetry" not in manifest["config"]
    loaded = Recording.load(path)
    assert loaded.config == outcome.recording.config
    assert session.replay_recording(loaded) is not None


def test_bundles_with_a_telemetry_section_load(tmp_path):
    # Bundles written while the config carried a telemetry section.
    from repro.capo.recording import Recording

    outcome = _record()
    path = outcome.recording.save(tmp_path / "rec")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["telemetry"] = {"enabled": True, "sampling": 16}
    manifest_path.write_text(json.dumps(manifest))
    loaded = Recording.load(path)
    assert loaded.config == outcome.recording.config
    result = session.replay_recording(loaded)
    assert session.verify(outcome, result).ok


def test_telemetry_sampling_must_be_positive():
    with pytest.raises(ConfigError):
        Telemetry(sampling=0)
    with pytest.raises(ConfigError):
        Telemetry(enabled=False, sampling=-1)
