"""F7 — replay cost.

The paper replays with a Pin-based software tool, much slower than native
recording. Our replayer is also software: we report replay wall time
against record wall time and verify every replay.

Shape: replay is the same order of magnitude as recording in this
simulator (both are interpreters); the paper's hardware-vs-software gap
does not exist here, and EXPERIMENTS.md discusses the difference. The
committed table lists the verified workloads; the host-time ratios are
printed only.
"""

import time

from repro import session
from repro.analysis.report import render_table

from conftest import BENCH_SEED, BenchSuite, publish

NAMES = ("fft", "lu", "water", "raytrace", "counter", "iobound")


def test_f7_replay_cost(benchmark, suite: BenchSuite):
    rows = []
    replays = {}

    def replay_all():
        for name in NAMES:
            outcome = suite.record(name)
            start = time.perf_counter()
            replays[name] = (session.replay_recording(outcome.recording),
                             time.perf_counter() - start)

    benchmark.pedantic(replay_all, rounds=1, iterations=1)

    for name in NAMES:
        outcome = suite.record(name)
        program, inputs = suite.build(name)
        start = time.perf_counter()
        session.record(program, seed=BENCH_SEED, input_files=inputs)
        record_seconds = time.perf_counter() - start
        replayed, replay_seconds = replays[name]
        report = session.verify(outcome, replayed)
        assert report.ok, f"{name}: {report.summary()}"
        rows.append((name, outcome.instructions, "yes", record_seconds * 1000,
                     replay_seconds * 1000,
                     replay_seconds / max(record_seconds, 1e-9)))

    # The committed figure holds only the deterministic columns; the host
    # timings and their ratio are printed, so a suite run leaves the
    # result unchanged.
    publish("f7_replay", render_table(
        ("workload", "instructions", "verified"),
        [row[:3] for row in rows],
        title="F7: replayed workloads (every replay verified)"))
    print(render_table(
        ("workload", "record ms", "replay ms", "replay/record"),
        [(row[0], *row[3:]) for row in rows],
        title="F7: replay vs record cost (host time)"))

    # replay should not be catastrophically slower than recording here
    assert all(row[5] < 10 for row in rows)
