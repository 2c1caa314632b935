#!/usr/bin/env python3
"""Telemetry: trace and measure a recorded run from the inside.

Opts a SPLASH-style workload into the telemetry subsystem by passing
``session.record`` a ``Telemetry``, records it, replays it with the *same*
telemetry value (so record- and replay-side metrics land in one
snapshot), prints the metrics tables, and exports a Chrome trace-event
JSON file — drag it into https://ui.perfetto.dev to see chunk spans per
R-thread, syscall/futex instants, CBUF drains and per-core cycle tracks.

Run:  python examples/telemetry_trace.py [trace.json]
"""

import sys

from repro import Telemetry, session, workloads
from repro.analysis.report import render_metrics

WORKLOAD = "fft"


def main() -> None:
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "/tmp/quickrec-trace.json"
    telemetry = Telemetry(sampling=16)

    program, inputs = workloads.build(WORKLOAD)
    outcome = session.record(program, seed=7, input_files=inputs,
                             telemetry=telemetry)
    session.replay_recording(outcome.recording, telemetry=telemetry)

    print(render_metrics(telemetry.snapshot()))
    snap = telemetry.snapshot()
    chunks = snap["mrr.chunks_total"]
    fps = snap.get("mrr.bloom_false_positives", 0)
    print(f"\n{WORKLOAD}: {chunks} chunks, "
          f"{snap['capo.input_events']} input events, "
          f"{fps} Bloom false positives, "
          f"{snap['replay.pending_store_stalls']} replay store stalls")

    telemetry.tracer.save(trace_path)
    print(f"trace with {len(telemetry.tracer)} events written to "
          f"{trace_path} — open it in Perfetto")


if __name__ == "__main__":
    main()
