#!/usr/bin/env python3
"""Quickstart: record a racy program, inspect the logs, replay, verify.

Builds a four-thread program in which every thread hammers one shared
counter with atomic increments and one shared cache line with plain
(racy) read-modify-writes, records it with the full Capo3 stack, pokes
around the chunk and input logs, then replays the run from the logs alone
and verifies it reproduced the execution bit-for-bit.

Run:  python examples/quickstart.py
"""

from repro import KernelBuilder, session
from repro.analysis.chunks import chunk_size_stats, termination_breakdown


THREADS = 4
ITERS = 400


def build_program():
    b = KernelBuilder()
    b.word("atomic_total", 0)
    b.word("racy_total", 0)
    b.word("done", 0)
    b.space("stacks", THREADS * 4096)
    b.asciz("msg", "counts written\n")
    b.space("out", 8)

    b.label("main")
    for tid in range(1, THREADS):
        b.ins("mov", "r9", "stacks")
        b.ins("add", "r9", "r9", (tid + 1) * 4096 - 16)
        b.spawn("worker", "r9", tid)
    b.ins("mov", "rdi", 0)
    b.ins("call", "body")
    join = b.label("join")
    b.ins("pause")
    b.ins("load", "r7", "[done]")
    b.ins("cmp", "r7", THREADS - 1)
    b.ins("jne", join)
    # write both totals to stdout
    b.ins("load", "r7", "[atomic_total]")
    b.ins("store", "[out]", "r7")
    b.ins("load", "r7", "[racy_total]")
    b.ins("store", "[out + 4]", "r7")
    b.write(1, "out", 8)
    b.exit(0)

    b.label("worker")
    b.ins("call", "body")
    b.ins("mov", "r12", 1)
    b.ins("xadd", "[done]", "r12")
    b.exit(0)

    b.label("body")
    with b.for_range("r6", 0, ITERS):
        b.ins("mov", "r7", 1)
        b.ins("xadd", "[atomic_total]", "r7")      # race-free increment
        b.ins("load", "r8", "[racy_total]")        # racy increment: loads
        b.ins("add", "r8", "r8", 1)                # can interleave and
        b.ins("store", "[racy_total]", "r8")       # drop updates
    b.ins("ret")
    return b.build("quickstart")


def main() -> None:
    program = build_program()
    print(f"program: {len(program)} instructions, "
          f"{len(program.data)} data bytes")

    outcome = session.record(program, seed=2026)
    recording = outcome.recording
    out = outcome.outputs["stdout"]
    atomic_total = int.from_bytes(out[0:4], "little")
    racy_total = int.from_bytes(out[4:8], "little")

    print(f"\nrecorded {outcome.instructions:,} instructions "
          f"on {len(recording.rthreads())} threads")
    print(f"  atomic counter: {atomic_total}  "
          f"(exact: {THREADS * ITERS})")
    print(f"  racy counter:   {racy_total}  "
          f"({THREADS * ITERS - racy_total} updates lost to the race)")

    stats = chunk_size_stats(recording.chunks)
    print(f"\nchunk log: {stats.count} chunks, "
          f"mean {stats.mean:.1f} instructions, "
          f"{recording.chunk_log_bytes():,} B v1 / "
          f"{recording.chunk_log_compressed_bytes():,} B compact")
    print("termination causes:")
    for reason, fraction in termination_breakdown(recording.chunks).items():
        print(f"  {reason:10s} {100 * fraction:5.1f}%")
    print(f"input log: {len(recording.events)} events, "
          f"{recording.input_log_v1_bytes():,} B v1 / "
          f"{recording.input_log_bytes():,} B compact")

    replayed = session.replay_recording(recording)
    report = session.verify(outcome, replayed)
    print(f"\n{report.summary()}")
    replay_out = replayed.outputs["stdout"]
    print("replay reproduced the racy counter exactly:",
          int.from_bytes(replay_out[4:8], "little"), "==", racy_total)
    assert report.ok


if __name__ == "__main__":
    main()
