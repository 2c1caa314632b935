#!/usr/bin/env python3
"""Time-travel debugging: find the exact chunk where an invariant breaks.

A three-thread program maintains the invariant ``ledger == 100 * entries``
but one update path is non-atomic. We record a run where the final state
violates the invariant, then use the ReplayInspector as a deterministic
debugger:

1. binary-search-free: replay forward checking the invariant after every
   chunk until it first breaks;
2. zoom in on the interleaving window around the guilty chunk;
3. rewind (fresh inspector), stop one chunk earlier, and dump both
   threads' registers and upcoming code — the state a developer would
   inspect at the moment the bug fires.

Run:  python examples/time_travel_debug.py
"""

from repro import KernelBuilder, session
from repro.analysis.timeline import interleaving_window, render_timeline
from repro.replay.inspect import ReplayInspector
from repro.replay.schedule import build_schedule

UPDATES = 40


def build_program():
    b = KernelBuilder()
    b.word("ledger", 0)
    b.word("entries", 0)
    b.space("stacks", 2 * 4096)
    b.label("main")
    for tid in (1, 2):
        b.ins("mov", "r9", "stacks")
        b.ins("add", "r9", "r9", tid * 4096 - 16)
        b.spawn("worker", "r9", tid)
    b.ins("mov", "rdi", 0)
    b.ins("call", "body")
    wait = b.label("wait")
    b.ins("pause")
    b.ins("load", "r7", "[entries]")
    b.ins("cmp", "r7", 3 * UPDATES)
    b.ins("jne", wait)
    b.exit(0)
    b.label("worker")
    b.ins("call", "body")
    b.exit(0)
    # BUG: ledger += 100 and entries += 1 are two non-atomic racy updates
    b.label("body")
    with b.for_range("r6", 0, UPDATES):
        b.ins("load", "r7", "[ledger]")
        b.ins("add", "r7", "r7", 100)
        b.ins("store", "[ledger]", "r7")
        b.ins("mov", "r8", 1)
        b.ins("xadd", "[entries]", "r8")
    b.ins("ret")
    return b.build("ledger")


def invariant_broken(inspector: ReplayInspector) -> bool:
    # Each iteration commits ledger += 100 strictly before entries += 1
    # (the xadd fences the store out), so in a correct run
    # ledger >= 100 * entries at every chunk boundary. Falling behind
    # means a ledger update was lost to the race.
    return (inspector.read_word("ledger")
            < 100 * inspector.read_word("entries"))


def main() -> None:
    program = build_program()
    outcome = None
    for seed in range(100):
        candidate = session.record(program, seed=seed)
        probe = ReplayInspector(candidate.recording)
        probe.run_to_end()
        if invariant_broken(probe):
            outcome = candidate
            print(f"seed {seed}: final ledger="
                  f"{probe.read_word('ledger')} but entries="
                  f"{probe.read_word('entries')} — invariant broken, "
                  f"recording captured")
            break
    assert outcome is not None, "no failing run found"

    recording = outcome.recording
    print("\ninterleaving timeline of the failing run:")
    print(render_timeline(recording.chunks, width=64))

    # 1) replay forward until the invariant first breaks
    inspector = ReplayInspector(recording)
    guilty_index = None
    while not inspector.finished:
        inspector.step(1)
        if invariant_broken(inspector):
            guilty_index = inspector.position - 1
            break
    chunk = recording.chunks and build_schedule(
        recording.chunks)[guilty_index]
    print(f"\ninvariant first broken after chunk #{guilty_index} "
          f"(t{chunk.rthread}, ts={chunk.timestamp}, {chunk.reason}): "
          f"ledger={inspector.read_word('ledger')}, "
          f"entries={inspector.read_word('entries')}")

    # 2) zoom in on the schedule around it
    print("\nschedule window:")
    print(interleaving_window(recording.chunks, guilty_index, radius=4))

    # 3) rewind to just before the guilty chunk and inspect thread state
    rewound = ReplayInspector(recording)
    rewound.run_to_index(guilty_index)
    print(f"\nrewound to chunk #{guilty_index}; "
          f"ledger={rewound.read_word('ledger')}, "
          f"entries={rewound.read_word('entries')} (still consistent)")
    victim = chunk.rthread
    view = rewound.thread_view(victim)
    print(f"t{victim} about to run: pc={view.pc}, r7={view.regs[7]} "
          f"(the stale ledger value it will store)")
    print(rewound.disassemble_at(victim, window=2))
    print("\nthe stale add/store pair is about to overwrite another "
          "thread's deposit — deterministically, on every replay.")


if __name__ == "__main__":
    main()
