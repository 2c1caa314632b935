"""Random racy-program generation — soak testing for the recorder.

Generates small multithreaded programs over a handful of shared cache
lines, mixing every recording-relevant mechanism: plain and byte stores,
loads, LOCK atomics, fences, ``rep`` string ops, nondeterministic
instructions, syscalls (time/yield/write), and asynchronous signals. Used
two ways:

- the hypothesis property suites drive :func:`emit_ops` and
  :func:`build_program` with shrinkable op lists (this is what minimized
  two real soundness bugs to a few ops);
- :func:`generate_case` turns a seed into a :class:`FuzzCase`, a subject
  of the equivalence lattice (:mod:`repro.soak`): ``quickrec fuzz`` runs
  seeded campaigns of them, and tier-1 runs seeds 1–3 through the
  lattice's slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..config import (
    KernelConfig,
    MachineConfig,
    SimConfig,
    StoreBufferConfig,
)
from ..isa.builder import KernelBuilder
from ..isa.program import Program

NUM_SLOTS = 6
BUF_WORDS = 8

OP_KINDS = (
    "store", "storeb", "load", "xadd", "xchg", "cmpxchg", "mfence", "pause",
    "alu", "rep_movs", "rep_stos", "rdtsc", "rdrand", "time", "yield",
    "write", "kill", "gettid", "futex_wake",
)


def random_ops(rng: random.Random, max_ops: int = 14) -> list[tuple]:
    """A random op list for one thread (the CLI/soak entry point)."""
    ops: list[tuple] = []
    for _ in range(rng.randint(1, max_ops)):
        kind = rng.choice(OP_KINDS)
        if kind in ("store",):
            ops.append((kind, rng.randrange(NUM_SLOTS), rng.randrange(1001)))
        elif kind == "storeb":
            ops.append((kind, rng.randrange(NUM_SLOTS), rng.randrange(256)))
        elif kind == "load":
            ops.append((kind, rng.randrange(NUM_SLOTS)))
        elif kind in ("xadd", "xchg"):
            ops.append((kind, rng.randrange(NUM_SLOTS), rng.randrange(1, 10)))
        elif kind == "cmpxchg":
            ops.append((kind, rng.randrange(NUM_SLOTS), rng.randrange(4),
                        rng.randrange(1001)))
        elif kind == "alu":
            ops.append((kind, rng.choice(["add", "xor", "mul"]),
                        rng.randrange(100)))
        elif kind in ("rep_movs", "rep_stos"):
            ops.append((kind, rng.randint(1, BUF_WORDS)))
        elif kind == "write":
            ops.append((kind, rng.randint(1, BUF_WORDS)))
        elif kind == "kill":
            ops.append((kind, rng.randint(1, 3)))  # target tid
        else:
            ops.append((kind,))
    return ops


def emit_ops(b: KernelBuilder, ops: list[tuple]) -> None:
    """Emit one thread's op sequence (accumulator in r8)."""
    for op in ops:
        kind = op[0]
        if kind == "store":
            b.ins("store", f"[slots + {4 * op[1]}]", op[2])
        elif kind == "storeb":
            b.ins("storeb", f"[slots + {4 * op[1]}]", op[2])
        elif kind == "load":
            b.ins("load", "r7", f"[slots + {4 * op[1]}]")
            b.ins("add", "r8", "r8", "r7")
        elif kind == "xadd":
            b.ins("mov", "r7", op[2])
            b.ins("xadd", f"[slots + {4 * op[1]}]", "r7")
            b.ins("add", "r8", "r8", "r7")
        elif kind == "xchg":
            b.ins("mov", "r7", op[2])
            b.ins("xchg", f"[slots + {4 * op[1]}]", "r7")
            b.ins("add", "r8", "r8", "r7")
        elif kind == "cmpxchg":
            b.ins("mov", "rax", op[2])
            b.ins("mov", "r7", op[3])
            b.ins("cmpxchg", f"[slots + {4 * op[1]}]", "r7")
            b.ins("add", "r8", "r8", "rax")
        elif kind == "mfence":
            b.ins("mfence")
        elif kind == "pause":
            b.ins("pause")
        elif kind == "alu":
            b.ins(op[1], "r8", "r8", op[2])
        elif kind == "rep_movs":
            b.ins("mov", "rcx", op[1])
            b.ins("mov", "rsi", "buf")
            b.ins("mov", "rdi", "slots")
            b.ins("rep_movs")
        elif kind == "rep_stos":
            b.ins("mov", "rax", "r8")
            b.ins("mov", "rcx", op[1])
            b.ins("mov", "rdi", "buf")
            b.ins("rep_stos")
        elif kind == "rdtsc":
            b.ins("rdtsc", "r7")
            b.ins("xor", "r8", "r8", "r7")
        elif kind == "rdrand":
            b.ins("rdrand", "r7")
            b.ins("add", "r8", "r8", "r7")
        elif kind == "time":
            b.ins("push", "r8")
            b.syscall(9)  # SYS_TIME
            b.ins("pop", "r8")
            b.ins("add", "r8", "r8", "rax")
        elif kind == "yield":
            b.ins("push", "r8")
            b.syscall(6)
            b.ins("pop", "r8")
        elif kind == "write":
            b.ins("push", "r8")
            b.syscall(2, 1, "buf", 4 * op[1])
            b.ins("pop", "r8")
        elif kind == "kill":
            b.ins("push", "r8")
            b.syscall(12, op[1], 10)  # SIGUSR1 at a (maybe absent) tid
            b.ins("pop", "r8")
        elif kind == "gettid":
            b.ins("push", "r8")
            b.syscall(5)
            b.ins("pop", "r8")
            b.ins("add", "r8", "r8", "rax")
        elif kind == "futex_wake":
            b.ins("push", "r8")
            b.syscall(8, "slots", 4)
            b.ins("pop", "r8")
        else:  # pragma: no cover - generator and emitter kept in sync
            raise AssertionError(f"unknown fuzz op {kind!r}")


def build_program(threads_ops: list[list[tuple]], repeats: int = 1) -> Program:
    """Assemble a fuzz program: thread 0 is main; each thread loops its op
    list ``repeats`` times, accumulates into results, and joins via a
    shared counter. Every thread installs a signal handler so ``kill`` ops
    exercise delivery + sigreturn."""
    b = KernelBuilder()
    b.word("slots", *range(1, NUM_SLOTS + 1))
    b.word("buf", *range(10, 10 + BUF_WORDS))
    b.word("done", 0)
    b.word("sigcount", 0)
    b.word("results", *([0] * (len(threads_ops) + 1)))
    b.space("stacks", len(threads_ops) * 2048)

    b.label("main")
    b.syscall(13, 10, "fz_handler")  # SYS_SIGACTION
    for tid in range(1, len(threads_ops)):
        b.ins("mov", "r9", "stacks")
        b.ins("add", "r9", "r9", (tid + 1) * 2048 - 16)
        b.spawn(f"thread_{tid}", "r9", tid)
    b.ins("mov", "r8", 0)
    with b.for_range("r14", 0, repeats):
        emit_ops(b, threads_ops[0])
    b.ins("store", "[results]", "r8")
    join = b.label("join")
    b.ins("pause")
    b.ins("load", "r7", "[done]")
    b.ins("cmp", "r7", len(threads_ops) - 1)
    b.ins("jne", join)
    b.write(1, "results", 4 * len(threads_ops))
    b.exit(0)

    for tid in range(1, len(threads_ops)):
        b.label(f"thread_{tid}")
        b.syscall(13, 10, "fz_handler")
        b.ins("mov", "r8", 0)
        with b.for_range("r14", 0, repeats):
            emit_ops(b, threads_ops[tid])
        b.ins("store", f"[results + {4 * tid}]", "r8")
        b.ins("mov", "r7", 1)
        b.ins("xadd", "[done]", "r7")
        b.exit(0)

    b.label("fz_handler")
    b.ins("load", "r7", "[sigcount]")
    b.ins("add", "r7", "r7", 1)
    b.ins("store", "[sigcount]", "r7")
    b.syscall(14)  # SYS_SIGRETURN
    return b.build("fuzz")


def random_config(rng: random.Random) -> SimConfig:
    return SimConfig(
        machine=MachineConfig(
            num_cores=rng.choice([1, 2, 4]),
            memory_bytes=1 << 18,
            store_buffer=StoreBufferConfig(
                entries=rng.randint(1, 12),
                drain_period=rng.randint(1, 40)),
        ),
        kernel=KernelConfig(quantum_instructions=rng.randint(80, 2000)),
    )


@dataclass
class FuzzCase:
    """One fully-determined fuzz scenario: everything needed to rebuild the
    program and rerun it, independent of any RNG state. The soak subsystem
    runs these across its config lattice and the shrinker mutates them."""

    seed: int
    threads_ops: list[list[tuple]]
    repeats: int
    config: SimConfig
    run_seed: int
    policy: str

    def op_count(self) -> int:
        return sum(len(ops) for ops in self.threads_ops)

    def build(self) -> Program:
        return build_program(self.threads_ops, repeats=self.repeats)


def generate_case(seed: int) -> FuzzCase:
    """Derive the :class:`FuzzCase` for ``seed``.

    Draw order is load-bearing: historical seed numbers (in triage
    artifacts and repro commands) must keep reproducing the same runs.
    """
    rng = random.Random(seed)
    threads = rng.randint(2, 3)
    threads_ops = [random_ops(rng) for _ in range(threads)]
    repeats = rng.randint(1, 3)
    config = random_config(rng)
    run_seed = rng.randrange(1 << 16)
    policy = rng.choice(["random", "bursty", "rr"])
    return FuzzCase(seed=seed, threads_ops=threads_ops, repeats=repeats,
                    config=config, run_seed=run_seed, policy=policy)

