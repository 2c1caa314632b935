"""Shared test fixtures and helpers."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.capo.chunk_buffer import ChunkBuffer
from repro.capo.rsm import RSMStats
from repro.config import (
    CacheConfig,
    KernelConfig,
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
)
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.machine.core import (
    Engine,
    OUTCOME_OK,
    OUTCOME_SYSCALL,
)
from repro.machine.memory import PhysicalMemory
from repro.mrr.recorder import MemoryRaceRecorder


class DirectPort:
    """A memory port with no store buffer, cache or recording — sequential
    consistency. Used to test instruction semantics in isolation."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self.fences = 0

    def load(self, addr: int, size: int) -> int:
        if size == 4:
            return self.memory.read_word(addr)
        return self.memory.read_byte(addr)

    def store(self, addr: int, size: int, value: int) -> None:
        if size == 4:
            self.memory.write_word(addr, value)
        else:
            self.memory.write_byte(addr, value)

    def fence(self) -> None:
        self.fences += 1

    def atomic_load(self, addr: int, size: int) -> int:
        return self.load(addr, size)

    def atomic_store(self, addr: int, size: int, value: int) -> None:
        self.store(addr, size, value)


def wire_recorder(core, mrr: MRRConfig, chunks: list,
                  capacity: int = 1) -> MemoryRaceRecorder:
    """Attach a recorder to ``core`` wired as the RSM wires one: its own
    CBUF of ``capacity`` entries, whose drains land in ``chunks``, a fresh
    :class:`RSMStats` and per-rthread chunk counts. With the default one
    entry every chunk reaches ``chunks`` as it terminates."""
    cbuf = ChunkBuffer(capacity, chunks.extend)
    recorder = MemoryRaceRecorder(mrr, core, cbuf, RSMStats(),
                                  defaultdict(int))
    core.machine.attach_recorder(core.core_id, recorder)
    return recorder


class Fragment:
    """An assembled code fragment running on a bare engine."""

    def __init__(self, source: str | Program, memory_bytes: int = 1 << 16):
        if isinstance(source, Program):
            self.program = source
        else:
            self.program = assemble(source, name="fragment")
        self.memory = PhysicalMemory(memory_bytes)
        self.memory.load_blob(self.program.data_base, self.program.data)
        self.engine = Engine(self.program)
        self.engine.regs[15] = memory_bytes - 16  # a usable stack
        self.port = DirectPort(self.memory)

    def run(self, max_units: int = 100_000) -> str:
        """Step until a trap (syscall/nondet) or the unit budget runs out.

        Returns the outcome that stopped execution.
        """
        for _ in range(max_units):
            outcome = self.engine.step(self.port)
            if outcome != OUTCOME_OK:
                return outcome
        raise AssertionError("fragment did not trap within the unit budget")

    def reg(self, number: int) -> int:
        return self.engine.regs[number]

    def word(self, symbol: str, index: int = 0) -> int:
        return self.memory.read_word(self.program.symbol(symbol) + 4 * index)


def run_fragment(body: str, data: str = "", max_units: int = 100_000) -> Fragment:
    """Assemble ``body`` (with an implicit trailing ``syscall`` halt) plus an
    optional ``.data`` section, run it, and return the Fragment."""
    source = ".data\n" + data + "\n.text\nmain:\n" + body + "\n    syscall\n"
    fragment = Fragment(source)
    outcome = fragment.run(max_units=max_units)
    assert outcome == OUTCOME_SYSCALL
    return fragment


@pytest.fixture
def small_config() -> SimConfig:
    """A small, fast configuration for full-system tests."""
    return SimConfig(
        machine=MachineConfig(
            num_cores=2,
            memory_bytes=1 << 18,
            cache=CacheConfig(sets=16, ways=2),
            store_buffer=StoreBufferConfig(entries=4, drain_period=4),
        ),
        mrr=MRRConfig(signature_bits=256, cbuf_entries=16,
                      max_chunk_instructions=4096),
        kernel=KernelConfig(quantum_instructions=500),
    )


@pytest.fixture
def four_core_config() -> SimConfig:
    return SimConfig(
        machine=MachineConfig(num_cores=4, memory_bytes=1 << 19),
        kernel=KernelConfig(quantum_instructions=1000),
    )
