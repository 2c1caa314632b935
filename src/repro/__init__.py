"""QuickRec reproduction: hardware-assisted record and replay, in simulation.

A faithful functional reproduction of *QuickRec: prototyping an Intel
architecture extension for record and replay of multithreaded programs*
(Pokam et al., ISCA 2013): a multicore TSO machine with MESI coherence,
per-core Memory Race Recorder hardware (chunking with Bloom signatures and
globally ordered chunk timestamps), the Capo3 replay-sphere software stack over a
miniature OS, and a replayer that re-executes runs from the logs alone.

Quickstart::

    from repro import KernelBuilder, session

    b = KernelBuilder()
    b.word("counter", 0)
    b.label("main")
    ...
    program = b.build("demo")
    outcome, replayed, report = session.record_and_replay(program, seed=42)
    assert report.ok
"""

from .config import (
    CacheConfig,
    CapoConfig,
    DEFAULT_CONFIG,
    KernelConfig,
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
    TsoMode,
)
from .errors import (
    AssemblerError,
    ConfigError,
    IllegalInstructionError,
    KernelError,
    LogFormatError,
    MachineFault,
    MemoryAccessError,
    RecordingError,
    ReplayDivergenceError,
    ReproError,
    WorkloadError,
)
from .isa import KernelBuilder, Program, assemble
from .capo.recording import Recording
from .telemetry import NULL_TELEMETRY, Telemetry
from .session import (
    MODE_FULL,
    MODE_HW,
    MODE_OFF,
    RunOutcome,
    record,
    record_and_replay,
    replay_recording,
    simulate,
    verify,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CapoConfig",
    "DEFAULT_CONFIG",
    "KernelConfig",
    "MachineConfig",
    "MRRConfig",
    "SimConfig",
    "StoreBufferConfig",
    "TsoMode",
    "AssemblerError",
    "ConfigError",
    "IllegalInstructionError",
    "KernelError",
    "LogFormatError",
    "MachineFault",
    "MemoryAccessError",
    "RecordingError",
    "ReplayDivergenceError",
    "ReproError",
    "WorkloadError",
    "KernelBuilder",
    "Program",
    "assemble",
    "Recording",
    "NULL_TELEMETRY",
    "Telemetry",
    "MODE_FULL",
    "MODE_HW",
    "MODE_OFF",
    "RunOutcome",
    "record",
    "record_and_replay",
    "replay_recording",
    "simulate",
    "verify",
    "__version__",
]
