"""Configuration objects for every subsystem.

All configs are frozen dataclasses: a configuration is a value, shared freely
between the machine, the recorder, and the replayer. The replayer must run
with the *same* machine/MRR configuration that produced a recording; the
configs are therefore serializable to/from plain dicts so they can be stored
inside a recording bundle.

The defaults model the QuickRec prototype at small scale: a 4-core QuickIA
machine (two FPGA-emulated Pentium cores per socket), per-core L1 caches kept
coherent with MESI over a snooping bus, TSO store buffers, and the MRR
recording hardware with 512-bit Bloom signatures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a per-core L1 data cache.

    The cache is used for two things: MESI coherence (which provides the
    snoop hook the MRR keys off) and miss accounting for the cycle model.
    """

    line_bytes: int = 64
    sets: int = 64
    ways: int = 4

    def __post_init__(self) -> None:
        _require(_is_pow2(self.line_bytes), "line_bytes must be a power of two")
        _require(_is_pow2(self.sets), "sets must be a power of two")
        _require(self.ways >= 1, "ways must be >= 1")

    @property
    def size_bytes(self) -> int:
        return self.line_bytes * self.sets * self.ways

    def line_of(self, addr: int) -> int:
        """Cache-line address (line-aligned byte address) containing addr."""
        return addr & ~(self.line_bytes - 1)

    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.sets


@dataclass(frozen=True)
class StoreBufferConfig:
    """TSO store buffer shape and drain behaviour.

    ``drain_period`` is the number of simulation steps between background
    drain opportunities; together with ``drain_burst`` it controls how long
    stores linger, which is the source of the RSW phenomenon QuickRec logs.
    A period of 1 with a large burst approximates a machine that drains
    eagerly (RSW almost always zero).
    """

    entries: int = 8
    drain_period: int = 3
    drain_burst: int = 1

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "store buffer needs at least one entry")
        _require(self.drain_period >= 1, "drain_period must be >= 1")
        _require(self.drain_burst >= 1, "drain_burst must be >= 1")


#: Coherence fabrics the machine can be built with. ``snoop`` is the
#: reference broadcast bus; ``directory`` tracks exact per-line sharer
#: sets and notifies only them — bit-identical by construction (pinned by
#: the lockstep suite and the soak lattice), O(sharers) per transaction.
COHERENCE_SNOOP = "snoop"
COHERENCE_DIRECTORY = "directory"
COHERENCE_MODELS = (COHERENCE_SNOOP, COHERENCE_DIRECTORY)


@dataclass(frozen=True)
class MachineConfig:
    """The simulated QuickIA machine."""

    num_cores: int = 4
    memory_bytes: int = 1 << 22
    cache: CacheConfig = field(default_factory=CacheConfig)
    store_buffer: StoreBufferConfig = field(default_factory=StoreBufferConfig)
    coherence: str = COHERENCE_SNOOP

    def __post_init__(self) -> None:
        _require(1 <= self.num_cores <= 64, "num_cores must be in [1, 64]")
        _require(self.memory_bytes % self.cache.line_bytes == 0,
                 "memory size must be a whole number of cache lines")
        _require(self.coherence in COHERENCE_MODELS,
                 f"coherence must be one of {COHERENCE_MODELS}")


class TsoMode:
    """How the MRR copes with stores pending at chunk termination.

    ``RSW``   — log the reordered-store-window count (the QuickRec design).
    ``DRAIN`` — stall chunk termination until the store buffer drains
                (the strawman QuickRec avoids; used by the A3 ablation).
    """

    RSW = "rsw"
    DRAIN = "drain"

    ALL = (RSW, DRAIN)


@dataclass(frozen=True)
class MRRConfig:
    """The Memory Race Recorder hardware block, one instance per core."""

    signature_bits: int = 512
    signature_hashes: int = 2
    max_chunk_instructions: int = 64 * 1024
    cbuf_entries: int = 256
    tso_mode: str = TsoMode.RSW
    # Proactively cut a chunk when a signature passes this fill fraction
    # (keeps the Bloom false-positive rate bounded). 1.0 disables.
    saturation_threshold: float = 0.75
    # Debug aid: log a rolling hash of load values per chunk so the
    # replayer can pinpoint the first diverging chunk.
    log_load_hash: bool = False

    def __post_init__(self) -> None:
        _require(_is_pow2(self.signature_bits), "signature_bits must be a power of two")
        _require(1 <= self.signature_hashes <= 8, "signature_hashes must be in [1, 8]")
        _require(self.max_chunk_instructions >= 1, "max_chunk_instructions must be >= 1")
        _require(self.cbuf_entries >= 2, "cbuf_entries must be >= 2")
        _require(self.tso_mode in TsoMode.ALL, f"unknown tso_mode {self.tso_mode!r}")
        _require(0.0 < self.saturation_threshold <= 1.0,
                 "saturation_threshold must be in (0, 1]")


@dataclass(frozen=True)
class KernelConfig:
    """The miniature OS model (the substrate Capo3 runs in)."""

    quantum_instructions: int = 5_000
    max_threads: int = 64
    timeslice_jitter: int = 0

    def __post_init__(self) -> None:
        _require(self.quantum_instructions >= 10, "quantum too small to schedule")
        _require(self.max_threads >= 1, "need at least one thread")
        _require(self.timeslice_jitter >= 0, "jitter must be >= 0")


@dataclass(frozen=True)
class CapoConfig:
    """The Capo3 software stack (Replay Sphere Manager) behaviour.

    ``flight_window`` > 0 selects the bounded-memory flight-recorder mode
    (iReplayer-style black box): only the last ``flight_window`` epochs of
    ``flight_epoch_chunks`` chunks each are retained in a ring, older
    epochs are discarded in O(1), and the retained window materializes as
    a self-contained recording rebased to the window origin. 0 keeps the
    unbounded log. Execution is bit-identical either way — the ring is an
    observer, never a participant.
    """

    flight_window: int = 0
    flight_epoch_chunks: int = 64

    def __post_init__(self) -> None:
        _require(self.flight_window >= 0,
                 "flight_window must be >= 0 (0 disables the flight ring)")
        _require(self.flight_epoch_chunks >= 1,
                 "flight_epoch_chunks must be >= 1")


#: Keys older manifests and soak triage artifacts carry, by config
#: section, that no setting reads any more: the log formats the capo
#: knobs selected are negotiated from each section's header now, and
#: nothing read the others. :meth:`SimConfig.from_dict` drops them; the
#: constructors refuse them.
RETIRED_KEYS: dict[str, tuple[str, ...]] = {
    "machine": ("word_bytes",),
    "kernel": ("stack_bytes_per_thread",),
    "capo": ("log_copy_to_user", "drain_on_context_switch",
             "compress_chunk_log", "input_log_version", "chunk_log_version"),
}


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to build a recordable machine, in one value."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    mrr: MRRConfig = field(default_factory=MRRConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    capo: CapoConfig = field(default_factory=CapoConfig)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimConfig":
        """The config :meth:`to_dict` produced. Retired keys are dropped,
        and so is the ``telemetry`` section older manifests and triage
        artifacts carry: telemetry is switched on by the
        :class:`~repro.telemetry.Telemetry` a run is given, not by the
        config."""
        def section(name: str, kind: type, values: dict[str, Any]) -> Any:
            retired = RETIRED_KEYS.get(name, ())
            return kind(**{key: value for key, value in values.items()
                           if key not in retired})

        machine = dict(data["machine"])
        machine["cache"] = CacheConfig(**machine.get("cache", {}))
        machine["store_buffer"] = StoreBufferConfig(
            **machine.get("store_buffer", {}))
        return cls(
            machine=section("machine", MachineConfig, machine),
            mrr=section("mrr", MRRConfig, data["mrr"]),
            kernel=section("kernel", KernelConfig, data["kernel"]),
            capo=section("capo", CapoConfig, data["capo"]),
        )


DEFAULT_CONFIG = SimConfig()
