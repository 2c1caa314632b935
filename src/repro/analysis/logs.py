"""Log-size and log-rate metrics (the F3 figure).

The paper's headline: memory-log generation is "insignificant". We report
bytes per kilo-instruction for the chunk log (raw and compressed) and the
input log, plus an absolute MB/s figure computed at the QuickIA core
frequency (the FPGA Pentium cores ran at 60 MHz; the *relative* numbers
are frequency-independent).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..capo.recording import Recording
from ..session import RunOutcome

QUICKIA_CORE_HZ = 60_000_000


@dataclass(frozen=True)
class LogRates:
    """Log production of one recorded run."""

    name: str
    instructions: int
    cycles: int
    chunk_entries: int
    chunk_bytes_raw: int
    # The compact chunk log (``chunks.qrz``); ``chunk_bytes_raw`` is the
    # frozen v1 serialization.
    chunk_bytes_compressed: int
    input_events: int
    input_bytes: int
    # The compact (columnar) input log, as saved in ``input.bin``;
    # ``input_bytes`` is the frozen v1 serialization. 0 for rates computed
    # before the compact codec existed.
    input_bytes_v2: int = 0

    @property
    def chunk_bytes_per_kiloinstruction(self) -> float:
        return 1000.0 * self.chunk_bytes_raw / max(1, self.instructions)

    @property
    def chunk_compressed_per_kiloinstruction(self) -> float:
        return 1000.0 * self.chunk_bytes_compressed / max(1, self.instructions)

    @property
    def input_bytes_per_kiloinstruction(self) -> float:
        return 1000.0 * self.input_bytes / max(1, self.instructions)

    @property
    def input_compression_ratio(self) -> float:
        """v1-over-compact input-log size ratio (>1: compact is smaller)."""
        return self.input_bytes / max(1, self.input_bytes_v2)

    @property
    def chunk_compression_ratio(self) -> float:
        """v1-over-compact chunk-log size ratio (>1: compact is smaller)."""
        return self.chunk_bytes_raw / max(1, self.chunk_bytes_compressed)

    @property
    def total_bytes(self) -> int:
        return self.chunk_bytes_raw + self.input_bytes

    def mbytes_per_second(self, core_hz: int = QUICKIA_CORE_HZ,
                          cores: int = 4) -> float:
        """Aggregate log bandwidth at a nominal core frequency.

        ``cycles`` is summed across cores, so wall time is cycles divided
        by (cores * frequency).
        """
        seconds = self.cycles / (core_hz * cores)
        if seconds <= 0:
            return 0.0
        return self.total_bytes / seconds / 1e6

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instructions": self.instructions,
            "chunk_entries": self.chunk_entries,
            "chunk_B_per_ki": self.chunk_bytes_per_kiloinstruction,
            "chunk_comp_B_per_ki": self.chunk_compressed_per_kiloinstruction,
            "input_B_per_ki": self.input_bytes_per_kiloinstruction,
            "total_bytes": self.total_bytes,
            "chunk_bytes_v2": self.chunk_bytes_compressed,
            "input_bytes_v2": self.input_bytes_v2,
        }


def log_rates(outcome: RunOutcome, name: str | None = None) -> LogRates:
    """Compute log rates from a MODE_FULL run outcome."""
    recording = outcome.recording
    if recording is None:
        raise ValueError("log_rates needs a full-stack recording run")
    return LogRates(
        name=name or recording.program.name,
        instructions=outcome.instructions,
        cycles=outcome.total_cycles,
        chunk_entries=len(recording.chunks),
        chunk_bytes_raw=recording.chunk_log_bytes(),
        chunk_bytes_compressed=recording.chunk_log_compressed_bytes(),
        input_events=len(recording.events),
        input_bytes=recording.input_log_v1_bytes(),
        input_bytes_v2=recording.input_log_bytes(),
    )


def input_bytes_by_kind(recording: Recording) -> dict[str, int]:
    """Input-log payload attribution (which event kinds carry the bytes)."""
    sizes: Counter[str] = Counter()
    for event in recording.events:
        # approximate per-event fixed cost + payload
        sizes[event.kind] += 8 + event.payload_bytes
    return dict(sorted(sizes.items()))
