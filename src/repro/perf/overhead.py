"""Recording-overhead measurement: native vs hardware-only vs full stack.

Runs the same (program, config, seeds) three times — recording off, MRR
hardware only, full Capo3 stack — and compares total cycles. Because the
recording machinery never alters execution, the three runs retire the same
instructions under the same interleaving; the cycle deltas are pure
recording cost. This regenerates the paper's central overhead figure (F1)
and its breakdown (F2).

The native/hw/full series is the "overhead trajectory" the bench history
tracks, together with the v1-vs-v2 log-bandwidth figures computed from the
full run's recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..config import SimConfig
from ..errors import ReproError
from ..isa.program import Program
from ..session import MODE_FULL, MODE_HW, MODE_OFF, RunOutcome, simulate
from ..telemetry import Telemetry, get_logger

logger = get_logger("perf.overhead")


@dataclass
class OverheadResult:
    """Cycle comparison of one workload across recording modes."""

    name: str
    native: RunOutcome
    hw_only: RunOutcome
    full: RunOutcome

    def __post_init__(self) -> None:
        if not (self.native.final_memory_digest
                == self.hw_only.final_memory_digest
                == self.full.final_memory_digest):
            raise ReproError(
                f"{self.name}: modes diverged — recording altered execution")

    @property
    def hw_overhead(self) -> float:
        """Fractional slowdown of hardware-only recording vs native."""
        return self.hw_only.total_cycles / self.native.total_cycles - 1.0

    @property
    def full_overhead(self) -> float:
        """Fractional slowdown of the full software stack vs native."""
        return self.full.total_cycles / self.native.total_cycles - 1.0

    def software_breakdown(self) -> dict[str, float]:
        """Full-stack overhead cycles attributed to each software component,
        as fractions of native cycles."""
        stats = self.full.rsm_stats or {}
        base = self.native.total_cycles
        return {
            "syscall_interposition": stats.get("cycles_interpose", 0) / base,
            "input_logging": stats.get("cycles_input_log", 0) / base,
            "cbuf_drain": stats.get("cycles_cbuf_drain", 0) / base,
            "ctx_switch_flush": stats.get("cycles_ctx_flush", 0) / base,
        }

    def log_bandwidth(self) -> dict[str, Any]:
        """v1-vs-v2 log sizes of the full run's recording, absolute and per
        kilo-instruction. Empty when the full run kept no recording."""
        recording = self.full.recording
        if recording is None:
            return {}
        instructions = max(1, self.full.instructions)
        input_v1 = recording.input_log_bytes(version=1)
        input_v2 = recording.input_log_bytes(version=2)
        chunk_v1 = recording.chunk_log_bytes(version=1)
        chunk_v2 = recording.chunk_log_bytes(version=2)
        return {
            "input_bytes_v1": input_v1,
            "input_bytes_v2": input_v2,
            "chunk_bytes_v1": chunk_v1,
            "chunk_bytes_v2": chunk_v2,
            "total_bytes_v1": input_v1 + chunk_v1,
            "total_bytes_v2": input_v2 + chunk_v2,
            "total_B_per_ki_v1": 1000.0 * (input_v1 + chunk_v1) / instructions,
            "total_B_per_ki_v2": 1000.0 * (input_v2 + chunk_v2) / instructions,
        }

    def as_row(self) -> dict[str, Any]:
        row = {
            "workload": self.name,
            "native_cycles": self.native.total_cycles,
            "hw_overhead_pct": 100.0 * self.hw_overhead,
            "full_overhead_pct": 100.0 * self.full_overhead,
        }
        row.update(self.log_bandwidth())
        return row


def measure_overhead(program: Program, config: SimConfig | None = None,
                     seed: int = 0, policy: str = "random",
                     input_files: Mapping[str, bytes] | None = None,
                     name: str | None = None,
                     max_units: int = 200_000_000,
                     telemetry: Telemetry | None = None) -> OverheadResult:
    """Run the three-mode comparison for one program.

    ``telemetry`` (or ``config.telemetry.enabled``) instruments all three
    runs with the same tracer/metrics, so the trace shows the native, the
    hardware-only and the full-stack pass back to back — the raw material
    of the paper's F2 breakdown.
    """
    label = name or program.name
    runs: dict[str, RunOutcome] = {}
    for mode in (MODE_OFF, MODE_HW, MODE_FULL):
        outcome = simulate(program, config=config, seed=seed, policy=policy,
                           mode=mode, input_files=input_files,
                           max_units=max_units, telemetry=telemetry)
        runs[mode] = outcome
        logger.debug("%s: mode=%s units=%d cycles=%d", label, mode,
                     outcome.units, outcome.total_cycles)
    result = OverheadResult(name=label,
                            native=runs[MODE_OFF],
                            hw_only=runs[MODE_HW],
                            full=runs[MODE_FULL])
    logger.info("%s: hw overhead %.2f%%, full overhead %.2f%%", label,
                100 * result.hw_overhead, 100 * result.full_overhead)
    run_telemetry = runs[MODE_FULL].telemetry
    if run_telemetry is not None and run_telemetry.enabled:
        gauges = run_telemetry.metrics
        gauges.gauge("overhead.native_cycles").set(result.native.total_cycles)
        gauges.gauge("overhead.hw_pct").set(100 * result.hw_overhead)
        gauges.gauge("overhead.full_pct").set(100 * result.full_overhead)
        for component, fraction in result.software_breakdown().items():
            gauges.gauge(f"overhead.breakdown.{component}_pct").set(
                100 * fraction)
    return result
