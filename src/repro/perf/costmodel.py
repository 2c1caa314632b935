"""Cycle cost constants for the simulated QuickIA machine.

The constants are order-of-magnitude figures for a Pentium-class in-order
core behind a shared front-side bus, chosen so that the *software* recording
costs land in the regime the paper reports (~13% average full-stack
overhead, dominated by input logging), while the *hardware* recording costs
stay negligible — which is the paper's central quantitative claim. The
claim's shape comes from measured event counts (syscalls, bytes copied,
chunk terminations), not from the constants themselves: a benchmark with 10x
the syscall rate shows ~10x the software overhead regardless of calibration.

All costs are in core cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Cycle charges; grouped by whether recording state affects them."""

    # -- baseline machine costs (identical in every recording mode) --------
    unit: int = 1
    l1_miss: int = 30
    upgrade: int = 12
    writeback: int = 8
    store_drain: int = 1
    atomic_extra: int = 10
    syscall_base: int = 250
    nondet_base: int = 60
    context_switch_base: int = 600

    # -- hardware recording costs (charged when an MRR is attached) --------
    # Writing one packed chunk entry to the CBUF (a streaming store).
    cbuf_entry_write: int = 2

    # -- software (Capo3/RSM) recording costs (charged in FULL mode) -------
    rsm_syscall_interpose: int = 400
    rsm_nondet_interpose: int = 150
    input_log_event: int = 80
    input_log_per_byte: int = 2
    cbuf_drain_interrupt: int = 800
    cbuf_drain_per_entry: int = 4
    context_switch_flush: int = 150

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


DEFAULT_COST_MODEL = CostModel()
