"""MESI invariants under recording, checked after every transaction.

Regression for a real bug: a DRAIN-mode victim draining *inside* another
core's bus transaction issued nested transactions and left two caches in
Modified for the same line — silently breaking conflict detection.
"""

import pytest

from repro import session, workloads
from repro.config import (
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
    TsoMode,
)
from repro.machine.bus import DirectoryBus, SnoopBus
from repro.machine.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.mrr.chunk import Reason
from repro.session import digest_of


def _mesi_checked(bus_cls):
    """A fabric subclass asserting MESI ownership invariants per
    transaction — the requester's fill state agrees with the other caches,
    and, on the directory, exact-sharer containment."""

    class Checked(bus_cls):
        def transaction(self, core, line, is_write, upgrade=False):
            super().transaction(core, line, is_write, upgrade)
            fill_state = core.cache.state(line)
            others = [cache.state(line)
                      for core_id, cache in enumerate(self._caches)
                      if cache is not None and core_id != core.core_id
                      and cache.state(line) is not None]
            if is_write:
                assert fill_state == MODIFIED and not others, \
                    f"line {line:#x}: write left copies {others}"
            else:
                expected = SHARED if others else EXCLUSIVE
                assert fill_state == expected, \
                    f"line {line:#x}: read filled {fill_state}, others {others}"
                assert all(state == SHARED for state in others), \
                    f"line {line:#x}: read left an owner among {others}"
            lines = set()
            for cache in self._caches:
                if cache is not None:
                    lines.update(cache.cached_lines())
            for check_line in lines:
                states = [cache.state(check_line) for cache in self._caches
                          if cache is not None]
                owners = [s for s in states if s in (MODIFIED, EXCLUSIVE)]
                sharers = [s for s in states if s is not None]
                assert len(owners) <= 1, \
                    f"line {check_line:#x}: multiple owners {states}"
                if owners:
                    assert len(sharers) == 1, (f"line {check_line:#x}: "
                                               f"owner coexists with sharers "
                                               f"{states}")
                if issubclass(bus_cls, DirectoryBus):
                    sharer_mask = self.sharer_mask(check_line)
                    assert sharer_mask & ~self.presence_mask(check_line) == 0
                    holders = sum(
                        1 << cid for cid, cache in enumerate(self._caches)
                        if cache is not None
                        and cache.state(check_line) is not None)
                    assert holders & ~sharer_mask == 0, \
                        f"line {check_line:#x}: sharer set misses a holder"

    return Checked


@pytest.fixture(autouse=True)
def checked_bus(monkeypatch):
    monkeypatch.setattr("repro.machine.machine.SnoopBus",
                        _mesi_checked(SnoopBus))
    monkeypatch.setattr("repro.machine.machine.DirectoryBus",
                        _mesi_checked(DirectoryBus))


def _config(coherence, **mrr):
    return SimConfig(
        machine=MachineConfig(
            store_buffer=StoreBufferConfig(entries=12, drain_period=12),
            coherence=coherence),
        mrr=MRRConfig(**mrr),
    )


@pytest.mark.parametrize("coherence", ["snoop", "directory"])
@pytest.mark.parametrize("mode", [TsoMode.RSW, TsoMode.DRAIN])
def test_mesi_invariants_hold_under_recording(mode, coherence):
    if mode == TsoMode.RSW:
        program, inputs = workloads.build("water")
        outcome, _replayed, report = session.record_and_replay(
            program, seed=3, config=_config(coherence), input_files=inputs)
        assert report.ok
        return
    # With the default MRR every water chunk ends on a conflict or a
    # kernel entry, where nothing is left to drain. fft with
    # 300-instruction chunks makes size cuts with stores still buffered
    # (RSW > 0 under RSW), which DRAIN drains at the cut — so its
    # recording differs from the RSW one.
    program, inputs = workloads.build("fft", scale=1)
    rsw = session.record(
        program, seed=3, input_files=inputs,
        config=_config(coherence, max_chunk_instructions=300))
    assert any(chunk.reason == Reason.SIZE and chunk.rsw
               for chunk in rsw.recording.chunks)
    outcome, _replayed, report = session.record_and_replay(
        program, seed=3, input_files=inputs,
        config=_config(coherence, tso_mode=mode,
                       max_chunk_instructions=300))
    assert report.ok
    assert digest_of(outcome) != digest_of(rsw)


def test_mesi_invariants_hold_without_recording():
    program, inputs = workloads.build("locks")
    outcome = session.simulate(program, seed=5, input_files=inputs)
    assert outcome.exit_codes[1] == 0
