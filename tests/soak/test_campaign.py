"""The differential campaign: lattice checks, parallel determinism,
fault injection end-to-end."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG
from repro.soak import (
    BASELINE,
    SoakOptions,
    matrix_variants,
    outcome_digest,
    run_campaign,
    run_seed,
)
from repro.soak.differential import run_case_checks, run_variant
from repro.telemetry import Telemetry
from repro.workloads.fuzz import generate_case


def test_variant_apply_overrides_and_keeps_the_rest():
    variant = [v for v in matrix_variants() if v.name == "sb-deep"][0]
    config = variant.apply(DEFAULT_CONFIG)
    assert config.machine.store_buffer.entries == 16
    assert config.machine.store_buffer.drain_period == 33
    assert config.kernel == DEFAULT_CONFIG.kernel
    assert config.mrr == DEFAULT_CONFIG.mrr


def test_directory_variants_in_the_lattice():
    from repro.soak.variants import variant_by_name

    directory = variant_by_name("directory")
    assert directory.bit_identical
    assert directory.apply(DEFAULT_CONFIG).machine.coherence == "directory"
    checkpointed = variant_by_name("directory-checkpointed")
    assert checkpointed.bit_identical
    assert checkpointed.checkpoint_every > 0
    assert checkpointed.apply(DEFAULT_CONFIG).machine.coherence == "directory"
    # None override keeps the case's fabric
    assert BASELINE.apply(DEFAULT_CONFIG).machine.coherence == "snoop"
    with pytest.raises(KeyError):
        variant_by_name("token-coherence")


def test_variant_apply_is_pure():
    for variant in matrix_variants():
        variant.apply(DEFAULT_CONFIG)
    assert DEFAULT_CONFIG == dataclasses.replace(DEFAULT_CONFIG)


def test_bit_identical_variants_share_the_baseline_digest():
    shape_variant_diverged = False
    for seed in (11, 12, 13):
        case = generate_case(seed)
        assert run_case_checks(case, matrix_variants()) == []
        expected = outcome_digest(run_variant(case, BASELINE)[0])
        shape_variant_diverged |= any(
            outcome_digest(run_variant(case, variant)[0]) != expected
            for variant in matrix_variants() if not variant.bit_identical)
    # Shape-changing variants only self-verify; a tiny program may happen
    # to execute identically, but across seeds they must not be vacuous.
    assert shape_variant_diverged


def test_run_seed_passes_clean_seeds():
    verdict = run_seed(3, SoakOptions(matrix=True))
    assert verdict.ok
    assert verdict.failures == []
    assert verdict.shrunk is None


def test_campaign_serial_and_parallel_verdicts_identical():
    options = SoakOptions(matrix=True)
    serial = run_campaign(6, base_seed=60, jobs=1, options=options)
    parallel = run_campaign(6, base_seed=60, jobs=2, options=options)
    assert serial.ok and parallel.ok
    assert ([(v.seed, v.ok, v.failures) for v in serial.verdicts]
            == [(v.seed, v.ok, v.failures) for v in parallel.verdicts])


def test_campaign_counts_and_order():
    report = run_campaign(4, base_seed=20, jobs=1)
    assert report.runs == 4
    assert [v.seed for v in report.verdicts] == [20, 21, 22, 23]


def test_injected_divergence_is_caught_and_shrunk_small():
    options = SoakOptions(matrix=True, shrink=True, inject="decode-cache")
    verdict = run_seed(42, options)
    assert not verdict.ok
    kinds = {f.kind for f in verdict.failures}
    assert "divergence" in kinds
    [failure] = [f for f in verdict.failures if f.kind == "divergence"]
    assert failure.variant == "decode-off"
    assert verdict.shrunk is not None
    assert verdict.shrunk.ops_after <= 6
    # the minimized case must still fail under the same options
    from repro.soak import run_case
    assert run_case(verdict.shrunk.case, options)


def test_injection_requires_known_fault():
    with pytest.raises(ValueError):
        SoakOptions(inject="warp-drive")


def test_campaign_telemetry_counters():
    telemetry = Telemetry(enabled=True)
    report = run_campaign(2, base_seed=5, jobs=1,
                          options=SoakOptions(matrix=False),
                          telemetry=telemetry)
    assert report.ok
    snapshot = telemetry.snapshot()
    assert snapshot["soak.seeds"] == 2
    assert "soak.failed_seeds" not in snapshot


def test_template_miscompile_is_caught_by_decode_off(monkeypatch):
    """Record and replay both run code generated from the templates, so a
    miscompiled template changes the recording itself: only the
    interpretive ``decode-off`` variant can tell, and it differs from the
    baseline in the memory image, the outputs and the replay digest."""
    from repro.machine import decode

    def store_plus_one(w, instr, pc):
        addr = decode._mem_addr(w, instr.ops[0])
        w.access(pc, addr, "word store")
        w.store(addr, 4, f"({decode._val(instr.ops[1])} + 1) & 4294967295")
    monkeypatch.setitem(decode._TEMPLATES, "store", store_plus_one)
    failures = run_case_checks(generate_case(11), matrix_variants())
    [divergence] = [f for f in failures if f.kind == "divergence"]
    assert divergence.variant == "decode-off"
    assert divergence.detail.endswith(
        "differing components: memory, outputs, replay")


def test_recording_modes_must_execute_alike(monkeypatch):
    """Recording off or hardware-only executing one unit more than the
    full recording is a ``modes`` failure of the baseline, per mode."""
    from repro import session

    simulate = session.simulate

    def one_more_unit(program, mode=session.MODE_OFF, **kwargs):
        outcome = simulate(program, mode=mode, **kwargs)
        outcome.units += mode != session.MODE_FULL
        return outcome
    monkeypatch.setattr(session, "simulate", one_more_unit)
    failures = run_case_checks(generate_case(11))
    assert [(f.kind, f.variant, f.detail.split(": ")[-1])
            for f in failures] == [("modes", "baseline", "units")] * 2


def test_exception_failure_detail_has_traceback(monkeypatch):
    from repro import session

    def boom(*args, **kwargs):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(session, "record", boom)
    [failure] = run_case_checks(generate_case(1))
    assert (failure.kind, failure.variant) == ("exception", "baseline")
    assert failure.detail.startswith("RuntimeError: injected crash")
    assert "Traceback (most recent call last)" in failure.detail
