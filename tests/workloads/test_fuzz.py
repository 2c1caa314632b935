"""The fuzz-campaign library itself."""

import random

import pytest

from repro.soak import run_campaign
from repro.workloads.fuzz import (
    build_program,
    emit_ops,
    generate_case,
    random_config,
    random_ops,
)


def test_random_ops_deterministic_per_seed():
    assert random_ops(random.Random(5)) == random_ops(random.Random(5))
    assert random_ops(random.Random(5)) != random_ops(random.Random(6))


def test_random_ops_within_bounds():
    ops = random_ops(random.Random(1), max_ops=30)
    assert 1 <= len(ops) <= 30
    for op in ops:
        assert isinstance(op, tuple) and op


def test_emit_rejects_unknown_op():
    from repro.isa.builder import KernelBuilder

    with pytest.raises(AssertionError):
        emit_ops(KernelBuilder(), [("teleport",)])


def test_build_program_assembles_all_generated_ops():
    rng = random.Random(3)
    for _ in range(10):
        threads_ops = [random_ops(rng) for _ in range(rng.randint(2, 3))]
        program = build_program(threads_ops, repeats=2)
        assert len(program) > 0


def test_random_config_valid():
    for seed in range(10):
        config = random_config(random.Random(seed))
        assert 1 <= config.machine.num_cores <= 4


def test_generate_case_is_deterministic_and_buildable():
    case = generate_case(77)
    assert case == generate_case(77)
    assert case != generate_case(78)
    assert 2 <= len(case.threads_ops) <= 3
    assert case.op_count() == sum(len(ops) for ops in case.threads_ops)
    assert len(case.build()) > 0


def test_fuzz_campaign_across_seeds():
    report = run_campaign(12, base_seed=9000)
    assert report.ok, [failure.headline() for verdict in report.failing
                       for failure in verdict.failures]
