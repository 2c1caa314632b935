"""The equivalence lattice's tier-1 slice: the four round-trip bench
programs at scale 1 under every policy, at the default MRR sizes and
under ``tso_mode="drain"`` with 300-instruction chunks (so size cuts
drain buffered stores), and fuzz seeds 1–3, each through the baseline
(with its recording-mode check), ``decode-off``, ``directory`` and
``telemetry-on``.
"""

import pytest

from repro.config import DEFAULT_CONFIG, MRRConfig, SimConfig
from repro.soak.differential import bench_subject, run_case_checks
from repro.soak.variants import variant_by_name
from repro.workloads.fuzz import generate_case

SLICE = tuple(variant_by_name(name)
              for name in ("decode-off", "directory", "telemetry-on"))

CONFIGS = {
    "rsw": DEFAULT_CONFIG,
    "drain": SimConfig(mrr=MRRConfig(tso_mode="drain",
                                     max_chunk_instructions=300)),
}


@pytest.mark.parametrize("mrr", sorted(CONFIGS))
@pytest.mark.parametrize("policy", ["random", "rr", "bursty"])
@pytest.mark.parametrize("name", ["locks", "fft", "sigping", "radix"])
def test_bench_programs_are_equivalent_across_the_slice(name, policy, mrr):
    subject = bench_subject(name, policy=policy, config=CONFIGS[mrr])
    assert run_case_checks(subject, SLICE) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzz_cases_are_equivalent_across_the_slice(seed):
    assert run_case_checks(generate_case(seed), SLICE) == []
