import pytest

from repro import workloads
from repro.errors import ReproError
from repro.perf.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.perf.overhead import OverheadResult, measure_overhead


def test_cost_model_is_frozen_value():
    with pytest.raises(Exception):
        DEFAULT_COST_MODEL.unit = 2  # type: ignore[misc]


def test_cost_model_as_dict_lists_all_constants():
    constants = DEFAULT_COST_MODEL.as_dict()
    assert constants["unit"] == 1
    assert "rsm_syscall_interpose" in constants
    assert all(isinstance(v, int) for v in constants.values())


@pytest.fixture(scope="module")
def counter_overhead():
    program, inputs = workloads.build("counter", threads=2)
    return measure_overhead(program, seed=1, input_files=inputs)


def test_modes_agree_on_final_state(counter_overhead):
    r = counter_overhead
    assert r.native.final_memory_digest == r.full.final_memory_digest


def test_overheads_ordered(counter_overhead):
    r = counter_overhead
    assert 0 <= r.hw_overhead < r.full_overhead


def test_breakdown_fractions_cover_software_cost(counter_overhead):
    r = counter_overhead
    breakdown = r.software_breakdown()
    assert all(value >= 0 for value in breakdown.values())
    total = sum(breakdown.values()) * r.native.total_cycles
    software = (r.full.total_cycles - r.hw_only.total_cycles)
    # breakdown components account for (nearly) all of full-vs-hw delta
    assert abs(total - software) / max(software, 1) < 0.05


def test_as_row_shape(counter_overhead):
    row = counter_overhead.as_row()
    assert row["workload"] == "counter"
    assert row["full_overhead_pct"] > row["hw_overhead_pct"]


def test_divergent_modes_raise():
    # prodcons final memory depends on the schedule (which consumer got
    # which items), so different seeds give different digests.
    program, _ = workloads.build("prodcons", threads=3)
    from repro import session

    native = session.simulate(program, seed=1)
    other = session.simulate(program, seed=2, mode=session.MODE_HW)
    full = session.simulate(program, seed=1, mode=session.MODE_FULL)
    assert native.final_memory_digest != other.final_memory_digest
    with pytest.raises(ReproError):
        OverheadResult("x", native, other, full)


def test_custom_cost_model_scales_costs():
    from repro import session

    program, _ = workloads.build("counter", threads=2)
    cheap = session.simulate(program, seed=1, cost=CostModel())
    pricey = session.simulate(program, seed=1,
                              cost=CostModel(l1_miss=300))
    assert pricey.total_cycles > cheap.total_cycles
    assert pricey.final_memory_digest == cheap.final_memory_digest


# -- overhead trajectory (log bandwidth) -------------------------------------

def test_log_bandwidth_fields(counter_overhead):
    bw = counter_overhead.log_bandwidth()
    assert bw["total_bytes_v2"] <= bw["total_bytes_v1"]
    assert bw["total_B_per_ki_v2"] <= bw["total_B_per_ki_v1"]
    row = counter_overhead.as_row()
    assert row["input_bytes_v2"] <= row["input_bytes_v1"]
