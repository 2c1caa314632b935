import pytest

from repro.config import (
    CacheConfig,
    CapoConfig,
    KernelConfig,
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
    TsoMode,
)
from repro.errors import ConfigError


def test_defaults_model_quickia():
    config = SimConfig()
    assert config.machine.num_cores == 4
    assert config.machine.cache.line_bytes == 64
    assert config.mrr.signature_bits == 512
    assert config.mrr.tso_mode == TsoMode.RSW


def test_cache_geometry_helpers():
    cache = CacheConfig(line_bytes=64, sets=64, ways=4)
    assert cache.size_bytes == 16 * 1024
    assert cache.line_of(0x12345) == 0x12340
    assert cache.set_index(64) == 1
    assert cache.set_index(64 * 64) == 0  # wraps around the sets


def test_cache_validation():
    with pytest.raises(ConfigError):
        CacheConfig(line_bytes=48)
    with pytest.raises(ConfigError):
        CacheConfig(sets=3)
    with pytest.raises(ConfigError):
        CacheConfig(ways=0)


def test_store_buffer_validation():
    with pytest.raises(ConfigError):
        StoreBufferConfig(entries=0)
    with pytest.raises(ConfigError):
        StoreBufferConfig(drain_period=0)


def test_machine_validation():
    with pytest.raises(ConfigError):
        MachineConfig(num_cores=0)
    with pytest.raises(ConfigError):
        MachineConfig(num_cores=100)
    with pytest.raises(ConfigError):
        MachineConfig(memory_bytes=100)  # not line aligned
    with pytest.raises(ConfigError):
        MachineConfig(word_bytes=3)


def test_coherence_validation():
    assert MachineConfig().coherence == "snoop"
    assert MachineConfig(coherence="directory").coherence == "directory"
    with pytest.raises(ConfigError):
        MachineConfig(coherence="token")


def test_old_bundle_dicts_get_snoop_coherence():
    # a config dict saved before the coherence knob existed must still load
    data = SimConfig(machine=MachineConfig(coherence="directory")).to_dict()
    del data["machine"]["coherence"]
    assert SimConfig.from_dict(data).machine.coherence == "snoop"


def test_coherence_round_trips_through_dict():
    config = SimConfig(machine=MachineConfig(coherence="directory"))
    assert SimConfig.from_dict(config.to_dict()) == config


def test_mrr_validation():
    with pytest.raises(ConfigError):
        MRRConfig(signature_bits=100)
    with pytest.raises(ConfigError):
        MRRConfig(signature_hashes=0)
    with pytest.raises(ConfigError):
        MRRConfig(cbuf_entries=1)
    with pytest.raises(ConfigError):
        MRRConfig(tso_mode="lazy")
    with pytest.raises(ConfigError):
        MRRConfig(saturation_threshold=0.0)
    with pytest.raises(ConfigError):
        MRRConfig(saturation_threshold=1.5)


def test_kernel_validation():
    with pytest.raises(ConfigError):
        KernelConfig(quantum_instructions=5)
    with pytest.raises(ConfigError):
        KernelConfig(max_threads=0)
    with pytest.raises(ConfigError):
        KernelConfig(timeslice_jitter=-1)


def test_sim_config_round_trips_through_dict():
    config = SimConfig(
        machine=MachineConfig(num_cores=2, memory_bytes=1 << 20),
        mrr=MRRConfig(signature_bits=256, log_load_hash=True),
        kernel=KernelConfig(quantum_instructions=100),
        capo=CapoConfig(compress_chunk_log=False),
    )
    assert SimConfig.from_dict(config.to_dict()) == config


def test_dict_form_is_json_compatible():
    import json

    config = SimConfig()
    assert SimConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_configs_hashable_values():
    assert SimConfig() == SimConfig()
    assert MRRConfig(signature_bits=256) != MRRConfig(signature_bits=512)


def test_capo_log_knobs_validated():
    from repro.config import CapoConfig

    assert CapoConfig().input_log_version == 1
    with pytest.raises(ConfigError):
        CapoConfig(input_log_version=3)
    with pytest.raises(ConfigError):
        CapoConfig(chunk_log_version=0)


def test_old_bundle_dicts_get_log_knob_defaults():
    # a config dict saved before the log knobs existed must still load
    data = SimConfig().to_dict()
    for key in ("input_log_version", "chunk_log_version"):
        del data["capo"][key]
    config = SimConfig.from_dict(data)
    assert config.capo.input_log_version == 1
    assert config.capo.chunk_log_version == 1
