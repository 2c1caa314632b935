import json

import pytest

from repro.config import (
    RETIRED_KEYS,
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
        capo=CapoConfig(flight_epoch_chunks=16),
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
    # the log formats are fixed per section now: the retired knobs are
    # not settable, and a config never serializes them
    import dataclasses

    from repro.config import RETIRED_KEYS, CapoConfig

    for key in RETIRED_KEYS["capo"]:
        with pytest.raises(TypeError):
            CapoConfig(**{key: 1})
    assert not set(RETIRED_KEYS["capo"]) & set(dataclasses.asdict(CapoConfig()))


def test_old_bundle_dicts_get_log_knob_defaults():
    # a config dict saved while the log knobs existed must still load,
    # whatever they selected
    data = SimConfig().to_dict()
    data["capo"].update(compress_chunk_log=False, input_log_version=2,
                        chunk_log_version=2)
    assert SimConfig.from_dict(data) == SimConfig()


#: Every key a config section dropped, with a value old manifests held.
RETIRED = [
    ("machine", "word_bytes", 4),
    ("kernel", "stack_bytes_per_thread", 16 * 1024),
    ("capo", "log_copy_to_user", True),
    ("capo", "drain_on_context_switch", True),
    ("capo", "compress_chunk_log", True),
    ("capo", "input_log_version", 1),
    ("capo", "chunk_log_version", 1),
]
SECTIONS = {"machine": MachineConfig, "mrr": MRRConfig,
            "kernel": KernelConfig, "capo": CapoConfig}


def test_retired_key_table_names_every_retired_key():
    assert {(section, key) for section, keys in RETIRED_KEYS.items()
            for key in keys} == {(section, key) for section, key, _ in RETIRED}


@pytest.mark.parametrize("section,key,value", RETIRED)
def test_retired_key_loads_to_defaults_and_is_refused(section, key, value):
    data = SimConfig().to_dict()
    data[section][key] = value
    assert SimConfig.from_dict(data) == SimConfig()
    with pytest.raises(TypeError):
        SECTIONS[section](**{key: value})


#: The manifest ``config`` JSON of the default config and of a
#: non-default one. Bundles written before the four unread fields went
#: carried the same, plus those fields.
PINNED_CONFIG_JSON = [
    (SimConfig(),
     '{"machine": {"num_cores": 4, "memory_bytes": 4194304, "cache": '
     '{"line_bytes": 64, "sets": 64, "ways": 4}, "store_buffer": '
     '{"entries": 8, "drain_period": 3, "drain_burst": 1}, "coherence": '
     '"snoop"}, "mrr": {"signature_bits": 512, "signature_hashes": 2, '
     '"max_chunk_instructions": 65536, "cbuf_entries": 256, "tso_mode": '
     '"rsw", "saturation_threshold": 0.75, "log_load_hash": false}, '
     '"kernel": {"quantum_instructions": 5000, "max_threads": 64, '
     '"timeslice_jitter": 0}, "capo": {"flight_window": 0, '
     '"flight_epoch_chunks": 64}}'),
    (SimConfig(machine=MachineConfig(num_cores=2, memory_bytes=1 << 20,
                                     coherence="directory"),
               mrr=MRRConfig(signature_bits=256, log_load_hash=True),
               kernel=KernelConfig(quantum_instructions=100,
                                   timeslice_jitter=3),
               capo=CapoConfig(flight_window=2, flight_epoch_chunks=8)),
     '{"machine": {"num_cores": 2, "memory_bytes": 1048576, "cache": '
     '{"line_bytes": 64, "sets": 64, "ways": 4}, "store_buffer": '
     '{"entries": 8, "drain_period": 3, "drain_burst": 1}, "coherence": '
     '"directory"}, "mrr": {"signature_bits": 256, "signature_hashes": 2, '
     '"max_chunk_instructions": 65536, "cbuf_entries": 256, "tso_mode": '
     '"rsw", "saturation_threshold": 0.75, "log_load_hash": true}, '
     '"kernel": {"quantum_instructions": 100, "max_threads": 64, '
     '"timeslice_jitter": 3}, "capo": {"flight_window": 2, '
     '"flight_epoch_chunks": 8}}'),
]


@pytest.mark.parametrize("config,expected", PINNED_CONFIG_JSON)
def test_manifest_config_json_is_pinned(config, expected):
    assert json.dumps(config.to_dict()) == expected
    assert SimConfig.from_dict(json.loads(expected)) == config


def test_telemetry_section_loads_and_is_refused():
    # Manifests written while the config carried telemetry still load;
    # telemetry is switched on by the Telemetry a run is given instead.
    data = SimConfig().to_dict()
    data["telemetry"] = {"enabled": True, "sampling": 16}
    assert SimConfig.from_dict(data) == SimConfig()
    with pytest.raises(TypeError):
        SimConfig(telemetry={"enabled": True})
