"""Inspector snapshots are checkpoint records, like the embedded ones."""

import gc
import tracemalloc

import pytest

from repro import session, workloads
from repro.replay.checkpoint import base_replayer, capture_state, \
    replayer_at, state_digest
from repro.replay.inspect import ReplayInspector
from tests.flight.test_ring import _flight_config, _record


def _digest(replayer):
    return state_digest(capture_state(replayer))


@pytest.fixture(scope="module")
def recording():
    program, inputs = workloads.build("counter", threads=2)
    return session.record(program, seed=4, input_files=inputs).recording


@pytest.fixture(scope="module")
def checkpointed(recording):
    return session.add_checkpoints(recording.replace(), 40)


def test_backward_seeks_match_replayer_at(checkpointed):
    inspector = ReplayInspector(checkpointed, checkpoint_every=25)
    inspector.run_to_index(230)
    assert inspector.checkpoints == [25 * n for n in range(1, 10)]
    for target in (220, 130, 75, 50, 40, 3, 0, 199):
        inspector.seek(target)
        assert inspector.position == target
        assert _digest(inspector._replayer) == \
            _digest(replayer_at(checkpointed, target))


def test_flight_window_seek_to_zero_is_the_window_base():
    recording = _record(config=_flight_config()).recording
    assert recording.checkpoint_at(0) is not None   # evicted: a real base
    inspector = ReplayInspector(recording, checkpoint_every=4)
    inspector.run_to_index(min(20, inspector.total_chunks))
    inspector.seek(0)
    assert _digest(inspector._replayer) == _digest(base_replayer(recording))


def test_snapshots_share_pages(recording):
    inspector = ReplayInspector(recording, checkpoint_every=25)
    gc.collect()
    tracemalloc.start()
    try:
        inspector.run_to_index(200)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inspector.checkpoints) == 8
    # a copied 4 MiB memory image per snapshot would be 32 MiB
    assert retained < 8 << 20
