"""A replayer driven by a caller-supplied schedule reproduces the recording.

``Replayer(schedule=)`` is how the flight ring's shadow replayer feeds the
global chunk order epoch by epoch; replaying the whole
``build_schedule`` order through it must verify like a default replay.
"""

from repro import session, workloads
from repro.config import MachineConfig, SimConfig
from repro.replay.replayer import Replayer
from repro.replay.schedule import build_schedule


def test_replayer_accepts_a_supplied_schedule():
    program, inputs = workloads.build("pingpong", threads=4, scale=1)
    config = SimConfig(machine=MachineConfig(num_cores=4))
    out = session.record(program, seed=3, input_files=inputs, config=config)
    schedule = build_schedule(out.recording.chunks)
    replayed = Replayer(out.recording, schedule=schedule).run()
    assert session.verify(out, replayed).ok
