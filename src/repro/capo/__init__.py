"""Capo3: the software stack that manages the recording hardware.

The Replay Sphere Manager (RSM) sits at every kernel crossing: it
terminates chunks on kernel entry, virtualizes the MRR across context
switches, logs every program input (syscall results, copy-to-user payloads,
trapped nondeterministic instructions, signal deliveries), and drains the
per-core chunk buffers into the log. A finished run is packaged as a
:class:`Recording` — the bundle the replayer consumes and the only thing
replay is allowed to see.
"""

from .events import InputEvent, EV_EXIT, EV_NONDET, EV_SIGNAL, EV_SIGRETURN, EV_SYSCALL
from .input_log import encode_events, decode_events
from .chunk_buffer import ChunkBuffer
from .sphere import ReplaySphere
from .rsm import ReplaySphereManager, RSMStats, MODE_FULL, MODE_HW
from .recording import Recording

__all__ = [
    "InputEvent",
    "EV_SYSCALL",
    "EV_NONDET",
    "EV_SIGNAL",
    "EV_SIGRETURN",
    "EV_EXIT",
    "encode_events",
    "decode_events",
    "ChunkBuffer",
    "ReplaySphere",
    "ReplaySphereManager",
    "RSMStats",
    "MODE_FULL",
    "MODE_HW",
    "Recording",
]
