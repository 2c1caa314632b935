"""Per-layer host-time accounting by wrapping public entry points.

The benchmark's traced run installs a :class:`LayerTrace`, which replaces
each entry point named in :data:`ENTRY_POINTS` (a class attribute or a
module function) with a timing wrapper, and puts the original back on
:meth:`LayerTrace.uninstall`. Nothing in ``src/`` knows it is traced.

Hot entry points run hundreds of thousands of times per round trip, so
they are aggregated per name (call count, busy time, self time) rather
than stored as spans. A span stack gives self time: each call's duration
minus the durations of the wrapped calls made inside it. The benchmark's
phase spans (record, save, load, ...) share the same stack, so the self
times of one round trip sum to its phases' wall time.

Calls made inside forked worker processes (parallel replay) update the
worker's copy of the counters and are lost; the parent sees that time
as self time of the phase that waited for the pool.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: (module, attribute path, layer metric name). Several entry points may
#: share one name; their counts and times add up. Functions imported by
#: name into ``repro.capo.recording`` are wrapped where that module
#: looks them up, which is where the bundle codecs are called from.
ENTRY_POINTS = (
    ("repro.kernel.kernel", "Kernel.run", "kernel.run"),
    ("repro.kernel.syscalls", "dispatch", "kernel.syscall"),
    ("repro.machine.machine", "Machine.step_core", "machine.step"),
    ("repro.machine.bus", "SnoopBus.transaction", "machine.bus"),
    ("repro.machine.memory", "PhysicalMemory.digest", "machine.memory_digest"),
    ("repro.mrr.recorder", "MemoryRaceRecorder.terminate", "mrr.terminate"),
    ("repro.mrr.recorder", "MemoryRaceRecorder.snoop", "mrr.snoop"),
    ("repro.capo.recording", "encode_chunks", "mrr.encode"),
    ("repro.capo.recording", "compress_chunks", "mrr.encode"),
    ("repro.capo.recording", "decode_chunks", "mrr.decode"),
    ("repro.capo.recording", "decompress_chunks", "mrr.decode"),
    ("repro.capo.rsm", "ReplaySphereManager.log_syscall", "capo.log"),
    ("repro.capo.rsm", "ReplaySphereManager.log_nondet", "capo.log"),
    ("repro.capo.rsm", "ReplaySphereManager.log_signal", "capo.log"),
    ("repro.capo.rsm", "ReplaySphereManager.log_sigreturn", "capo.log"),
    ("repro.capo.rsm", "ReplaySphereManager.log_exit", "capo.log"),
    ("repro.capo.chunk_buffer", "ChunkBuffer.drain", "capo.cbuf.drain"),
    ("repro.capo.rsm", "ReplaySphereManager.finalize", "capo.finalize"),
    ("repro.capo.recording", "encode_events", "capo.input_log.encode"),
    ("repro.capo.recording", "decode_events", "capo.input_log.decode"),
    ("repro.replay.replayer", "Replayer.step_chunk", "replay.step_chunk"),
    ("repro.replay.pending", "WithheldStores.resolve",
     "replay.pending.resolve"),
    ("repro.replay.checkpoint", "capture_state", "replay.checkpoint.capture"),
    ("repro.capo.recording", "encode_checkpoints",
     "replay.checkpoint.encode"),
    ("repro.capo.recording", "decode_checkpoints",
     "replay.checkpoint.decode"),
    ("repro.replay.checkpoint", "state_digest", "replay.checkpoint.digest"),
    ("repro.mrr.logfmt", "CheckpointRecord.for_payload",
     "replay.checkpoint.digest"),
)

#: Entry points whose first argument's ``len`` is summed at entry: the
#: withheld-store FIFO depth each store-to-load forward has to scan.
DEPTH_PROBES = frozenset({"replay.pending.resolve"})

_NS = 1e-9


class LayerStats:
    """Counters of one name: calls, busy and self nanoseconds, and the
    summed entry depth (for :data:`DEPTH_PROBES`)."""

    __slots__ = ("count", "busy_ns", "self_ns", "depth")

    def __init__(self) -> None:
        self.count = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.depth = 0


class LayerTrace:
    """Span stack plus per-name counters; wraps :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        # One child-time accumulator per open span; the bottom entry
        # collects root spans and is never popped.
        self._stack: list[list[int]] = [[0]]
        self._originals: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _counter(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def timed(self, fn, name: str):
        """``fn`` wrapped to account each call to ``name``."""
        stats = self._counter(name)
        stack = self._stack
        clock = time.perf_counter_ns
        probe = name in DEPTH_PROBES

        def wrapper(*args, **kwargs):
            if probe:
                stats.depth += len(args[0])
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats.count += 1
                stats.busy_ns += elapsed
                stats.self_ns += elapsed - frame[0]

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Account the ``with`` body to ``name`` like a wrapped call."""
        stats = self._counter(name)
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            self._stack[-1][0] += elapsed
            stats.count += 1
            stats.busy_ns += elapsed
            stats.self_ns += elapsed - frame[0]

    def reset(self) -> None:
        """Zero every counter (between round trips)."""
        for stats in self.stats.values():
            stats.count = stats.busy_ns = stats.self_ns = stats.depth = 0

    def snapshot(self) -> dict[str, float]:
        """Flat metrics: ``<name>.count``, ``.busy_s``, ``.self_s`` and,
        for depth probes, ``.depth_mean``."""
        out: dict[str, float] = {}
        for name, stats in sorted(self.stats.items()):
            out[f"{name}.count"] = stats.count
            out[f"{name}.busy_s"] = stats.busy_ns * _NS
            out[f"{name}.self_s"] = stats.self_ns * _NS
            if name in DEPTH_PROBES:
                out[f"{name.rsplit('.', 1)[0]}.depth_mean"] = (
                    stats.depth / stats.count if stats.count else 0.0)
        return out

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point. Raises if one is already wrapped."""
        if self._originals:
            raise RuntimeError("layer trace already installed")
        try:
            for module_name, path, name in ENTRY_POINTS:
                self._wrap(module_name, path, name)
        except BaseException:
            self.uninstall()
            raise

    def _wrap(self, module_name: str, path: str, name: str) -> None:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(module_name)
        for part in owner_path:
            owner = getattr(owner, part)
        # Restoring by setattr is exact only for an attribute the owner
        # defines itself, not one it inherits.
        if attr not in vars(owner):
            raise RuntimeError(f"{path} is not defined in {module_name}")
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.timed(original.__func__, name))
        else:
            replacement = self.timed(original, name)
        setattr(owner, attr, replacement)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
