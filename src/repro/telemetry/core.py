"""The process-facing telemetry facade.

One :class:`Telemetry` value bundles a :class:`~repro.telemetry.tracer.Tracer`
and a :class:`~repro.telemetry.metrics.MetricsRegistry` and travels with a
run: passing one to ``session.simulate``/``record`` or to a replay is the
only way to switch telemetry on. The session hands it to the machine, the
RSM, the kernel and the replayer.

The disabled path is the contract that matters: every instrumentation site
guards with ``if telemetry.enabled:`` — a single attribute load — so a run
with telemetry off executes the same instructions, charges the same cycles
and produces bit-identical digests as a build without the subsystem. The
shared :data:`NULL_TELEMETRY` singleton is what every component defaults
to; it is never mutated.

Diagnostics that are *messages* rather than events (mode completions,
finalize summaries) go through stdlib logging under the ``repro.*``
namespace via :func:`get_logger`; the root ``repro`` logger carries a
``NullHandler`` so the library stays silent unless the application opts
in.

A metric is taken per event only when no stat or log holds its value;
the rest are published at run end (``session._publish_stats``,
``Replayer.result``). The record path's per-event sites emit trace
events and keep only ``mrr.bloom_false_positives``,
``mrr.signature_occupancy_pct`` and ``capo.cbuf_batch_entries``.
"""

from __future__ import annotations

import logging

from ..errors import ConfigError
from .metrics import MetricsRegistry
from .tracer import Tracer

logging.getLogger("repro").addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A library logger under the ``repro.`` namespace."""
    return logging.getLogger(f"repro.{name}")


class Telemetry:
    """Tracer + metrics + the enabled flag, as one value. ``sampling``
    thins the per-step and per-transaction events (1 = every one)."""

    def __init__(self, enabled: bool = True, sampling: int = 1):
        if sampling < 1:
            raise ConfigError("sampling must be >= 1")
        self.enabled = enabled
        self.sampling = sampling
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def snapshot(self) -> dict:
        """The metrics registry as plain values (see ``quickrec stats``)."""
        return self.metrics.snapshot()


#: Shared no-op instance: ``enabled`` is False and nothing ever writes to
#: its tracer or registry (instrumentation sites must guard on
#: ``telemetry.enabled`` before touching either).
NULL_TELEMETRY = Telemetry(enabled=False)
