"""The zero-cost-when-disabled telemetry contract, measured directly.

Every hot path hoists ``telemetry.enabled`` into a plain attribute at
component construction time, so a disabled run must read the flag a small,
*constant* number of times — independent of how much work the simulation
does. A counting stub makes that measurable: if some per-unit or per-event
path regresses to consulting the telemetry object, the read count scales
with the run and this suite fails.
"""

from repro import session, workloads
from repro.session import digest_of
from repro.telemetry import NULL_TELEMETRY, Telemetry


class CountingTelemetry(Telemetry):
    """Disabled telemetry whose ``enabled`` flag counts its own reads."""

    def __init__(self):
        self.enabled_reads = 0
        super().__init__(enabled=False)

    @property
    def enabled(self):
        self.enabled_reads += 1
        return False

    @enabled.setter
    def enabled(self, value):
        pass


def _record(scale, telemetry):
    program, inputs = workloads.build("counter", scale=scale)
    return session.record(program, seed=2, input_files=inputs,
                          telemetry=telemetry)


def test_disabled_flag_reads_do_not_scale_with_work():
    small_stub, large_stub = CountingTelemetry(), CountingTelemetry()
    small = _record(1, small_stub)
    large = _record(3, large_stub)
    assert large.units > 2 * small.units  # the runs really differ in size
    assert small_stub.enabled_reads == large_stub.enabled_reads
    # Setup-only reads: a handful of constructors plus the session
    # wrapper, nowhere near per-unit or per-chunk counts.
    assert small_stub.enabled_reads < 50


def test_disabled_stub_run_is_bit_identical_to_null_telemetry():
    stub = _record(1, CountingTelemetry())
    null = _record(1, NULL_TELEMETRY)
    assert digest_of(stub) == digest_of(null)
    assert stub.total_cycles == null.total_cycles


def test_enabled_run_keeps_the_digest_too():
    """Telemetry observes, never influences: enabling it changes nothing
    about the simulation itself."""
    disabled = _record(1, NULL_TELEMETRY)
    enabled = _record(1, Telemetry(enabled=True))
    assert digest_of(enabled) == digest_of(disabled)
