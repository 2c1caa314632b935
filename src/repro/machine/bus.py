"""The coherence fabric: a serializing snoop bus, and a directory model.

Every coherence transaction (read miss, write miss, upgrade) passes through
here, in a single global order — the simulator's equivalent of the QuickIA
front-side bus. Two kinds of agents observe transactions:

- the other cores' caches, which downgrade or invalidate their copies
  (MESI); and
- the per-core Memory Race Recorders, whose signatures are tested against
  the line; a hit terminates the recorder's current chunk. As in the
  prototype, the test is a side effect of the request.

Both fabrics (selected by ``MachineConfig.coherence``) run the one
transaction body, :meth:`SnoopBus.transaction`; they differ only in which
caches it snoops, which recorders it tests and how the notifies are
counted:

- :class:`SnoopBus` — the reference broadcast fabric: every transaction
  reaches all other agents (``num_cores - 1`` snoops). Every other
  recorder tests its signatures against the line; the conservative
  presence summary lets the simulator skip only the cache snoops that are
  provable no-ops.
- :class:`DirectoryBus` — a home-node directory that additionally keeps
  the *exact* per-line sharer set (maintained on fill and eviction) and
  notifies caches point-to-point, O(sharers) instead of O(num_cores).
  It forwards the recorder test to the cores in the presence summary
  only, so it records what the snooping bus records only while no Bloom
  signature aliases the line — see the class docstring.

The transaction also fills the requester's cache and charges its cycles,
so a miss is one call from the core's memory path.

The fabric also owns ``order_clock``, the globally synchronized
chunk-timestamp source: the interconnect is the one serialization point
every chunk termination already passes through, so the clock lives here
rather than in a machine-global counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..mrr.chunk import Reason
from ..perf.costmodel import DEFAULT_COST_MODEL, CostModel
from ..telemetry import NULL_TELEMETRY, Telemetry
from .cache import EXCLUSIVE, MESICache, MODIFIED, SHARED

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from ..mrr.recorder import MemoryRaceRecorder

#: MESI states that own a line: a remote read downgrades them to Shared.
_OWNED = (MODIFIED, EXCLUSIVE)

_RAW = Reason.RAW
_WAR = Reason.WAR
_WAW = Reason.WAW


@dataclass
class BusStats:
    transactions: int = 0
    reads: int = 0
    read_exclusives: int = 0
    upgrades: int = 0
    flushes: int = 0
    #: Point-to-point agent notifications actually delivered. The snooping
    #: fabric broadcasts, so here this equals ``broadcast_snoops``; the
    #: directory delivers O(sharers) and the difference lands in
    #: ``notifies_saved``.
    notifies_sent: int = 0
    #: What a broadcast fabric would have delivered: (num_cores - 1) per
    #: transaction. Identical workloads produce identical values under
    #: both fabrics, which is what makes the saved ratio comparable.
    broadcast_snoops: int = 0
    #: broadcast_snoops - notifies_sent (0 on the snooping bus).
    notifies_saved: int = 0
    #: Directory only: histogram of exact cache-sharer-set sizes per
    #: transaction (requester excluded). Empty on the snooping bus.
    sharer_hist: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["sharer_hist"] = dict(self.sharer_hist)
        return out


class SnoopBus:
    """Serializes coherence transactions across ``num_cores`` agents."""

    def __init__(self, num_cores: int, cost: CostModel | None = None,
                 telemetry: Telemetry | None = None):
        self.num_cores = num_cores
        self._caches: list[MESICache | None] = [None] * num_cores
        self._recorders: list[MemoryRaceRecorder | None] = [None] * num_cores
        self.stats = BusStats()
        # Globally synchronized chunk-timestamp source — the simulator's
        # stand-in for the invariant TSC the prototype reads at chunk
        # termination. The interconnect is the serialization point every
        # termination already synchronizes with, so the clock lives here.
        # Strictly increasing across all cores: replay's
        # (timestamp, rthread) sort reproduces real termination order and
        # every cross-chunk dependency is respected by construction.
        self.order_clock = 0
        # Hoisted broadcast fan-out for the notify accounting.
        self._broadcast = num_cores - 1
        # Conservative per-line presence summary: bit c set means core c
        # *may* hold the line. Lines with no transaction history default to
        # "anyone may hold it" (tests pre-fill caches directly, bypassing
        # the bus). A bit is cleared only by a remote-write transaction —
        # which invalidates that core's copy AND tests its recorder in the
        # same transaction — and is never cleared on eviction, so the
        # summary is always a superset of the true holder set and of every
        # line truly inserted in a recorder signature (pinned by the MESI
        # invariant suite).
        self._all_mask = (1 << num_cores) - 1
        self._presence: dict[int, int] = {}
        # The directory's exact per-line cache-holder set; None on the
        # snooping bus, which snoops every present cache.
        self._sharers: dict[int, int] | None = None
        # The requester's charges, fixed for the fabric's lifetime.
        cost = cost or DEFAULT_COST_MODEL
        self._cost_l1_miss = cost.l1_miss
        self._cost_upgrade = cost.upgrade
        self._cost_writeback = cost.writeback
        self.telemetry = telemetry = telemetry or NULL_TELEMETRY
        self._tm_enabled = telemetry.enabled

    def presence_mask(self, line: int) -> int:
        """The conservative holder bitmask for ``line``."""
        return self._presence.get(line, self._all_mask)

    def attach_cache(self, core_id: int, cache: MESICache) -> None:
        self._caches[core_id] = cache

    def attach_recorder(self, core_id: int,
                        recorder: MemoryRaceRecorder | None) -> None:
        self._recorders[core_id] = recorder

    def transaction(self, core, line: int, is_write: bool,
                    upgrade: bool = False) -> None:
        """Run one transaction for the requesting ``core``.

        Snoops the other present cores' caches and tests the other
        recorders' signatures (on the directory, the present ones'),
        terminating a recorder's chunk on a hit; then fills the
        requester's cache and charges its cycles. ``upgrade`` marks a
        Shared-to-Modified upgrade (the requester already holds the line;
        no data transfer, but invalidations and snooping still occur).
        """
        stats = self.stats
        stats.transactions += 1
        if upgrade:
            stats.upgrades += 1
        elif is_write:
            stats.read_exclusives += 1
        else:
            stats.reads += 1

        # Presence filters the cache snoops: a core whose presence bit is
        # clear cannot hold the line (the write that cleared the bit
        # invalidated its copy), so skipping its snoop mutates nothing.
        # It does not filter the snooping bus's recorder tests: that core
        # holds no true signature entry for the line (the same write
        # tested its recorder, and a true member always tests positive),
        # but a Bloom signature can still alias the line, and every MRR on
        # a shared bus sees every transaction. The mask is read once,
        # before any update, so a transaction never filters on its own
        # effects.
        all_mask = self._all_mask
        present = self._presence.get(line, all_mask)
        req_bit = 1 << core.core_id
        notify = present & ~req_bit
        broadcast = self._broadcast
        stats.broadcast_snoops += broadcast
        sharer_sets = self._sharers
        if sharer_sets is None:
            stats.notifies_sent += broadcast
            cache_mask = notify
            tested = all_mask ^ req_bit
        else:
            # The directory sends one message per present core and snoops
            # only the caches that really hold the line.
            sharers = sharer_sets.get(line, all_mask)
            cache_mask = notify & sharers
            tested = notify
            sent = notify.bit_count()
            stats.notifies_sent += sent
            stats.notifies_saved += broadcast - sent
            hist = stats.sharer_hist
            holders = cache_mask.bit_count()
            hist[holders] = hist.get(holders, 0) + 1

        # One pass over the set bits, ascending core id (lowest bit
        # first). The cache snoop and the signature test touch disjoint
        # state, so interleaving them per core is observably identical to
        # two passes. The cache snoop is MESICache.snoop_remote_write/_read
        # and the signature test MemoryRaceRecorder.snoop, inline.
        shared = False
        flushed = False
        caches = self._caches
        recorders = self._recorders
        # The line's signature mask, looked up at the first non-empty
        # signature: every recorder hashes with the one shared hasher of
        # the machine's MRR geometry, so one lookup serves them all.
        sig_mask = 0
        mask = tested
        while mask:
            low = mask & -mask
            mask ^= low
            core_id = low.bit_length() - 1
            if low & cache_mask:
                cache = caches[core_id]
                if cache is not None:
                    entry_set = cache._sets[
                        (line >> cache._line_shift) & cache._set_mask]
                    if is_write:
                        state = entry_set.pop(line, None)
                        if state is not None:
                            cache_stats = cache.stats
                            cache_stats.invalidations_received += 1
                            if state == MODIFIED:
                                cache_stats.writebacks += 1
                                flushed = True
                    else:
                        state = entry_set.get(line)
                        if state is not None:
                            shared = True
                            if state in _OWNED:
                                cache_stats = cache.stats
                                if state == MODIFIED:
                                    cache_stats.writebacks += 1
                                entry_set[line] = SHARED
                                cache_stats.downgrades_received += 1
            recorder = recorders[core_id]
            if recorder is None:
                continue
            # A remote read tests the write set only; an empty signature
            # (always so just after a chunk boundary, and while the
            # recorder has no thread: clear_thread empties both and
            # inserts need a thread) is decided without the mask.
            write_word = recorder.write_sig._word
            read_word = recorder.read_sig._word if is_write else 0
            if not (write_word or read_word):
                continue
            if not sig_mask:
                sig_mask = (recorder._masks.get(line)
                            or recorder._hasher.mask(line))
            if write_word & sig_mask == sig_mask:
                reason = _WAW if is_write else _RAW
                if recorder._tm_on:
                    recorder._note_snoop_cut(line, recorder._exact_writes,
                                             reason)
                recorder.terminate(reason)
            elif read_word & sig_mask == sig_mask:
                if recorder._tm_on:
                    recorder._note_snoop_cut(line, recorder._exact_reads,
                                             _WAR)
                recorder.terminate(_WAR)

        if is_write:
            if flushed:
                stats.flushes += 1
            # Everyone else was just invalidated — and, crucially, also
            # tested: any recorder whose signature held the line has just
            # terminated its chunk and cleared its signatures. Only now is
            # clearing their presence bits sound; the requester is the
            # sole holder for both summaries.
            self._presence[line] = req_bit
            if sharer_sets is not None:
                sharer_sets[line] = req_bit
            fill_state = MODIFIED
        else:
            # Reads only ADD the requester: a core that evicted the line
            # may still carry it in a chunk signature, and narrowing to the
            # caches that answered the BusRd would stop testing that
            # recorder — missing a later WAR conflict. Bits are cleared by
            # writes alone.
            self._presence[line] = present | req_bit
            if sharer_sets is not None:
                sharer_sets[line] = sharers | req_bit
            fill_state = SHARED if shared else EXCLUSIVE

        # The requester's fill, inline unless a victim must go
        # (MESICache.fill), after the sharer update: an eviction the fill
        # causes clears the victim's sharer bit. Its charges: the miss or
        # upgrade, a remote Modified copy's flush, a dirty victim's
        # writeback.
        cycles = self._cost_upgrade if upgrade else self._cost_l1_miss
        if flushed:
            cycles += self._cost_writeback
        entry_set = core._sets[(line >> core._line_shift) & core._set_mask]
        if line in entry_set:
            entry_set[line] = fill_state
            entry_set.move_to_end(line)
        elif len(entry_set) < core._ways:
            entry_set[line] = fill_state
        elif core.cache.fill(line, fill_state):
            cycles += self._cost_writeback
        core.cycles += cycles
        if self._tm_enabled:
            telemetry = self.telemetry
            if stats.transactions % telemetry.sampling == 0:
                telemetry.tracer.instant(
                    "bus.txn", cat="machine", tid=core.core_id,
                    args={"line": line, "write": is_write,
                          "upgrade": upgrade})


class DirectoryBus(SnoopBus):
    """Directory (home-node) coherence: notify exact sharers, not everyone.

    Alongside the conservative ``_presence`` summary the directory keeps
    the *exact* cache-holder set per line — ``_sharers`` — maintained at
    the three points a copy can appear or disappear: transaction fills
    (the requester gains the line), remote-write invalidation (everyone
    else loses it; folded into the write-path update), and eviction
    (:meth:`note_eviction`, wired to each cache's ``evict_listener``).
    Lines with no history default to "everyone", exactly like presence,
    because tests pre-fill caches without going through a bus transaction.
    The invariant ``sharers ⊆ presence`` (modulo the untracked default)
    and ``sharers ⊇ true holders`` is pinned by the lockstep suite.

    Who gets notified:

    - **Caches**: only cores in the exact sharer set. A cache snoop on a
      non-holder is a pure no-op (no state change, no stats), so skipping
      it is bit-identical — same argument as the presence filter, with a
      tight set instead of a superset.
    - **Recorders**: the home node forwards the transaction to every core
      in the *presence* set, whose recorder may hold the line truly in a
      signature. The sharer set is too tight for that: a core that evicted
      the line (out of the sharer set, still in presence) still carries it
      in its signatures. Presence is as far as a home node can see, since
      it cannot know which signatures alias the line. The snooping bus
      tests every recorder instead, so the two fabrics record alike only
      while no Bloom signature false-positives on a core whose presence
      bit a remote write cleared: that core's chunk is cut on the
      snooping bus and not here.

    The transaction is the shared :meth:`SnoopBus.transaction`; its notify
    counters record the point-to-point messages actually sent
    (popcount of the present cores) versus the broadcast a shared bus
    would have cost, and ``sharer_hist`` the exact holder-set sizes.
    """

    def __init__(self, num_cores: int, cost: CostModel | None = None,
                 telemetry: Telemetry | None = None):
        super().__init__(num_cores, cost, telemetry)
        # Same untracked default as presence ("anyone may hold it").
        self._sharers = {}

    def sharer_mask(self, line: int) -> int:
        """The exact cache-holder bitmask for ``line``."""
        return self._sharers.get(line, self._all_mask)

    def attach_cache(self, core_id: int, cache: MESICache) -> None:
        super().attach_cache(core_id, cache)
        # Evictions are the one holder-set change the transaction stream
        # cannot see; the cache reports them so the sharer set stays exact.
        cache.evict_listener = (
            lambda line, _cid=core_id: self.note_eviction(_cid, line))

    def note_eviction(self, core_id: int, line: int) -> None:
        """``core_id`` dropped its copy of ``line`` (eviction/flush)."""
        self._sharers[line] = (self._sharers.get(line, self._all_mask)
                               & ~(1 << core_id))
