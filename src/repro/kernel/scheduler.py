"""Run queue and sleep queue."""

from __future__ import annotations

import heapq
from collections import deque

# Shared empty result for the (overwhelmingly common) no-sleepers-due tick;
# callers only iterate it.
_NO_SLEEPERS: list[int] = []


class Scheduler:
    """FIFO run queue plus a min-heap of sleeping tasks."""

    def __init__(self):
        # Public for the kernel's per-unit fast path (which peeks at the
        # sleepers to skip whole-method calls when nothing is due); callers
        # other than the scheduler must treat them as read-only.
        self.queue: deque[int] = deque()
        self.sleepers: list[tuple[int, int]] = []

    def enqueue(self, tid: int) -> None:
        self.queue.append(tid)

    def pop_next(self) -> int | None:
        if self.queue:
            return self.queue.popleft()
        return None

    def __len__(self) -> int:
        return len(self.queue)

    # -- sleepers -----------------------------------------------------------

    def add_sleeper(self, wake_step: int, tid: int) -> None:
        heapq.heappush(self.sleepers, (wake_step, tid))

    def due_sleepers(self, now: int) -> list[int]:
        sleepers = self.sleepers
        if not sleepers or sleepers[0][0] > now:
            return _NO_SLEEPERS
        due = []
        while sleepers and sleepers[0][0] <= now:
            due.append(heapq.heappop(sleepers)[1])
        return due

    @property
    def sleeping(self) -> int:
        return len(self.sleepers)

    @property
    def next_wake(self) -> int | None:
        return self.sleepers[0][0] if self.sleepers else None
