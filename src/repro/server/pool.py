"""Bounded, depth-aware dispatch over the in-process worker slots.

Both HTTP fronts serve from per-worker :class:`~repro.facade.Connection`
objects over one shared :class:`~repro.session.ArtifactStore`.
:class:`LocalDispatcher` admits each request onto one slot's *bounded*
pending queue (:func:`elect_slot`: the shallowest queue wins); when
every queue is at ``max_queue_depth`` the request is rejected with
:class:`~repro.errors.OverloadedError` — the transport answers HTTP
503 — rather than piling up unboundedly.
"""

from __future__ import annotations

import threading

from repro.errors import OverloadedError

#: Default bound on each worker's pending-request queue.  When every
#: queue is at the bound, admission fails with
#: :class:`~repro.errors.OverloadedError` (HTTP 503 on the wire) —
#: overload surfaces as immediate, retryable rejection instead of
#: unbounded queueing.
DEFAULT_QUEUE_DEPTH = 16


def elect_slot(depths: list[int], capacity: int) -> int:
    """The shallowest of the pending-queue ``depths``.

    Raises :class:`~repro.errors.OverloadedError` when every queue is
    at ``capacity`` — admission is bounded.  Workers share one store
    (and its caches), so there is no cache locality to prefer.
    """
    shallowest = min(range(len(depths)), key=depths.__getitem__)
    if depths[shallowest] >= capacity:
        raise OverloadedError(
            f"all {len(depths)} worker queues are full "
            f"({capacity} pending each); retry shortly"
        )
    return shallowest


class LocalDispatcher:
    """Depth-aware dispatch over in-process worker slots.

    Each slot carries a bounded pending queue, :meth:`admit` is
    non-blocking (a full fleet raises
    :class:`~repro.errors.OverloadedError`), and only :meth:`acquire`
    waits — for the elected slot specifically.
    """

    def __init__(
        self, slots, max_queue_depth: int = DEFAULT_QUEUE_DEPTH
    ):
        self._slots = list(slots)
        if not self._slots:
            raise ValueError("need at least one worker slot")  # repro: noqa[EXC-TAXONOMY] -- startup config validation; cmd_serve reports and exits
        if max_queue_depth < 1:
            raise ValueError(  # repro: noqa[EXC-TAXONOMY] -- startup config validation; cmd_serve reports and exits
                f"need a queue depth of at least one, got "
                f"{max_queue_depth}"
            )
        self.max_queue_depth = max_queue_depth
        self.rejections = 0
        self._busy = [False] * len(self._slots)
        self._pending = [0] * len(self._slots)
        self._cond = threading.Condition()

    def __len__(self) -> int:
        return len(self._slots)

    def admit(self) -> int:
        """Reserve a queue-depth unit on the elected slot (or raise
        :class:`~repro.errors.OverloadedError`); pair with
        :meth:`release`."""
        with self._cond:
            try:
                index = elect_slot(self._pending, self.max_queue_depth)
            except OverloadedError:
                self.rejections += 1
                raise
            self._pending[index] += 1
            return index

    def acquire(self, index: int):
        """Wait for slot ``index`` and return its worker object."""
        with self._cond:
            while self._busy[index]:
                self._cond.wait(timeout=1.0)
            self._busy[index] = True
            return self._slots[index]

    def release(self, index: int) -> None:
        """Free the slot and its reserved queue-depth unit."""
        with self._cond:
            self._busy[index] = False
            self._pending[index] -= 1
            self._cond.notify_all()

    def counters(self) -> dict:
        with self._cond:
            return {
                "workers": len(self._slots),
                "rejections": self.rejections,
                "queue_capacity": self.max_queue_depth,
                "queue_depths": list(self._pending),
            }


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "LocalDispatcher",
    "elect_slot",
]
