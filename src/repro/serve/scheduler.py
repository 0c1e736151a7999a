"""Weighted fair scheduling of probe batches across tenants.

The scheduler is a *turnstile*: one grant is outstanding at a time,
so the shared simulator is never entered concurrently.  Turns go by
**virtual time** — probes charged divided by weight.  The live lane
with the smallest virtual time takes the turnstile for a *quantum*,
until it has advanced :data:`QUANTUM` past the floor it took it at:
deficit round robin, so a weight-4 lane moves 32 probes per turn, a
weight-1 lane 8, and grant ratios equal weight ratios to within one
quantum.

The turnstile lives on the session threads: state sits behind one
:class:`threading.Condition` and :class:`ScheduledBackend`, a
transparent :class:`~repro.measure.backend.ProbeBackend` wrapper,
makes plain blocking ``acquire``/``release`` calls around each
``submit``/``submit_batch``.  A thread inside its quantum neither
blocks nor wakes anyone.  Scheduling decides *when* a batch runs,
never what it probes, so served campaigns stay byte-identical to
standalone runs.

Counters (server registry, ``serve.*`` family): queue depth gauge
``serve.queue_depth``, ``serve.batches_dispatched``,
``serve.probes_granted``, and per-tenant
``serve.tenant.<name>.batches`` / ``.probes``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Set

from repro.obs import Obs

__all__ = ["QUANTUM", "FairScheduler", "ScheduledBackend"]

#: Virtual time a lane may advance per turn (measured: DESIGN §13).
QUANTUM = 8.0


class _Lane(object):
    """Per-tenant scheduler state (guarded by the scheduler's lock)."""

    __slots__ = (
        "name", "weight", "charged", "granted_probes",
        "granted_batches", "waiting", "refs",
    )

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        #: Probes charged so far; ``charged / weight`` is the lane's
        #: virtual time.
        self.charged = 0.0
        self.granted_probes = 0
        self.granted_batches = 0
        self.waiting = 0  # threads blocked in acquire
        #: Running sessions referencing this lane; a lane with no
        #: refs is *retired* — it keeps its totals for stats but no
        #: longer holds the turnstile for its virtual time.
        self.refs = 0

    @property
    def virtual_time(self) -> float:
        """Weighted consumption — the quantity the scheduler levels."""
        return self.charged / self.weight


class FairScheduler:
    """Deficit-weighted turnstile over tenant lanes.

    Thread-safe: every method takes the one condition lock (an
    ``RLock``).  The server calls :meth:`register` and :meth:`retire`
    as sessions start and finish.
    """

    def __init__(self, obs: Optional[Obs] = None) -> None:
        self.obs = obs if obs is not None else Obs()
        self._lanes: Dict[str, _Lane] = {}
        #: Lanes with running sessions (``refs > 0``).
        self._live: Set[_Lane] = set()
        self._cond = threading.Condition()
        #: A grant is outstanding (its batch is in the simulator).
        self._busy = False
        #: The lane whose quantum runs, and where that quantum ends.
        self._holder: Optional[_Lane] = None
        self._quantum_end = 0.0

    # ------------------------------------------------------------------
    # Lane lifecycle

    def register(self, tenant: str, weight: float = 1.0) -> None:
        """Open (or re-enter) the lane for a starting session.

        Called when a session *starts running* — never at submission,
        so queued tenants without a thread can never become the
        turnstile's pace-setting laggard.  A newcomer starts at the
        minimum live virtual time (it owes nothing, is owed nothing);
        repeat registration bumps the refcount and re-applies the
        weight.
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        with self._cond:
            lane = self._lanes.get(tenant)
            if lane is None:
                lane = _Lane(tenant, weight)
                floor = min(
                    (other.virtual_time for other in self._live),
                    default=0.0,
                )
                lane.charged = floor * weight
                self._lanes[tenant] = lane
            else:
                lane.weight = weight
            lane.refs += 1
            self._live.add(lane)

    def retire(self, tenant: str) -> None:
        """A session on this lane finished; release its pacing hold.

        The lane keeps its grant totals for stats, but once no
        running session references it the scheduler stops waiting for
        it to catch up, ends its quantum, and lets any stranded
        waiter on it through so the owning thread can unwind.
        """
        with self._cond:
            lane = self._lanes.get(tenant)
            if lane is None or lane.refs == 0:
                return
            lane.refs -= 1
            if lane.refs == 0:
                self._live.discard(lane)
                if self._holder is lane:
                    self._holder = None
            self._wake()

    # ------------------------------------------------------------------
    # The turnstile

    def acquire(self, tenant: str, cost: int) -> None:
        """Block until this tenant may move ``cost`` probes."""
        cost = max(1, int(cost))
        with self._cond:
            lane = self._lanes[tenant]
            if not self._may_enter(lane):
                self._queue(lane, +1)
                while not self._may_enter(lane):
                    self._cond.wait()
                self._queue(lane, -1)
            self._busy = True
            if self._holder is None and lane.refs > 0:
                self._holder = lane
                self._quantum_end = lane.virtual_time + QUANTUM
            lane.charged += cost
            lane.granted_probes += cost
            lane.granted_batches += 1
            metrics = self.obs.metrics
            metrics.inc("serve.batches_dispatched")
            metrics.inc("serve.probes_granted", cost)
            metrics.inc(f"serve.tenant.{lane.name}.batches")
            metrics.inc(f"serve.tenant.{lane.name}.probes", cost)

    def release(self) -> None:
        """Return the grant; end a used-up quantum; wake a waiter
        only if one may enter.  A lane running alone never blocks, so
        it yields the interpreter here: else the thread submitting the
        next tenant waits out the switch interval while the lone lane
        runs up to ~180 probes past the newcomer's floor.
        """
        with self._cond:
            self._busy = False
            holder = self._holder
            if holder and holder.virtual_time >= self._quantum_end:
                self._holder = None
            self._wake()
            alone = len(self._live) == 1
        if alone:
            time.sleep(0)

    def _may_enter(self, lane: _Lane) -> bool:
        """Whether a thread on ``lane`` may take the turnstile now.

        Inside a quantum only the holder's lane enters; between quanta
        only the minimum-virtual-time live lane, and the turnstile
        idles while that laggard is between probes — without the
        hold, two alternating tenants degrade to 1:1 round-robin.  A
        retired lane's stranded waiter skips the pacing.
        """
        if self._busy:
            return False
        if lane.refs == 0:
            return True
        if self._holder is not None:
            return self._holder is lane
        floor = min(
            (other.virtual_time, other.name) for other in self._live
        )
        return floor == (lane.virtual_time, lane.name)

    def _queue(self, lane: _Lane, delta: int) -> None:
        """Count a thread into or out of the wait; publish the depth."""
        lane.waiting += delta
        self.obs.metrics.set_gauge("serve.queue_depth", self.queue_depth())

    def _wake(self) -> None:
        """Notify the waiters if any of them may now enter."""
        if any(
            lane.waiting and self._may_enter(lane)
            for lane in self._lanes.values()
        ):
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Introspection

    def queue_depth(self) -> int:
        """Threads currently waiting for a grant."""
        with self._cond:
            return sum(lane.waiting for lane in self._lanes.values())

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant grant totals (snapshot)."""
        with self._cond:
            return {
                lane.name: {
                    "weight": lane.weight,
                    "granted_probes": lane.granted_probes,
                    "granted_batches": lane.granted_batches,
                    "virtual_time": round(lane.virtual_time, 3),
                }
                for lane in self._lanes.values()
            }


class ScheduledBackend:
    """Probe backend that waits its turn at the fair scheduler.

    Transparent to the whole measurement stack: every attribute the
    :class:`~repro.measure.service.ProbeService`, prober or campaign
    probes for (``engine``, ``obs``, ``name``, ``fault_state``…)
    delegates to the wrapped backend, so wrapping changes scheduling
    and nothing else.
    """

    def __init__(self, inner, scheduler: FairScheduler, tenant: str) -> None:
        self._inner = inner
        self._scheduler = scheduler
        self._tenant = tenant

    def __getattr__(self, name: str):
        """Delegate everything but the turnstile to the inner backend."""
        return getattr(self._inner, name)

    def submit(self, request):
        """One probe, after a one-probe grant."""
        self._scheduler.acquire(self._tenant, 1)
        try:
            return self._inner.submit(request)
        finally:
            self._scheduler.release()

    def submit_batch(self, requests):
        """One batch, charged by its probe count."""
        batch = list(requests)
        self._scheduler.acquire(self._tenant, len(batch))
        try:
            return self._inner.submit_batch(batch)
        finally:
            self._scheduler.release()
