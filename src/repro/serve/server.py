"""The threaded multi-tenant campaign server.

:class:`ServeClient` is the control plane of ``repro.serve``: it owns
the snapshot registry, the fair scheduler, and the session table, and
runs tenant campaigns on a bounded pool of worker threads.  Sessions
beyond ``max_active`` queue; the scheduler turnstile interleaves the
active ones on their own threads.  Admission, dispatch, completion,
drain and :meth:`ServeClient.stats` share one
:class:`threading.Condition`, taken by the submitting thread and by
each worker as its session finishes.  The lock order is the server
lock, then the scheduler's; the scheduler never calls back into the
server.

Admission control happens at :meth:`ServeClient.submit`: unknown
chaos profiles, network-mutating profiles (illegal against frozen
shared snapshots), and non-positive weights are rejected with
:class:`AdmissionError` before any resources are committed.

Shutdown is a **graceful drain**: :meth:`ServeClient.drain` stops
admission, optionally cancels still-queued sessions, lets active
campaigns run to completion, and wakes every waiter.
:meth:`ServeClient.request_drain` starts one from a signal handler
without touching the server lock — the behaviour ``tools/soak.py
serve`` wires to SIGTERM.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Set

from repro.obs import Obs
from repro.serve.registry import SnapshotRegistry
from repro.serve.scheduler import FairScheduler
from repro.serve.session import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    AdmissionError,
    CampaignSession,
    TenantSpec,
)

__all__ = ["ServeClient", "SessionHandle"]


class SessionHandle:
    """Synchronous view of a submitted session."""

    def __init__(self, session: CampaignSession) -> None:
        self.session = session

    @property
    def spec(self) -> TenantSpec:
        """The submitted tenant spec."""
        return self.session.spec

    @property
    def status(self) -> str:
        """Current lifecycle state."""
        return self.session.status

    @property
    def events(self) -> List[Dict[str, object]]:
        """Structured events buffered so far."""
        return self.session.events

    def wait(self, timeout: Optional[float] = None):
        """Block until the campaign finishes; returns its result
        (see :meth:`CampaignSession.wait`)."""
        return self.session.wait(timeout)


class ServeClient:
    """Thread-safe multi-tenant campaign server.

    ``max_active`` bounds concurrently *running* sessions (each holds
    one worker thread).  ``stream_sink`` (an object with
    ``write(record)``) receives every session's events tagged with its
    tenant name — the combined JSONL stream the CLI writes.  Finished
    sessions are pruned; :meth:`stats` tallies them by status.
    """

    def __init__(
        self,
        registry: Optional[SnapshotRegistry] = None,
        obs: Optional[Obs] = None,
        max_active: int = 4,
        stream_sink=None,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.obs = obs if obs is not None else Obs()
        self.registry = (
            registry if registry is not None
            else SnapshotRegistry(obs=self.obs)
        )
        self.scheduler = FairScheduler(obs=self.obs)
        self.max_active = max_active
        #: Finished sessions by final status (they are no longer kept).
        self._finished: Counter = Counter()
        self._pending: Deque[CampaignSession] = deque()
        self._running: Set[CampaignSession] = set()
        #: Set without the lock by :meth:`request_drain`.
        self._draining = False
        self._cancel_queued = False
        self._cond = threading.Condition()
        self._stream_sink = stream_sink
        self._stream_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Admission + submission

    def _admit(self, spec: TenantSpec) -> None:
        """Validate a spec; raise :class:`AdmissionError` if unsafe."""
        if self._draining:
            raise AdmissionError("server is draining; not admitting")
        if spec.weight <= 0:
            raise AdmissionError(
                f"tenant {spec.tenant!r} weight must be positive"
            )
        if spec.fault_profile is not None:
            from repro.faults import fault_profile

            try:
                profile = fault_profile(spec.fault_profile)
            except ValueError as exc:
                raise AdmissionError(str(exc)) from None
            if profile.mutates_network:
                raise AdmissionError(
                    f"fault profile {spec.fault_profile!r} fires "
                    "network-mutating flaps and cannot run against a "
                    "shared frozen snapshot; run it standalone "
                    "(repro campaign --fault-profile), or run a monitoring fleet "
                    "(repro fleet) — each fleet chain churns a "
                    "private copy-on-churn twin of the shared render"
                )

    def submit(self, spec: TenantSpec) -> SessionHandle:
        """Admit a tenant and queue its campaign session."""
        with self._cond:
            self._admit(spec)
            session = CampaignSession(
                spec,
                self.registry,
                self.scheduler,
                shared_sink=self._stream_sink,
                shared_sink_lock=self._stream_lock,
            )
            self._pending.append(session)
            self.obs.metrics.inc("serve.sessions.submitted")
            self._dispatch()
        return SessionHandle(session)

    # ------------------------------------------------------------------
    # Dispatch and completion (server lock held)

    def _dispatch(self) -> None:
        """Cancel queued sessions when a drain asked for it, else
        start them while worker slots are free."""
        if self._cancel_queued:
            while self._pending:
                session = self._pending.popleft()
                session.status = CANCELLED
                self.obs.metrics.inc("serve.sessions.cancelled")
                self._settle(session)
        while self._pending and len(self._running) < self.max_active:
            session = self._pending.popleft()
            session.status = RUNNING
            self._running.add(session)
            # Lanes open at start-of-run, not submission: a queued
            # tenant without a thread must never pace the turnstile.
            self.scheduler.register(
                session.spec.tenant, session.spec.weight
            )
            threading.Thread(
                target=self._work, args=(session,), name="repro-serve"
            ).start()
        self.obs.metrics.set_gauge(
            "serve.sessions.queued", len(self._pending)
        )
        self.obs.metrics.set_gauge(
            "serve.sessions.running", len(self._running)
        )

    def _work(self, session: CampaignSession) -> None:
        """Worker-thread body: run one session, record its outcome."""
        try:
            result, error = session._run(), None
        except BaseException as exc:  # noqa: B036 - faithfully recorded
            result, error = None, exc
        with self._cond:
            self._running.discard(session)
            if error is None:
                session.result = result
                session.status = DONE
                self.obs.metrics.inc("serve.sessions.completed")
                if result.partial:
                    self.obs.metrics.inc("serve.sessions.partial")
            else:
                session.error = error
                session.status = FAILED
                self.obs.metrics.inc("serve.sessions.failed")
            if session.metrics is not None:
                denied = session.metrics.get("measure.budget.denied")
                if denied:
                    self.obs.metrics.inc("serve.budget_denials", denied)
            self._settle(session)
            self.scheduler.retire(session.spec.tenant)
            self._dispatch()

    def _settle(self, session: CampaignSession) -> None:
        """Tally a finished session and wake its waiters."""
        session.grant_snapshot = self.scheduler.stats()
        self._finished[session.status] += 1
        session._done.set()
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Drain + introspection

    def drain(self, cancel_queued: bool = False,
              timeout: Optional[float] = None) -> None:
        """Stop admission and wait for submitted work to settle.

        ``cancel_queued=False`` (the default) lets everything already
        submitted run to completion; ``cancel_queued=True`` cancels
        sessions that have not started yet — active campaigns still
        finish cleanly either way.  Raises :class:`TimeoutError` if
        work is still running after ``timeout`` seconds.
        """
        self.request_drain(cancel_queued)
        with self._cond:
            self._dispatch()
            if not self._cond.wait_for(
                lambda: not self._pending and not self._running, timeout
            ):
                raise TimeoutError(
                    f"drain timed out with {len(self._running)} "
                    "session(s) running"
                )

    def request_drain(self, cancel_queued: bool = True) -> None:
        """Signal-handler-safe drain trigger (does not block).

        A handler runs on the main thread, which may hold the server
        lock inside :meth:`submit`, so this only flags the server:
        admission stops at once, and queued sessions are cancelled
        when the next running session finishes (the only event that
        could have started them).
        """
        if cancel_queued:
            self._cancel_queued = True
        self._draining = True

    @property
    def sessions(self) -> List[CampaignSession]:
        """Sessions still queued or running; finished ones are
        pruned."""
        with self._cond:
            return [*self._pending, *self._running]

    def stats(self) -> Dict[str, object]:
        """Server summary: sessions, scheduler lanes, registry reuse."""
        with self._cond:
            live = Counter(
                {QUEUED: len(self._pending), RUNNING: len(self._running)}
            )
            return {
                "sessions": dict(self._finished + live),
                "queued": len(self._pending),
                "running": len(self._running),
                "draining": self._draining,
                "scheduler": self.scheduler.stats(),
                "registry": self.registry.stats(),
            }

    def close(self) -> None:
        """Drain everything submitted (queued work still runs)."""
        self.drain()
