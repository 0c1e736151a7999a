"""The asyncio campaign server and its in-process client.

:class:`CampaignServer` is the control plane of ``repro.serve``: it
owns the snapshot registry, the fair scheduler, and the session
table, and multiplexes tenant campaigns over a bounded pool of
executor threads.  Sessions beyond ``max_active`` queue; the
scheduler turnstile interleaves the active ones on their own threads,
so the event loop sees admission, drain and live streams, never a probe.

Admission control happens at :meth:`CampaignServer.submit`: unknown
chaos profiles, network-mutating profiles (illegal against frozen
shared snapshots), and non-positive weights are rejected with :class:`AdmissionError`
before any resources are committed.

Shutdown is a **graceful drain**: :meth:`CampaignServer.drain` stops
admission, optionally cancels still-queued sessions, lets active
campaigns run to completion, and resolves every waiter — the
behaviour ``tools/soak.py serve`` wires to SIGTERM.

:class:`ServeClient` is the thin in-process client: it runs the
server's event loop on a background thread and exposes synchronous
``submit``/``wait``/``drain`` for tests, the ``repro serve`` CLI,
and the soak harness.
"""

from __future__ import annotations

import asyncio
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

__all__ = ["CampaignServer", "ServeClient", "SessionHandle"]


class CampaignServer:
    """Async multi-tenant campaign service.

    ``max_active`` bounds concurrently *running* sessions (each holds
    one executor thread).  ``stream_sink`` (an object with
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
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = None
        self._idle: Optional[asyncio.Event] = None
        self._stream_sink = stream_sink
        self._stream_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Bind to the running loop and spin up the thread pool."""
        from concurrent.futures import ThreadPoolExecutor

        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_active,
            thread_name_prefix="repro-serve",
        )
        self._idle = asyncio.Event()
        self._idle.set()

    async def __aenter__(self) -> "CampaignServer":
        """``async with`` entry: start the server."""
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """``async with`` exit: drain (keeping queued work) and stop."""
        await self.close()

    async def close(self) -> None:
        """Drain everything submitted, then release the thread pool."""
        await self.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Admission + submission

    def _admit(self, spec: TenantSpec) -> None:
        """Validate a spec; raise :class:`AdmissionError` if unsafe."""
        if self._loop is None:
            raise AdmissionError("server is not started")
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

    async def submit(self, spec: TenantSpec) -> CampaignSession:
        """Admit a tenant and queue its campaign session."""
        self._admit(spec)
        session = CampaignSession(
            spec,
            self.registry,
            self.scheduler,
            self._loop,
            shared_sink=self._stream_sink,
            shared_sink_lock=self._stream_lock,
        )
        self._pending.append(session)
        self.obs.metrics.inc("serve.sessions.submitted")
        self._pump()
        return session

    # ------------------------------------------------------------------
    # Dispatch (loop thread)

    def _pump(self) -> None:
        """Start queued sessions while thread slots are free."""
        while self._pending and len(self._running) < self.max_active:
            session = self._pending.popleft()
            if session.status != QUEUED:
                continue
            session.status = RUNNING
            self._running.add(session)
            # Lanes open at start-of-run, not submission: a queued
            # tenant without a thread must never pace the turnstile.
            self.scheduler.register(
                session.spec.tenant, session.spec.weight
            )
            future = self._loop.run_in_executor(
                self._executor, session._run
            )
            future.add_done_callback(
                lambda fut, s=session: self._finalize(s, fut)
            )
        self.obs.metrics.set_gauge(
            "serve.sessions.queued", len(self._pending)
        )
        self.obs.metrics.set_gauge(
            "serve.sessions.running", len(self._running)
        )
        self._update_idle()

    def _finalize(
        self, session: CampaignSession, future: "asyncio.Future"
    ) -> None:
        """Record a finished session's outcome (loop thread)."""
        self._running.discard(session)
        try:
            session.result = future.result()
            session.status = DONE
            self.obs.metrics.inc("serve.sessions.completed")
            if session.result.partial:
                self.obs.metrics.inc("serve.sessions.partial")
        except BaseException as exc:  # noqa: B036 - faithfully recorded
            session.error = exc
            session.status = FAILED
            self.obs.metrics.inc("serve.sessions.failed")
        if session.metrics is not None:
            denied = session.metrics.get("measure.budget.denied")
            if denied:
                self.obs.metrics.inc("serve.budget_denials", denied)
        self._settle(session)
        self.scheduler.retire(session.spec.tenant)
        self._pump()

    def _cancel(self, session: CampaignSession) -> None:
        """Cancel a still-queued session (loop thread)."""
        session.status = CANCELLED
        self.obs.metrics.inc("serve.sessions.cancelled")
        self._settle(session)

    def _settle(self, session: CampaignSession) -> None:
        """Tally a finished session and wake its waiters."""
        session.grant_snapshot = self.scheduler.stats()
        self._finished[session.status] += 1
        session._done_event.set()
        session._finalize_stream()

    def _update_idle(self) -> None:
        """Track whether any work remains (drain waits on this)."""
        if self._idle is None:
            return
        if not self._pending and not self._running:
            self._idle.set()
        else:
            self._idle.clear()

    # ------------------------------------------------------------------
    # Drain + introspection

    async def drain(self, cancel_queued: bool = False) -> None:
        """Stop admission and wait for submitted work to settle.

        ``cancel_queued=False`` (the default) lets everything already
        submitted run to completion; ``cancel_queued=True`` cancels
        sessions that have not started yet — active campaigns still
        finish cleanly either way.
        """
        self._draining = True
        if cancel_queued:
            while self._pending:
                self._cancel(self._pending.popleft())
            self._update_idle()
        if self._idle is not None:
            await self._idle.wait()

    @property
    def sessions(self) -> List[CampaignSession]:
        """Sessions still queued or running; finished ones are
        pruned."""
        return [*self._pending, *self._running]

    def stats(self) -> Dict[str, object]:
        """Server summary: sessions, scheduler lanes, registry reuse."""
        live = Counter(session.status for session in self.sessions)
        return {
            "sessions": dict(self._finished + live),
            "queued": len(self._pending),
            "running": len(self._running),
            "draining": self._draining,
            "scheduler": self.scheduler.stats(),
            "registry": self.registry.stats(),
        }


class SessionHandle:
    """Synchronous view of a session for :class:`ServeClient` users."""

    def __init__(self, client: "ServeClient",
                 session: CampaignSession) -> None:
        self._client = client
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
        """Block until the campaign finishes; returns its result."""
        return self._client.wait(self.session, timeout=timeout)


class ServeClient:
    """Thread-backed synchronous client around a private server.

    Spins the server's asyncio loop on a daemon thread so ordinary
    (synchronous) callers — tests, the CLI, the soak tool — can
    submit specs and wait on results without touching asyncio.
    """

    def __init__(self, **server_kwargs) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self.server = CampaignServer(**server_kwargs)
        self._call(self.server.start())

    def _run_loop(self) -> None:
        """Loop-thread body."""
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coro, timeout: Optional[float] = None):
        """Run a coroutine on the server loop and wait for it."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout)

    # ------------------------------------------------------------------

    def submit(self, spec: TenantSpec) -> SessionHandle:
        """Admit and queue one tenant campaign."""
        session = self._call(self.server.submit(spec))
        return SessionHandle(self, session)

    def wait(self, session, timeout: Optional[float] = None):
        """Wait for a session (or handle) and return its result."""
        if isinstance(session, SessionHandle):
            session = session.session
        return self._call(session.wait(), timeout=timeout)

    def drain(self, cancel_queued: bool = False,
              timeout: Optional[float] = None) -> None:
        """Synchronous :meth:`CampaignServer.drain`."""
        self._call(self.server.drain(cancel_queued), timeout=timeout)

    def request_drain(self, cancel_queued: bool = True) -> None:
        """Signal-handler-safe drain trigger (does not block).

        A no-op once the loop is gone (a late signal during interpreter
        shutdown must not raise from the handler).
        """
        coro = self.server.drain(cancel_queued)
        try:
            asyncio.run_coroutine_threadsafe(coro, self._loop)
        except RuntimeError:
            coro.close()

    def stats(self) -> Dict[str, object]:
        """Server summary (see :meth:`CampaignServer.stats`)."""
        async def _stats():
            return self.server.stats()

        return self._call(_stats())

    def close(self) -> None:
        """Drain, stop the server, and tear the loop down."""
        try:
            self._call(self.server.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()
