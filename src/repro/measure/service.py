"""ProbeService: cross-cutting measurement policy over any backend.

The service owns everything a real campaign has to care about beyond
"send a probe": per-campaign and per-technique probe budgets,
retry-with-backoff on timeouts, per-probe and per-trace deadlines,
and a response cache that stops the pipeline from re-probing addresses
it already measured.  Composers (:class:`~repro.probing.prober.\
Prober`) and the techniques talk to the service; the service talks to
a :class:`~repro.measure.backend.ProbeBackend`.

Everything the service does is deterministic given a deterministic
backend — budgets count probes, deadlines count *simulated*
measurement milliseconds (reply RTTs), and the cache is keyed on the
request — so its ``measure.*`` counters belong to the measurement
namespace of :func:`repro.obs.measurement_counters` and stay invariant
across execution strategies (live vs. replay, interrupted and resumed
vs. uninterrupted).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.measure.backend import (
    ECHO_REQUEST,
    PING_TTL,
    UDP_PROBE,
    ProbeBackend,
    ProbeReply,
    ProbeRequest,
    reply_from_wire,
    reply_to_wire,
)
from repro.measure.sanitize import inspect_reply
from repro.obs import DEBUG, Obs

__all__ = [
    "BudgetExceeded",
    "MeasurementPolicy",
    "TraceBudget",
    "ProbeService",
]


class BudgetExceeded(RuntimeError):
    """A probe would exceed a configured probe budget.

    Carries the offending scope (``"campaign"`` for the global
    budget), the configured limit, and the probes already spent — so
    orchestrators can report a clean partial result.
    """

    def __init__(self, scope: str, budget: int, spent: int) -> None:
        super().__init__(
            f"probe budget exhausted in scope {scope!r}: "
            f"{spent} of {budget} probes spent"
        )
        self.scope = scope  #: budget scope that tripped
        self.budget = budget  #: configured probe limit
        self.spent = spent  #: probes already charged to the scope


@dataclass(frozen=True)
class MeasurementPolicy:
    """Declarative measurement policy, consumed by the service.

    The defaults are maximally permissive — no budgets, no retries, no
    deadlines, no caching — so a bare service behaves exactly like the
    backend underneath it.  Campaigns install their policy via
    :meth:`ProbeService.configure`.
    """

    #: Global probe budget; None = unlimited.
    probe_budget: Optional[int] = None
    #: Per-scope probe budgets, e.g. ``{"revelation": 500}``.  A scope
    #: is entered via :meth:`ProbeService.scope`; nested scopes all
    #: charge.  None = no per-scope limits.
    scope_budgets: Optional[Mapping[str, int]] = None
    #: Retries per probe when the reply times out (``*`` hop).
    max_retries: int = 0
    #: Base wall-clock backoff between retries, doubled per attempt.
    #: 0 disables sleeping (the right setting for the simulator).
    retry_backoff_ms: float = 0.0
    #: Replies slower than this (simulated RTT, ms) count as timeouts.
    probe_deadline_ms: Optional[float] = None
    #: Cap on cumulative reply RTT per trace (simulated ms); the
    #: composer truncates the trace once exceeded.
    trace_deadline_ms: Optional[float] = None
    #: Response-cache mode: ``"off"`` (default), ``"ping"`` (cache
    #: full-TTL echo replies, keyed ``(source, dst, flow)``), or
    #: ``"all"`` (additionally cache per-TTL traceroute replies).
    cache_mode: str = "off"
    #: Run :func:`repro.measure.sanitize.inspect_reply` on every
    #: responded reply and quarantine offenders (they become
    #: timeouts; the analyzers never see them).
    sanitize: bool = False
    #: Optional responder-address validator for the sanitizer's
    #: spoofed-source check (e.g. ``asn_of(addr) is not None``).
    address_validator: Optional[Callable[[int], bool]] = None


class TraceBudget:
    """Per-trace deadline accumulator (simulated milliseconds).

    Handed out by :meth:`ProbeService.begin_trace`; the service
    charges each reply's RTT against it and the composer stops the
    trace once :attr:`expired`.
    """

    __slots__ = ("limit_ms", "spent_ms")

    def __init__(self, limit_ms: float) -> None:
        self.limit_ms = limit_ms  #: deadline, in simulated ms
        self.spent_ms = 0.0  #: cumulative reply RTT charged so far

    @property
    def expired(self) -> bool:
        """True once the cumulative RTT reached the deadline."""
        return self.spent_ms >= self.limit_ms

    def charge(self, rtt_ms: float) -> None:
        """Charge one reply's RTT against the deadline."""
        self.spent_ms += rtt_ms


class ProbeService:
    """Budgeted, retrying, caching front end over a probe backend.

    One service per measurement stack: the prober, the techniques, and
    the orchestrator all submit through it, so budgets and the
    response cache see every probe.  The service shares the backend's
    observability bundle when it has one, keeping ``measure.*`` and
    ``probe.*`` counters in the same registry as everything else.
    """

    def __init__(
        self,
        backend: ProbeBackend,
        policy: Optional[MeasurementPolicy] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self.backend = backend
        self.policy = policy or MeasurementPolicy()
        #: Observability bundle (backend's, unless overridden).
        self.obs: Obs = obs or getattr(backend, "obs", None) or Obs()
        #: Probes actually submitted to the backend (cache hits and
        #: budget denials do not count).
        self.probes_sent = 0
        self._scopes: List[str] = []
        self._scope_spent: Dict[str, int] = {}
        self._cache: Dict[tuple, ProbeReply] = {}
        #: Delta-export cursor (see :meth:`export_cache_delta`): the
        #: cache size at the last export, None until :meth:`cache_mark`
        #: starts exports; and the keys that export covered, kept by
        #: the first flush since (None when no flush ran since).
        self._exported: Optional[int] = None
        self._exported_keys: Optional[set] = None
        #: Quarantined-reply records (insertion order), each a
        #: JSON-ready dict with the probe identity and the reason.
        self._quarantine: List[Dict[str, object]] = []
        # Backends wrapping a simulator invalidate cached replies when
        # the control plane changes under them.
        register = getattr(backend, "add_invalidation_listener", None)
        if callable(register):
            register(self.flush_cache)

    # ------------------------------------------------------------------
    # Policy management

    def configure(self, **overrides: object) -> MeasurementPolicy:
        """Replace policy fields in place; returns the new policy."""
        self.policy = replace(self.policy, **overrides)
        return self.policy

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Enter a named budget scope (technique or campaign phase).

        Probes submitted inside charge the scope's budget (if one is
        configured in :attr:`MeasurementPolicy.scope_budgets`); scopes
        nest, and every active scope is charged.
        """
        self._scopes.append(name)
        try:
            yield
        finally:
            self._scopes.pop()

    def scope_spent(self, name: str) -> int:
        """Probes charged to scope ``name`` so far."""
        return self._scope_spent.get(name, 0)

    # ------------------------------------------------------------------
    # Single-probe API (the composer surface)

    def traceroute_probe(
        self,
        source: str,
        dst: int,
        ttl: int,
        flow_id: int,
        trace_budget: Optional[TraceBudget] = None,
    ) -> ProbeReply:
        """One TTL-limited echo-request, under full policy."""
        request = ProbeRequest(source, dst, ttl, flow_id, ECHO_REQUEST)
        key = None
        if self.policy.cache_mode == "all":
            key = ("probe", source, dst, flow_id, ttl)
            cached = self._cache.get(key)
            if cached is not None:
                return self._serve_cached(request, cached, trace_budget)
        reply = self._submit_with_retries(
            request, "traceroute", trace_budget
        )
        if key is not None:
            self._cache[key] = reply
        if trace_budget is not None:
            self._charge_trace(trace_budget, reply)
        return reply

    def ping_probe(
        self, source: str, dst: int, flow_id: int, ttl: int = PING_TTL
    ) -> ProbeReply:
        """One full-TTL echo-request, under full policy.

        With caching enabled, a repeated ping of the same
        ``(source, dst, flow)`` is served from the cache — including
        replies seeded from a destination-reached traceroute, which in
        a deterministic dataplane are byte-identical to what a fresh
        ping would observe.
        """
        request = ProbeRequest(source, dst, ttl, flow_id, ECHO_REQUEST)
        key = self._ping_key(request)
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return self._serve_cached(request, cached, None)
        reply = self._submit_with_retries(request, "ping")
        if key is not None:
            self._cache[key] = reply
        return reply

    def udp_probe(
        self, source: str, dst: int, flow_id: int, ttl: int = PING_TTL
    ) -> ProbeReply:
        """One UDP alias probe, under budget/retry policy (uncached)."""
        request = ProbeRequest(source, dst, ttl, flow_id, UDP_PROBE)
        return self._submit_with_retries(request, "udp")

    def seed_ping(
        self, source: str, dst: int, flow_id: int, reply: ProbeReply
    ) -> None:
        """Pre-populate the ping cache from an equivalent observation.

        A traceroute that reached its destination already holds the
        destination's echo-reply; seeding it here lets a later ping of
        the same ``(source, dst, flow)`` skip the wire entirely.  A
        no-op unless ping caching is enabled.
        """
        key = self._ping_key(
            ProbeRequest(source, dst, PING_TTL, flow_id, ECHO_REQUEST)
        )
        if key is not None and key not in self._cache:
            self._cache[key] = reply
            self.obs.metrics.inc("measure.cache.seeded")

    def begin_trace(self) -> Optional[TraceBudget]:
        """A fresh per-trace deadline, or None when unconfigured."""
        limit = self.policy.trace_deadline_ms
        return None if limit is None else TraceBudget(limit)

    # ------------------------------------------------------------------
    # Batch API

    def traceroute_batch(
        self,
        requests: Sequence[ProbeRequest],
        trace_budget: Optional[TraceBudget] = None,
    ) -> List[ProbeReply]:
        """Batch traceroute probes under full policy.

        The uncached remainder is budget-checked all-or-nothing, then
        submitted through the backend's batch path; timeouts are
        retried individually afterwards.  Replies charge
        ``trace_budget`` exactly as per-probe submissions would.
        """
        keyer: Optional[Callable[[ProbeRequest], Optional[tuple]]] = (
            (lambda r: ("probe", r.source, r.dst, r.flow_id, r.ttl))
            if self.policy.cache_mode == "all"
            else None
        )
        return self._batch(requests, "traceroute", keyer, trace_budget)

    def ping_batch(
        self, requests: Sequence[ProbeRequest]
    ) -> List[ProbeReply]:
        """Batch pings under full policy (cache served first)."""
        keyer = (
            self._ping_key
            if self.policy.cache_mode in ("ping", "all")
            else None
        )
        return self._batch(requests, "ping", keyer)

    # ------------------------------------------------------------------
    # Cache management

    def flush_cache(self) -> None:
        """Drop every cached reply (e.g. after topology changes)."""
        if self._cache:
            self.obs.metrics.inc("measure.cache.flushes")
        if self._exported is not None and self._exported_keys is None:
            # Since the last export the cache only grew: its first
            # ``_exported`` keys are the ones that export covered.
            self._exported_keys = set(islice(self._cache, self._exported))
        self._cache.clear()

    @property
    def cached_replies(self) -> int:
        """Number of replies currently cached."""
        return len(self._cache)

    # ------------------------------------------------------------------
    # Quarantine (see :mod:`repro.measure.sanitize`)

    @property
    def quarantine_records(self) -> List[Dict[str, object]]:
        """The quarantined-reply records accumulated so far."""
        return list(self._quarantine)

    def clear_quarantine(self) -> None:
        """Drop every quarantine record (start of a fresh run)."""
        self._quarantine.clear()

    def export_quarantine(
        self, known: int = 0
    ) -> List[Dict[str, object]]:
        """Records appended since the first ``known`` (for
        delta-style checkpoint exports)."""
        return [dict(record) for record in self._quarantine[known:]]

    def import_quarantine(
        self, entries: Sequence[Mapping[str, object]]
    ) -> int:
        """Append entries exported by :meth:`export_quarantine`."""
        for entry in entries:
            self._quarantine.append(dict(entry))
        return len(entries)

    # ------------------------------------------------------------------
    # Checkpointable state (consumed by :mod:`repro.store`)

    def state_snapshot(self) -> Dict[str, object]:
        """The service's budget accounting as a JSON-ready dict.

        Captures exactly what a resumed campaign must restore for its
        budgets to continue where the interrupted run stopped:
        probes already sent, the per-scope spend, and — when the
        backend injects scheduled faults — the backend's fault clock.
        Policy is *not* included — the resuming campaign installs its
        own.
        """
        state: Dict[str, object] = {
            "probes_sent": self.probes_sent,
            "scope_spent": dict(self._scope_spent),
        }
        fault_state = getattr(self.backend, "fault_state", None)
        if callable(fault_state):
            state["backend"] = fault_state()
        return state

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore accounting saved by :meth:`state_snapshot`."""
        self.probes_sent = int(state.get("probes_sent", 0))
        self._scope_spent = {
            str(scope): int(spent)
            for scope, spent in dict(
                state.get("scope_spent") or {}
            ).items()
        }
        restore = getattr(self.backend, "restore_fault_state", None)
        if callable(restore) and isinstance(
            state.get("backend"), Mapping
        ):
            restore(state["backend"])

    def cache_mark(self) -> None:
        """Start delta-style cache exports from the cache as it is
        now: the next :meth:`export_cache_delta` returns only what is
        cached after this call."""
        self._exported = len(self._cache)
        self._exported_keys = None

    def export_cache_delta(self) -> Tuple[bool, List[Dict[str, object]]]:
        """``(flushed, entries)``: the replies cached since the last
        export (or :meth:`cache_mark`), as JSON-ready entries in
        sorted key order.

        Checkpoint records persist the cache this way.  Without a
        flush since the last export the cache only grew, so the new
        entries are the keys past the exported count in insertion
        order.  After a flush, the keys the last export covered were
        kept: if any of them is gone, ``flushed`` is True and the
        whole cache is exported (a resume must flush at this point
        too); otherwise only the keys not among them are.
        """
        known = self._exported_keys
        if known is None:
            flushed = False
            fresh: Iterable[tuple] = islice(
                self._cache, self._exported or 0, None
            )
        else:
            flushed = not known <= self._cache.keys()
            fresh = (
                self._cache
                if flushed
                else [key for key in self._cache if key not in known]
            )
        entries = []
        for key in sorted(fresh):
            reply = self._cache[key]
            entries.append(
                {
                    "key": list(key),
                    "probe_ttl": reply.probe_ttl,
                    "reply": reply_to_wire(reply),
                }
            )
        self.cache_mark()
        return flushed, entries

    def import_cache(
        self, entries: Sequence[Mapping[str, object]]
    ) -> int:
        """Install entries exported by :meth:`export_cache_delta`.

        Returns the number of replies installed.  Existing keys are
        overwritten — in a deterministic stack the replies are
        identical anyway.
        """
        installed = 0
        for entry in entries:
            key = tuple(entry["key"])
            self._cache[key] = reply_from_wire(
                entry.get("reply"), int(entry["probe_ttl"])
            )
            installed += 1
        return installed

    # ------------------------------------------------------------------
    # Internals

    def _ping_key(self, request: ProbeRequest) -> Optional[tuple]:
        """Cache key for a ping (None when ping caching is off).

        Keyed on ``(source, dst, flow)`` but not the TTL: a full-TTL
        echo exchange looks the same whatever headroom the probe had.
        The source is part of the key on purpose — flow identifiers
        are only 16 bits, and two vantage points may collide on one.
        """
        if self.policy.cache_mode not in ("ping", "all"):
            return None
        return ("ping", request.source, request.dst, request.flow_id)

    def _serve_cached(
        self,
        request: ProbeRequest,
        reply: ProbeReply,
        trace_budget: Optional[TraceBudget],
    ) -> ProbeReply:
        """Account one cache hit and return the stored reply."""
        self.obs.metrics.inc("measure.cache.hits")
        events = self.obs.events
        if events.debug:
            events.emit(
                "measure.cache.hit", DEBUG, vp=request.source,
                dst=request.dst, flow=request.flow_id,
            )
        if trace_budget is not None:
            self._charge_trace(trace_budget, reply)
        return reply

    def _charge_budget(self, count: int = 1) -> None:
        """Raise :class:`BudgetExceeded` if ``count`` more probes
        would overrun the global or any active scope budget."""
        policy = self.policy
        if (
            policy.probe_budget is not None
            and self.probes_sent + count > policy.probe_budget
        ):
            self._deny("campaign", policy.probe_budget, self.probes_sent)
        budgets = policy.scope_budgets
        if budgets:
            # dict.fromkeys dedupes re-entered scope names (a technique
            # scope nested inside the same-named phase scope) while
            # keeping entry order for deterministic denial reporting.
            for scope in dict.fromkeys(self._scopes):
                limit = budgets.get(scope)
                spent = self._scope_spent.get(scope, 0)
                if limit is not None and spent + count > limit:
                    self._deny(scope, limit, spent)

    def _deny(self, scope: str, budget: int, spent: int) -> None:
        """Record and raise one budget denial."""
        self.obs.metrics.inc("measure.budget.denied")
        events = self.obs.events
        if events.info:
            events.emit(
                "measure.budget.denied", scope=scope, budget=budget,
                spent=spent,
            )
        raise BudgetExceeded(scope, budget, spent)

    def _account(self, request: ProbeRequest, probe: str) -> None:
        """Charge budgets and record counters for one submission."""
        self._charge_budget()
        self.probes_sent += 1
        for scope in dict.fromkeys(self._scopes):
            self._scope_spent[scope] = (
                self._scope_spent.get(scope, 0) + 1
            )
        metrics = self.obs.metrics
        metrics.inc("measure.probes")
        metrics.inc("probe.sent." + probe)
        events = self.obs.events
        if events.debug:
            events.emit(
                "probe.sent", DEBUG, vp=request.source,
                dst=request.dst, ttl=request.ttl,
                flow=request.flow_id, probe=probe,
            )

    def _account_batch(
        self, requests: Sequence[ProbeRequest], probe: str
    ) -> None:
        """Bulk :meth:`_account`: same totals, O(1) counter bumps.

        The caller has already admitted the whole batch via
        :meth:`_charge_budget`, so per-probe re-checks (which could
        never trip after an all-or-nothing admission) are skipped.
        """
        count = len(requests)
        if not count:
            return
        self.probes_sent += count
        if self._scopes:
            for scope in dict.fromkeys(self._scopes):
                self._scope_spent[scope] = (
                    self._scope_spent.get(scope, 0) + count
                )
        metrics = self.obs.metrics
        metrics.inc("measure.probes", count)
        metrics.inc("probe.sent." + probe, count)
        events = self.obs.events
        if events.debug:
            for request in requests:
                events.emit(
                    "probe.sent", DEBUG, vp=request.source,
                    dst=request.dst, ttl=request.ttl,
                    flow=request.flow_id, probe=probe,
                )

    def _observe_reply(
        self, request: ProbeRequest, reply: ProbeReply
    ) -> ProbeReply:
        """Apply deadline + sanity checks, record reply counters."""
        reply = self._enforce_probe_deadline(reply)
        if self.policy.sanitize and reply.reply_kind is not None:
            reason = inspect_reply(
                request, reply, self.policy.address_validator
            )
            if reason is not None:
                reply = self._quarantine_reply(request, reply, reason)
        kind = reply.reply_kind or "none"
        self.obs.metrics.inc("probe.reply." + kind)
        events = self.obs.events
        if events.debug:
            events.emit(
                "probe.reply", DEBUG, vp=request.source,
                dst=request.dst, ttl=request.ttl, reply=kind,
                responder=reply.responder,
            )
        return reply

    def _enforce_probe_deadline(self, reply: ProbeReply) -> ProbeReply:
        """Turn an over-deadline reply into a timeout."""
        limit = self.policy.probe_deadline_ms
        if (
            limit is not None
            and reply.reply_kind is not None
            and reply.rtt_ms > limit
        ):
            self.obs.metrics.inc("measure.deadline.probe")
            return ProbeReply(probe_ttl=reply.probe_ttl)
        return reply

    def _quarantine_reply(
        self, request: ProbeRequest, reply: ProbeReply, reason: str
    ) -> ProbeReply:
        """Record one anomalous reply and convert it to a timeout.

        The record order is the probe order, which is deterministic,
        so the quarantine log takes part in the checkpoint/resume
        bit-identity contract like any other measurement artefact.
        """
        self._quarantine.append(
            {
                "vp": request.source,
                "dst": request.dst,
                "ttl": request.ttl,
                "flow": request.flow_id,
                "reason": reason,
                "responder": reply.responder,
                "kind": reply.reply_kind,
            }
        )
        metrics = self.obs.metrics
        metrics.inc("measure.quarantined")
        metrics.inc("measure.quarantined." + reason)
        events = self.obs.events
        if events.info:
            events.emit(
                "measure.quarantine", reason=reason,
                vp=request.source, dst=request.dst, ttl=request.ttl,
                responder=reply.responder,
            )
        return ProbeReply(probe_ttl=reply.probe_ttl)

    def _attempt(self, request: ProbeRequest, probe: str) -> ProbeReply:
        """One accounted submission through the backend."""
        self._account(request, probe)
        return self._observe_reply(request, self.backend.submit(request))

    def _submit_with_retries(
        self,
        request: ProbeRequest,
        probe: str,
        trace_budget: Optional[TraceBudget] = None,
    ) -> ProbeReply:
        """Submit, retrying timeouts up to ``max_retries`` times."""
        reply = self._attempt(request, probe)
        return self._retry_timeouts(request, reply, probe, trace_budget)

    def _retry_timeouts(
        self,
        request: ProbeRequest,
        reply: ProbeReply,
        probe: str,
        trace_budget: Optional[TraceBudget] = None,
    ) -> ProbeReply:
        """The shared retry tail: re-probe while the reply is a ``*``.

        Each retry's backoff charges the active trace deadline (the
        time a real prober would have waited before the re-probe), and
        an already-expired deadline stops the retry loop — retries can
        no longer overshoot a per-trace deadline.
        """
        attempt = 0
        while (
            reply.reply_kind is None
            and attempt < self.policy.max_retries
        ):
            if trace_budget is not None and trace_budget.expired:
                break
            self.obs.metrics.inc("measure.retries")
            delay_ms = self._backoff(attempt)
            if trace_budget is not None and delay_ms > 0:
                already = trace_budget.expired
                trace_budget.charge(delay_ms)
                if trace_budget.expired and not already:
                    self.obs.metrics.inc("measure.deadline.trace")
            attempt += 1
            reply = self._attempt(request, probe)
        if (
            reply.reply_kind is None
            and self.policy.max_retries > 0
            and attempt >= self.policy.max_retries
        ):
            self.obs.metrics.inc("measure.retries_exhausted")
        return reply

    def _backoff(self, attempt: int) -> float:
        """Exponential wall-clock backoff (no-op at 0 ms base).

        Returns the delay in milliseconds so callers can charge it to
        simulated-time deadlines.
        """
        delay_ms = self.policy.retry_backoff_ms * (2 ** attempt)
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        return delay_ms

    def _charge_trace(
        self, budget: TraceBudget, reply: ProbeReply
    ) -> None:
        """Charge a reply's measurement time to a trace deadline.

        Timeouts charge the probe deadline (the time a real prober
        would have waited) when one is configured, nothing otherwise.
        """
        already = budget.expired
        if reply.reply_kind is not None:
            budget.charge(reply.rtt_ms)
        elif self.policy.probe_deadline_ms is not None:
            budget.charge(self.policy.probe_deadline_ms)
        if budget.expired and not already:
            self.obs.metrics.inc("measure.deadline.trace")

    def _batch(
        self,
        requests: Sequence[ProbeRequest],
        probe: str,
        keyer: Optional[Callable[[ProbeRequest], Optional[tuple]]],
        trace_budget: Optional[TraceBudget] = None,
    ) -> List[ProbeReply]:
        """Shared batch path: cache, budget, batch-submit, retry.

        ``keyer`` is None when response caching cannot apply — the
        whole batch is then pending without a per-request key call.
        """
        policy = self.policy
        # With no probe deadline, no sanitizer, and no debug sink, the
        # per-reply observation reduces to one counter bump per kind.
        per_reply = (
            policy.probe_deadline_ms is not None
            or policy.sanitize
            or self.obs.events.debug
        )
        retries = policy.max_retries
        if (
            keyer is None
            and trace_budget is None
            and not per_reply
            and not retries
        ):
            # Nothing per-reply to do: admit, account, submit, count.
            if type(requests) is not list:
                requests = list(requests)
            self._charge_budget(len(requests))
            self._account_batch(requests, probe)
            # Backends return a fresh list per call — no defensive copy.
            raw = self.backend.submit_batch(requests)
            kind_counts: Dict[str, int] = {}
            for reply in raw:
                kind = reply.reply_kind or "none"
                kind_counts[kind] = kind_counts.get(kind, 0) + 1
            inc = self.obs.metrics.inc
            for kind, total in kind_counts.items():
                inc("probe.reply." + kind, total)
            return raw
        requests = list(requests)
        replies: List[Optional[ProbeReply]] = [None] * len(requests)
        pending: List[Tuple[int, Optional[tuple]]] = []
        if keyer is None:
            pending = [(index, None) for index in range(len(requests))]
        else:
            for index, request in enumerate(requests):
                key = keyer(request)
                if key is not None:
                    cached = self._cache.get(key)
                    if cached is not None:
                        replies[index] = self._serve_cached(
                            request, cached, trace_budget
                        )
                        continue
                pending.append((index, key))
        # All-or-nothing admission: refuse the whole remainder rather
        # than submit a prefix the budget cannot cover.
        self._charge_budget(len(pending))
        submitted = [requests[index] for index, _ in pending]
        self._account_batch(submitted, probe)
        raw = self.backend.submit_batch(submitted)
        kind_counts = {}
        for (index, key), reply in zip(pending, raw):
            request = requests[index]
            if per_reply:
                reply = self._observe_reply(request, reply)
            else:
                kind = reply.reply_kind or "none"
                kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if reply.reply_kind is None and retries:
                reply = self._retry_timeouts(
                    request, reply, probe, trace_budget
                )
            if key is not None:
                self._cache[key] = reply
            if trace_budget is not None:
                self._charge_trace(trace_budget, reply)
            replies[index] = reply
        if kind_counts:
            inc = self.obs.metrics.inc
            for kind, total in kind_counts.items():
                inc("probe.reply." + kind, total)
        return replies
