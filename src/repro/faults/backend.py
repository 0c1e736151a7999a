"""FaultyBackend: deterministic fault injection at the probe layer.

Wraps any :class:`~repro.measure.backend.ProbeBackend` and applies a
:class:`~repro.faults.profile.FaultProfile` to the replies.  The inner
backend always sees every probe — a lost reply is still a walk the
dataplane performed, so trajectory caches and LDP label allocation
stay identical to a fault-free run — and the wrapper only rewrites
what comes back:

* *stateless* faults (per-router loss, latency spikes, malformed
  replies) are pure crc32 hashes of the profile seed and the probe's
  identity, so they replay identically whatever execution strategy
  runs the probes;
* *windowed* faults (bursty loss, rate-limit windows, blackouts)
  depend only on the wrapper's probe clock — the count of probes
  submitted through it — which is checkpointed via
  :meth:`fault_state` and restored on resume;
* *flaps* fire once when the clock crosses their position: a
  ``route-change`` perturbs an intra-AS IGP weight and invalidates
  the control plane (exactly the event the trajectory-cache and
  response-cache invalidation hooks exist for), ``router-down`` /
  ``router-up`` toggle ICMP on a deterministically chosen router.

With an inert profile the wrapper is fully transparent: replies pass
through unchanged (same objects, no copies) and :attr:`name` reports
the inner backend's name, so even probe-log headers are byte-identical
to running the inner backend bare.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional, Sequence

from repro.faults.profile import FaultProfile
from repro.measure.backend import (
    TIME_EXCEEDED,
    ProbeBackend,
    ProbeReply,
    ProbeRequest,
)
from repro.obs import DEBUG, Obs

__all__ = ["FaultyBackend", "spoofed_address"]

#: Spoofed sources are rewritten into this prefix (multicast space —
#: never allocated by the synthetic Internet), keeping the bogus
#: address deterministic per victim while guaranteed to fail any
#: IP-to-AS lookup.
_SPOOF_BASE = 0xE0000000

#: Quoted-TTL value injected by the ``bogus_quoted_ttl`` fault;
#: RFC 4950 label-stack entries carry a TTL in [1, 255], so 0 is
#: unambiguously malformed.
_BOGUS_QUOTED_TTL = 0


def spoofed_address(responder: int) -> int:
    """The deterministic spoofed source for a genuine responder."""
    return _SPOOF_BASE | (responder & 0x0FFFFFFF)


class FaultyBackend(ProbeBackend):
    """Probe backend decorator that injects profile-driven faults."""

    def __init__(
        self,
        inner: ProbeBackend,
        profile: FaultProfile,
        obs: Optional[Obs] = None,
    ) -> None:
        self.inner = inner
        self.profile = profile
        #: Shares the inner backend's observability bundle so
        #: ``faults.*`` counters land in the campaign registry.
        self.obs: Obs = obs or getattr(inner, "obs", None) or Obs()
        #: The simulated engine, when the inner backend wraps one —
        #: needed for flaps, and re-exported so label checkpointing
        #: and perf stats keep working through the wrapper.
        self.engine = getattr(inner, "engine", None)
        #: Probes submitted through this wrapper (the fault clock).
        self.clock = 0
        self._flaps = sorted(profile.flaps)
        self._flaps_fired = 0
        self._downed: List[str] = []
        # Transparent wrappers advertise the inner backend's name so
        # recorded probe-log headers stay byte-identical.
        self.name = (
            getattr(inner, "name", "backend")
            if profile.inert
            else f"faulty+{getattr(inner, 'name', 'backend')}"
        )

    # ------------------------------------------------------------------
    # ProbeBackend protocol

    def submit(self, request: ProbeRequest) -> ProbeReply:
        """Submit through the inner backend, then apply the profile.

        The inner backend is *always* consulted (even for probes whose
        reply will be dropped): the dataplane walk must happen so
        trajectory caches and label allocation march in lockstep with
        a fault-free run.
        """
        position = self.clock
        self.clock += 1
        self._fire_due_flaps(position)
        reply = self.inner.submit(request)
        if self.profile.inert or reply.reply_kind is None:
            return reply
        return self._apply(position, request, reply)

    def submit_batch(
        self, requests: Sequence[ProbeRequest]
    ) -> List[ProbeReply]:
        """:meth:`submit` per request.  Kept because bench/spans.py
        wraps it by name; it goes once the bench reads only public
        surfaces (ROADMAP item 1)."""
        return [self.submit(request) for request in requests]

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------
    # Checkpointable state (threaded through ProbeService snapshots)

    def fault_state(self) -> Dict[str, int]:
        """Probe clock and fired-flap count, JSON-ready.

        Everything else the wrapper does is stateless (pure hashes),
        so this dict is all a resume needs to continue injecting the
        exact fault sequence the interrupted run would have seen.
        """
        return {
            "clock": self.clock,
            "flaps_fired": self._flaps_fired,
        }

    def restore_fault_state(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`fault_state` onto a fresh stack.

        Flaps the interrupted run already fired are re-applied to the
        (freshly built) inner engine so the resumed network matches
        the one the interrupted run was probing.
        """
        self.clock = int(state.get("clock", 0))
        fired = int(state.get("flaps_fired", 0))
        while self._flaps_fired < min(fired, len(self._flaps)):
            position, action = self._flaps[self._flaps_fired]
            self._fire_flap(position, action)
            self._flaps_fired += 1

    def add_invalidation_listener(self, listener) -> None:
        """Register ``listener`` on the inner backend's control
        plane (no-op for backends without invalidation hooks) — flap
        route-changes fire it."""
        register = getattr(
            self.inner, "add_invalidation_listener", None
        )
        if callable(register):
            register(listener)

    # ------------------------------------------------------------------
    # Fault application

    def _ratio(self, *parts: object) -> float:
        """Deterministic uniform sample in [0, 1) for a fault site."""
        text = "|".join(str(part) for part in (self.profile.seed,) + parts)
        return zlib.crc32(text.encode("ascii")) / 0x100000000

    def _victim(self, salt: str, key: object, fraction: float) -> bool:
        """Hash-select whether ``key`` belongs to a victim set."""
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        return self._ratio(salt, key) < fraction

    def _apply(
        self, position: int, request: ProbeRequest, reply: ProbeReply
    ) -> ProbeReply:
        """Apply every configured fault, in a fixed order."""
        profile = self.profile
        site = (request.source, request.dst, request.ttl,
                request.flow_id, request.kind)
        responder_key = reply.responder_router or reply.responder

        # Vantage-point blackout: the VP hears nothing at all.
        if (
            profile.blackout_period > 0
            and profile.blackout_vp_fraction > 0.0
            and position % profile.blackout_period
            < profile.blackout_length
            and self._victim(
                "blackout", request.source,
                profile.blackout_vp_fraction,
            )
        ):
            return self._drop("blackout", request, reply)

        # Bursty loss: clock-window drops, responder-agnostic.
        if (
            profile.burst_period > 0
            and position % profile.burst_period < profile.burst_length
        ):
            return self._drop("burst", request, reply)

        # Per-router probe loss.
        if (
            profile.loss_rate > 0.0
            and self._victim(
                "loss-victim", responder_key,
                profile.loss_router_fraction,
            )
            and self._ratio("loss", *site) < profile.loss_rate
        ):
            return self._drop("loss", request, reply)

        # ICMP rate-limit windows (TIME_EXCEEDED only, like real
        # routers throttling their ICMP generation path).
        if (
            profile.rate_limit_period > 0
            and profile.rate_limit_rate > 0.0
            and reply.reply_kind == TIME_EXCEEDED
            and position % profile.rate_limit_period
            < profile.rate_limit_width
            and self._victim(
                "rl-victim", responder_key,
                profile.rate_limit_router_fraction,
            )
            and self._ratio("rate-limit", *site)
            < profile.rate_limit_rate
        ):
            return self._drop("rate-limit", request, reply)

        # Non-destructive faults mutate a copy, never the inner
        # backend's reply object (it may be cached downstream).
        mutated = None

        if (
            profile.latency_rate > 0.0
            and self._ratio("latency", *site) < profile.latency_rate
        ):
            mutated = mutated or self._copy(reply)
            mutated.rtt_ms = reply.rtt_ms + profile.latency_spike_ms
            self._count("latency", request)

        if reply.quoted_labels:
            if (
                profile.truncate_labels_rate > 0.0
                and self._ratio("truncate", *site)
                < profile.truncate_labels_rate
            ):
                mutated = mutated or self._copy(reply)
                mutated.quoted_labels = []
                self._count("truncate-labels", request)
            elif (
                profile.bogus_quoted_ttl_rate > 0.0
                and self._ratio("bogus-ttl", *site)
                < profile.bogus_quoted_ttl_rate
            ):
                mutated = mutated or self._copy(reply)
                mutated.quoted_labels = [
                    (label, _BOGUS_QUOTED_TTL)
                    for label, _ in reply.quoted_labels
                ]
                self._count("bogus-quoted-ttl", request)

        if (
            profile.spoof_source_rate > 0.0
            and reply.responder is not None
            and self._ratio("spoof", *site) < profile.spoof_source_rate
        ):
            mutated = mutated or self._copy(reply)
            mutated.responder = spoofed_address(reply.responder)
            mutated.responder_router = None
            self._count("spoof-source", request)

        return mutated if mutated is not None else reply

    @staticmethod
    def _copy(reply: ProbeReply) -> ProbeReply:
        return ProbeReply(
            probe_ttl=reply.probe_ttl,
            reply_kind=reply.reply_kind,
            responder=reply.responder,
            responder_router=reply.responder_router,
            reply_ttl=reply.reply_ttl,
            quoted_labels=list(reply.quoted_labels),
            rtt_ms=reply.rtt_ms,
        )

    def _drop(
        self, kind: str, request: ProbeRequest, reply: ProbeReply
    ) -> ProbeReply:
        """Replace a reply with a timeout, accounting the injection."""
        self._count(kind, request)
        return ProbeReply(probe_ttl=reply.probe_ttl)

    def _count(self, kind: str, request: ProbeRequest) -> None:
        metrics = self.obs.metrics
        metrics.inc("faults.injected")
        metrics.inc("faults.injected." + kind)
        events = self.obs.events
        if events.debug:
            events.emit(
                "fault.injected", DEBUG, fault=kind,
                vp=request.source, dst=request.dst, ttl=request.ttl,
            )

    # ------------------------------------------------------------------
    # Flaps

    def _fire_due_flaps(self, position: int) -> None:
        while (
            self._flaps_fired < len(self._flaps)
            and position >= self._flaps[self._flaps_fired][0]
        ):
            at_probe, action = self._flaps[self._flaps_fired]
            self._fire_flap(at_probe, action)
            self._flaps_fired += 1
            self.obs.metrics.inc("faults.flaps")
            self.obs.metrics.inc("faults.flaps." + action)
            if self.obs.events.info:
                self.obs.events.emit(
                    "fault.flap", action=action, at_probe=at_probe,
                )

    def _fire_flap(self, position: int, action: str) -> None:
        """Apply one flap to the inner engine (no-op without one)."""
        engine = self.engine
        network = getattr(engine, "network", None)
        if network is None:
            return
        if getattr(network, "frozen", False):
            raise RuntimeError(
                f"fault profile {self.profile.name!r} fired a "
                f"{action!r} flap against a frozen shared snapshot; "
                "network-mutating profiles need a private internet "
                "(serve admission should have rejected this profile)"
            )
        if action == "route-change":
            links = [
                link
                for asn in sorted(network.asns())
                for link in network.intra_as_links(asn)
            ]
            if not links:
                return
            index = zlib.crc32(
                f"{self.profile.seed}|flap|{position}".encode("ascii")
            ) % len(links)
            link = links[index]
            # A metric change large enough to move best paths in the
            # scale-free weights the builder assigns.
            link.weight_ab += 7
            link.weight_ba += 7
            control = getattr(engine, "control", None)
            if control is not None:
                control.invalidate()
        elif action == "router-down":
            names = sorted(network.routers)
            if not names:
                return
            index = zlib.crc32(
                f"{self.profile.seed}|down|{position}".encode("ascii")
            ) % len(names)
            router = network.routers[names[index]]
            router.icmp_enabled = False
            self._downed.append(router.name)
        elif action == "router-up":
            for name in self._downed:
                network.routers[name].icmp_enabled = True
            self._downed = []
