"""Fault profiles: declarative, seeded descriptions of chaos.

A :class:`FaultProfile` says *what* goes wrong during a campaign —
probe loss, latency spikes, ICMP rate-limit windows, vantage-point
blackouts, mid-campaign flaps, malformed replies — without saying how
probes are sent.  :class:`~repro.faults.backend.FaultyBackend` applies
a profile deterministically: stateless faults are pure crc32 hashes of
(profile seed, probe identity), windowed faults are functions of the
backend's probe clock, and flaps fire at fixed clock positions — so
the same profile over the same probe sequence always injects the same
faults, which is what keeps checkpoint/resume bit-identical under
chaos.

The shipped registry (:data:`FAULT_PROFILES`) maps the paper's
real-Internet failure classes (Sec. 4–5: rate-limited LSRs, silent
routers, mid-campaign route changes behind the 8% cross-validation
failures and 9,407 non-rediscovered pairs) onto concrete profiles,
including an intensity ladder (:data:`LOSS_LADDER`) the chaos soak
uses to assert that revelation recall degrades monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "FLAP_ACTIONS",
    "FaultProfile",
    "FAULT_PROFILES",
    "LOSS_LADDER",
    "fault_profile",
    "profile_names",
]

#: Supported flap actions (see ``FaultyBackend._fire_flap``):
#: ``route-change`` perturbs an intra-AS IGP weight and invalidates
#: the control plane (driving the trajectory-cache invalidation
#: hooks); ``router-down``/``router-up`` toggle ICMP on a
#: deterministically chosen core router.
FLAP_ACTIONS = ("route-change", "router-down", "router-up")


@dataclass(frozen=True)
class FaultProfile:
    """One chaos scenario, fully determined by its fields.

    Every rate is a probability in ``[0, 1]`` sampled per probe via a
    seeded hash; every window is measured in probes submitted through
    the faulty backend (its *probe clock*), not wall time — simulated
    campaigns have no meaningful wall clock, and clock-positioned
    faults are what survives checkpoint/resume exactly.
    """

    name: str = "custom"
    seed: int = 0  #: salt for every per-probe/per-victim hash

    # -- per-router probe loss (stateless) -----------------------------
    #: Probability a victim router's reply is dropped.
    loss_rate: float = 0.0
    #: Fraction of routers that are loss victims (hash-selected).
    loss_router_fraction: float = 0.0

    # -- bursty loss (probe-clock windows) -----------------------------
    #: Every ``burst_period`` probes, the first ``burst_length`` lose
    #: their replies regardless of responder.  0 disables.
    burst_period: int = 0
    burst_length: int = 0

    # -- latency spikes (stateless) ------------------------------------
    #: Added RTT for spiked replies, in simulated milliseconds.
    latency_spike_ms: float = 0.0
    #: Probability a reply is spiked.
    latency_rate: float = 0.0

    # -- ICMP rate-limit windows (probe-clock + stateless sampling) ----
    #: Every ``rate_limit_period`` probes, a window of
    #: ``rate_limit_width`` probes opens during which victim routers
    #: drop TIME_EXCEEDED replies with ``rate_limit_rate`` probability.
    rate_limit_period: int = 0
    rate_limit_width: int = 0
    rate_limit_rate: float = 0.0
    #: Fraction of routers subject to rate limiting (hash-selected).
    rate_limit_router_fraction: float = 1.0

    # -- vantage-point blackouts (probe-clock windows) -----------------
    #: Every ``blackout_period`` probes, affected vantage points see
    #: nothing for ``blackout_length`` probes.
    blackout_period: int = 0
    blackout_length: int = 0
    #: Fraction of vantage points affected (hash-selected by name).
    blackout_vp_fraction: float = 0.0

    # -- malformed replies (stateless) ---------------------------------
    #: Probability an RFC 4950 label stack is truncated to nothing.
    truncate_labels_rate: float = 0.0
    #: Probability a quoted label TTL is replaced with a bogus value.
    bogus_quoted_ttl_rate: float = 0.0
    #: Probability the reply's source address is spoofed (rewritten
    #: into unallocated space).
    spoof_source_rate: float = 0.0

    # -- scheduled flaps (probe-clock positions) -----------------------
    #: ``(at_probe, action)`` pairs, fired once when the probe clock
    #: reaches ``at_probe``; actions are in :data:`FLAP_ACTIONS`.
    flaps: Tuple[Tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        for rate_field in (
            "loss_rate", "loss_router_fraction", "latency_rate",
            "rate_limit_rate", "rate_limit_router_fraction",
            "blackout_vp_fraction", "truncate_labels_rate",
            "bogus_quoted_ttl_rate", "spoof_source_rate",
        ):
            value = getattr(self, rate_field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{rate_field} out of [0, 1]: {value}"
                )
        for position, action in self.flaps:
            if action not in FLAP_ACTIONS:
                raise ValueError(
                    f"unknown flap action {action!r} at probe "
                    f"{position} (expected one of {FLAP_ACTIONS})"
                )

    # ------------------------------------------------------------------

    @property
    def inert(self) -> bool:
        """True when the profile injects nothing at all — a
        :class:`~repro.faults.backend.FaultyBackend` carrying an inert
        profile is transparent (byte-identical probe logs)."""
        return (
            self.loss_rate == 0.0
            and self.burst_period == 0
            and self.latency_rate == 0.0
            and (
                self.rate_limit_period == 0
                or self.rate_limit_rate == 0.0
            )
            and (
                self.blackout_period == 0
                or self.blackout_vp_fraction == 0.0
            )
            and self.truncate_labels_rate == 0.0
            and self.bogus_quoted_ttl_rate == 0.0
            and self.spoof_source_rate == 0.0
            and not self.flaps
        )

    @property
    def mutates_network(self) -> bool:
        """True when the profile fires flaps that change the simulated
        network mid-run (such a run needs a private, unfrozen
        topology: no shared snapshot, no monitor churn model)."""
        return bool(self.flaps)


#: Shipped chaos scenarios, each mapped to a paper failure class (the
#: DESIGN §11 taxonomy table documents the mapping).
FAULT_PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(name="none"),
        FaultProfile(
            name="loss-light",
            loss_rate=0.08, loss_router_fraction=0.35,
        ),
        FaultProfile(
            name="loss-heavy",
            loss_rate=0.35, loss_router_fraction=0.7,
        ),
        FaultProfile(
            name="bursty-loss",
            burst_period=60, burst_length=6,
        ),
        FaultProfile(
            name="latency",
            latency_spike_ms=150.0, latency_rate=0.25,
        ),
        FaultProfile(
            name="rate-limit",
            rate_limit_period=80, rate_limit_width=32,
            rate_limit_rate=0.6, rate_limit_router_fraction=0.6,
        ),
        FaultProfile(
            name="blackout",
            blackout_period=300, blackout_length=45,
            blackout_vp_fraction=0.5,
        ),
        FaultProfile(
            name="flap",
            flaps=(
                (120, "route-change"),
                (320, "router-down"),
                (520, "router-up"),
            ),
        ),
        FaultProfile(
            name="malformed",
            truncate_labels_rate=0.3,
            bogus_quoted_ttl_rate=0.2,
            spoof_source_rate=0.15,
        ),
        FaultProfile(
            name="hostile",
            loss_rate=0.1, loss_router_fraction=0.4,
            burst_period=90, burst_length=5,
            latency_spike_ms=120.0, latency_rate=0.1,
            rate_limit_period=100, rate_limit_width=30,
            rate_limit_rate=0.5, rate_limit_router_fraction=0.5,
            truncate_labels_rate=0.15,
            bogus_quoted_ttl_rate=0.1,
            spoof_source_rate=0.05,
        ),
    )
}

#: Intensity ladder with nested drop sets (same seed, growing rates):
#: every reply lost under ``loss-light`` is also lost under
#: ``loss-heavy``, so candidate pairs and revelation recall are
#: monotonically non-increasing along the ladder.
LOSS_LADDER: Tuple[str, ...] = ("none", "loss-light", "loss-heavy")


def profile_names() -> List[str]:
    """Shipped profile names, registry order."""
    return list(FAULT_PROFILES)


def fault_profile(name: str) -> FaultProfile:
    """Look up a shipped profile by name."""
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r} "
            f"(shipped: {', '.join(FAULT_PROFILES)})"
        ) from None
