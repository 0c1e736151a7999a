"""Deterministic churn: evolve a live synthetic Internet between epochs.

The paper's motivation for *repeated* campaigns is operational churn:
LSPs appear and disappear as operators flip LDP configuration, pin or
tear down RSVP-TE tunnels, re-weight links, and upgrade router OSes.
This module models that churn as a seeded stream of discrete events
applied to a live (unfrozen) :class:`~repro.synth.internet.SyntheticInternet`
between monitoring epochs:

* ``link-cost`` — re-weight an intra-AS transit link (IGP reroute);
* ``ldp-policy`` — flip a transit router's ``ttl_propagate``
  (invisible ↔ explicit tunnel, Sec. 4 taxonomy);
* ``te-install`` / ``te-teardown`` — pin or remove an RSVP-TE tunnel
  through :class:`~repro.routing.control.ControlPlane` (which fires
  the trajectory-cache invalidation listeners);
* ``vendor-upgrade`` — swap a router's vendor profile (new TTL
  signatures, the evidence the staleness engine watches).

Determinism contract: every epoch's event batch is a pure function of
``(seed, epoch, profile, schedule)`` — the per-epoch RNG is derived
from seed *and* epoch rather than carried forward, so a monitor that
skips already-completed epochs on resume still replays the exact same
churn the original run applied.  After mutating the network the model
calls :meth:`ControlPlane.invalidate`, so routing caches, LDP label
bindings, and memoised trajectories are all rebuilt lazily —
exactly the invalidation path chaos flaps already exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.mpls.config import PoppingMode
from repro.mpls.rsvp import TeTunnel
from repro.net.router import Router
from repro.net.topology import FrozenNetworkError, Link
from repro.net.vendors import PROFILES, profile_named
from repro.synth.internet import SyntheticInternet, _te_path

__all__ = [
    "CHURN_PROFILES",
    "ChurnEvent",
    "ChurnModel",
    "ChurnProfile",
    "churn_profile",
    "churn_profile_names",
]


@dataclass(frozen=True)
class ChurnEvent:
    """One applied churn event, JSON-ready via :meth:`to_dict`.

    Attributes:
        epoch: monitoring epoch the event fired in.
        kind: event family (``link-cost`` / ``ldp-policy`` /
            ``te-install`` / ``te-teardown`` / ``vendor-upgrade``).
        asn: transit AS whose state changed (staleness attribution).
        target: human-readable subject (router name, link, tunnel).
        detail: event-specific before/after specifics.
    """

    epoch: int
    kind: str
    asn: int
    target: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (stored in per-epoch ``monitor.json``)."""
        return {
            "epoch": self.epoch,
            "kind": self.kind,
            "asn": self.asn,
            "target": self.target,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class ChurnProfile:
    """Named per-epoch event-rate mix, mirroring fault profiles.

    Counts are events *attempted* per epoch; an event that finds no
    eligible subject (e.g. a teardown with no installed tunnel) is
    skipped silently.  ``asns`` confines every event to those transit
    ASes — the knob the incremental-safety test uses to pin churn to
    a known region.
    """

    name: str
    link_cost_flips: int = 0
    ldp_policy_flips: int = 0
    te_installs: int = 0
    te_teardowns: int = 0
    vendor_upgrades: int = 0
    #: Restrict churn to these transit ASes (None = every transit).
    asns: Optional[Tuple[int, ...]] = None

    def restricted_to(self, asns: Sequence[int]) -> "ChurnProfile":
        """A copy of this profile confined to ``asns``."""
        return ChurnProfile(
            name=self.name,
            link_cost_flips=self.link_cost_flips,
            ldp_policy_flips=self.ldp_policy_flips,
            te_installs=self.te_installs,
            te_teardowns=self.te_teardowns,
            vendor_upgrades=self.vendor_upgrades,
            asns=tuple(asns),
        )


#: Shipped profiles, mild to aggressive.  ``calm`` applies nothing —
#: useful to measure the pure carried-forward fast path.
CHURN_PROFILES: Dict[str, ChurnProfile] = {
    "calm": ChurnProfile(name="calm"),
    "gentle": ChurnProfile(
        name="gentle", link_cost_flips=1, ldp_policy_flips=1
    ),
    "steady": ChurnProfile(
        name="steady",
        link_cost_flips=2,
        ldp_policy_flips=1,
        te_installs=1,
        te_teardowns=1,
    ),
    "turbulent": ChurnProfile(
        name="turbulent",
        link_cost_flips=3,
        ldp_policy_flips=2,
        te_installs=2,
        te_teardowns=1,
        vendor_upgrades=1,
    ),
}


def churn_profile(name: str) -> ChurnProfile:
    """Look up a shipped profile (ValueError lists known names)."""
    try:
        return CHURN_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown churn profile {name!r}; "
            f"known: {', '.join(sorted(CHURN_PROFILES))}"
        ) from None


def churn_profile_names() -> List[str]:
    """Shipped profile names, sorted."""
    return sorted(CHURN_PROFILES)


class ChurnModel:
    """Applies seeded churn to a live internet, one epoch at a time.

    Args:
        internet: the internet to evolve; its network must be
            unfrozen (the churn model *owns* the topology — shared
            rendered snapshots cannot churn).
        profile: event-rate mix applied every epoch.
        seed: churn RNG seed; per-epoch state is derived from
            ``(seed, epoch)`` so epochs replay independently.
        schedule: optional scripted events, ``epoch -> [spec, ...]``,
            applied *before* the profile-driven batch.  Specs are
            dicts: ``{"kind": "ldp-policy", "router": name}``,
            ``{"kind": "te-install", "head": name, "tail": name}``,
            ``{"kind": "te-teardown", "head": name, "tail": name}``,
            ``{"kind": "link-cost", "asn": asn}``,
            ``{"kind": "vendor-upgrade", "router": name,
            "vendor": profile-name}``.  Scripted events are strict:
            an inapplicable spec raises ``ValueError`` rather than
            silently skipping (tests rely on them firing).
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        profile: ChurnProfile,
        seed: int,
        schedule: Optional[Mapping[int, Sequence[Mapping[str, object]]]] = None,
    ) -> None:
        if internet.network.frozen:
            raise FrozenNetworkError(
                f"churn profile {profile.name!r} cannot run against "
                "a frozen network (shared rendered snapshot); check "
                "out a private copy-on-churn twin instead — "
                "SnapshotRegistry.checkout, or a monitoring fleet "
                "(repro fleet), which does it per chain"
            )
        self.internet = internet
        self.profile = profile
        self.seed = seed
        self.schedule = {
            int(epoch): list(specs)
            for epoch, specs in (schedule or {}).items()
        }
        #: Every event applied so far, in application order.
        self.events: List[ChurnEvent] = []
        self._installed = 0

    # ------------------------------------------------------------------
    # Public API

    def advance(self, epoch: int) -> List[ChurnEvent]:
        """Apply epoch ``epoch``'s churn batch; returns the events.

        Pure function of ``(seed, epoch, profile, schedule)`` — the
        RNG is re-derived per epoch, never carried across calls, so
        ``advance(1); advance(2)`` and a resume that replays both
        mutate the network identically.
        """
        rng = random.Random(f"churn:{self.seed}:{epoch}")
        events: List[ChurnEvent] = []
        for spec in self.schedule.get(epoch, []):
            events.append(self._apply_spec(epoch, rng, spec))
        profile = self.profile
        for _ in range(profile.link_cost_flips):
            self._attempt(events, self._flip_link_cost(epoch, rng))
        for _ in range(profile.ldp_policy_flips):
            self._attempt(events, self._flip_ldp_policy(epoch, rng))
        for _ in range(profile.te_installs):
            self._attempt(events, self._install_te(epoch, rng))
        for _ in range(profile.te_teardowns):
            self._attempt(events, self._teardown_te(epoch, rng))
        for _ in range(profile.vendor_upgrades):
            self._attempt(events, self._upgrade_vendor(epoch, rng))
        if events:
            # TE install/teardown already fire listeners; link, LDP
            # and vendor edits need an explicit invalidation so the
            # IGP, label bindings and trajectories rebuild.
            self.internet.control.invalidate()
        self.events.extend(events)
        return events

    @staticmethod
    def touched_asns(events: Sequence[ChurnEvent]) -> Tuple[int, ...]:
        """Sorted transit ASes the events mutated."""
        return tuple(sorted({event.asn for event in events}))

    # ------------------------------------------------------------------
    # Candidate pools (sorted before any rng.choice for determinism)

    def _eligible_asns(self) -> List[int]:
        """Transit ASes churn may touch, sorted."""
        eligible = self.internet.transit_asns
        if self.profile.asns is not None:
            allowed = set(self.profile.asns)
            eligible = [asn for asn in eligible if asn in allowed]
        return sorted(eligible)

    def _transit_links(self, asn: int) -> List[Link]:
        """Intra-AS links of ``asn``, in deterministic order."""
        links = []
        for link in self.internet.network.links:
            side_a, side_b = link.side_a, link.side_b
            if side_a is None or side_b is None:
                continue
            if side_a.router.asn == asn and side_b.router.asn == asn:
                links.append(link)
        return links

    def _mpls_routers(self, asn: int) -> List[Router]:
        """MPLS-enabled routers of ``asn``, sorted by name."""
        return sorted(
            (
                router
                for router in self.internet.network.routers_in_as(asn)
                if router.mpls.enabled
            ),
            key=lambda router: router.name,
        )

    # ------------------------------------------------------------------
    # Profile-driven events (return None when no subject is eligible)

    @staticmethod
    def _attempt(
        events: List[ChurnEvent], event: Optional[ChurnEvent]
    ) -> None:
        """Collect ``event`` unless the attempt found no subject."""
        if event is not None:
            events.append(event)

    def _flip_link_cost(
        self, epoch: int, rng: random.Random
    ) -> Optional[ChurnEvent]:
        """Re-weight a random intra-AS link (both directions)."""
        asns = self._eligible_asns()
        if not asns:
            return None
        asn = rng.choice(asns)
        links = self._transit_links(asn)
        if not links:
            return None
        link = rng.choice(links)
        old_ab, old_ba = link.weight_ab, link.weight_ba
        choices = [w for w in (1, 2, 3, 5, 8) if w != old_ab]
        link.weight_ab = rng.choice(choices)
        link.weight_ba = link.weight_ab
        assert link.side_a is not None and link.side_b is not None
        target = (
            f"{link.side_a.router.name}<->{link.side_b.router.name}"
        )
        return ChurnEvent(
            epoch=epoch,
            kind="link-cost",
            asn=asn,
            target=target,
            detail={
                "weight_before": [old_ab, old_ba],
                "weight_after": [link.weight_ab, link.weight_ba],
            },
        )

    def _flip_ldp_policy(
        self, epoch: int, rng: random.Random
    ) -> Optional[ChurnEvent]:
        """Flip a transit router's ``ttl_propagate`` (LDP policy)."""
        asns = self._eligible_asns()
        if not asns:
            return None
        asn = rng.choice(asns)
        routers = self._mpls_routers(asn)
        if not routers:
            return None
        router = rng.choice(routers)
        return self._flip_router_ldp(epoch, router)

    def _flip_router_ldp(
        self, epoch: int, router: Router
    ) -> ChurnEvent:
        """Invisible ↔ explicit: toggle ``ttl_propagate`` in place."""
        propagate = not router.mpls.ttl_propagate
        router.mpls = router.mpls.with_overrides(
            ttl_propagate=propagate
        )
        return ChurnEvent(
            epoch=epoch,
            kind="ldp-policy",
            asn=router.asn,
            target=router.name,
            detail={
                "ttl_propagate": propagate,
                "invisible": router.mpls.invisible,
            },
        )

    def _install_te(
        self,
        epoch: int,
        rng: random.Random,
        head_name: Optional[str] = None,
        tail_name: Optional[str] = None,
    ) -> Optional[ChurnEvent]:
        """Pin a fresh RSVP-TE tunnel (heads/tails as the builder)."""
        internet = self.internet
        network = internet.network
        if head_name is not None and tail_name is not None:
            head = network.routers[head_name]
            tail = network.routers[tail_name]
            candidates = [(head, tail)]
        else:
            candidates = []
            for asn in self._eligible_asns():
                backbone = sorted(internet.backbone_pes.get(asn, set()))
                heads = [network.routers[name] for name in backbone]
                if not heads:
                    heads = internet.edge_routers(asn)
                tails = internet.customer_edge_routers(asn)
                candidates.extend(
                    (head, tail)
                    for head in heads
                    for tail in tails
                    if head is not tail
                )
            rng.shuffle(candidates)
        for head, tail in candidates:
            if internet.control.te.tunnel_from(head.name, tail.name):
                continue
            path = _te_path(rng, head, tail)
            if path is None or len(path) < 3:
                continue
            self._installed += 1
            tunnel = TeTunnel(
                name=f"churn-e{epoch}-{self._installed}",
                path=tuple(router.name for router in path),
                popping=PoppingMode.UHP,
                ttl_propagate=internet.config.te_ttl_propagate,
            )
            internet.control.install_te_tunnel(tunnel)
            internet.te_tunnels.append(tunnel)
            return ChurnEvent(
                epoch=epoch,
                kind="te-install",
                asn=head.asn,
                target=f"{head.name}->{tail.name}",
                detail={
                    "tunnel": tunnel.name,
                    "path": list(tunnel.path),
                },
            )
        return None

    def _teardown_te(
        self,
        epoch: int,
        rng: random.Random,
        head_name: Optional[str] = None,
        tail_name: Optional[str] = None,
    ) -> Optional[ChurnEvent]:
        """Remove an installed tunnel (explicit head/tail or seeded)."""
        internet = self.internet
        network = internet.network
        eligible = set(self._eligible_asns())
        candidates = [
            tunnel
            for tunnel in internet.te_tunnels
            if network.routers[tunnel.path[0]].asn in eligible
        ]
        if head_name is not None and tail_name is not None:
            candidates = [
                tunnel
                for tunnel in internet.te_tunnels
                if tunnel.path[0] == head_name
                and tunnel.path[-1] == tail_name
            ]
        if not candidates:
            return None
        tunnel = rng.choice(candidates)
        head, tail = tunnel.path[0], tunnel.path[-1]
        internet.control.remove_te_tunnel(head, tail)
        internet.te_tunnels.remove(tunnel)
        return ChurnEvent(
            epoch=epoch,
            kind="te-teardown",
            asn=network.routers[head].asn,
            target=f"{head}->{tail}",
            detail={"tunnel": tunnel.name, "path": list(tunnel.path)},
        )

    def _upgrade_vendor(
        self, epoch: int, rng: random.Random
    ) -> Optional[ChurnEvent]:
        """Swap a transit router's vendor profile (new signatures)."""
        asns = self._eligible_asns()
        if not asns:
            return None
        asn = rng.choice(asns)
        routers = sorted(
            self.internet.network.routers_in_as(asn),
            key=lambda router: router.name,
        )
        if not routers:
            return None
        router = rng.choice(routers)
        others = [
            name
            for name in sorted(PROFILES)
            if name != router.vendor.name
        ]
        return self._swap_vendor(epoch, router, rng.choice(others))

    def _swap_vendor(
        self, epoch: int, router: Router, vendor_name: str
    ) -> ChurnEvent:
        """Apply the vendor swap and record before/after."""
        before = router.vendor.name
        router.vendor = profile_named(vendor_name)
        return ChurnEvent(
            epoch=epoch,
            kind="vendor-upgrade",
            asn=router.asn,
            target=router.name,
            detail={"vendor_before": before, "vendor_after": vendor_name},
        )

    # ------------------------------------------------------------------
    # Scripted events (strict: inapplicable specs raise)

    def _apply_spec(
        self,
        epoch: int,
        rng: random.Random,
        spec: Mapping[str, object],
    ) -> ChurnEvent:
        """Apply one scripted event spec; ValueError when impossible."""
        kind = spec.get("kind")
        network = self.internet.network
        if kind == "ldp-policy":
            router = network.routers[str(spec["router"])]
            return self._flip_router_ldp(epoch, router)
        if kind == "vendor-upgrade":
            router = network.routers[str(spec["router"])]
            return self._swap_vendor(epoch, router, str(spec["vendor"]))
        if kind == "te-install":
            event = self._install_te(
                epoch,
                rng,
                head_name=str(spec["head"]),
                tail_name=str(spec["tail"]),
            )
            if event is None:
                raise ValueError(
                    f"scripted te-install {spec['head']!r}->"
                    f"{spec['tail']!r} found no viable path"
                )
            return event
        if kind == "te-teardown":
            event = self._teardown_te(
                epoch,
                rng,
                head_name=str(spec["head"]),
                tail_name=str(spec["tail"]),
            )
            if event is None:
                raise ValueError(
                    f"scripted te-teardown {spec['head']!r}->"
                    f"{spec['tail']!r}: no such installed tunnel"
                )
            return event
        if kind == "link-cost":
            confined = self.profile.restricted_to([int(spec["asn"])])
            saved = self.profile
            self.profile = confined
            try:
                event = self._flip_link_cost(epoch, rng)
            finally:
                self.profile = saved
            if event is None:
                raise ValueError(
                    f"scripted link-cost in AS{spec['asn']}: "
                    "no intra-AS link found"
                )
            return event
        raise ValueError(f"unknown scripted churn kind {kind!r}")
