"""Synthetic Internet generator.

Builds a multi-AS topology with the ingredients the measurement
campaign needs:

* a backbone of MPLS **transit ASes** instantiated from
  :class:`~repro.synth.profiles.TransitProfile` blueprints (vendor
  mixes, ``no-ttl-propagate``, UHP shares, core depth),
* **stub ASes** (customers) hanging off the transits, some multihomed
  — the source of the routing asymmetry FRPLA must tolerate,
* **vantage points** in geographically spread stubs,
* deterministic, seeded randomness throughout.

The object exposes ground truth (address → router/AS, true paths) so
tests can score the measurement techniques against reality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dataplane.engine import ForwardingEngine
from repro.measure import SimBackend
from repro.mpls.config import MplsConfig, PoppingMode
from repro.mpls.rsvp import TeTunnel
from repro.net.router import Router
from repro.net.topology import Network
from repro.net.vendors import (
    BROCADE,
    CISCO,
    LdpPolicy,
    VendorProfile,
    profile_named,
)
from repro.probing.prober import Prober
from repro.routing.control import ControlPlane
from repro.synth.profiles import TransitProfile, paper_profiles

__all__ = [
    "AttachedInternet",
    "InternetConfig",
    "SyntheticInternet",
    "build_internet",
]

_STUB_ASN_BASE = 60000


@dataclass(frozen=True)
class InternetConfig:
    """Knobs for :func:`build_internet`."""

    profiles: Tuple[TransitProfile, ...] = tuple(paper_profiles())
    stubs_per_transit: int = 3
    routers_per_stub: int = 2
    vantage_points: int = 8
    multihoming_share: float = 0.3  #: stubs with a second transit uplink
    #: Share of intra-AS links with direction-dependent IGP weights —
    #: a second source of forward/return asymmetry beyond hot potato.
    igp_asymmetry_share: float = 0.15
    #: Share of transit routers that never answer probes (the real
    #: Internet's ICMP-silent hops; they become traceroute stars).
    silent_share: float = 0.03
    seed: int = 2017
    intra_delay_range: Tuple[float, float] = (1.0, 8.0)
    inter_delay_range: Tuple[float, float] = (4.0, 25.0)
    #: Extra transit-to-transit adjacencies beyond the backbone ring.
    extra_transit_links: int = 4
    #: Memoise forwarding trajectories in the engine (False forces the
    #: original walk-per-probe dataplane; results are identical).
    trajectory_cache: bool = True
    #: RSVP-TE tunnels to install per transit AS (0 = pure LDP, the
    #: paper's baseline).  Each tunnel pins an explicit core detour
    #: from a backbone PE to a customer-facing PE, steering transit
    #: traffic off the IGP shortest path (UHP, per the survey's note
    #: that UHP accompanies sophisticated traffic engineering).
    te_tunnels_per_transit: int = 0
    #: Copy the IP-TTL into the TE LSE at tunnel heads (True renders
    #: the TE tunnels *visible* to traceroute, for cross-validation
    #: ground truth; False is the invisible production default).
    te_ttl_propagate: bool = False


class SyntheticInternet:
    """A built synthetic Internet with probing and ground truth."""

    def __init__(self, config: InternetConfig) -> None:
        self.config = config
        self.network = Network()
        self.control = ControlPlane(self.network)
        self.engine = ForwardingEngine(
            self.network,
            self.control,
            trajectory_cache=config.trajectory_cache,
        )
        self.prober = Prober(SimBackend(self.engine))
        self.profiles: Dict[int, TransitProfile] = {
            profile.asn: profile for profile in config.profiles
        }
        self.transit_asns: List[int] = [p.asn for p in config.profiles]
        self.stub_asns: List[int] = []
        self.vps: List[Router] = []
        #: stub ASN -> transit ASNs it attaches to
        self.stub_uplinks: Dict[int, List[int]] = {}
        #: transit ASN -> PE names carrying backbone peerings.  Stubs
        #: prefer the *other* PEs, mirroring the usual separation of
        #: peering and customer-facing edges — which is also what makes
        #: replies from customer PEs re-cross the core (and its return
        #: tunnels) instead of short-cutting out, as Sec. 5.3 assumes.
        self.backbone_pes: Dict[int, set] = {}
        #: Installed RSVP-TE tunnels, in install order (ground truth
        #: for the TNT cross-validation).
        self.te_tunnels: List[TeTunnel] = []
        self._rng = random.Random(config.seed)

    def customer_edge_routers(self, asn: int) -> List[Router]:
        """PE routers without backbone peerings (customer-facing)."""
        backbone = self.backbone_pes.get(asn, set())
        routers = [
            router
            for router in self.edge_routers(asn)
            if router.name not in backbone
        ]
        return routers or self.edge_routers(asn)

    # ------------------------------------------------------------------
    # Ground-truth helpers

    def asn_of_address(self, address: int) -> Optional[int]:
        """AS owning ``address`` (router ground truth, then prefix)."""
        router = self.network.owner_of(address)
        if router is not None:
            return router.asn
        return self.network.asn_of_address(address)

    def router_of_address(self, address: int) -> Optional[Router]:
        """Ground-truth owner router."""
        return self.network.owner_of(address)

    def edge_routers(self, asn: int) -> List[Router]:
        """PE routers of a transit AS."""
        return [
            router
            for router in self.network.routers_in_as(asn)
            if router.name.split("_")[-1].startswith("PE")
        ]

    def core_routers(self, asn: int) -> List[Router]:
        """P routers of a transit AS."""
        return [
            router
            for router in self.network.routers_in_as(asn)
            if router.name.split("_")[-1].startswith("P")
            and not router.name.split("_")[-1].startswith("PE")
        ]

    def campaign_targets(self) -> List[int]:
        """Destination set (the A ∪ B analogue of Sec. 4).

        Stub-router *interface* addresses adjacent to transit PEs:
        these are the addresses an ITDK-style dataset actually holds
        (traceroute reveals incoming interfaces, not loopbacks).
        Tracing them makes the probe transit the suspicious AS and end
        one hop beyond its egress — exactly the ``X, Y, D`` tail the
        post-processing keys on.
        """
        targets = []
        for asn in self.stub_asns:
            for router in self.network.routers_in_as(asn):
                uplink = next(
                    (
                        interface.address
                        for interface in router.interfaces.values()
                        if interface.neighbor.router.asn in self.profiles
                    ),
                    None,
                )
                targets.append(
                    uplink if uplink is not None else router.loopback
                )
        return targets

    def true_forward_path(self, source: Router, dst: int) -> List[str]:
        """Ground-truth router path of a data packet (TTL 255)."""
        outcome = self.engine.send_probe(source, dst, ttl=255, flow_id=0)
        return outcome.forward_path

    def clone(self) -> "SyntheticInternet":
        """A private, **unfrozen** copy-on-churn twin of this internet.

        Where :meth:`attach` shares the network and control plane
        (read-only, for frozen serve snapshots), ``clone`` deep-copies
        the network — routers, links, prefix table, MPLS configs — and
        rebuilds everything derived on top of the copy: a fresh
        :class:`~repro.routing.control.ControlPlane` (route memos,
        LDP/TE label state and BGP adjacency are pure functions of the
        topology, recomputed on demand), the RSVP-TE tunnels
        reinstalled in their original order, and a private
        engine/prober pair.  The twin is mutable even when the source
        is frozen, which is what lets a monitoring fleet churn private
        twins of a shared rendered snapshot without ever thawing the
        original (`Network.freeze` invariants hold for served
        tenants throughout).

        The twin is deterministic: cloning the same source yields
        byte-identical campaign results, and a clone's campaign equals
        the source's (pinned by test), so fleet chains and standalone
        monitor chains land in the same content-keyed snapshots.
        """
        twin = SyntheticInternet.__new__(SyntheticInternet)
        twin.config = self.config
        network = Network()
        # Structural copy in creation order (deepcopy would recurse
        # through the router<->interface<->link cycles): same names,
        # same addresses (loopbacks and link prefixes passed
        # explicitly), same directional weights and delays, so the
        # twin's forwarding behaviour is bit-identical to the source.
        for router in self.network.routers.values():
            mirror = network.add_router(
                router.name,
                asn=router.asn,
                vendor=router.vendor,
                mpls=router.mpls,
                loopback=router.loopback,
            )
            mirror.icmp_enabled = router.icmp_enabled
            mirror.icmp_response_rate = router.icmp_response_rate
        for link in self.network.links:
            side_a, side_b = link.side_a, link.side_b
            network.add_link(
                network.routers[side_a.router.name],
                network.routers[side_b.router.name],
                weight=link.weight_ab,
                weight_back=link.weight_ba,
                delay_ms=link.delay_ms,
                prefix=link.prefix,
                if_name_a=side_a.name,
                if_name_b=side_b.name,
            )
        twin.network = network
        twin.control = ControlPlane(network)
        twin.profiles = dict(self.profiles)
        twin.transit_asns = list(self.transit_asns)
        twin.stub_asns = list(self.stub_asns)
        twin.vps = [network.routers[vp.name] for vp in self.vps]
        twin.stub_uplinks = {
            asn: list(uplinks)
            for asn, uplinks in self.stub_uplinks.items()
        }
        twin.backbone_pes = {
            asn: set(names)
            for asn, names in self.backbone_pes.items()
        }
        # TeTunnel specs are frozen dataclasses keyed by router names;
        # reinstalling them against the fresh control plane rebuilds
        # the twin's TE label state in the original install order.
        twin.te_tunnels = []
        for tunnel in self.te_tunnels:
            twin.control.install_te_tunnel(tunnel)
            twin.te_tunnels.append(tunnel)
        twin._rng = random.Random()
        twin._rng.setstate(self._rng.getstate())
        twin.engine = ForwardingEngine(
            network,
            twin.control,
            trajectory_cache=self.config.trajectory_cache,
        )
        twin.prober = Prober(SimBackend(twin.engine))
        twin.control.invalidate()
        return twin

    def attach(self, obs=None) -> "AttachedInternet":
        """A fresh measurement stack over this (shared) topology.

        Builds a new :class:`ForwardingEngine` and
        :class:`~repro.probing.prober.Prober` riding the *same*
        network and control plane — route memos stay shared (they are
        pure functions of the topology), while trajectory caches,
        label allocation, and metrics are private
        to the attachment.  This is the serve snapshot registry's
        lazy-attach path: rendering the topology once and attaching N
        engines costs one ``internet_build`` instead of N.
        """
        engine = ForwardingEngine(
            self.network,
            self.control,
            trajectory_cache=self.config.trajectory_cache,
            obs=obs,
        )
        return AttachedInternet(
            self, engine, Prober(SimBackend(engine)), self.config
        )


class AttachedInternet:
    """A private engine + prober over a shared rendered internet.

    Everything topological (network, ground truth, vantage points,
    profiles) delegates to the underlying
    :class:`SyntheticInternet`; ``engine``, ``prober``, and ``config``
    are attachment-local, so concurrent attachments never mix counters
    or caches.  Produced by :meth:`SyntheticInternet.attach`.
    """

    def __init__(self, base, engine, prober, config) -> None:
        self.base = base
        self.engine = engine
        self.prober = prober
        self.config = config

    def __getattr__(self, name: str):
        """Delegate everything non-local to the shared internet."""
        return getattr(self.base, name)

    def detach(self) -> None:
        """Unhook this attachment's caches from the shared control
        plane so the engine (and its memoised trajectories) can be
        garbage-collected while the snapshot lives on."""
        control = self.base.control
        control.remove_invalidation_listener(
            self.engine.flush_trajectories
        )
        service = getattr(self.prober, "service", None)
        if service is not None:
            control.remove_invalidation_listener(service.flush_cache)


def build_internet(
    config: Optional[InternetConfig] = None,
) -> SyntheticInternet:
    """Generate a synthetic Internet from ``config`` (seeded)."""
    internet = SyntheticInternet(config or InternetConfig())
    _build_transits(internet)
    _interconnect_transits(internet)
    _build_stubs(internet)
    _pick_vantage_points(internet)
    _silence_some_routers(internet)
    _install_te_tunnels(internet)
    internet.network.validate()
    # The control plane snapshotted an empty topology at construction;
    # re-derive adjacency and drop memoised routes now that the
    # network is complete.
    internet.control.invalidate()
    return internet


# ---------------------------------------------------------------------------
# Construction helpers


def _vendor_for(rng: random.Random, mix: Dict[str, float]) -> VendorProfile:
    """Seeded draw from a vendor-share mapping."""
    names = sorted(mix)
    weights = [mix[name] for name in names]
    choice = rng.choices(names, weights=weights, k=1)[0]
    return profile_named(choice)


def _transit_mpls_config(
    rng: random.Random, profile: TransitProfile, vendor: VendorProfile
) -> MplsConfig:
    """Per-router MPLS config drawn from the AS profile."""
    propagate = rng.random() < profile.ttl_propagate_share
    popping = (
        PoppingMode.UHP
        if rng.random() < profile.uhp_share
        else PoppingMode.PHP
    )
    config = MplsConfig.from_vendor(
        vendor, ttl_propagate=propagate, popping=popping
    )
    if profile.ldp_all_prefixes is True:
        config = config.with_overrides(ldp_policy=LdpPolicy.ALL_PREFIXES)
    elif profile.ldp_all_prefixes is False:
        config = config.with_overrides(ldp_policy=LdpPolicy.LOOPBACK_ONLY)
    return config


def _igp_weights(
    rng: random.Random, config: InternetConfig
) -> Dict[str, int]:
    """Weight kwargs for one intra-AS link, possibly asymmetric."""
    weight = rng.randint(1, 3)
    if rng.random() < config.igp_asymmetry_share:
        back = rng.randint(1, 3)
        return {"weight": weight, "weight_back": back}
    return {"weight": weight}


def _build_transits(internet: SyntheticInternet) -> None:
    rng = internet._rng
    config = internet.config
    network = internet.network
    for profile in config.profiles:
        cores: List[Router] = []
        for i in range(profile.core_size):
            vendor = _vendor_for(rng, profile.vendor_mix)
            cores.append(
                network.add_router(
                    f"AS{profile.asn}_P{i}",
                    asn=profile.asn,
                    vendor=vendor,
                    mpls=_transit_mpls_config(rng, profile, vendor),
                )
            )
        # Core ring + chords up to the profile's mesh degree.
        if len(cores) > 1:
            for i, router in enumerate(cores):
                peer = cores[(i + 1) % len(cores)]
                if network.routers.get(peer.name) and not router.interface_toward(peer):
                    network.add_link(
                        router,
                        peer,
                        delay_ms=rng.uniform(*config.intra_delay_range),
                        **_igp_weights(rng, config),
                    )
            chords = max(0, profile.mesh_degree - 2) * len(cores) // 2
            for _ in range(chords):
                a, b = rng.sample(cores, 2)
                if a.interface_toward(b) is None:
                    network.add_link(
                        a, b,
                        delay_ms=rng.uniform(*config.intra_delay_range),
                        **_igp_weights(rng, config),
                    )
        # Edge (PE) routers: each hangs off one or two cores.
        for i in range(profile.edge_size):
            vendor = _vendor_for(rng, profile.vendor_mix)
            pe = network.add_router(
                f"AS{profile.asn}_PE{i}",
                asn=profile.asn,
                vendor=vendor,
                mpls=_transit_mpls_config(rng, profile, vendor),
            )
            attach_points = rng.sample(
                cores, k=min(len(cores), 1 + (rng.random() < 0.4))
            )
            for core in attach_points:
                network.add_link(
                    pe, core,
                    delay_ms=rng.uniform(*config.intra_delay_range),
                    **_igp_weights(rng, config),
                )


def _interconnect_transits(internet: SyntheticInternet) -> None:
    """Backbone ring over transits plus a few extra adjacencies."""
    rng = internet._rng
    config = internet.config
    asns = internet.transit_asns
    pairs = [
        (asns[i], asns[(i + 1) % len(asns)]) for i in range(len(asns))
    ]
    for _ in range(config.extra_transit_links):
        a, b = rng.sample(asns, 2)
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    for a, b in pairs:
        # Two parallel peerings per adjacency: hot-potato choices
        # differ per ingress router, creating forward/return asymmetry.
        for _ in range(2):
            pe_a = rng.choice(internet.edge_routers(a))
            pe_b = rng.choice(internet.edge_routers(b))
            if pe_a.interface_toward(pe_b) is None:
                internet.network.add_link(
                    pe_a, pe_b,
                    delay_ms=rng.uniform(*config.inter_delay_range),
                )
                internet.backbone_pes.setdefault(a, set()).add(pe_a.name)
                internet.backbone_pes.setdefault(b, set()).add(pe_b.name)


def _build_stubs(internet: SyntheticInternet) -> None:
    rng = internet._rng
    config = internet.config
    network = internet.network
    next_asn = _STUB_ASN_BASE
    for transit_asn in internet.transit_asns:
        for _ in range(config.stubs_per_transit):
            asn = next_asn
            next_asn += 1
            internet.stub_asns.append(asn)
            routers = []
            for i in range(config.routers_per_stub):
                routers.append(
                    network.add_router(
                        f"AS{asn}_R{i}",
                        asn=asn,
                        vendor=CISCO if rng.random() < 0.7 else BROCADE,
                    )
                )
            for a, b in zip(routers, routers[1:]):
                network.add_link(
                    a, b, delay_ms=rng.uniform(*config.intra_delay_range)
                )
            uplinks = [transit_asn]
            # First router uplinks to a customer-facing PE of the
            # home transit (peering PEs carry the backbone).
            pe = rng.choice(internet.customer_edge_routers(transit_asn))
            network.add_link(
                routers[0], pe,
                delay_ms=rng.uniform(*config.inter_delay_range),
            )
            # Optional multihoming to a second transit.
            if (
                rng.random() < config.multihoming_share
                and len(internet.transit_asns) > 1
            ):
                other = rng.choice(
                    [t for t in internet.transit_asns if t != transit_asn]
                )
                pe2 = rng.choice(internet.customer_edge_routers(other))
                network.add_link(
                    routers[-1], pe2,
                    delay_ms=rng.uniform(*config.inter_delay_range),
                )
                uplinks.append(other)
            internet.stub_uplinks[asn] = uplinks


def _silence_some_routers(internet: SyntheticInternet) -> None:
    """Make a seeded share of transit *core* routers ICMP-silent.

    Only cores: silencing a PE would erase candidate pairs wholesale,
    while silent cores produce the realistic mid-trace stars ITDK
    models with pseudo-addresses.
    """
    rng = internet._rng
    share = internet.config.silent_share
    if share <= 0:
        return
    for asn in internet.transit_asns:
        for router in internet.core_routers(asn):
            if rng.random() < share:
                router.icmp_enabled = False


def _te_path(
    rng: random.Random,
    head: Router,
    tail: Router,
    max_len: int = 8,
) -> Optional[List[Router]]:
    """A seeded explicit intra-AS path from ``head`` to ``tail``.

    Randomised DFS over the AS adjacency, visiting core (P) routers
    before PEs so the pinned path detours through the backbone — the
    whole point of a TE tunnel is to diverge from the IGP shortest
    path.  Deterministic for a given rng state.
    """
    asn = head.asn
    path: List[Router] = [head]
    visited = {head.name}

    def step(router: Router) -> bool:
        if router is tail:
            return True
        if len(path) >= max_len:
            return False
        neighbors = sorted(
            {
                interface.neighbor.router
                for interface in router.interfaces.values()
                if interface.neighbor.router.asn == asn
                and interface.neighbor.router.name not in visited
            },
            key=lambda peer: peer.name,
        )
        rng.shuffle(neighbors)
        # Stable sort after the shuffle: cores first (random order
        # within each group) so the tunnel prefers backbone detours.
        neighbors.sort(
            key=lambda peer: peer.name.split("_")[-1].startswith("PE")
        )
        for neighbor in neighbors:
            visited.add(neighbor.name)
            path.append(neighbor)
            if step(neighbor):
                return True
            path.pop()
        return False

    return path if step(head) else None


def _install_te_tunnels(internet: SyntheticInternet) -> None:
    """Pin seeded RSVP-TE tunnels across each transit AS.

    Heads are backbone PEs (where inter-domain transit traffic enters
    the AS), tails are customer-facing PEs (where it leaves toward the
    stubs) — the head steers exactly the flows whose BGP egress is the
    tail, so campaign targets actually ride the tunnels.  Runs last in
    the build pipeline and consumes the RNG only when enabled, keeping
    TE-free topologies byte-identical to older seeds.
    """
    count = internet.config.te_tunnels_per_transit
    if count <= 0:
        return
    rng = internet._rng
    network = internet.network
    for asn in internet.transit_asns:
        backbone = sorted(internet.backbone_pes.get(asn, set()))
        heads = [network.routers[name] for name in backbone]
        if not heads:
            heads = internet.edge_routers(asn)
        tails = internet.customer_edge_routers(asn)
        installed = 0
        attempts = 0
        while installed < count and attempts < count * 8:
            attempts += 1
            head = heads[rng.randrange(len(heads))]
            tail = tails[rng.randrange(len(tails))]
            if head is tail:
                continue
            if internet.control.te.tunnel_from(head.name, tail.name):
                continue
            path = _te_path(rng, head, tail)
            if path is None or len(path) < 3:
                continue
            tunnel = TeTunnel(
                name=f"te-as{asn}-{installed}",
                path=tuple(router.name for router in path),
                popping=PoppingMode.UHP,
                ttl_propagate=internet.config.te_ttl_propagate,
            )
            internet.control.install_te_tunnel(tunnel)
            internet.te_tunnels.append(tunnel)
            installed += 1


def _pick_vantage_points(internet: SyntheticInternet) -> None:
    """Spread VPs across stubs homed to different transits."""
    rng = internet._rng
    count = internet.config.vantage_points
    by_home: Dict[int, List[int]] = {}
    for asn in internet.stub_asns:
        by_home.setdefault(internet.stub_uplinks[asn][0], []).append(asn)
    homes = sorted(by_home)
    picked: List[int] = []
    index = 0
    while len(picked) < count and any(by_home.values()):
        home = homes[index % len(homes)]
        index += 1
        candidates = by_home[home]
        if candidates:
            picked.append(candidates.pop(rng.randrange(len(candidates))))
    for asn in picked:
        internet.vps.append(internet.network.routers_in_as(asn)[0])
