"""Unit tests for BGP-like AS routing and the unified control plane."""

import pytest

from repro.mpls.config import MplsConfig
from repro.net.addressing import Prefix
from repro.net.topology import Network
from repro.net.vendors import CISCO, JUNIPER, LdpPolicy
from repro.routing.bgp import BgpRouting
from repro.routing.control import (
    ControlPlane,
    RouteKind,
    flow_choice,
)


def build_line_of_ases():
    """AS1 -- AS2 -- AS3, one router each."""
    network = Network()
    r1 = network.add_router("R1", asn=1)
    r2 = network.add_router("R2", asn=2)
    r3 = network.add_router("R3", asn=3)
    network.add_link(r1, r2)
    network.add_link(r2, r3)
    return network, (r1, r2, r3)


class TestBgpRouting:
    def test_as_path_on_line(self):
        network, _ = build_line_of_ases()
        bgp = BgpRouting(network)
        assert bgp.as_path(1, 3) == [1, 2, 3]
        assert bgp.next_as(1, 3) == 2
        assert bgp.next_as(2, 3) == 3

    def test_unreachable_as(self):
        network, _ = build_line_of_ases()
        network.add_router("Lonely", asn=9)
        bgp = BgpRouting(network)
        assert bgp.next_as(1, 9) is None
        assert bgp.as_path(1, 9) is None

    def test_same_as_rejected(self):
        network, _ = build_line_of_ases()
        bgp = BgpRouting(network)
        with pytest.raises(ValueError):
            bgp.next_as(1, 1)
        assert bgp.as_path(1, 1) == [1]

    def test_shortest_path_ties_break_low_asn(self):
        # AS1 reaches AS4 via AS2 or AS3 (equal length): AS2 wins.
        network = Network()
        r1 = network.add_router("R1", asn=1)
        r2 = network.add_router("R2", asn=2)
        r3 = network.add_router("R3", asn=3)
        r4 = network.add_router("R4", asn=4)
        network.add_link(r1, r2)
        network.add_link(r1, r3)
        network.add_link(r2, r4)
        network.add_link(r3, r4)
        bgp = BgpRouting(network)
        assert bgp.next_as(1, 4) == 2

    def test_preference_override(self):
        network = Network()
        r1 = network.add_router("R1", asn=1)
        r2 = network.add_router("R2", asn=2)
        r3 = network.add_router("R3", asn=3)
        r4 = network.add_router("R4", asn=4)
        network.add_link(r1, r2)
        network.add_link(r1, r3)
        network.add_link(r2, r4)
        network.add_link(r3, r4)
        bgp = BgpRouting(network)
        bgp.set_preference(1, 4, 3)
        assert bgp.next_as(1, 4) == 3

    def test_preference_requires_neighbor(self):
        network, _ = build_line_of_ases()
        bgp = BgpRouting(network)
        with pytest.raises(ValueError):
            bgp.set_preference(1, 3, 3)  # AS3 is not AS1's neighbor

    def test_neighbors(self):
        network, _ = build_line_of_ases()
        bgp = BgpRouting(network)
        assert bgp.neighbors(2) == {1, 3}


class TestFlowChoice:
    def test_single_candidate(self):
        network, (r1, _, _) = build_line_of_ases()
        assert flow_choice([r1], "x", 5) is r1

    def test_deterministic(self):
        network, (r1, r2, r3) = build_line_of_ases()
        picks = {flow_choice([r1, r2, r3], "key", 7) for _ in range(10)}
        assert len(picks) == 1

    def test_varies_with_flow(self):
        network, (r1, r2, r3) = build_line_of_ases()
        picks = {
            flow_choice([r1, r2, r3], "key", flow).name
            for flow in range(50)
        }
        assert len(picks) > 1  # different flows spread over candidates

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            flow_choice([], "key", 1)


class TestControlPlaneResolution:
    def test_local_route(self):
        network, (r1, r2, r3) = build_line_of_ases()
        control = ControlPlane(network)
        assert control.resolve(r1, r1.loopback).kind is RouteKind.LOCAL

    def test_attached_route(self):
        network, (r1, r2, r3) = build_line_of_ases()
        control = ControlPlane(network)
        neighbor_address = r2.incoming_address_from(r1)
        route = control.resolve(r1, neighbor_address)
        assert route.kind is RouteKind.ATTACHED

    def test_internal_route(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        c = network.add_router("C", asn=1)
        network.add_link(a, b)
        network.add_link(b, c)
        control = ControlPlane(network)
        route = control.resolve(a, c.loopback)
        assert route.kind is RouteKind.INTERNAL
        assert route.next_hops == (b,)
        assert route.egress is c

    def test_external_route_and_hot_potato(self):
        network, (r1, r2, r3) = build_line_of_ases()
        control = ControlPlane(network)
        route = control.resolve(r1, r3.loopback)
        assert route.kind is RouteKind.EXTERNAL
        assert route.next_hops == (r2,)

    def test_hot_potato_sees_border_added_after_invalidate(self):
        network = Network()
        a1 = network.add_router("A1", asn=1)
        a2 = network.add_router("A2", asn=1)
        a3 = network.add_router("A3", asn=1)
        b = network.add_router("B", asn=2)
        network.add_link(a1, a2)
        network.add_link(a2, a3)
        network.add_link(a3, b)
        control = ControlPlane(network)
        assert control.hot_potato_egress(a1, 2) is a3
        network.add_link(a1, b)
        control.invalidate()
        assert control.hot_potato_egress(a1, 2) is a1
        assert control.resolve(a1, b.loopback).next_hops == (b,)

    def test_unreachable(self):
        network, (r1, _, _) = build_line_of_ases()
        lonely = network.add_router("Lonely", asn=9)
        control = ControlPlane(network)
        assert (
            control.resolve(r1, lonely.loopback).kind
            is RouteKind.UNREACHABLE
        )
        assert control.resolve(r1, 0x01020304).kind is RouteKind.UNREACHABLE

    def test_route_cache_consistency(self):
        network, (r1, r2, r3) = build_line_of_ases()
        control = ControlPlane(network)
        first = control.resolve(r1, r3.loopback)
        second = control.resolve(r1, r3.loopback)
        assert first is second  # memoised


class TestLdpPolicy:
    def _mpls_as(self, vendor_core, ldp_override=None):
        network = Network()
        config = MplsConfig.from_vendor(CISCO)
        if ldp_override is not None:
            config = config.with_overrides(ldp_policy=ldp_override)
        a = network.add_router("A", asn=1, vendor=CISCO, mpls=config)
        core_config = MplsConfig.from_vendor(vendor_core)
        if ldp_override is not None:
            core_config = core_config.with_overrides(
                ldp_policy=ldp_override
            )
        b = network.add_router("B", asn=1, vendor=vendor_core, mpls=core_config)
        link = network.add_link(a, b)
        return network, a, b, link

    def test_all_cisco_is_all_prefixes(self):
        network, a, b, link = self._mpls_as(CISCO)
        control = ControlPlane(network)
        assert control.as_labels_all_prefixes(1)
        assert control.ldp_labels_prefix(1, link.prefix)

    def test_one_juniper_filters_non_loopbacks(self):
        network, a, b, link = self._mpls_as(JUNIPER)
        control = ControlPlane(network)
        assert not control.as_labels_all_prefixes(1)
        assert not control.ldp_labels_prefix(1, link.prefix)
        # Loopbacks stay labelled under both policies.
        assert control.ldp_labels_prefix(1, Prefix(a.loopback, 32))

    def test_operator_override_beats_vendor_default(self):
        network, a, b, link = self._mpls_as(
            JUNIPER, ldp_override=LdpPolicy.ALL_PREFIXES
        )
        control = ControlPlane(network)
        assert control.as_labels_all_prefixes(1)

    def test_no_mpls_as_labels_nothing(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        link = network.add_link(a, b)
        control = ControlPlane(network)
        assert not control.as_labels_all_prefixes(1)
        assert not control.ldp_labels_prefix(1, link.prefix)

    def test_foreign_prefix_never_labelled(self):
        network, a, b, link = self._mpls_as(CISCO)
        foreign = network.add_router("X", asn=2)
        control = ControlPlane(network)
        assert not control.ldp_labels_prefix(
            1, Prefix(foreign.loopback, 32)
        )


class TestFecEgress:
    def test_loopback_fec_egress_is_owner(self):
        network, (r1, r2, r3) = build_line_of_ases()
        control = ControlPlane(network)
        fec = Prefix(r2.loopback, 32)
        assert control.is_fec_egress(r2, fec)
        assert not control.is_fec_egress(r1, fec)

    def test_link_fec_egress_is_any_attached(self):
        network, (r1, r2, r3) = build_line_of_ases()
        control = ControlPlane(network)
        link_prefix = r1.interface_toward(r2).prefix
        assert control.is_fec_egress(r1, link_prefix)
        assert control.is_fec_egress(r2, link_prefix)
        assert not control.is_fec_egress(r3, link_prefix)
