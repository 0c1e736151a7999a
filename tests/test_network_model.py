"""Unit tests for routers, links, topology container, vendor profiles."""

import pytest

from repro.mpls.config import MplsConfig, PoppingMode
from repro.net.addressing import Prefix, parse_address
from repro.net.topology import Network
from repro.net.vendors import (
    BROCADE,
    CISCO,
    JUNIPER,
    JUNIPER_E,
    LdpPolicy,
    PROFILES,
    profile_named,
)
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


class TestVendorProfiles:
    def test_table1_signatures(self):
        assert CISCO.signature == (255, 255)
        assert JUNIPER.signature == (255, 64)
        assert JUNIPER_E.signature == (128, 128)
        assert BROCADE.signature == (64, 64)

    def test_ldp_defaults(self):
        assert CISCO.ldp_policy is LdpPolicy.ALL_PREFIXES
        assert JUNIPER.ldp_policy is LdpPolicy.LOOPBACK_ONLY

    def test_registry(self):
        assert set(PROFILES) == {"cisco", "juniper", "junos-e", "brocade"}
        assert profile_named("cisco") is CISCO
        with pytest.raises(KeyError):
            profile_named("huawei")


class TestMplsConfig:
    def test_disabled(self):
        config = MplsConfig.disabled()
        assert not config.enabled
        assert not config.invisible

    def test_from_vendor_inherits_policy(self):
        config = MplsConfig.from_vendor(JUNIPER)
        assert config.enabled
        assert config.ldp_policy is LdpPolicy.LOOPBACK_ONLY
        assert config.popping is PoppingMode.PHP

    def test_invisible_flag(self):
        visible = MplsConfig.from_vendor(CISCO, ttl_propagate=True)
        hidden = MplsConfig.from_vendor(CISCO, ttl_propagate=False)
        assert not visible.invisible
        assert hidden.invisible

    def test_with_overrides_is_copy(self):
        base = MplsConfig.from_vendor(CISCO)
        derived = base.with_overrides(popping=PoppingMode.UHP)
        assert base.popping is PoppingMode.PHP
        assert derived.popping is PoppingMode.UHP


class TestRouter:
    def test_initial_ttls_per_message(self):
        network = Network()
        router = network.add_router("R", asn=1, vendor=JUNIPER)
        assert router.initial_ttl("time-exceeded") == 255
        assert router.initial_ttl("echo-reply") == 64
        assert router.initial_ttl("echo-request") == 64
        with pytest.raises(ValueError):
            router.initial_ttl("redirect")

    def test_owns_loopback_and_interfaces(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        link = network.add_link(a, b)
        assert a.owns(a.loopback)
        assert a.owns(link.side_a.address)
        assert not a.owns(link.side_b.address)

    def test_incoming_address(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        network.add_link(a, b)
        incoming = b.incoming_address_from(a)
        assert b.owns(incoming)
        assert b.incoming_address_from(b) is None

    def test_duplicate_interface_name_rejected(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        c = network.add_router("C", asn=1)
        network.add_link(a, b, if_name_a="x")
        with pytest.raises(ValueError):
            network.add_link(a, c, if_name_a="x")

    def test_neighbors(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        c = network.add_router("C", asn=1)
        network.add_link(a, b)
        network.add_link(a, c)
        assert {r.name for r in a.neighbors()} == {"B", "C"}

    def test_interface_toward_sees_links_attached_later(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        c = network.add_router("C", asn=1)
        network.add_link(a, b)
        assert a.interface_toward(c) is None
        link = network.add_link(a, c)
        assert a.interface_toward(c) is link.side_a
        assert c.interface_toward(a) is link.side_b

    def test_interface_toward_first_parallel_link_wins(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        first = network.add_link(a, b)
        network.add_link(a, b)
        assert a.interface_toward(b) is first.side_a
        assert b.interface_toward(a) is first.side_b

    def test_lookups_match_interface_scan(self):
        network = build_internet(
            InternetConfig(
                profiles=tuple(paper_profiles(0.4)),
                vantage_points=3,
                stubs_per_transit=2,
                seed=11,
            )
        ).network
        prefixes = [link.prefix for link in network.links]
        prefixes.append(Prefix(parse_address("192.0.2.0"), 30))
        for router in network.routers.values():
            for prefix in prefixes:
                assert router.is_connected_to(prefix) == any(
                    interface.prefix == prefix
                    for interface in router.interfaces.values()
                )
            for other in network.routers.values():
                assert router.interface_toward(other) is next(
                    (
                        interface
                        for interface in router.interfaces.values()
                        if interface.neighbor.router is other
                    ),
                    None,
                )


class TestNetworkContainer:
    def test_duplicate_router_rejected(self):
        network = Network()
        network.add_router("A", asn=1)
        with pytest.raises(ValueError):
            network.add_router("A", asn=2)

    def test_self_link_rejected(self):
        network = Network()
        a = network.add_router("A", asn=1)
        with pytest.raises(ValueError):
            network.add_link(a, a)

    def test_owner_and_prefix_lookup(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=2)
        link = network.add_link(a, b)
        assert network.owner_of(a.loopback) is a
        assert network.prefix_of(link.side_a.address) == link.prefix
        assert network.asn_of_prefix(link.prefix) == 1  # side a's AS
        assert network.asn_of_address(b.loopback) == 2

    def test_explicit_link_prefix(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        prefix = Prefix.parse("192.0.2.0/30")
        link = network.add_link(a, b, prefix=prefix)
        assert link.prefix == prefix
        assert link.side_a.address == parse_address("192.0.2.1")

    def test_link_prefix_too_small(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        with pytest.raises(ValueError):
            network.add_link(a, b, prefix=Prefix.parse("192.0.2.1/32"))

    def test_intra_and_inter_links(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        c = network.add_router("C", asn=2)
        intra = network.add_link(a, b)
        inter = network.add_link(b, c)
        assert list(network.intra_as_links(1)) == [intra]
        assert list(network.inter_as_links()) == [inter]
        assert not intra.inter_as
        assert inter.inter_as

    def test_link_other_side(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        c = network.add_router("C", asn=1)
        link = network.add_link(a, b)
        other_link = network.add_link(a, c)
        assert link.other(link.side_a) is link.side_b
        with pytest.raises(ValueError):
            link.other(other_link.side_a)

    def test_validate_passes_on_clean_topology(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        network.add_link(a, b)
        network.validate()

    def test_asns_sorted(self):
        network = Network()
        network.add_router("A", asn=7)
        network.add_router("B", asn=3)
        assert network.asns() == [3, 7]
