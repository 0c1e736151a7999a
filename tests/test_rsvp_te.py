"""Tests for RSVP-TE explicit-route tunnels."""

import pytest

from repro.dataplane.engine import ForwardingEngine
from repro.mpls.config import MplsConfig, PoppingMode
from repro.mpls.rsvp import TeTunnel, TeTunnelRegistry
from repro.net.topology import Network
from repro.net.vendors import CISCO
from repro.probing.prober import Prober
from repro.routing.control import ControlPlane


def build_te_network():
    """Diamond inside AS2: the IGP prefers the top path, a TE tunnel
    can pin the bottom one.

        src(AS1) - in - top1 - top2 - out - dst(AS3)
                     \\-- bot1 --------/
    """
    network = Network()
    src = network.add_router("src", asn=1)
    config = MplsConfig.from_vendor(CISCO, ttl_propagate=False)
    ingress = network.add_router("in", asn=2, mpls=config)
    top1 = network.add_router("top1", asn=2, mpls=config)
    top2 = network.add_router("top2", asn=2, mpls=config)
    bot1 = network.add_router("bot1", asn=2, mpls=config)
    egress = network.add_router("out", asn=2, mpls=config)
    dst = network.add_router("dst", asn=3)
    network.add_link(src, ingress)
    network.add_link(ingress, top1, weight=1)
    network.add_link(top1, top2, weight=1)
    network.add_link(top2, egress, weight=1)
    network.add_link(ingress, bot1, weight=5)
    network.add_link(bot1, egress, weight=5)
    # The customer numbers its uplink (AS3 prefix): targeting dst's
    # interface is an *external* destination for AS2, like the
    # campaign's A ∪ B addresses.
    network.add_link(dst, egress)
    return network, src, ingress, egress, dst


class TestTeTunnelModel:
    def test_path_validation(self):
        with pytest.raises(ValueError):
            TeTunnel(name="t", path=("a",))
        with pytest.raises(ValueError):
            TeTunnel(name="t", path=("a", "b", "a"))

    def test_next_hop_and_penultimate(self):
        tunnel = TeTunnel(name="t", path=("a", "b", "c"))
        assert tunnel.head == "a"
        assert tunnel.tail == "c"
        assert tunnel.next_hop("a") == "b"
        assert tunnel.next_hop("c") is None
        assert tunnel.next_hop("zz") is None
        assert tunnel.is_penultimate("b")
        assert not tunnel.is_penultimate("a")

    def test_registry_install_checks_adjacency(self):
        network, src, ingress, egress, dst = build_te_network()
        registry = TeTunnelRegistry()
        with pytest.raises(ValueError):
            registry.install(
                TeTunnel(name="bad", path=("in", "top2")), network
            )
        with pytest.raises(ValueError):
            registry.install(
                TeTunnel(name="bad", path=("src", "in")), network
            )  # crosses AS border
        with pytest.raises(ValueError):
            registry.install(
                TeTunnel(name="bad", path=("in", "nosuch")), network
            )

    def test_registry_duplicate_rejected(self):
        network, *_ = build_te_network()
        registry = TeTunnelRegistry()
        tunnel = TeTunnel(name="t", path=("in", "bot1", "out"))
        registry.install(tunnel, network)
        with pytest.raises(ValueError):
            registry.install(
                TeTunnel(name="t2", path=("in", "bot1", "out")), network
            )
        assert registry.tunnel_from("in", "out") is tunnel
        registry.remove("in", "out")
        assert len(registry) == 0


class TestTeForwarding:
    def _engine(self, tunnel=None):
        network, src, ingress, egress, dst = build_te_network()
        control = ControlPlane(network)
        if tunnel is not None:
            control.install_te_tunnel(tunnel)
        engine = ForwardingEngine(network, control)
        return network, engine, src, dst

    def test_without_tunnel_traffic_takes_igp_path(self):
        network, engine, src, dst = self._engine()
        outcome = engine.send_probe(src, dst.loopback, ttl=255)
        assert "top1" in outcome.forward_path
        assert "bot1" not in outcome.forward_path

    def test_tunnel_pins_explicit_path(self):
        tunnel = TeTunnel(
            name="detour", path=("in", "bot1", "out"),
            popping=PoppingMode.UHP,
        )
        network, engine, src, dst = self._engine(tunnel)
        outcome = engine.send_probe(src, dst.loopback, ttl=255)
        assert "bot1" in outcome.forward_path
        assert "top1" not in outcome.forward_path
        assert outcome.reply_kind == "echo-reply"

    def test_uhp_te_tunnel_is_invisible(self):
        tunnel = TeTunnel(
            name="detour", path=("in", "bot1", "out"),
            popping=PoppingMode.UHP, ttl_propagate=False,
        )
        network, engine, src, dst = self._engine(tunnel)
        prober = Prober(engine)
        # Target the AS3 router's incoming interface, like a campaign
        # destination: the tunnel and its tail stay dark.
        target = dst.incoming_address_from(network.router("out"))
        trace = prober.traceroute(src, target)
        names = [hop.responder_router for hop in trace.responsive_hops]
        assert "bot1" not in names
        assert "out" not in names
        assert names[-1] == "dst"

    def test_php_te_tunnel_counts_on_return(self):
        tunnel = TeTunnel(
            name="detour", path=("in", "bot1", "out"),
            popping=PoppingMode.PHP, ttl_propagate=False,
        )
        network, engine, src, dst = self._engine(tunnel)
        prober = Prober(engine)
        trace = prober.traceroute(src, dst.loopback)
        names = [hop.responder_router for hop in trace.responsive_hops]
        assert "bot1" not in names  # still invisible forward
        # But the egress is visible and shows the FRPLA shift... the
        # *forward* tunnel hides bot1; the reply rides the reverse LDP
        # path, so its return length counts real hops.
        out_hop = next(
            hop for hop in trace.responsive_hops
            if hop.responder_router == "out"
        )
        assert 255 - out_hop.reply_ttl + 1 > out_hop.probe_ttl

    def test_te_with_propagation_reveals_path(self):
        tunnel = TeTunnel(
            name="detour", path=("in", "bot1", "out"),
            popping=PoppingMode.PHP, ttl_propagate=True,
        )
        network, engine, src, dst = self._engine(tunnel)
        prober = Prober(engine)
        trace = prober.traceroute(src, dst.loopback)
        names = [hop.responder_router for hop in trace.responsive_hops]
        assert "bot1" in names
        bot_hop = next(
            hop for hop in trace.responsive_hops
            if hop.responder_router == "bot1"
        )
        assert bot_hop.has_labels  # RFC 4950 quote from the TE LSE

    def test_one_hop_php_tunnel_needs_no_label(self):
        network, src, ingress, egress, dst = build_te_network()
        # Adjacent pair: in -- bot1 with PHP = implicit null, no push.
        control = ControlPlane(network)
        control.install_te_tunnel(
            TeTunnel(
                name="hop", path=("in", "bot1"),
                popping=PoppingMode.PHP,
            )
        )
        engine = ForwardingEngine(network, control)
        # Traffic whose egress is bot1 — none here, so just assert the
        # registry holds it and ordinary traffic is unaffected.
        outcome = engine.send_probe(src, dst.loopback, ttl=255)
        assert outcome.reply_kind == "echo-reply"
