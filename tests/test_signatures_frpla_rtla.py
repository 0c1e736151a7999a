"""Unit tests for the analytical techniques: fingerprinting, FRPLA, RTLA."""

from hypothesis import given, strategies as st

from repro.core.frpla import FrplaAnalyzer, RfaSample, rfa_of_hop
from repro.core.rtla import RtlaAnalyzer, rtla_gap
from repro.core.signatures import (
    Signature,
    SignatureInventory,
    infer_initial_ttl,
    return_path_length,
)
from repro.obs import Obs
from repro.probing.prober import PingResult, Trace, TraceHop


class TestInitialTtlInference:
    def test_buckets(self):
        assert infer_initial_ttl(64) == 64
        assert infer_initial_ttl(65) == 128
        assert infer_initial_ttl(128) == 128
        assert infer_initial_ttl(129) == 255
        assert infer_initial_ttl(255) == 255
        assert infer_initial_ttl(1) == 64

    def test_invalid(self):
        assert infer_initial_ttl(None) is None
        assert infer_initial_ttl(0) is None
        assert infer_initial_ttl(300) is None

    @given(st.integers(1, 255))
    def test_initial_not_below_observation(self, observed):
        initial = infer_initial_ttl(observed)
        assert initial >= observed

    @given(st.integers(1, 255))
    def test_return_length_non_negative(self, observed):
        assert return_path_length(observed) >= 1


class TestSignature:
    def test_brands(self):
        assert Signature(255, 255).brand == "cisco"
        assert Signature(255, 64).brand == "juniper"
        assert Signature(128, 128).brand == "junos-e"
        assert Signature(64, 64).brand == "brocade"
        assert Signature(64, 255).brand is None

    def test_partial_signature(self):
        partial = Signature(255, None)
        assert not partial.complete
        assert partial.pair is None
        assert partial.brand is None
        assert str(partial) == "<255, ?>"

    def test_rtla_capable_only_juniper(self):
        assert Signature(255, 64).rtla_capable
        assert not Signature(255, 255).rtla_capable
        assert not Signature(None, 64).rtla_capable


class TestSignatureInventory:
    def test_inference_uses_best_observation(self):
        inventory = SignatureInventory()
        inventory.observe_time_exceeded(1, 240)
        inventory.observe_time_exceeded(1, 250)  # shorter return path
        inventory.observe_echo_reply(1, 60)
        signature = inventory.signature(1)
        assert signature.pair == (255, 64)

    def test_brand_shares(self):
        inventory = SignatureInventory()
        inventory.observe_time_exceeded(1, 250)
        inventory.observe_echo_reply(1, 250)
        inventory.observe_time_exceeded(2, 250)
        inventory.observe_echo_reply(2, 60)
        shares = inventory.brand_shares()
        assert shares == {"cisco": 0.5, "juniper": 0.5}

    def test_brand_shares_unknown_bucket(self):
        inventory = SignatureInventory()
        inventory.observe_time_exceeded(1, 250)  # no echo observation
        assert inventory.brand_shares() == {"unknown": 1.0}

    def test_brand_shares_restricted_population(self):
        inventory = SignatureInventory()
        inventory.observe_time_exceeded(1, 250)
        inventory.observe_echo_reply(1, 250)
        inventory.observe_time_exceeded(2, 250)
        inventory.observe_echo_reply(2, 60)
        assert inventory.brand_shares([1]) == {"cisco": 1.0}
        assert inventory.brand_shares([]) == {}

    @staticmethod
    def _fed(observations):
        inventory = SignatureInventory()
        for kind, address, reply_ttl in observations:
            if kind == "te":
                inventory.observe_time_exceeded(address, reply_ttl)
            else:
                inventory.observe_echo_reply(address, reply_ttl)
        return inventory

    def test_equal_when_fed_the_same_observations(self):
        observations = [("te", 1, 240), ("te", 1, 250), ("er", 1, 60)]
        assert self._fed(observations) == self._fed(observations)
        assert self._fed([]) == SignatureInventory()

    def test_extra_or_reordered_observation_breaks_equality(self):
        observations = [("te", 1, 240), ("te", 1, 250), ("er", 1, 60)]
        baseline = self._fed(observations)
        assert baseline != self._fed(observations + [("er", 2, 60)])
        assert baseline != self._fed(
            [observations[1], observations[0], observations[2]]
        )
        assert baseline != object()


def make_hop(ttl, address, reply_ttl, kind="time-exceeded"):
    return TraceHop(
        probe_ttl=ttl,
        address=address,
        reply_kind=kind,
        reply_ttl=reply_ttl,
    )


class TestFrpla:
    def test_rfa_of_hop(self):
        sample = rfa_of_hop(make_hop(5, 42, 251))
        assert sample.forward_length == 5
        assert sample.return_length == 5
        assert sample.rfa == 0

    def test_rfa_positive_shift(self):
        sample = rfa_of_hop(make_hop(3, 42, 250))
        assert sample.rfa == 3

    def test_rfa_skips_echo_replies(self):
        assert rfa_of_hop(make_hop(3, 42, 250, kind="echo-reply")) is None

    def test_rfa_skips_silent_hops(self):
        hop = TraceHop(probe_ttl=3, address=None)
        assert rfa_of_hop(hop) is None

    def _analyzer(self):
        return FrplaAnalyzer(
            asn_of=lambda address: 100 if address < 100 else 200,
            classify=lambda address: "egress" if address % 2 else "other",
        )

    def test_grouping_by_as_and_role(self):
        analyzer = self._analyzer()
        analyzer.add_sample(RfaSample(1, 3, 6, 3))  # AS100 egress
        analyzer.add_sample(RfaSample(2, 3, 3, 0))  # AS100 other
        analyzer.add_sample(RfaSample(101, 3, 7, 4))  # AS200 egress
        assert analyzer.asns() == [100, 200]
        assert analyzer.shift(100, role="egress") == 3
        assert analyzer.shift(100, role="other") == 0
        assert analyzer.shift(200) == 4

    def test_shift_none_without_samples(self):
        assert self._analyzer().shift(999) is None

    def test_suspicious_asns(self):
        analyzer = self._analyzer()
        for rfa in (3, 3, 4):
            analyzer.add_sample(RfaSample(1, 3, 3 + rfa, rfa))
        analyzer.add_sample(RfaSample(102, 5, 5, 0))
        assert analyzer.suspicious_asns(threshold=2) == [100]

    def test_add_trace(self):
        analyzer = self._analyzer()
        trace = Trace(source="vp", source_address=0, dst=99, flow_id=1)
        trace.hops.append(make_hop(2, 1, 253))
        trace.hops.append(make_hop(3, 2, 250))
        analyzer.add_trace(trace)
        assert len(analyzer.distribution(100)) == 2


class TestRtla:
    def test_gap_formula(self):
        estimate = rtla_gap(te_reply_ttl=250, er_reply_ttl=62)
        assert estimate is not None
        # (255-250+1) - (64-62+1) = 6 - 3 = 3
        assert estimate.tunnel_length == 3

    def test_gap_requires_juniper_pair(self):
        assert rtla_gap(250, 250) is None  # both 255-class
        assert rtla_gap(60, 60) is None  # both 64-class
        assert rtla_gap(None, 62) is None

    def _feed(self, analyzer, vp, address, te, er):
        trace = Trace(source=vp, source_address=0, dst=99, flow_id=1)
        trace.hops.append(make_hop(3, address, te))
        analyzer.add_trace(trace)
        analyzer.add_ping(
            PingResult(
                dst=address, responded=True, reply_kind="echo-reply",
                reply_ttl=er, source=vp,
            )
        )

    def test_estimate_per_vp_pairing(self):
        analyzer = RtlaAnalyzer()
        self._feed(analyzer, "vp1", 7, te=250, er=62)
        estimate = analyzer.estimate(7)
        assert estimate.tunnel_length == 3

    def test_cross_vp_observations_not_mixed(self):
        analyzer = RtlaAnalyzer()
        # vp1 only saw the TE; vp2 only pinged: no shared VP, no pair.
        trace = Trace(source="vp1", source_address=0, dst=99, flow_id=1)
        trace.hops.append(make_hop(3, 7, 250))
        analyzer.add_trace(trace)
        analyzer.add_ping(
            PingResult(
                dst=7, responded=True, reply_kind="echo-reply",
                reply_ttl=62, source="vp2",
            )
        )
        assert analyzer.estimate(7) is None
        assert analyzer.addresses() == []

    def test_cisco_signature_rejected(self):
        analyzer = RtlaAnalyzer()
        self._feed(analyzer, "vp1", 7, te=250, er=250)
        assert analyzer.estimate(7) is None

    def test_best_vp_wins(self):
        analyzer = RtlaAnalyzer()
        self._feed(analyzer, "far", 7, te=240, er=52)
        self._feed(analyzer, "near", 7, te=252, er=62)
        estimate = analyzer.estimate(7)
        # near: (255-252+1) - (64-62+1) = 4 - 3 = 1
        assert estimate.te_return_length == 4
        assert estimate.tunnel_length == 1

    def test_distribution(self):
        analyzer = RtlaAnalyzer()
        self._feed(analyzer, "vp1", 7, te=250, er=62)
        self._feed(analyzer, "vp1", 9, te=251, er=62)
        lengths = [e.tunnel_length for e in analyzer.estimates()]
        assert len(lengths) == 2

    def test_median_per_as(self):
        analyzer = RtlaAnalyzer()
        self._feed(analyzer, "vp1", 7, te=250, er=62)
        self._feed(analyzer, "vp1", 107, te=253, er=63)
        asn_of = lambda address: 100 if address < 100 else 200
        assert analyzer.median_tunnel_length(asn_of=asn_of, asn=100) == 3
        assert analyzer.median_tunnel_length(asn_of=asn_of, asn=200) == 1
        assert analyzer.median_tunnel_length(asn_of=asn_of, asn=300) is None

    def test_equality_ignores_the_obs_sink(self):
        left = RtlaAnalyzer(obs=Obs())
        right = RtlaAnalyzer(obs=Obs())
        self._feed(left, "vp1", 7, te=250, er=62)
        self._feed(right, "vp1", 7, te=250, er=62)
        assert left.obs is not right.obs
        assert left == right
        self._feed(right, "vp2", 7, te=251, er=62)
        assert left != right
