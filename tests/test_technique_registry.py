"""Technique registry: units, legacy bit-identity, TNT campaigns.

The contract under test (ISSUE: pluggable technique registry): the
four LDP techniques are registry entries whose campaign results are
byte-identical to the classic hardwired stack; triggers gate the
``tnt`` revelation family per pair; degrade grading and the campaign
report enumerate the registry instead of hardcoded names; and the
registry rejects unknown or non-revealing techniques up front.
"""

from dataclasses import replace

import pytest

from repro.campaign.degrade import assess_data_quality
from repro.campaign.report import render_report
from repro.core.revelation import RevelationMethod, reveal_tunnel
from repro.core.technique import (
    BRPR_METHODS,
    DPR_METHODS,
    Technique,
    TechniqueRegistry,
    TriggerContext,
    default_techniques,
)
from repro.experiments.common import CampaignContext, ContextConfig
from repro.obs import measurement_counters
from repro.serve.registry import TopologySpec, default_registry

BASE = TopologySpec(
    scale=0.4,
    seed=11,
    vantage_points=3,
    stubs_per_transit=2,
)


class TestRegistry:
    def test_default_entries_in_order(self):
        registry = default_techniques()
        assert registry.names() == [
            "frpla", "rtla", "dpr", "brpr", "tnt",
        ]
        assert len(registry) == 5
        assert "tnt" in registry

    def test_duplicate_registration_rejected(self):
        registry = default_techniques()
        with pytest.raises(ValueError):
            registry.register(Technique(name="tnt", kind="revelation"))

    def test_unknown_get_names_known(self):
        registry = default_techniques()
        with pytest.raises(KeyError, match="frpla"):
            registry.get("nope")

    def test_kinds_and_applicability(self):
        registry = default_techniques()
        assert registry.get("frpla").kind == "analysis"
        assert registry.get("dpr").kind == "revelation"
        # LDP techniques stay LDP-scoped; TNT spans both classes.
        assert "ldp" in registry.get("dpr").tunnel_classes
        assert "rsvp-te" not in registry.get("dpr").tunnel_classes
        assert "ldp" in registry.get("tnt").tunnel_classes
        assert "rsvp-te" in registry.get("tnt").tunnel_classes

    def test_scopes_and_revealers(self):
        registry = default_techniques()
        assert set(registry.scopes()) >= {"dpr", "brpr", "tnt"}
        # dpr/brpr expose single-shot primitives; only tnt ships a
        # full pair-level revelation strategy.
        revealers = {
            name for name in registry.names() if registry.get(name).reveal
        }
        assert revealers == {"tnt"}

    def test_primitives_are_the_module_functions(self):
        from repro.core.brpr import backward_recursive_revelation
        from repro.core.dpr import direct_path_revelation

        registry = default_techniques()
        assert registry.get("dpr").primitive is direct_path_revelation
        assert (
            registry.get("brpr").primitive
            is backward_recursive_revelation
        )

    def test_method_families(self):
        assert RevelationMethod.DPR in DPR_METHODS
        assert RevelationMethod.BRPR in BRPR_METHODS
        assert RevelationMethod.DPR_OR_BRPR in DPR_METHODS
        assert RevelationMethod.DPR_OR_BRPR in BRPR_METHODS


def _hop(address, probe_ttl, rfa):
    """A real time-exceeded TraceHop with the requested RFA.

    ``rfa_of_hop`` derives RFA as (255 − reply_ttl + 1) − probe_ttl,
    so the reply TTL is solved backwards from the target value.
    """
    from repro.probing.prober import TraceHop

    return TraceHop(
        probe_ttl=probe_ttl,
        address=address,
        reply_kind="time-exceeded",
        reply_ttl=255 + 1 - (rfa + probe_ttl),
    )


class _FakeTrace:
    def __init__(self, hops):
        self._hops = {hop.address: hop for hop in hops}

    def hop_of(self, address):
        return self._hops.get(address)


class _FakePair:
    def __init__(self, trace, ingress=1, egress=2):
        self.trace = trace
        self.ingress = ingress
        self.egress = egress


class _FakeEstimate:
    def __init__(self, tunnel_length):
        self.tunnel_length = tunnel_length


class _FakeRtla:
    def __init__(self, lengths):
        self._lengths = lengths

    def estimate(self, address):
        if address not in self._lengths:
            return None
        return _FakeEstimate(self._lengths[address])


class _FakeResult:
    def __init__(self, lengths=None):
        self.rtla = _FakeRtla(lengths or {})


class TestTriggers:
    def _context(self, egress_rfa, lengths=None):
        trace = _FakeTrace([
            _hop(1, probe_ttl=3, rfa=0),
            _hop(2, probe_ttl=4, rfa=egress_rfa),
        ])
        pair = _FakePair(trace)
        return TriggerContext(pair=pair, result=_FakeResult(lengths))

    def test_frpla_trigger_fires_on_rfa_jump(self):
        frpla = default_techniques().get("frpla")
        assert frpla.trigger(self._context(egress_rfa=3))
        assert not frpla.trigger(self._context(egress_rfa=1))

    def test_rtla_trigger_fires_on_estimated_length(self):
        rtla = default_techniques().get("rtla")
        assert rtla.trigger(
            self._context(egress_rfa=0, lengths={2: 2})
        )
        assert not rtla.trigger(self._context(egress_rfa=0))

    def test_tnt_trigger_is_the_disjunction(self):
        tnt = default_techniques().get("tnt")
        assert tnt.trigger(self._context(egress_rfa=3))
        assert tnt.trigger(
            self._context(egress_rfa=0, lengths={2: 1})
        )
        assert not tnt.trigger(self._context(egress_rfa=0))


class TestLegacyBitIdentity:
    """The registry refactor must not perturb classic campaigns."""

    def test_registry_campaign_matches_legacy_reveal(self):
        context = CampaignContext(ContextConfig(topology=BASE))
        result = context.result
        assert result.revelations
        # Every stored revelation carries the legacy stamp...
        assert all(
            revelation.technique == "combined"
            for revelation in result.revelations.values()
        )
        # ...and re-running the classic recursion per pair reproduces
        # each of them exactly (the simulator is deterministic, so a
        # divergence can only come from the dispatch refactor).
        vp_by_name = {vp.name: vp for vp in context.internet.vps}
        config = context.campaign.config
        for pair in result.pairs:
            revelation = reveal_tunnel(
                context.internet.prober,
                vp_by_name[pair.vp],
                pair.ingress,
                pair.egress,
                max_steps=config.max_revelation_steps,
                start_ttl=config.start_ttl,
            )
            assert (
                revelation
                == result.revelations[(pair.ingress, pair.egress)]
            )

    def test_custom_registry_without_tnt_changes_nothing_measured(self):
        from repro.campaign.orchestrator import Campaign, CampaignConfig

        def run(techniques):
            internet = default_registry().attach(BASE)
            campaign = Campaign(
                internet.prober,
                internet.vps,
                internet.asn_of_address,
                CampaignConfig(
                    suspicious_asns=tuple(internet.transit_asns)
                ),
                techniques=techniques,
            )
            result = campaign.run(internet.campaign_targets())
            counters = campaign.obs.metrics.counters_snapshot()
            return result, measurement_counters(counters)

        baseline = CampaignContext(ContextConfig(topology=BASE)).result
        legacy = TechniqueRegistry()
        for technique in default_techniques():
            if technique.name != "tnt":
                legacy.register(technique)
        result, counters = run(legacy)
        assert counters == run(default_techniques())[1]
        # Only the grading differs: no tnt entry to score.
        assert set(result.data_quality["techniques"]) == {
            "frpla", "rtla", "dpr", "brpr",
        }
        assert replace(
            result, data_quality=baseline.data_quality
        ) == baseline


class TestCampaignTechniqueDispatch:
    def test_unknown_technique_rejected(self):
        with pytest.raises(KeyError):
            CampaignContext(
                ContextConfig(revelation_technique="nope", topology=BASE)
            )

    def test_analysis_technique_rejected(self):
        with pytest.raises(ValueError, match="revelation"):
            CampaignContext(
                ContextConfig(revelation_technique="frpla", topology=BASE)
            )

    def test_tnt_campaign_stamps_and_gates(self):
        context = CampaignContext(
            ContextConfig(revelation_technique="tnt", topology=BASE)
        )
        result = context.result
        assert result.pairs
        assert len(result.revelations) == len(result.pairs)
        triggered = skipped = 0
        for revelation in result.revelations.values():
            assert revelation.technique == "tnt"
            if revelation.method is RevelationMethod.NONE and (
                not revelation.revealed
                and revelation.probes_used == 0
            ):
                skipped += 1
            else:
                triggered += 1
        metrics = context.campaign.obs.metrics
        assert metrics.get("technique.tnt.triggered") == triggered
        assert (
            metrics.get("technique.tnt.triggered")
            + metrics.get("technique.tnt.skipped")
            == len(result.pairs)
        )
        assert skipped == metrics.get("technique.tnt.skipped")
        # Triggered pairs reveal through the shared recursion, so the
        # revealed tunnels match the classic stack's on those pairs.
        baseline = CampaignContext(ContextConfig(topology=BASE)).result
        for key, revelation in result.revelations.items():
            if revelation.probes_used > 0:
                twin = baseline.revelations[key]
                assert revelation.revealed == twin.revealed
                assert revelation.method == twin.method

    def test_quality_and_report_enumerate_registry(self):
        context = CampaignContext(
            ContextConfig(revelation_technique="tnt", topology=BASE)
        )
        quality = context.result.data_quality
        assert set(quality["techniques"]) == set(
            default_techniques().names()
        )
        report = render_report(
            context.result, context.aggregator, frpla=context.frpla
        )
        assert "tnt confidence" in report

    def test_assess_quality_accepts_custom_registry(self):
        context = CampaignContext(ContextConfig(topology=BASE))
        registry = TechniqueRegistry()
        for technique in default_techniques():
            if technique.name in ("frpla", "dpr"):
                registry.register(technique)
        quality = assess_data_quality(
            context.result, {}, techniques=registry
        )
        assert set(quality["techniques"]) == {"frpla", "dpr"}
