"""Integration tests for campaign orchestration and post-processing."""

import pytest

from repro.campaign.crossval import (
    CrossValOutcome,
    cross_validate,
    extract_explicit_tunnels,
)
from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.campaign.targets import select_targets, split_among_teams
from repro.analysis.itdk import TraceGraph
from repro.experiments.common import ContextConfig, campaign_context
from repro.serve.registry import TopologySpec
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


@pytest.fixture(scope="module")
def context():
    return campaign_context(ContextConfig())


@pytest.fixture(scope="module")
def small_internet():
    return build_internet(
        InternetConfig(
            profiles=tuple(paper_profiles(0.5)),
            vantage_points=4,
            stubs_per_transit=2,
            seed=7,
        )
    )


class TestCampaignPipeline:
    def test_phases_populate_result(self, context):
        result = context.result
        assert result.traces
        assert result.pings
        assert result.pairs
        assert result.revelations
        assert result.probes_sent > 0
        assert result.revelation_probes > 0

    def test_pairs_live_in_suspicious_ases(self, context):
        transits = set(context.internet.transit_asns)
        for pair in context.result.pairs:
            assert pair.asn in transits
            assert context.asn_of(pair.ingress) == pair.asn
            assert context.asn_of(pair.egress) == pair.asn

    def test_pairs_are_unique(self, context):
        keys = [(p.ingress, p.egress) for p in context.result.pairs]
        assert len(keys) == len(set(keys))

    def test_every_pair_has_a_revelation_entry(self, context):
        for pair in context.result.pairs:
            assert (
                pair.ingress, pair.egress,
            ) in context.result.revelations

    def test_revealed_addresses_are_internal_ground_truth(self, context):
        # Every revealed address must truly belong to the pair's AS —
        # the techniques must not hallucinate hops.
        for (x, _), revelation in context.result.revelations.items():
            asn = context.asn_of(x)
            for address in revelation.revealed:
                assert context.asn_of(address) == asn

    def test_revealed_hops_are_really_on_the_path(self, context):
        # Ground truth check: revealed routers are core routers of
        # the transit AS (names AS<asn>_P*), not edge fabrications.
        internet = context.internet
        for revelation in context.result.successful_revelations():
            for address in revelation.revealed:
                router = internet.router_of_address(address)
                assert router is not None

    def test_uhp_as_yields_no_pairs(self, context):
        assert all(pair.asn != 2856 for pair in context.result.pairs)

    def test_requires_vantage_points(self, context):
        with pytest.raises(ValueError):
            Campaign(
                context.internet.prober, [], context.asn_of
            )

    def test_hdn_filter_restricts_pairs(self, small_internet):
        internet = small_internet
        campaign = Campaign(
            internet.prober,
            internet.vps,
            internet.asn_of_address,
            CampaignConfig(
                suspicious_asns=tuple(internet.transit_asns),
                hdn_addresses=frozenset(),  # nothing qualifies
            ),
        )
        result = campaign.run(internet.campaign_targets()[:10])
        assert result.pairs == []


class TestAggregator:
    def test_roles_partition(self, context):
        aggregator = context.aggregator
        roles = {
            aggregator.role_of(pair.ingress)
            for pair in context.result.pairs
        }
        assert "other" not in roles

    def test_summary_counts_consistent(self, context):
        for asn in context.aggregator.asns():
            summary = context.aggregator.revelation_summary(asn)
            assert 0 <= summary.revealed_pairs <= summary.ie_pairs
            assert summary.raw_lsps <= summary.revealed_pairs
            assert 0.0 <= summary.pct_revealed <= 1.0
            assert 0.0 <= summary.pct_ips_also_lers <= 1.0

    def test_density_drops_overall(self, context):
        # Revelation overwhelmingly thins the I–E mesh.  A *small* AS
        # whose 1-LSR tunnels share a hub can see density tick up
        # (chains double the edge count around the hub), so the claim
        # is aggregate, like the paper's Table 4.
        drops, rises = 0, 0
        for asn in context.aggregator.asns():
            summary = context.aggregator.revelation_summary(asn)
            if summary.revealed_pairs == 0:
                continue
            if summary.density_after < summary.density_before - 1e-9:
                drops += 1
            elif summary.density_after > summary.density_before + 1e-9:
                rises += 1
        assert drops > rises
        assert drops >= 3

    def test_deployment_shares_sum_to_one(self, context):
        for asn in context.aggregator.asns():
            row = context.aggregator.deployment_row(asn)
            if row.technique_shares:
                assert sum(row.technique_shares.values()) == pytest.approx(
                    1.0
                )
            if row.signature_shares:
                assert sum(row.signature_shares.values()) == pytest.approx(
                    1.0
                )

    def test_ftl_distribution_counts_successes(self, context):
        total = len(context.aggregator.ftl_distribution())
        assert total == len(context.result.successful_revelations())


class TestTargetSelection:
    def test_hdn_driven_selection(self, context):
        graph = TraceGraph(context.alias_of, context.asn_of)
        graph.add_traces(context.result.traces)
        selection = select_targets(graph, threshold=6)
        assert selection.hdns
        assert selection.set_a
        # A and B are disjoint from the HDNs themselves.
        assert not (set(selection.hdns) & selection.target_nodes)
        assert selection.destinations
        assert selection.hdn_addresses

    def test_exclude_asns(self, context):
        graph = TraceGraph(context.alias_of, context.asn_of)
        graph.add_traces(context.result.traces)
        everything = select_targets(graph, threshold=6)
        all_asns = {
            graph.asn_of_node(node) for node in everything.target_nodes
        }
        filtered = select_targets(
            graph, threshold=6, exclude_asns=all_asns
        )
        assert filtered.destinations == []

    def test_split_among_teams(self):
        buckets = split_among_teams(range(10), 3)
        assert [len(b) for b in buckets] == [4, 3, 3]
        assert sorted(sum(buckets, [])) == list(range(10))

    def test_split_requires_teams(self):
        with pytest.raises(ValueError):
            split_among_teams([1], 0)


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def crossval(self):
        context = campaign_context(
            ContextConfig(
                topology=TopologySpec(ttl_propagate_everywhere=True)
            )
        )
        tunnels = extract_explicit_tunnels(
            context.result.traces, context.asn_of
        )
        vp_by_name = {vp.name: vp for vp in context.internet.vps}
        outcome = cross_validate(
            context.internet.prober, vp_by_name, tunnels
        )
        return context, tunnels, outcome

    def test_tunnels_extracted(self, crossval):
        _, tunnels, _ = crossval
        assert tunnels
        for tunnel in tunnels:
            assert tunnel.lsrs
            assert tunnel.ingress != tunnel.egress

    def test_every_tunnel_classified(self, crossval):
        _, tunnels, outcome = crossval
        assert len(outcome.outcomes) == len(tunnels)

    def test_shares_sum_to_one(self, crossval):
        _, _, outcome = crossval
        shares = outcome.table3_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_single_lsr_tunnels_are_ambiguous(self, crossval):
        _, tunnels, outcome = crossval
        for tunnel in tunnels:
            verdict = outcome.outcomes[(tunnel.ingress, tunnel.egress)]
            if (
                len(tunnel.lsrs) == 1
                and verdict is not CrossValOutcome.FAILED
                and verdict is not CrossValOutcome.NOT_REDISCOVERED
            ):
                assert verdict is CrossValOutcome.AMBIGUOUS


class TestDurationEstimate:
    def test_paper_rate_model(self, context):
        result = context.result
        seconds = result.duration_estimate_seconds(rate_pps=25, teams=5)
        total = result.probes_sent + result.revelation_probes
        assert seconds == pytest.approx(total / 125)

    def test_rejects_bad_parameters(self, context):
        with pytest.raises(ValueError):
            context.result.duration_estimate_seconds(rate_pps=0)
        with pytest.raises(ValueError):
            context.result.duration_estimate_seconds(teams=0)
