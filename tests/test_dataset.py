"""Round-trip tests for trace dataset serialization."""

import json

import pytest

from repro.experiments.common import ContextConfig, campaign_context
from repro.probing.dataset import (
    SCHEMA_VERSION,
    load_dataset,
    pings_from_dicts,
    pings_to_dicts,
    revelations_from_dicts,
    revelations_to_dicts,
    save_dataset,
    traces_from_dicts,
    traces_to_dicts,
)
from repro.synth.gns3 import build_gns3


@pytest.fixture(scope="module")
def context():
    return campaign_context(ContextConfig())


class TestTraceRoundTrip:
    def test_single_trace(self):
        testbed = build_gns3("default")
        trace = testbed.traceroute("CE2.left")
        (rebuilt,) = traces_from_dicts(traces_to_dicts([trace]))
        assert rebuilt.source == trace.source
        assert rebuilt.dst == trace.dst
        assert rebuilt.destination_reached
        assert rebuilt.addresses == trace.addresses
        assert [h.reply_ttl for h in rebuilt.hops] == [
            h.reply_ttl for h in trace.hops
        ]
        assert [h.quoted_labels for h in rebuilt.hops] == [
            h.quoted_labels for h in trace.hops
        ]

    def test_star_hops_survive(self):
        testbed = build_gns3("default")
        testbed.network.router("P1").icmp_enabled = False
        trace = testbed.traceroute("CE2.left")
        (rebuilt,) = traces_from_dicts(traces_to_dicts([trace]))
        assert any(not hop.responded for hop in rebuilt.hops)

    def test_campaign_traces(self, context):
        data = traces_to_dicts(context.result.traces)
        rebuilt = traces_from_dicts(data)
        assert len(rebuilt) == len(context.result.traces)
        # Serialization is JSON-safe.
        json.dumps(data)


class TestPingAndRevelationRoundTrip:
    def test_pings(self, context):
        data = pings_to_dicts(context.result.pings)
        rebuilt = pings_from_dicts(data)
        assert set(rebuilt) == set(context.result.pings)
        for address, result in rebuilt.items():
            original = context.result.pings[address]
            assert result.reply_ttl == original.reply_ttl
            assert result.source == original.source

    def test_revelations(self, context):
        data = revelations_to_dicts(context.result.revelations)
        rebuilt = revelations_from_dicts(data)
        assert set(rebuilt) == set(context.result.revelations)
        for key, revelation in rebuilt.items():
            original = context.result.revelations[key]
            assert revelation.revealed == original.revealed
            assert revelation.method is original.method
            assert revelation.step_reveals == original.step_reveals


class TestWholeDataset:
    def test_save_and_load(self, tmp_path, context):
        path = tmp_path / "campaign.json"
        save_dataset(
            path,
            context.result.traces,
            pings=context.result.pings,
            revelations=context.result.revelations,
            metadata={"seed": context.config.topology.seed},
        )
        loaded = load_dataset(path)
        assert loaded["metadata"]["seed"] == context.config.topology.seed
        assert len(loaded["traces"]) == len(context.result.traces)
        assert len(loaded["pings"]) == len(context.result.pings)
        assert len(loaded["revelations"]) == len(
            context.result.revelations
        )

    def test_analyses_run_on_loaded_traces(self, tmp_path, context):
        # Saved datasets must feed the analytical techniques directly.
        from repro.core.frpla import rfa_samples

        path = tmp_path / "campaign.json"
        save_dataset(path, context.result.traces)
        loaded = load_dataset(path)
        original = rfa_samples(context.result.traces)
        replayed = rfa_samples(loaded["traces"])
        assert [s.rfa for s in replayed] == [s.rfa for s in original]

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.json"
        save_dataset(path, [])
        loaded = load_dataset(path)
        assert loaded["traces"] == []
        assert loaded["pings"] == {}
        assert loaded["revelations"] == {}
        assert SCHEMA_VERSION == 1


class TestDatasetReplay:
    def test_saved_dataset_regenerates_tables(self, tmp_path, context):
        # The "freely available dataset" loop: save, reload, and
        # rebuild the per-AS aggregation from the file alone.
        from repro.campaign.orchestrator import CampaignResult
        from repro.campaign.postprocess import Aggregator

        path = tmp_path / "campaign.json"
        save_dataset(
            path,
            context.result.traces,
            pings=context.result.pings,
            revelations=context.result.revelations,
        )
        loaded = load_dataset(path)
        replayed = CampaignResult(
            traces=loaded["traces"],
            pings=loaded["pings"],
            revelations=loaded["revelations"],
        )
        # Rebuild pairs from the revelation keys (the dataset's
        # ground-truth-free view).
        from repro.campaign.orchestrator import CandidatePair

        for (x, y), _ in replayed.revelations.items():
            asn = context.asn_of(x)
            replayed.pairs.append(
                CandidatePair(
                    vp="replay", ingress=x, egress=y, asn=asn,
                    trace=replayed.traces[0],
                )
            )
        aggregator = Aggregator(replayed, context.asn_of)
        original = context.aggregator
        for asn in original.asns():
            fresh = aggregator.revelation_summary(asn)
            reference = original.revelation_summary(asn)
            assert fresh.revealed_pairs == reference.revealed_pairs
            assert fresh.lsr_ips == reference.lsr_ips
