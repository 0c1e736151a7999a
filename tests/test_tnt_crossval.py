"""TNT cross-validation: per-class recall/precision vs ground truth.

The contract under test (ISSUE: TNT as first registry entrant): the
``tnt`` experiment renders one internet carrying *both* tunnel
classes, classifies every extracted tunnel against the installed
RSVP-TE ground truth, and reports recall/precision per class; LDP
recall matches the Table 3 regime while RSVP-TE recall collapses
(revelation rides the IGP, never the explicit path); and the CLI
exposes the experiment with context overrides and a JSON artifact.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign.crossval import extract_explicit_tunnels
from repro.cli import main
from repro.experiments.common import ContextConfig, campaign_context
from repro.serve.registry import TopologySpec
from repro.experiments.tnt_crossval import (
    DEFAULT_TE_TUNNELS,
    run,
)

BASE = TopologySpec(
    scale=0.3,
    seed=7,
    vantage_points=4,
    stubs_per_transit=3,
)


@pytest.fixture(scope="module")
def result():
    return run(ContextConfig(topology=BASE))


class TestPerClassValidation:
    def test_both_classes_tallied(self, result):
        assert set(result.per_class) == {"ldp", "rsvp-te"}
        assert result.per_class["ldp"].tunnels > 0
        assert result.per_class["rsvp-te"].tunnels > 0
        assert result.tunnels_found == sum(
            stats.tunnels for stats in result.per_class.values()
        )

    def test_tally_invariants(self, result):
        for stats in result.per_class.values():
            assert 0 <= stats.correct <= stats.claimed <= stats.tunnels
            assert 0.0 <= stats.recall <= 1.0
            assert 0.0 <= stats.precision <= 1.0

    def test_ldp_recall_dominates_te(self, result):
        """Sec. 3.4: revelation probes target internal prefixes, which
        ride the IGP/LDP — an RSVP-TE explicit path that detours off
        the IGP shortest path can never be recovered."""
        ldp = result.per_class["ldp"]
        te = result.per_class["rsvp-te"]
        assert ldp.recall > 0.5
        assert ldp.recall > te.recall

    def test_document_mirrors_tallies(self, result):
        document = result.document
        assert document["experiment"] == "tnt-crossval"
        assert document["tunnels_found"] == result.tunnels_found
        for label, stats in result.per_class.items():
            entry = document["classes"][label]
            assert entry["tunnels"] == stats.tunnels
            assert entry["claimed"] == stats.claimed
            assert entry["correct"] == stats.correct
            assert entry["recall"] == round(stats.recall, 4)
            assert entry["precision"] == round(stats.precision, 4)

    def test_text_renders_one_row_per_class(self, result):
        text = result.text
        assert "TNT cross-validation" in text
        assert "ldp" in text
        assert "rsvp-te" in text
        assert "Recall" in text and "Precision" in text


class TestUhpNullExtraction:
    def test_null_mode_is_a_strict_superset(self, result):
        """UHP tails quote explicit null, so the paper's same-AS rule
        alone drops every RSVP-TE tunnel; the null-aware mode keeps
        the LDP set intact and adds the TE tunnels on top."""
        context = campaign_context(
            ContextConfig(
                topology=replace(
                    BASE,
                    ttl_propagate_everywhere=True,
                    te_tunnels_per_transit=DEFAULT_TE_TUNNELS,
                    te_ttl_propagate=True,
                )
            )
        )
        classic = extract_explicit_tunnels(
            context.result.traces, context.asn_of
        )
        with_null = extract_explicit_tunnels(
            context.result.traces, context.asn_of,
            include_uhp_null=True,
        )

        def keys(tunnels):
            return {(t.vp, t.ingress, t.egress) for t in tunnels}

        assert keys(classic) < keys(with_null)
        assert len(with_null) == result.tunnels_found


class TestCli:
    def test_tnt_experiment_writes_the_artifact(self, capsys, tmp_path):
        path = tmp_path / "tnt-crossval.json"
        code = main([
            "experiment", "tnt",
            "--scale", "0.3", "--seed", "7",
            "--vantage-points", "4", "--stubs-per-transit", "3",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TNT cross-validation" in out
        document = json.loads(path.read_text())
        assert document["experiment"] == "tnt-crossval"
        assert set(document["classes"]) == {"ldp", "rsvp-te"}

    def test_overrides_rejected_without_config_support(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.3"]) == 2
        err = capsys.readouterr().err
        assert "takes no context overrides" in err
