"""Checkpoint/resume must be bit-identical to an uninterrupted run.

The warehouse contract (``repro.store``) is that a campaign killed at
*any* point — a phase boundary, mid-revelation, even mid-record-write —
resumes to exactly the result an uninterrupted run produces, including
the measurement-plane counters.  These tests interrupt the seeded
campaign via probe budgets chosen to land in each phase, resume, and
compare whole results (``CampaignResult ==``, inventory and RTLA
state included) plus the measurement counters in full.
"""

import json
import os

import pytest

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.cli import main
from repro.obs import measurement_counters
from repro.store import (
    IDENTITY_EXCLUDED_FIELDS,
    RESUME_EXEMPT_COUNTERS,
    CampaignCheckpoint,
    CampaignStore,
    Snapshot,
    StoreMismatch,
    campaign_key,
    config_fingerprint,
)
from repro.synth.internet import InternetConfig, build_internet

TOPOLOGY = {"kind": "synthetic-internet", "seed": 77}

# Budgets chosen against the seed-77 campaign (473 trace+ping probes,
# 265 revelation probes): one interruption per phase, plus late
# revelation.
BUDGETS = {
    "trace": 120,
    "ping": 400,
    "revelation_early": 500,
    "revelation_late": 700,
}


def _build(budget=None):
    internet = build_internet(InternetConfig(seed=77))
    campaign = Campaign(
        internet.prober,
        internet.vps,
        internet.asn_of_address,
        CampaignConfig(
            suspicious_asns=tuple(internet.transit_asns),
            probe_budget=budget,
        ),
    )
    return internet, campaign


def _measured(campaign):
    """The campaign's measurement counters, in full."""
    return measurement_counters(campaign.obs.metrics.counters_snapshot())


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted seed-77 run plus its measurement counters."""
    _, campaign = _build()
    internet, campaign = _build()
    result = campaign.run(internet.campaign_targets())
    return result, _measured(campaign)


def _interrupt_and_resume(tmp_path, budget):
    """Budget-kill a checkpointed run, then resume it to completion."""
    internet, campaign = _build(budget=budget)
    partial = campaign.run(
        internet.campaign_targets(),
        checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
    )
    assert partial.partial
    internet, campaign = _build()
    resumed = campaign.run(
        internet.campaign_targets(),
        checkpoint=CampaignCheckpoint(
            str(tmp_path), TOPOLOGY, resume=True
        ),
    )
    return partial, resumed, campaign


class TestResumeBitIdentical:
    @pytest.mark.parametrize("phase", sorted(BUDGETS))
    def test_interrupt_each_phase(self, tmp_path, baseline, phase):
        expected, expected_counters = baseline
        _, resumed, campaign = _interrupt_and_resume(
            tmp_path, BUDGETS[phase]
        )
        assert resumed == expected
        assert _measured(campaign) == expected_counters
        # The restored prefix is replayed, not re-simulated.
        assert (
            resumed.perf.packets_simulated
            < expected.perf.packets_simulated
        )

    def test_double_interruption(self, tmp_path, baseline):
        expected, expected_counters = baseline
        internet, campaign = _build(budget=300)
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        internet, campaign = _build(budget=650)
        second = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(
                str(tmp_path), TOPOLOGY, resume=True
            ),
        )
        assert second.partial
        internet, campaign = _build()
        resumed = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(
                str(tmp_path), TOPOLOGY, resume=True
            ),
        )
        assert resumed == expected
        assert _measured(campaign) == expected_counters

    def test_complete_snapshot_resumes_without_probing(
        self, tmp_path, baseline
    ):
        expected, expected_counters = baseline
        internet, campaign = _build()
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        internet, campaign = _build()
        resumed = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(
                str(tmp_path), TOPOLOGY, resume=True
            ),
        )
        assert resumed == expected
        assert _measured(campaign) == expected_counters
        # Everything was replayed from the warehouse: the simulator
        # never forwarded a packet in the resumed leg.
        assert resumed.perf.packets_simulated == 0

    def test_run_status_reflects_interrupt_then_completion(
        self, tmp_path
    ):
        partial, resumed, _ = _interrupt_and_resume(
            tmp_path, BUDGETS["revelation_early"]
        )
        snapshot = Snapshot(
            os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
        )
        status = snapshot.run_status()
        assert status["partial"] is False
        assert status["stop_reason"] is None
        assert status["probes_sent"] == resumed.probes_sent
        assert status["revelation_probes"] == resumed.revelation_probes
        assert partial.checkpoint_dir == str(snapshot.path)
        assert resumed.checkpoint_dir == str(snapshot.path)


class TestCrashSafety:
    def test_damaged_tail_is_dropped_on_resume(
        self, tmp_path, baseline
    ):
        """A torn write (half a JSON line) must not poison the store."""
        expected, expected_counters = baseline
        internet, campaign = _build(budget=BUDGETS["ping"])
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        snapshot_dir = os.path.join(
            str(tmp_path), os.listdir(str(tmp_path))[0]
        )
        ping_path = os.path.join(snapshot_dir, "phases", "ping.jsonl")
        with open(ping_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 999, "index": 7,')  # torn mid-write
        internet, campaign = _build()
        resumed = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(
                str(tmp_path), TOPOLOGY, resume=True
            ),
        )
        assert resumed == expected
        assert _measured(campaign) == expected_counters

    def test_truncated_earlier_phase_discards_later_records(
        self, tmp_path, baseline
    ):
        """Losing trace-tail records invalidates dependent pings.

        The global ``seq`` chain exists for exactly this: if the trace
        file loses records but ping survived intact, the surviving
        ping records were measured against state we no longer have,
        so resume must drop them and re-measure.
        """
        expected, expected_counters = baseline
        internet, campaign = _build(budget=BUDGETS["ping"])
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        snapshot_dir = os.path.join(
            str(tmp_path), os.listdir(str(tmp_path))[0]
        )
        trace_path = os.path.join(
            snapshot_dir, "phases", "trace.jsonl"
        )
        lines = open(trace_path, encoding="utf-8").read().splitlines()
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-5]) + "\n")
        internet, campaign = _build()
        resumed = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(
                str(tmp_path), TOPOLOGY, resume=True
            ),
        )
        assert resumed == expected
        assert _measured(campaign) == expected_counters

    def test_resume_missing_snapshot_raises(self, tmp_path):
        internet, campaign = _build()
        with pytest.raises(StoreMismatch):
            campaign.run(
                internet.campaign_targets(),
                checkpoint=CampaignCheckpoint(
                    str(tmp_path), TOPOLOGY, resume=True
                ),
            )

    def test_resume_topology_mismatch_raises(self, tmp_path):
        internet, campaign = _build(budget=BUDGETS["trace"])
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        internet, campaign = _build()
        with pytest.raises(StoreMismatch):
            campaign.run(
                internet.campaign_targets(),
                checkpoint=CampaignCheckpoint(
                    str(tmp_path),
                    {"kind": "synthetic-internet", "seed": 78},
                    resume=True,
                ),
            )

    def test_fresh_checkpoint_refuses_populated_snapshot(
        self, tmp_path
    ):
        """``--checkpoint`` never silently clobbers existing records."""
        internet, campaign = _build(budget=BUDGETS["trace"])
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        internet, campaign = _build()
        with pytest.raises(StoreMismatch):
            campaign.run(
                internet.campaign_targets(),
                checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
            )


class TestIdentityKey:
    def test_execution_knobs_do_not_change_the_key(self):
        base = CampaignConfig(suspicious_asns=(64500,))
        tuned = CampaignConfig(
            suspicious_asns=(64500,),
            probe_budget=100,
            scope_budgets=(("revelation", 40),),
        )
        targets = [1, 2, 3]
        assert campaign_key(TOPOLOGY, base, targets) == campaign_key(
            TOPOLOGY, tuned, targets
        )
        fingerprint = config_fingerprint(tuned)
        for field in IDENTITY_EXCLUDED_FIELDS:
            assert field not in fingerprint

    def test_measurement_identity_changes_the_key(self):
        base = CampaignConfig(suspicious_asns=(64500,))
        other_asns = CampaignConfig(suspicious_asns=(64501,))
        targets = [1, 2, 3]
        key = campaign_key(TOPOLOGY, base, targets)
        assert key != campaign_key(TOPOLOGY, other_asns, targets)
        assert key != campaign_key(
            {"kind": "synthetic-internet", "seed": 78}, base, targets
        )
        assert key != campaign_key(TOPOLOGY, base, [1, 2, 4])


class TestStopSummary:
    def test_checkpointed_partial_names_snapshot_and_resume(
        self, tmp_path
    ):
        internet, campaign = _build(budget=BUDGETS["ping"])
        result = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        summary = result.stop_summary()
        assert result.checkpoint_dir in summary
        assert f"--resume {tmp_path}" in summary

    def test_uncheckpointed_partial_suggests_checkpoint(self):
        internet, campaign = _build(budget=BUDGETS["ping"])
        result = campaign.run(internet.campaign_targets())
        summary = result.stop_summary()
        assert "--checkpoint" in summary
        assert result.stop_reason in summary

    def test_complete_run_has_no_summary(self, baseline):
        expected, _ = baseline
        assert expected.stop_summary() is None

    def test_duration_estimate_matches_paper_rates(self, baseline):
        expected, _ = baseline
        total = expected.probes_sent + expected.revelation_probes
        assert expected.duration_estimate_seconds() == pytest.approx(
            total / (25.0 * 5)
        )
        assert expected.duration_estimate_seconds(
            rate_pps=50.0, teams=1
        ) == pytest.approx(total / 50.0)
        with pytest.raises(ValueError):
            expected.duration_estimate_seconds(rate_pps=0)
        with pytest.raises(ValueError):
            expected.duration_estimate_seconds(teams=0)


class TestStoreInspect:
    """The store view must digest real and damaged snapshots."""

    def test_inspect_renders_snapshot(self, tmp_path):
        from repro.inspect import render_snapshot, summarize_snapshot

        internet, campaign = _build(budget=BUDGETS["revelation_early"])
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        snapshots = CampaignStore(tmp_path).snapshots()
        assert len(snapshots) == 1
        summary = summarize_snapshot(snapshots[0])
        counts = {
            phase: stats["records"]
            for phase, stats in summary["phases"].items()
        }
        assert counts["trace"] > 0
        assert counts["pairs"] > 0
        assert summary["chain_length"] == sum(counts.values())
        assert not any(
            stats["damaged"] for stats in summary["phases"].values()
        )
        text = render_snapshot(summary)
        assert "Phase records" in text
        assert "Checkpointed progression" in text
        # Damage the revelation tail: the view flags it, no crash.
        with open(
            snapshots[0].phase_path("revelation"), "a", encoding="utf-8"
        ) as handle:
            handle.write("not json\n")
        damaged = summarize_snapshot(snapshots[0])
        assert damaged["phases"]["revelation"]["damaged"]
        assert "damaged tail" in render_snapshot(damaged)

    def test_inspect_exit_codes(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", "store"])
        assert excinfo.value.code == 2
        assert main(
            ["inspect", "store", str(tmp_path / "nowhere")]
        ) == 1
        capsys.readouterr()


class TestStateBlocks:
    def test_records_carry_replayable_state(self, tmp_path):
        """Every record's STATE block is self-consistent JSON."""
        internet, campaign = _build(budget=BUDGETS["revelation_late"])
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(str(tmp_path), TOPOLOGY),
        )
        snapshot_dir = os.path.join(
            str(tmp_path), os.listdir(str(tmp_path))[0]
        )
        seq = 0
        last_probes = -1
        for phase in ("trace", "ping", "pairs", "revelation"):
            path = os.path.join(
                snapshot_dir, "phases", f"{phase}.jsonl"
            )
            for index, line in enumerate(
                open(path, encoding="utf-8")
            ):
                record = json.loads(line)
                assert record["index"] == index
                assert record["seq"] == seq
                seq += 1
                state = record["state"]
                probes = state["result"]["probes_sent"] + state[
                    "result"
                ]["revelation_probes"]
                assert probes >= last_probes
                last_probes = probes
                assert "probes_sent" in state["service"]
                for name in RESUME_EXEMPT_COUNTERS:
                    assert name not in state["counters"]
