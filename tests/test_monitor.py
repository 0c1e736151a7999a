"""The monitoring loop: incremental safety, timelines, resume.

Three acceptance contracts from the monitoring subsystem:

1. **Incremental safety** — with churn confined to a known AS, every
   epoch's merged tunnel inventory must be byte-identical to a full
   re-campaign of the same evolved internet, while skipping pairs and
   spending measurably fewer probes.
2. **Timeline correctness** — a scripted churn schedule (TE install
   plus LDP flip at epoch 2, a second LDP flip at epoch 3, teardown
   plus flip-back at epoch 4) must fold into exactly the expected
   born/died lifecycle events, and the same seed + profile must fold
   to a byte-identical timeline document.
3. **Resumability** — a chain killed mid-epoch by a probe budget must
   resume into per-epoch artefacts byte-identical to an uninterrupted
   twin chain (the PR-4/5 checkpoint machinery, composed).
"""

import json
from pathlib import Path

import pytest

from repro.monitor import MonitorConfig, MonitorLoop
from repro.store import (
    MONITOR_SCHEMA,
    chain_snapshots,
    fold_timeline,
    snapshot_tunnels,
)
from repro.synth import ChurnModel, ChurnProfile, churn_profile
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import scaled_profiles


def _twin_internet():
    """An internet identical to the one MonitorLoop builds itself."""
    return build_internet(
        InternetConfig(
            profiles=tuple(scaled_profiles(0.3)),
            vantage_points=4,
            stubs_per_transit=3,
            seed=2017,
        )
    )


def _inventories(warehouse, chain):
    """Per-epoch tunnel inventories as canonical JSON strings."""
    snapshots = chain_snapshots(warehouse, chain=chain)[chain]
    return [
        json.dumps(snapshot_tunnels(snapshot), sort_keys=True)
        for snapshot in snapshots
    ]


class TestIncrementalSafety:
    @pytest.fixture(scope="class")
    def arms(self, tmp_path_factory):
        """Incremental and full chains under AS-confined churn."""
        asn = sorted(_twin_internet().transit_asns)[0]
        profile = churn_profile("turbulent").restricted_to((asn,))
        runs = {}
        for label, incremental in (("inc", True), ("full", False)):
            warehouse = str(tmp_path_factory.mktemp(f"wh-{label}"))
            loop = MonitorLoop(
                MonitorConfig(
                    warehouse=warehouse,
                    epochs=3,
                    churn_profile=profile,
                    incremental=incremental,
                )
            )
            report = loop.run()
            assert not report.partial
            runs[label] = (loop, report, warehouse)
        return runs

    def test_inventories_byte_identical_to_full_recampaign(self, arms):
        inc_loop, inc_report, inc_wh = arms["inc"]
        _, full_report, full_wh = arms["full"]
        assert _inventories(inc_wh, inc_report.chain) == _inventories(
            full_wh, full_report.chain
        )

    def test_pairs_skipped_and_probes_saved(self, arms):
        inc_loop, inc_report, _ = arms["inc"]
        _, full_report, _ = arms["full"]
        assert inc_loop.obs.metrics.get("monitor.pairs_skipped") > 0
        inc_probes = sum(
            outcome.campaign_probes + outcome.evidence_probes
            for outcome in inc_report.epochs
        )
        full_probes = sum(
            outcome.campaign_probes for outcome in full_report.epochs
        )
        assert inc_probes < full_probes

    def test_incremental_and_full_chains_are_distinct(self, arms):
        _, inc_report, _ = arms["inc"]
        _, full_report, _ = arms["full"]
        assert inc_report.chain != full_report.chain


def _reference_events(inventories):
    """Independent lifecycle fold: set of (pair, epoch, event)."""
    events = set()
    for position in range(1, len(inventories)):
        before, after = inventories[position - 1], inventories[position]
        for pair in set(before) | set(after):
            b, a = before.get(pair), after.get(pair)
            if b is None and a is not None:
                events.add((pair, position, "born"))
            elif b is not None and a is None:
                events.add((pair, position, "died"))
            elif b is not None and a is not None:
                if b.get("length") != a.get("length"):
                    events.add((pair, position, "resized"))
                if (b.get("method"), b.get("technique")) != (
                    a.get("method"),
                    a.get("technique"),
                ):
                    events.add((pair, position, "technique-changed"))
    return events


class TestTimelineLifecycle:
    @pytest.fixture(scope="class")
    def scripted(self, tmp_path_factory):
        """A 5-epoch calm chain driven purely by a scripted schedule.

        The lifecycle drivers are LDP policy flips: the epoch-2 flip
        hits the ingress LER of a transit-AS router run that a
        baseline campaign observes *visibly* (every hop responding),
        turning the run into an invisible tunnel and birthing a
        brand-new candidate pair; the epoch-4 flip-back kills it
        again.  The epoch-3 flip hits the ingress LER of a tunnel
        revealed since epoch 0, turning it explicit and ending that
        pair mid-chain.  The TE install/teardown ride along on a
        churn-scouted head/tail off the probed paths: a UHP
        no-propagate RSVP-TE tunnel hides its own tail (the AS-exit
        PE), so it can never satisfy the same-AS candidate-pair
        heuristic (the paper's Sec 3.4 finding that DPR/BRPR never
        reveal RSVP-TE); here it exercises the staleness engine's
        as-churned re-probing without moving the inventory.
        """
        from repro.campaign.orchestrator import Campaign, CampaignConfig

        scout = ChurnModel(
            _twin_internet(),
            ChurnProfile(name="te-scout", te_installs=1),
            seed=3,
        )
        (scouted,) = scout.advance(1)
        te_head, te_tail = scouted.target.split("->")

        baseline = _twin_internet()
        campaign = Campaign(
            baseline.prober,
            baseline.vps,
            baseline.asn_of_address,
            CampaignConfig(
                suspicious_asns=tuple(baseline.transit_asns)
            ),
        )
        result = campaign.run(baseline.campaign_targets())
        born_router, _ = self._visible_transit_run(baseline, result)
        revealed = result.successful_revelations()
        assert revealed
        ingress = sorted(
            (revelation.ingress, revelation.egress)
            for revelation in revealed
        )[0][0]
        flip_router = baseline.router_of_address(ingress).name

        schedule = {
            2: [
                {"kind": "te-install", "head": te_head, "tail": te_tail},
                {"kind": "ldp-policy", "router": born_router},
            ],
            3: [{"kind": "ldp-policy", "router": flip_router}],
            4: [
                {"kind": "te-teardown", "head": te_head, "tail": te_tail},
                {"kind": "ldp-policy", "router": born_router},
            ],
        }
        documents = []
        for attempt in range(2):
            warehouse = str(tmp_path_factory.mktemp(f"wh-tl{attempt}"))
            loop = MonitorLoop(
                MonitorConfig(
                    warehouse=warehouse,
                    epochs=5,
                    churn_profile="calm",
                    schedule=schedule,
                )
            )
            report = loop.run()
            assert not report.partial
            snapshots = chain_snapshots(
                warehouse, chain=report.chain
            )[report.chain]
            documents.append(
                (fold_timeline(snapshots), snapshots, report)
            )
        return documents

    @staticmethod
    def _visible_transit_run(internet, result):
        """First ≥3-router same-transit-AS visible run on any trace.

        Flipping the run's first router (the ingress LER that pushes
        the label stack) to no-TTL-propagate demonstrably changes
        what probes see: the run's interior was visible before the
        flip and is hidden (a fresh candidate pair) after it.
        """
        routers = internet.network.routers
        for trace in result.traces:
            hops = [
                hop for hop in trace.hops if hop.responder_router
            ]
            start = 0
            while start < len(hops):
                asn = routers[hops[start].responder_router].asn
                stop = start
                while (
                    stop < len(hops)
                    and routers[hops[stop].responder_router].asn == asn
                ):
                    stop += 1
                if asn in internet.transit_asns and stop - start >= 3:
                    return (
                        hops[start].responder_router,
                        hops[stop - 1].responder_router,
                    )
                start = stop
        raise AssertionError("no visible transit run on any trace")

    def test_schema_and_epoch_count(self, scripted):
        document, _, report = scripted[0]
        assert document["schema"] == MONITOR_SCHEMA
        assert document["chain"]["id"] == report.chain
        assert document["chain"]["epochs"] == 5
        assert [
            head["epoch"] for head in document["epochs"]
        ] == list(range(5))

    def test_scripted_events_produce_expected_lifecycle(self, scripted):
        document, snapshots, _ = scripted[0]
        events = {
            ((entry["ingress"], entry["egress"]), event["epoch"],
             event["event"])
            for entry in document["pairs"]
            for event in entry["events"]
        }
        born_at_2 = {pair for (pair, e, k) in events if (e, k) == (2, "born")}
        died_at_4 = {pair for (pair, e, k) in events if (e, k) == (4, "died")}
        assert born_at_2, "the epoch-2 LDP flip must birth a tunnel"
        assert born_at_2 & died_at_4, (
            "the epoch-2 tunnel must die at the epoch-4 flip-back"
        )
        epoch3 = {e for e in events if e[1] == 3}
        assert epoch3, "the LDP flip at epoch 3 must move a pair"

    def test_fold_matches_independent_reference(self, scripted):
        document, snapshots, _ = scripted[0]
        inventories = [
            {
                (tunnel["ingress"], tunnel["egress"]): tunnel
                for tunnel in snapshot_tunnels(snapshot)
            }
            for snapshot in snapshots
        ]
        expected = _reference_events(inventories)
        folded = {
            ((entry["ingress"], entry["egress"]), event["epoch"],
             event["event"])
            for entry in document["pairs"]
            for event in entry["events"]
        }
        assert folded == expected

    def test_same_seed_folds_byte_identical(self, scripted):
        first, _, _ = scripted[0]
        second, _, _ = scripted[1]
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_per_as_churn_rates_cover_eventful_ases(self, scripted):
        document, _, _ = scripted[0]
        eventful = {
            entry["asn"]
            for entry in document["pairs"]
            if entry["events"] and entry["asn"] is not None
        }
        rated = {
            row["asn"]
            for row in document["per_as"]
            if row["churn_rate"] > 0
        }
        assert eventful <= rated


class TestResume:
    def test_budget_kill_then_resume_is_bit_identical(
        self, tmp_path_factory
    ):
        baseline_wh = str(tmp_path_factory.mktemp("wh-base"))
        baseline = MonitorLoop(
            MonitorConfig(
                warehouse=baseline_wh, epochs=2, churn_profile="gentle"
            )
        )
        baseline_report = baseline.run()
        assert not baseline_report.partial
        epoch0_probes = baseline_report.epochs[0].campaign_probes

        interrupted_wh = str(tmp_path_factory.mktemp("wh-int"))
        interrupted = MonitorLoop(
            MonitorConfig(
                warehouse=interrupted_wh,
                epochs=2,
                churn_profile="gentle",
                probe_budget=epoch0_probes // 2,
            )
        ).run()
        assert interrupted.partial
        assert "resume" in interrupted.stop_reason
        assert interrupted.epochs[-1].partial

        resumed = MonitorLoop(
            MonitorConfig(
                warehouse=interrupted_wh, epochs=2,
                churn_profile="gentle",
            )
        ).run()
        assert not resumed.partial
        assert resumed.chain == baseline_report.chain
        assert resumed.epochs[0].resumed

        for outcome, twin in zip(
            resumed.epochs, baseline_report.epochs
        ):
            assert outcome.key == twin.key
            a = Path(interrupted_wh) / outcome.snapshot_dir
            b = Path(baseline_wh) / twin.snapshot_dir
            assert (a / "result.json").read_bytes() == (
                b / "result.json"
            ).read_bytes()
        base_chain = chain_snapshots(
            baseline_wh, chain=baseline_report.chain
        )[baseline_report.chain]
        resumed_chain = chain_snapshots(
            interrupted_wh, chain=resumed.chain
        )[resumed.chain]
        assert json.dumps(
            fold_timeline(resumed_chain), sort_keys=True
        ) == json.dumps(fold_timeline(base_chain), sort_keys=True)

    def test_completed_chain_reruns_from_cache(self, tmp_path):
        warehouse = str(tmp_path / "wh")
        config = MonitorConfig(
            warehouse=warehouse, epochs=2, churn_profile="gentle"
        )
        first = MonitorLoop(config).run()
        again = MonitorLoop(config)
        report = again.run()
        assert [outcome.key for outcome in report.epochs] == [
            outcome.key for outcome in first.epochs
        ]
        assert all(outcome.skipped for outcome in report.epochs)
        assert again.obs.metrics.get("monitor.epochs_skipped") == 2


class TestGuards:
    def test_mutating_fault_profile_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mutates"):
            MonitorLoop(
                MonitorConfig(
                    warehouse=str(tmp_path), fault_profile="flap"
                )
            )

    def test_hostile_fault_profile_composes(self, tmp_path):
        """Non-mutating chaos under the monitor completes a chain."""
        loop = MonitorLoop(
            MonitorConfig(
                warehouse=str(tmp_path / "wh"),
                epochs=2,
                churn_profile="calm",
                fault_profile="hostile",
            )
        )
        report = loop.run()
        assert not report.partial
        sidecar = json.loads(
            (
                Path(str(tmp_path / "wh"))
                / report.epochs[0].snapshot_dir
                / "monitor.json"
            ).read_text()
        )
        assert sidecar["schema"] == MONITOR_SCHEMA
        assert sidecar["kind"] == "epoch"

    def test_unknown_churn_profile_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown churn profile"):
            MonitorLoop(
                MonitorConfig(
                    warehouse=str(tmp_path), churn_profile="tsunami"
                )
            )
