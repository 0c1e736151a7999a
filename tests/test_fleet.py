"""Fault-tolerant fleets: copy-on-churn, crash recovery, alerting.

The fleet subsystem's acceptance contracts:

1. **Copy-on-churn** — a clone of a frozen shared render is a
   private, unfrozen twin with bit-identical forwarding; churn runs
   on the twin while the original stays frozen for served tenants.
2. **Crash-identical recovery** — a chain hard-killed mid-epoch at
   every campaign phase boundary (and mid-phase, and mid-staleness)
   restarts from its checkpoints and converges to per-chain
   timelines and a ``repro.fleet/1`` aggregate byte-identical to an
   unfailed fleet's.  A watchdog-killed chain under hostile faults
   converges the same way.
3. **Park, don't fail** — a chain that exhausts its restart budget
   is parked; the fleet still returns, and the parked chain's
   missing epochs *downgrade* the fleet's data-quality grade.
4. **Drain** — a drain request finishes in-flight epochs, persists
   resumable state, and a resumed fleet completes byte-identically.
5. **Deterministic alerting** — churn-spike alerts are a pure
   function of warehouse content (same seed, same alerts).

Plus the satellite contracts: the inspector renders clean digests
for zero-completed-epoch chains and damaged tails, and the frozen /
admission error messages point at ``repro fleet``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet import (
    ChainWorker,
    FleetConfig,
    FleetSupervisor,
    WatchdogExpired,
    WorkerKilled,
)
from repro.fleet.supervisor import _ChainHarness
from repro.monitor import MonitorConfig, MonitorLoop, chain_id
from repro.net.topology import FrozenNetworkError
from repro.serve.registry import SnapshotRegistry, TopologySpec
from repro.store import FLEET_SCHEMA, fold_fleet, render_fleet
from repro.store.layout import read_phase_records
from repro.synth import ChurnModel, churn_profile
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import scaled_profiles

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small-but-real fleet shape shared by the expensive fixtures.
FLEET_KW = dict(
    chains=2,
    epochs=2,
    scale=0.3,
    seed=2017,
    vantage_points=3,
    stubs_per_transit=2,
    churn_profile="steady",
    backoff_base_ms=0.5,
)


def _fleet(warehouse, **overrides):
    kw = dict(FLEET_KW)
    kw.update(overrides)
    return FleetConfig(warehouse=str(warehouse), **kw)


def _run(warehouse, kill_plan=None, **overrides):
    supervisor = FleetSupervisor(
        _fleet(warehouse, **overrides), kill_plan=kill_plan
    )
    return supervisor.run(), supervisor


def _fleet_bytes(warehouse):
    return (Path(warehouse) / "fleet.json").read_bytes()


class TestFleetConfig:
    @pytest.mark.parametrize("field_name", [
        "backoff_base_ms", "backoff_cap_ms",
    ])
    @pytest.mark.parametrize("value", [-5.0, float("nan"), float("inf")])
    def test_bad_backoff_rejected(self, tmp_path, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            _fleet(tmp_path, **{field_name: value})

    def test_zero_backoff_is_legal(self, tmp_path):
        assert _fleet(tmp_path, backoff_base_ms=0.0).backoff_base_ms == 0.0


# ---------------------------------------------------------------------------
# 1. Copy-on-churn


class TestCopyOnChurn:
    @pytest.fixture(scope="class")
    def frozen_internet(self):
        internet = build_internet(
            InternetConfig(
                profiles=tuple(scaled_profiles(0.3)),
                vantage_points=3,
                stubs_per_transit=2,
                seed=2017,
            )
        )
        internet.network.freeze()
        return internet

    def test_clone_is_unfrozen_and_forwarding_identical(
        self, frozen_internet
    ):
        twin = frozen_internet.clone()
        assert frozen_internet.network.frozen
        assert not twin.network.frozen
        targets = frozen_internet.campaign_targets()
        assert twin.campaign_targets() == targets
        for vp, twin_vp in zip(frozen_internet.vps, twin.vps):
            assert vp.name == twin_vp.name
            for dst in targets[:5]:
                for ttl in (1, 3, 6, 255):
                    a = frozen_internet.engine.send_probe(
                        vp, dst, ttl
                    )
                    b = twin.engine.send_probe(twin_vp, dst, ttl)
                    assert (
                        a.reply_kind,
                        a.responder,
                        a.responder_router,
                        a.quoted_labels,
                        a.forward_path,
                    ) == (
                        b.reply_kind,
                        b.responder,
                        b.responder_router,
                        b.quoted_labels,
                        b.forward_path,
                    )

    def test_churn_runs_on_twin_original_stays_frozen(
        self, frozen_internet
    ):
        twin = frozen_internet.clone()
        model = ChurnModel(
            twin, churn_profile("turbulent"), seed=7
        )
        events = model.advance(1)
        assert events
        assert frozen_internet.network.frozen

    def test_churn_against_frozen_names_fleet_alternative(
        self, frozen_internet
    ):
        with pytest.raises(FrozenNetworkError) as excinfo:
            ChurnModel(
                frozen_internet, churn_profile("steady"), seed=7
            )
        message = str(excinfo.value)
        assert "copy-on-churn" in message
        assert "repro fleet" in message

    def test_injected_frozen_internet_rejected_with_hint(
        self, frozen_internet, tmp_path
    ):
        with pytest.raises(ValueError) as excinfo:
            MonitorLoop(
                MonitorConfig(
                    warehouse=str(tmp_path),
                    vantage_points=3,
                    stubs_per_transit=2,
                ),
                internet=frozen_internet,
            )
        assert "copy-on-churn" in str(excinfo.value)

    def test_injected_mismatched_internet_rejected(self, tmp_path):
        other = build_internet(
            InternetConfig(
                profiles=tuple(scaled_profiles(0.3)),
                vantage_points=2,
                stubs_per_transit=2,
                seed=99,
            )
        )
        with pytest.raises(ValueError) as excinfo:
            MonitorLoop(
                MonitorConfig(
                    warehouse=str(tmp_path),
                    vantage_points=3,
                    stubs_per_transit=2,
                ),
                internet=other,
            )
        message = str(excinfo.value)
        assert "seed" in message and "vantage_points" in message

    def test_injected_twin_of_another_scale_rejected(self, tmp_path):
        twin = SnapshotRegistry().checkout(
            TopologySpec(scale=0.4, vantage_points=4, stubs_per_transit=3)
        )
        with pytest.raises(ValueError, match="disagrees"):
            MonitorLoop(
                MonitorConfig(warehouse=str(tmp_path), scale=0.3),
                internet=twin,
            )

    def test_registry_checkout_counts_and_reuses_render(self):
        registry = SnapshotRegistry()
        spec = TopologySpec(
            scale=0.3,
            vantage_points=3,
            stubs_per_transit=2,
        )
        first = registry.checkout(spec)
        second = registry.checkout(spec)
        assert registry.renders == 1
        assert registry.checkouts == 2
        assert first is not second
        assert not first.network.frozen
        assert registry.stats()["checkouts"] == 2


# ---------------------------------------------------------------------------
# 2. Crash-identical recovery


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        """An unfailed single-chain fleet: the byte-identity oracle."""
        warehouse = tmp_path_factory.mktemp("wh-clean")
        report, _ = _run(warehouse, chains=1)
        assert report.completed
        return warehouse

    def _phase_boundaries(self, warehouse):
        """Cumulative probe counts at epoch 0's phase boundaries."""
        snapshot_dirs = [
            path
            for path in Path(warehouse).iterdir()
            if (path / "MANIFEST.json").exists()
        ]
        epoch0 = None
        for path in snapshot_dirs:
            manifest = json.loads(
                (path / "MANIFEST.json").read_text()
            )
            stamp = manifest["fingerprint"]["topology"]["monitor"]
            if stamp["epoch"] == 0:
                epoch0 = path
        assert epoch0 is not None
        boundaries = []
        for phase in ("trace", "ping", "revelation"):
            records = read_phase_records(
                epoch0 / "phases" / f"{phase}.jsonl"
            )
            if records:
                boundaries.append(
                    records[-1]["state"]["service"]["probes_sent"]
                )
        return boundaries

    def test_kill_at_every_phase_boundary_converges(
        self, clean, tmp_path_factory
    ):
        oracle = _fleet_bytes(clean)
        boundaries = self._phase_boundaries(clean)
        assert len(boundaries) == 3
        epoch_end = boundaries[-1]
        kill_points = sorted(
            {1, *boundaries, *(b + 1 for b in boundaries),
             epoch_end + 40}
        )
        for kill_after in kill_points:
            warehouse = tmp_path_factory.mktemp(
                f"wh-kill{kill_after}"
            )
            report, _ = _run(
                warehouse, chains=1, kill_plan={0: kill_after}
            )
            outcome = report.chains[0]
            assert outcome.status == "completed", kill_after
            assert outcome.injected_kills == 1
            assert outcome.restarts == 1
            assert _fleet_bytes(warehouse) == oracle, (
                f"kill at probe {kill_after} did not converge "
                "byte-identically"
            )

    def test_killed_timeline_matches_clean_timeline(
        self, clean, tmp_path_factory
    ):
        warehouse = tmp_path_factory.mktemp("wh-kill-tl")
        report, _ = _run(warehouse, chains=1, kill_plan={0: 120})
        assert report.completed
        oracle = json.loads(_fleet_bytes(clean))
        crashed = json.loads(_fleet_bytes(warehouse))
        assert crashed == oracle
        assert crashed["schema"] == FLEET_SCHEMA
        # Restart bookkeeping lives in the ledger, never in the doc.
        assert report.chains[0].restarts == 1
        assert "restarts" not in json.dumps(oracle)

    def test_watchdog_under_hostile_faults_converges(
        self, tmp_path_factory
    ):
        clean = tmp_path_factory.mktemp("wh-hostile-clean")
        report, _ = _run(clean, chains=1, fault_profile="hostile")
        assert report.completed
        watched = tmp_path_factory.mktemp("wh-hostile-watchdog")
        report, _ = _run(
            watched,
            chains=1,
            fault_profile="hostile",
            epoch_deadline=150,
            restart_budget=60,
        )
        outcome = report.chains[0]
        assert outcome.status == "completed"
        assert outcome.watchdog_kills > 0
        assert _fleet_bytes(watched) == _fleet_bytes(clean)

    def test_multi_chain_crash_storm_converges(
        self, tmp_path_factory
    ):
        clean = tmp_path_factory.mktemp("wh-storm-clean")
        _run(clean)
        stormed = tmp_path_factory.mktemp("wh-storm")
        report, supervisor = _run(
            stormed, kill_plan={0: 90, 1: 250}
        )
        assert report.completed
        assert sum(c.injected_kills for c in report.chains) == 2
        assert _fleet_bytes(stormed) == _fleet_bytes(clean)
        # One shared render, one checkout per attempt.
        assert supervisor.registry.renders == 1
        assert supervisor.registry.checkouts == 4


# ---------------------------------------------------------------------------
# 3. Park, don't fail


class TestParking:
    @pytest.fixture(scope="class")
    def parked(self, tmp_path_factory):
        warehouse = tmp_path_factory.mktemp("wh-park")
        report, supervisor = _run(
            warehouse, kill_plan={1: 40}, restart_budget=0
        )
        return report, supervisor, warehouse

    def test_exhausted_budget_parks_instead_of_failing(
        self, parked
    ):
        report, _, _ = parked
        by_status = {c.index: c.status for c in report.chains}
        assert by_status == {0: "completed", 1: "parked"}
        assert report.parked[0].stop_reason is not None
        assert "parked" in report.parked[0].stop_reason

    def test_parked_chain_downgrades_fleet_grade(self, parked):
        report, _, _ = parked
        quality = report.document["data_quality"]
        assert quality["kind"] == "fleet"
        assert report.document["summary"]["grade"] != "high"
        parked_chain = report.parked[0].chain
        assert parked_chain in quality["incomplete"]
        assert quality["chains"][parked_chain]["coverage"] < 1.0

    def test_parked_chain_still_has_a_ledger_row(self, parked):
        report, _, _ = parked
        rows = {
            row["chain"]: row
            for row in report.document["chains"]
        }
        parked_chain = report.parked[0].chain
        assert rows[parked_chain]["epochs_completed"] == 0
        assert rows[parked_chain]["complete"] is False

    def test_fleet_metrics_family(self, parked):
        _, supervisor, _ = parked
        counters = supervisor.obs.metrics.counters_snapshot()
        assert counters["fleet.chains"] == 2
        assert counters["fleet.chains_completed"] == 1
        assert counters["fleet.chains_parked"] == 1
        assert counters["fleet.injected_kills"] == 1
        assert "fleet.epochs_completed" in counters

    def test_parked_warehouse_resumes_to_full_fleet(
        self, parked, tmp_path_factory
    ):
        _, _, warehouse = parked
        clean = tmp_path_factory.mktemp("wh-park-oracle")
        _run(clean)
        report, _ = _run(warehouse)  # no kills this time
        assert report.completed
        assert _fleet_bytes(warehouse) == _fleet_bytes(clean)


# ---------------------------------------------------------------------------
# 4. Drain


class TestDrain:
    def test_drain_finishes_in_flight_epoch_and_resumes(
        self, tmp_path_factory, monkeypatch
    ):
        clean = tmp_path_factory.mktemp("wh-drain-oracle")
        _run(clean, chains=1, epochs=3)
        warehouse = tmp_path_factory.mktemp("wh-drain")

        # Simulate SIGTERM landing while epoch 1 is in flight: the
        # drain flag is raised from inside the worker, so the next
        # boundary check (epoch 2) sees it — exactly the CLI's
        # signal-handler path, minus the race.
        original = ChainWorker._epoch_boundary

        def boundary(self, epoch):
            if epoch == 2:
                self._drain.set()
            return original(self, epoch)

        monkeypatch.setattr(
            ChainWorker, "_epoch_boundary", boundary
        )
        report, supervisor = _run(warehouse, chains=1, epochs=3)
        outcome = report.chains[0]
        assert report.drained
        assert outcome.status == "drained"
        assert "resume" in (outcome.stop_reason or "")
        # The in-flight epoch (1) finished cleanly — nothing partial.
        assert outcome.epochs_completed == 2
        monkeypatch.setattr(
            ChainWorker, "_epoch_boundary", original
        )
        resumed, _ = _run(warehouse, chains=1, epochs=3)
        assert resumed.completed
        assert _fleet_bytes(warehouse) == _fleet_bytes(clean)

    def test_drain_before_start_persists_nothing_but_resumes(
        self, tmp_path_factory
    ):
        warehouse = tmp_path_factory.mktemp("wh-drain-early")
        supervisor = FleetSupervisor(
            _fleet(warehouse, chains=1)
        )
        supervisor.request_drain()
        report = supervisor.run()
        assert report.chains[0].status == "drained"
        assert report.chains[0].epochs_completed == 0
        resumed, _ = _run(warehouse, chains=1)
        assert resumed.completed


# ---------------------------------------------------------------------------
# 5. Aggregation + alerting


class TestFleetDocument:
    @pytest.fixture(scope="class")
    def turbulent(self, tmp_path_factory):
        warehouse = tmp_path_factory.mktemp("wh-doc")
        report, _ = _run(
            warehouse, epochs=3, churn_profile="turbulent"
        )
        return report, warehouse

    def test_schema_and_sections(self, turbulent):
        report, _ = turbulent
        document = report.document
        assert document["schema"] == FLEET_SCHEMA
        assert len(document["chains"]) == 2
        assert document["per_as_baseline"]
        for row in document["per_as_baseline"]:
            assert (
                row["min_rate"]
                <= row["mean_rate"]
                <= row["max_rate"]
            )
        assert document["summary"]["chains"] == 2

    def test_document_is_pure_function_of_warehouse(
        self, turbulent, tmp_path_factory
    ):
        _, warehouse = turbulent
        rerun = tmp_path_factory.mktemp("wh-doc-rerun")
        _run(rerun, epochs=3, churn_profile="turbulent")
        assert _fleet_bytes(warehouse) == _fleet_bytes(rerun)

    def test_refold_matches_supervisor_fold(self, turbulent):
        report, warehouse = turbulent
        refolded = fold_fleet(
            warehouse,
            chains=[c.chain for c in report.chains],
            expected_epochs=3,
        )
        assert refolded == report.document

    def test_chain_zero_is_the_standalone_monitor_chain(
        self, tmp_path
    ):
        config = _fleet(tmp_path)
        standalone = MonitorConfig(
            warehouse=str(tmp_path),
            epochs=config.epochs,
            scale=config.scale,
            seed=config.seed,
            vantage_points=config.vantage_points,
            stubs_per_transit=config.stubs_per_transit,
            churn_profile=config.churn_profile,
        )
        ids = config.chain_ids()
        assert ids[0] == chain_id(standalone)
        assert len(set(ids)) == config.chains

    def test_render_fleet_mentions_grade_and_alerts(
        self, turbulent
    ):
        report, _ = turbulent
        text = render_fleet(report.document)
        assert "grade" in text
        assert "alert" in text

    def test_alert_fires_on_spike_with_trailing_baseline(self):
        from repro.store.fleet import _chain_alerts

        transitions = [
            {"epoch": 1, "events": 1, "by_as": {}},
            {"epoch": 2, "events": 1, "by_as": {}},
            {"epoch": 3, "events": 6,
             "by_as": {7018: 4, 3356: 2}},
        ]
        alerts = _chain_alerts("abc123", transitions, 2.0, 2)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["kind"] == "churn-spike"
        assert alert["epoch"] == 3
        assert alert["baseline"] == 1.0
        assert alert["ratio"] == 6.0
        assert alert["ases"][0] == {"asn": 7018, "events": 4}

    def test_first_transition_never_alerts(self):
        from repro.store.fleet import _chain_alerts

        transitions = [
            {"epoch": 1, "events": 50, "by_as": {}},
        ]
        assert _chain_alerts("abc123", transitions, 2.0, 2) == []

    def test_quiet_chain_never_alerts(self):
        from repro.store.fleet import _chain_alerts

        transitions = [
            {"epoch": 1, "events": 0, "by_as": {}},
            {"epoch": 2, "events": 1, "by_as": {}},
            {"epoch": 3, "events": 1, "by_as": {}},
        ]
        assert _chain_alerts("abc123", transitions, 2.0, 2) == []


# ---------------------------------------------------------------------------
# Harness unit behaviour


class TestHarness:
    class _Backend:
        def __init__(self):
            self.submitted = 0

        def submit(self, request):
            self.submitted += 1
            return request

    def test_kill_switch_is_one_shot(self):
        harness = _ChainHarness(kill_after=3)
        backend = harness.wrap(self._Backend())
        backend.submit("a")
        backend.submit("b")
        with pytest.raises(WorkerKilled):
            backend.submit("c")
        # The probe that killed was never forwarded.
        assert harness._inner.submitted == 2
        backend.submit("d")  # disarmed
        assert harness._inner.submitted == 3

    def test_watchdog_resets_at_epoch_boundary(self):
        harness = _ChainHarness(epoch_deadline=2)
        backend = harness.wrap(self._Backend())
        backend.submit("a")
        backend.submit("b")
        harness.start_epoch()
        backend.submit("c")
        backend.submit("d")
        with pytest.raises(WatchdogExpired):
            backend.submit("e")

    def test_delegates_unknown_attributes(self):
        harness = _ChainHarness()
        backend = harness.wrap(self._Backend())
        assert backend.submitted == 0


# ---------------------------------------------------------------------------
# Satellite: the inspector on damaged / zero-epoch warehouses


class TestInspectors:
    @pytest.fixture(scope="class")
    def wounded(self, tmp_path_factory):
        """A fleet warehouse with one parked (zero-epoch) chain and
        one damaged phase tail."""
        warehouse = tmp_path_factory.mktemp("wh-inspect")
        _run(warehouse, kill_plan={1: 40}, restart_budget=0)
        for snapshot in sorted(Path(warehouse).iterdir()):
            trace = snapshot / "phases" / "trace.jsonl"
            if trace.exists():
                with open(trace, "a") as handle:
                    handle.write('{"index": 999, "garbage"\n')
                break
        return warehouse

    def _view(self, view, target, capsys):
        code = main(["inspect", view, str(target)])
        return code, capsys.readouterr()

    def test_timeline_inspect_renders_clean_digest(self, wounded, capsys):
        code, captured = self._view("timeline", wounded, capsys)
        assert code == 0, captured.err
        assert "Traceback" not in captured.err
        assert "Fleet aggregate" in captured.out
        assert "in-flight" in captured.out
        assert "no completed epochs" in captured.out

    def test_store_inspect_renders_clean_digest(self, wounded, capsys):
        code, captured = self._view("store", wounded, capsys)
        assert code == 0, captured.err
        assert "Traceback" not in captured.err
        assert "Fleet aggregate" in captured.out
        assert "crashed mid-epoch" in captured.out
        assert "damaged tail" in captured.out
        assert "0 record(s)" not in captured.out

    @pytest.mark.parametrize("view", ["store", "timeline"])
    def test_view_matches_golden(self, wounded, view, capsys):
        code, captured = self._view(view, wounded, capsys)
        assert code == 0, captured.err
        golden = REPO_ROOT / "tests" / "golden" / "inspect"
        assert captured.out.replace(str(wounded), "<warehouse>") == (
            golden / f"fleet-{view}.txt"
        ).read_text()


# ---------------------------------------------------------------------------
# Satellite: error messages point at the fleet


class TestGuidance:
    def test_admission_error_names_profile_and_fleet(self):
        from repro.serve.server import ServeClient
        from repro.serve.session import AdmissionError, TenantSpec

        client = ServeClient()
        try:
            with pytest.raises(AdmissionError) as excinfo:
                client.submit(
                    TenantSpec(tenant="t0", fault_profile="flap")
                )
        finally:
            client.close()
        message = str(excinfo.value)
        assert "'flap'" in message
        assert "repro fleet" in message
        assert "copy-on-churn" in message


# ---------------------------------------------------------------------------
# CLI


class TestFleetCli:
    def test_kill_plan_parsing(self):
        from repro.cli import _parse_kill_plan

        assert _parse_kill_plan(["0:80", "2"]) == {0: 80, 2: 100}
        assert _parse_kill_plan(None) == {}
        with pytest.raises(ValueError):
            _parse_kill_plan(["nope"])

    def test_fleet_cli_refuses_rerun_without_resume(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        warehouse = tmp_path / "wh"
        warehouse.mkdir()
        (warehouse / "fleet.json").write_text("{}")
        code = main(
            [
                "fleet",
                "--warehouse", str(warehouse),
                "--chains", "1",
                "--epochs", "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--resume" in err
