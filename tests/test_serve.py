"""Tests for the multi-tenant campaign server (``repro.serve``).

Covers the subsystem's load-bearing promises: served runs are
byte-identical to the standalone orchestrator (measurement counters
included), snapshots render once per content key no matter how many
tenants attach, frozen shared topologies reject every mutation path,
admission turns unsafe specs away up front, and drain settles every
submitted session.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import CancelledError
from pathlib import Path

import pytest

import repro
from repro.net.topology import FrozenNetworkError
from repro.obs import measurement_counters
from repro.serve import (
    AdmissionError,
    ServeClient,
    SnapshotRegistry,
    TenantSpec,
    TopologySpec,
    run_standalone,
    topology_key,
)
from repro.serve.registry import default_registry, render_internet
from repro.serve.scheduler import FairScheduler

#: Small-but-complete topology: every campaign phase runs and tunnels
#: are revealed, within a unit-test budget.
SMALL = TopologySpec(
    scale=0.3, seed=11, vantage_points=3, stubs_per_transit=2
)


def small_spec(tenant, **overrides):
    overrides.setdefault("topology", SMALL)
    overrides.setdefault("max_targets", 6)
    return TenantSpec(tenant=tenant, **overrides)


def _context_side(spec):
    """``spec``'s campaign through ``repro campaign``'s context, with
    its measurement counters less the FRPLA samples its analyser adds
    after the run."""
    from repro.experiments.common import CampaignContext, ContextConfig

    context = CampaignContext(
        ContextConfig(
            topology=spec.topology,
            fault_profile=spec.fault_profile,
            max_retries=spec.max_retries,
        )
    )
    counters = measurement_counters(
        context.internet.engine.obs.metrics.counters_snapshot()
    )
    for name in ("frpla.samples", "technique.frpla.samples"):
        counters.pop(name, None)
    return context.result, counters


class TestByteIdentity:
    """Served, standalone and ``repro campaign`` runs of one spec
    execute one code path: equal results, measurement counters
    included."""

    @staticmethod
    def assert_one_campaign(spec):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            handle = client.submit(spec)
            served = handle.wait(timeout=300)
            served_counters = measurement_counters(
                handle.session.metrics.counters_snapshot()
            )
        finally:
            client.close()
        expected, metrics = run_standalone(spec)
        assert served == expected
        assert served_counters == measurement_counters(
            metrics.counters_snapshot()
        )
        assert _context_side(spec) == (served, served_counters)

    def test_served_equals_standalone_counters_included(self):
        self.assert_one_campaign(small_spec("ident", max_targets=None))

    def test_faulty_spec_still_identical(self):
        # A non-default spec: the fault layer sits between the shared
        # snapshot and the tenant's probes, on every path.
        self.assert_one_campaign(
            small_spec(
                "faulty", fault_profile="hostile", max_retries=1,
                max_targets=None,
            )
        )


class TestTeardown:
    def test_control_plane_keeps_only_live_listeners(self):
        """A faulty ``repro campaign`` context and a served session
        share one rendered snapshot; once both ran, its control plane
        holds only the listeners of the stacks still alive: the
        render's own and the context's attachment."""
        from repro.experiments.common import CampaignContext, ContextConfig

        topology = TopologySpec(
            scale=0.25, seed=4343, vantage_points=2, stubs_per_transit=2
        )
        context = CampaignContext(
            ContextConfig(topology=topology, fault_profile="loss-light")
        )
        client = ServeClient(registry=default_registry())
        try:
            client.submit(
                TenantSpec(
                    tenant="gone", topology=topology,
                    fault_profile="loss-light", max_targets=2,
                )
            ).wait(timeout=300)
        finally:
            client.close()
        render = context.internet.base
        live = [
            stack.engine.flush_trajectories
            for stack in (render, context.internet)
        ] + [
            stack.prober.service.flush_cache
            for stack in (render, context.internet)
        ]
        held = [ref() for ref in render.control._invalidation_listeners]
        assert sorted(map(repr, held)) == sorted(map(repr, live))

    def test_standalone_twin_writes_no_checkpoint_or_events(self, tmp_path):
        spec = small_spec(
            "twin", checkpoint_dir=str(tmp_path / "wh"),
            events_path=str(tmp_path / "events.jsonl"),
        )
        result, _ = run_standalone(spec)
        assert result.traces
        assert list(tmp_path.iterdir()) == []


class TestSnapshotSharing:
    def test_32_tenants_4_snapshots_renders_once_per_key(self):
        topologies = [
            TopologySpec(
                scale=0.25, seed=100 + i,
                vantage_points=2, stubs_per_transit=2,
            )
            for i in range(4)
        ]
        registry = SnapshotRegistry()
        client = ServeClient(registry=registry, max_active=8)
        try:
            handles = [
                client.submit(
                    TenantSpec(
                        tenant=f"t{i:02d}",
                        topology=topologies[i % 4],
                        max_targets=2,
                    )
                )
                for i in range(32)
            ]
            for handle in handles:
                handle.wait(timeout=600)
        finally:
            client.close()
        stats = registry.stats()
        assert stats["renders"] == len(
            {topology_key(t) for t in topologies}
        )
        assert stats["attaches"] == 32
        assert stats["attach_hits"] == 32 - 4
        assert stats["builds_avoided"] == 28

    def test_attachments_are_isolated(self):
        registry = SnapshotRegistry()
        a = registry.attach(SMALL)
        b = registry.attach(SMALL)
        assert a.network is b.network  # shared topology...
        assert a.engine is not b.engine  # ...private execution
        assert a.prober is not b.prober
        assert a.engine.obs.metrics is not b.engine.obs.metrics
        a.detach()
        b.detach()

    def test_campaign_context_reuses_registry_snapshot(self):
        # Satellite: two contexts in one process differing only in an
        # execution knob must share one render via the default
        # registry (previously each paid internet_build).
        from repro.experiments.common import (
            ContextConfig,
            campaign_context,
        )

        topology = TopologySpec(
            scale=0.25, seed=4242,
            vantage_points=2, stubs_per_transit=2,
        )
        before = default_registry().stats()
        campaign_context(ContextConfig(topology=topology))
        campaign_context(ContextConfig(topology=topology, max_retries=1))
        after = default_registry().stats()
        assert after["renders"] == before["renders"] + 1
        assert after["attaches"] == before["attaches"] + 2
        assert after["attach_hits"] == before["attach_hits"] + 1


class TestFreezeGuard:
    def test_frozen_network_rejects_structural_edits(self):
        internet = render_internet(SMALL)
        internet.network.freeze()
        assert internet.network.frozen
        with pytest.raises(FrozenNetworkError):
            internet.network.add_router("intruder", asn=9999)
        routers = list(internet.network.routers.values())
        with pytest.raises(FrozenNetworkError):
            internet.network.add_link(routers[0], routers[1])

    def test_registry_snapshots_are_frozen(self):
        registry = SnapshotRegistry()
        attached = registry.attach(SMALL)
        try:
            assert attached.network.frozen
            with pytest.raises(FrozenNetworkError):
                attached.network.add_router("intruder", asn=9999)
        finally:
            attached.detach()

    def test_flap_profile_refused_on_shared_snapshot(self):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            with pytest.raises(AdmissionError):
                client.submit(small_spec("bad", fault_profile="flap"))
        finally:
            client.close()

    def test_flap_fire_against_frozen_network_raises(self):
        from repro.faults import FaultyBackend, fault_profile
        from repro.measure import SimBackend

        internet = render_internet(SMALL)
        internet.network.freeze()
        backend = FaultyBackend(
            SimBackend(internet.engine), fault_profile("flap")
        )
        with pytest.raises(RuntimeError, match="frozen"):
            backend._fire_flap(0, "route-change")


class TestAdmission:
    def test_unknown_profile_rejected(self):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            with pytest.raises(AdmissionError):
                client.submit(
                    small_spec("chaotic", fault_profile="no-such")
                )
        finally:
            client.close()

    def test_non_mutating_profile_admitted(self):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            handle = client.submit(
                small_spec("hostile", fault_profile="hostile",
                           max_retries=1)
            )
            result = handle.wait(timeout=300)
            assert result.traces
        finally:
            client.close()


class TestWeights:
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite and positive"):
            small_spec("w", weight=weight)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_register_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite and positive"):
            FairScheduler().register("w", weight)


class TestLifecycle:
    def test_drain_cancels_queued_keeps_active(self):
        client = ServeClient(
            registry=SnapshotRegistry(), max_active=1
        )
        try:
            handles = [
                client.submit(small_spec(f"d{i}", max_targets=None))
                for i in range(3)
            ]
            client.drain(cancel_queued=True, timeout=600)
            statuses = [handle.status for handle in handles]
            assert all(
                status in ("done", "cancelled") for status in statuses
            )
            assert statuses.count("done") >= 1
            assert statuses.count("cancelled") >= 1
            stats = client.stats()
            assert stats["draining"]
            with pytest.raises(AdmissionError):
                client.submit(small_spec("late"))
        finally:
            client.close()

    def test_session_buffers_events_and_final_metrics(self):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            handle = client.submit(small_spec("eventful"))
            handle.wait(timeout=300)
            kinds = [record.get("kind") for record in handle.events]
            assert "campaign.metrics" in kinds
            final = [
                record for record in handle.events
                if record.get("kind") == "campaign.metrics"
            ][-1]
            assert final["counters"].get("measure.probes", 0) > 0
        finally:
            client.close()

    def test_events_mirrored_to_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        client = ServeClient(registry=SnapshotRegistry())
        try:
            handle = client.submit(
                small_spec("writer", events_path=str(path))
            )
            handle.wait(timeout=300)
        finally:
            client.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(handle.events)

    def test_server_stats_shape(self):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            client.submit(small_spec("s")).wait(timeout=300)
            stats = client.stats()
        finally:
            client.close()
        assert stats["sessions"] == {"done": 1}
        assert set(stats["registry"]) >= {
            "renders", "attach_hits", "builds_avoided", "saved_ms",
        }
        assert "s" in stats["scheduler"]

    def test_finished_sessions_are_pruned(self):
        client = ServeClient(registry=SnapshotRegistry())
        try:
            handles = []
            for index in range(30):
                handle = client.submit(
                    small_spec(f"p{index:02d}", max_targets=4)
                )
                handle.wait(timeout=300)
                handles.append(handle)
            client.drain(timeout=300)
            stats = client.stats()
            assert client.sessions == []
            assert stats["sessions"] == {"done": 30}
            for handle in handles:
                assert handle.wait(timeout=5).traces
                kinds = [record.get("kind") for record in handle.events]
                assert kinds[-1] == "campaign.metrics"
        finally:
            client.close()


class TestThreadedServer:
    @staticmethod
    def hold(client):
        """Open a live lane that never probes: it sorts first at the
        floor, so running sessions block at their first probe until
        it retires."""
        client.scheduler.register("!hold")

    @staticmethod
    def until(predicate, what):
        deadline = time.monotonic() + 60
        while not predicate():
            assert time.monotonic() < deadline, what
            time.sleep(0.01)

    def test_sigterm_while_waiting_cancels_queued(self):
        client = ServeClient(registry=SnapshotRegistry(), max_active=1)
        self.hold(client)
        previous = signal.signal(
            signal.SIGTERM,
            lambda signum, frame: client.request_drain(cancel_queued=True),
        )

        def send_sigterm():
            self.until(
                lambda: client.scheduler.queue_depth() > 0,
                "session never probed",
            )
            os.kill(os.getpid(), signal.SIGTERM)
            self.until(
                lambda: client.stats()["draining"], "SIGTERM not handled"
            )
            client.scheduler.retire("!hold")

        killer = threading.Thread(target=send_sigterm, daemon=True)
        try:
            handles = [
                client.submit(small_spec(f"sig{i}")) for i in range(3)
            ]
            killer.start()
            with pytest.raises(CancelledError):
                handles[-1].wait(timeout=300)
            killer.join(timeout=60)
            assert not killer.is_alive()
            stats = client.stats()
        finally:
            signal.signal(signal.SIGTERM, previous)
            client.close()
        assert [handle.status for handle in handles] == [
            "done", "cancelled", "cancelled",
        ]
        assert stats["sessions"] == {"done": 1, "cancelled": 2}

    def test_request_drain_under_server_lock_returns_at_once(self):
        client = ServeClient(registry=SnapshotRegistry())
        returned = threading.Event()

        def drain_holding_lock():
            with client._cond:
                client.request_drain()
                returned.set()

        try:
            handle = client.submit(small_spec("locked"))
            threading.Thread(target=drain_holding_lock, daemon=True).start()
            assert returned.wait(timeout=10)
            assert handle.wait(timeout=300).traces
            assert client.stats()["draining"]
            with pytest.raises(AdmissionError):
                client.submit(small_spec("late"))
        finally:
            client.close()

    def test_wait_timeout_on_running_session(self):
        client = ServeClient(registry=SnapshotRegistry())
        self.hold(client)
        try:
            handle = client.submit(small_spec("slow"))
            with pytest.raises(TimeoutError):
                handle.wait(timeout=0.05)
            assert handle.status == "running"
            client.scheduler.retire("!hold")
            assert handle.wait(timeout=300).traces
        finally:
            client.close()

    def test_concurrent_submitters_lose_no_update(self):
        """More workers than cores, three submitting threads and a
        short switch interval: every session is tallied once."""
        client = ServeClient(registry=SnapshotRegistry(), max_active=6)
        handles = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def submit_many(first):
            for index in range(first, 24, 3):
                handles.append(
                    client.submit(small_spec(f"c{index:02d}", max_targets=1))
                )

        try:
            submitters = [
                threading.Thread(target=submit_many, args=(first,))
                for first in range(3)
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for handle in handles:
                handle.wait(timeout=300)
            client.drain(timeout=300)
            stats = client.stats()
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert len(handles) == 24
        assert stats["sessions"] == {"done": 24}
        assert stats["registry"]["attaches"] == 24
        assert client.obs.metrics.get("serve.sessions.completed") == 24
        assert client.sessions == []

    def test_serve_and_fleet_import_without_asyncio(self):
        source = str(Path(repro.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.serve, repro.fleet; "
             "print('asyncio' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": source},
        )
        assert probe.stdout.strip() == "False"


class TestServedCheckpoint:
    def test_resumed_served_snapshot_equals_cli_snapshot(self, tmp_path):
        """A served tenant stopped by its budget, then resumed, lands
        in the snapshot ``repro campaign --checkpoint`` writes for the
        same spec, ``result.json`` included."""
        from repro.experiments.common import CampaignContext, ContextConfig
        from repro.store import CampaignStore

        topology = TopologySpec(
            scale=0.25, seed=11, vantage_points=2, stubs_per_transit=2
        )
        served = tmp_path / "served"
        client = ServeClient(registry=SnapshotRegistry())
        try:
            partial = client.submit(
                TenantSpec(
                    tenant="stopped", topology=topology, probe_budget=150,
                    checkpoint_dir=str(served),
                )
            ).wait(timeout=300)
            assert partial.partial
            resumed = client.submit(
                TenantSpec(
                    tenant="resumed", topology=topology,
                    checkpoint_dir=str(served), resume=True,
                )
            ).wait(timeout=300)
            assert not resumed.partial
        finally:
            client.close()
        cli = tmp_path / "cli"
        CampaignContext(
            ContextConfig(topology=topology, checkpoint_dir=str(cli))
        )
        [served_snapshot] = CampaignStore(served).snapshots()
        [cli_snapshot] = CampaignStore(cli).snapshots()
        assert served_snapshot.path.name == cli_snapshot.path.name
        assert served_snapshot.result_path.read_bytes() == (
            cli_snapshot.result_path.read_bytes()
        )


    def test_budget_stop_writes_a_partial_result_until_resumed(
        self, tmp_path
    ):
        from repro.store import CampaignStore

        topology = TopologySpec(
            scale=0.25, seed=11, vantage_points=2, stubs_per_transit=2
        )
        client = ServeClient(registry=SnapshotRegistry())
        try:
            client.submit(
                TenantSpec(
                    tenant="stopped", topology=topology, probe_budget=150,
                    checkpoint_dir=str(tmp_path),
                )
            ).wait(timeout=300)
            [snapshot] = CampaignStore(tmp_path).snapshots()
            assert snapshot.result()["partial"] is True
            assert not snapshot.completed()
            client.submit(
                TenantSpec(
                    tenant="resumed", topology=topology,
                    checkpoint_dir=str(tmp_path), resume=True,
                )
            ).wait(timeout=300)
        finally:
            client.close()
        assert snapshot.result()["partial"] is False
        assert snapshot.completed()


class TestTopologyKey:
    def test_key_is_stable_and_discriminating(self):
        assert topology_key(SMALL) == topology_key(
            TopologySpec(
                scale=0.3, seed=11,
                vantage_points=3, stubs_per_transit=2,
            )
        )
        assert topology_key(SMALL) != topology_key(
            TopologySpec(scale=0.3, seed=12,
                         vantage_points=3, stubs_per_transit=2)
        )

    def test_checkpoint_descriptor_matches_context_build(self):
        # Serve sessions and `repro campaign --checkpoint` must land
        # in the same warehouse snapshot for the same measured
        # topology + chaos shape.
        spec = small_spec("ckpt", fault_profile="hostile")
        descriptor = spec.checkpoint_topology()
        assert descriptor["kind"] == "synthetic-internet"
        assert descriptor["fault_profile"] == "hostile"
        clean = small_spec("clean").checkpoint_topology()
        assert "fault_profile" not in clean
