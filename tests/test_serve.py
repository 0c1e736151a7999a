"""Tests for the multi-tenant campaign server (``repro.serve``).

Covers the subsystem's load-bearing promises: served runs are
byte-identical to the standalone orchestrator (measurement counters
included), snapshots render once per content key no matter how many
tenants attach, frozen shared topologies reject every mutation path,
admission turns unsafe specs away up front, and drain settles every
submitted session.
"""

import asyncio
import time

import pytest

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

#: Small-but-complete topology: every campaign phase runs and tunnels
#: are revealed, within a unit-test budget.
SMALL = TopologySpec(
    scale=0.3, seed=11, vantage_points=3, stubs_per_transit=2
)


def small_spec(tenant, **overrides):
    overrides.setdefault("topology", SMALL)
    overrides.setdefault("max_targets", 6)
    return TenantSpec(tenant=tenant, **overrides)


class TestByteIdentity:
    def test_served_equals_standalone_counters_included(self):
        spec = small_spec("ident")
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

    def test_faulty_spec_still_identical(self):
        # A non-default spec: the fault layer sits between the shared
        # snapshot and the tenant's probes, on both paths.
        spec = small_spec("faulty", fault_profile="hostile", max_retries=1)
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
            assert client.server.sessions == []
            assert stats["sessions"] == {"done": 30}
            for handle in handles:
                assert handle.wait(timeout=5).traces
                kinds = [record.get("kind") for record in handle.events]
                assert kinds[-1] == "campaign.metrics"
        finally:
            client.close()


class TestLiveStream:
    def test_late_consumer_gets_backlog_then_live_records(self):
        """A consumer attaching mid-run receives exactly the
        session's events, in order, and stops at completion."""
        client = ServeClient(registry=SnapshotRegistry())
        scheduler = client.server.scheduler
        # A live lane that never probes sorts first at the floor, so
        # the session blocks at its first probe until it retires.
        scheduler.register("!hold")
        try:
            handle = client.submit(small_spec("streamed"))
            session = handle.session
            deadline = time.monotonic() + 60
            while scheduler.queue_depth() == 0:
                assert time.monotonic() < deadline, "session never probed"
                time.sleep(0.01)
            assert handle.status == "running"

            async def consume():
                backlog = len(session.events)
                asyncio.get_running_loop().call_soon(
                    scheduler.retire, "!hold"
                )
                records = [record async for record in session.stream()]
                return backlog, records

            backlog, records = client._call(consume(), timeout=300)
            handle.wait(timeout=300)
        finally:
            client.close()
        assert backlog < len(records)
        assert records == session.events
        assert all(a is b for a, b in zip(records, session.events))
        assert records[-1]["kind"] == "campaign.metrics"

    def test_unstreamed_session_barely_touches_the_loop(self):
        client = ServeClient(registry=SnapshotRegistry())
        loop = client._loop
        calls = []
        schedule = loop.call_soon_threadsafe

        def counting(callback, *args, **kwargs):
            calls.append(callback)
            return schedule(callback, *args, **kwargs)

        loop.call_soon_threadsafe = counting
        try:
            handle = client.submit(small_spec("quiet"))
            handle.wait(timeout=300)
        finally:
            client.close()
        assert len(handle.events) > 50
        assert len(calls) <= 8, calls


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
