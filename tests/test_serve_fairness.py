"""Fairness tests for the serve scheduler (ISSUE satellite).

The contract: while two tenants are both backlogged, the weighted
fair scheduler's grant ratio tracks their weight ratio; a tenant that
exhausts its probe budget yields a clean partial result without
starving (or being starved by) its competitors — and both properties
hold under the ``hostile`` chaos profile.
"""

import sys
import threading
import time

import pytest

from repro.serve import (
    FairScheduler,
    ScheduledBackend,
    ServeClient,
    SnapshotRegistry,
    TenantSpec,
    TopologySpec,
)
from repro.serve.scheduler import QUANTUM

SMALL = TopologySpec(
    scale=0.3, seed=11, vantage_points=3, stubs_per_transit=2
)


def spec(tenant, **overrides):
    overrides.setdefault("topology", SMALL)
    return TenantSpec(tenant=tenant, **overrides)


class TestWeightedFairness:
    @pytest.mark.parametrize("profile", [None, "hostile"])
    def test_10_to_1_weights_give_10_to_1_grants(self, profile):
        """The acceptance bar: 10:1 budget weights → dispatch counts
        within tolerance of 10:1, clean and under ``hostile``."""
        kwargs = {}
        if profile is not None:
            kwargs = {"fault_profile": profile, "max_retries": 1}
        client = ServeClient(
            registry=SnapshotRegistry(), max_active=2
        )
        try:
            heavy = client.submit(
                spec("heavy", weight=10.0, **kwargs)
            )
            light = client.submit(spec("light", weight=1.0, **kwargs))
            heavy.wait(timeout=600)
            light.wait(timeout=600)
        finally:
            client.close()
        # The snapshot taken the moment the heavy tenant finished is
        # the contended-window measurement: both lanes were backlogged
        # the whole time, so grants must track weights.
        lanes = heavy.session.grant_snapshot
        heavy_probes = lanes["heavy"]["granted_probes"]
        light_probes = max(1, lanes["light"]["granted_probes"])
        ratio = heavy_probes / light_probes
        assert 6.0 <= ratio <= 15.0, lanes
        # And nobody starved: the light tenant still finished with a
        # full (non-partial) result.
        assert light.session.result is not None
        assert not light.session.result.partial

    def test_equal_weights_share_evenly(self):
        client = ServeClient(
            registry=SnapshotRegistry(), max_active=2
        )
        try:
            a = client.submit(spec("a", weight=1.0))
            b = client.submit(spec("b", weight=1.0))
            a.wait(timeout=600)
            b.wait(timeout=600)
        finally:
            client.close()
        lanes = a.session.grant_snapshot
        ratio = lanes["a"]["granted_probes"] / max(
            1, lanes["b"]["granted_probes"]
        )
        assert 0.7 <= ratio <= 1.4, lanes


class TestBudgetedTenant:
    def test_budget_exhaustion_is_clean_and_contained(self):
        """A budget-killed tenant ends partial with a stop reason;
        its competitor is untouched and completes in full."""
        client = ServeClient(
            registry=SnapshotRegistry(), max_active=2
        )
        try:
            broke = client.submit(
                spec("broke", probe_budget=25, weight=1.0)
            )
            solvent = client.submit(spec("solvent", weight=1.0))
            partial = broke.wait(timeout=600)
            full = solvent.wait(timeout=600)
            stats = client.stats()
            server_metrics = client.obs.metrics
        finally:
            client.close()
        assert partial.partial
        assert partial.probes_sent <= 25
        assert "budget" in (partial.stop_reason or "")
        assert not full.partial
        assert len(full.traces) > len(partial.traces)
        assert stats["sessions"] == {"done": 2}
        assert server_metrics.get("serve.sessions.partial") == 1
        assert server_metrics.get("serve.budget_denials") >= 1


class _InFlight:
    """Fake probe backend recording grant order and overlap."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.order = []

    def submit(self, tenant):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0)  # invite another thread in
        self.order.append(tenant)
        with self.lock:
            self.in_flight -= 1
        return tenant


def _run_threads(threads, timeout=60):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestTurnstile:
    """The turnstile alone: session threads, no event loop."""

    def test_single_entry_and_weighted_quanta(self):
        scheduler = FairScheduler()
        inner = _InFlight()
        probes = 400
        # Two threads share the weight-10 lane; one drives weight 1.
        lanes = [("heavy", 10.0), ("heavy", 10.0), ("light", 1.0)]
        for tenant, weight in lanes:
            scheduler.register(tenant, weight)

        def drive(tenant):
            backend = ScheduledBackend(inner, scheduler, tenant)
            try:
                for _ in range(probes):
                    backend.submit(tenant)
            finally:
                scheduler.retire(tenant)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads([
                threading.Thread(target=drive, args=(tenant,))
                for tenant, _ in lanes
            ])
        finally:
            sys.setswitchinterval(interval)
        assert inner.max_in_flight == 1
        stats = scheduler.stats()
        assert stats["heavy"]["granted_probes"] == 2 * probes
        assert stats["light"]["granted_probes"] == probes
        # While both lanes are backlogged (up to the heavy lane's last
        # grant), virtual times never drift more than one quantum.
        last_heavy = max(
            index for index, tenant in enumerate(inner.order)
            if tenant == "heavy"
        )
        heavy = light = 0
        for tenant in inner.order[: last_heavy + 1]:
            if tenant == "heavy":
                heavy += 1
            else:
                light += 1
            assert abs(heavy / 10.0 - light) <= QUANTUM + 1

    def test_retire_releases_a_stranded_waiter(self):
        scheduler = FairScheduler()
        inner = _InFlight()
        scheduler.register("lag")
        scheduler.register("run")
        # "lag" is the floor and never probes, so "run" is held.
        backend = ScheduledBackend(inner, scheduler, "run")
        thread = threading.Thread(target=backend.submit, args=("run",))
        thread.start()
        deadline = time.monotonic() + 10
        while scheduler.queue_depth() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert inner.order == []
        scheduler.retire("run")
        thread.join(10)
        assert not thread.is_alive()
        assert inner.order == ["run"]
        assert scheduler.queue_depth() == 0

    def test_newcomer_starts_at_the_live_floor(self):
        scheduler = FairScheduler()
        inner = _InFlight()
        scheduler.register("old", 2.0)
        scheduler.register("zgone")
        old = ScheduledBackend(inner, scheduler, "old")
        for _ in range(10):  # within old's first quantum
            old.submit("old")
        scheduler.retire("zgone")  # a retired lane sets no floor
        for _ in range(20):
            old.submit("old")
        scheduler.register("new", 4.0)
        lanes = scheduler.stats()
        assert lanes["old"]["virtual_time"] == 15.0
        assert lanes["zgone"]["virtual_time"] == 0.0
        assert lanes["new"]["virtual_time"] == 15.0
