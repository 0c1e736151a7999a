"""Unit tests for the measurement service (budgets, retries, cache)."""

import pytest

from repro.measure import (
    ECHO_REPLY,
    BudgetExceeded,
    MeasurementPolicy,
    ProbeBackend,
    ProbeReply,
    ProbeRequest,
    ProbeService,
    as_probe_service,
)
from repro.obs import Obs
from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


class FakeBackend(ProbeBackend):
    """Deterministic scripted backend: echo-replies everything, except
    destinations listed in ``flaky`` which time out that many times
    before answering."""

    name = "fake"

    def __init__(self, flaky=None):
        self.obs = Obs()
        self.submitted = []
        self.batch_calls = 0
        self._flaky = dict(flaky or {})

    def submit(self, request):
        self.submitted.append(request)
        remaining = self._flaky.get(request.dst, 0)
        if remaining > 0:
            self._flaky[request.dst] = remaining - 1
            return ProbeReply(probe_ttl=request.ttl)
        return ProbeReply(
            probe_ttl=request.ttl,
            reply_kind=ECHO_REPLY,
            responder=request.dst,
            reply_ttl=250,
            rtt_ms=5.0,
        )

    def submit_batch(self, requests):
        self.batch_calls += 1
        return [self.submit(request) for request in requests]


def _service(policy=None, flaky=None):
    backend = FakeBackend(flaky=flaky)
    return ProbeService(backend, policy=policy), backend


class TestBudgets:
    def test_global_budget_caps_probes(self):
        service, backend = _service(
            MeasurementPolicy(probe_budget=3)
        )
        for dst in (1, 2, 3):
            service.ping_probe("VP", dst, flow_id=9)
        with pytest.raises(BudgetExceeded) as excinfo:
            service.ping_probe("VP", 4, flow_id=9)
        assert excinfo.value.scope == "campaign"
        assert excinfo.value.budget == 3
        assert excinfo.value.spent == 3
        assert service.probes_sent == 3
        assert len(backend.submitted) == 3
        assert service.obs.metrics.get("measure.budget.denied") == 1

    def test_scope_budget_only_bites_inside_the_scope(self):
        service, _ = _service(
            MeasurementPolicy(scope_budgets={"revelation": 2})
        )
        service.ping_probe("VP", 1, flow_id=9)  # outside: unmetered
        with service.scope("revelation"):
            service.ping_probe("VP", 2, flow_id=9)
            service.ping_probe("VP", 3, flow_id=9)
            with pytest.raises(BudgetExceeded) as excinfo:
                service.ping_probe("VP", 4, flow_id=9)
        assert excinfo.value.scope == "revelation"
        assert service.scope_spent("revelation") == 2
        service.ping_probe("VP", 5, flow_id=9)  # outside again: fine

    def test_nested_same_name_scope_charges_once(self):
        service, _ = _service(
            MeasurementPolicy(scope_budgets={"revelation": 2})
        )
        with service.scope("revelation"), service.scope("revelation"):
            service.ping_probe("VP", 1, flow_id=9)
        assert service.scope_spent("revelation") == 1

    def test_batch_admission_is_all_or_nothing(self):
        service, backend = _service(MeasurementPolicy(probe_budget=2))
        requests = [
            ProbeRequest("VP", dst, 64, 9) for dst in (1, 2, 3)
        ]
        with pytest.raises(BudgetExceeded):
            service.ping_batch(requests)
        # Nothing was submitted: the budget could not cover the batch.
        assert backend.submitted == []
        assert service.probes_sent == 0


class TestRetries:
    def test_timeouts_are_retried_until_answered(self):
        service, backend = _service(
            MeasurementPolicy(max_retries=2), flaky={7: 2}
        )
        reply = service.ping_probe("VP", 7, flow_id=9)
        assert reply.reply_kind == ECHO_REPLY
        assert len(backend.submitted) == 3
        assert service.obs.metrics.get("measure.retries") == 2

    def test_retries_exhausted_returns_timeout(self):
        service, backend = _service(
            MeasurementPolicy(max_retries=1), flaky={7: 5}
        )
        reply = service.ping_probe("VP", 7, flow_id=9)
        assert reply.reply_kind is None
        assert len(backend.submitted) == 2

    def test_no_retries_by_default(self):
        service, backend = _service(flaky={7: 1})
        reply = service.ping_probe("VP", 7, flow_id=9)
        assert reply.reply_kind is None
        assert len(backend.submitted) == 1


class TestCache:
    def test_cache_off_by_default(self):
        service, backend = _service()
        service.ping_probe("VP", 1, flow_id=9)
        service.ping_probe("VP", 1, flow_id=9)
        assert len(backend.submitted) == 2
        assert service.cached_replies == 0

    def test_ping_mode_dedupes_repeat_pings(self):
        service, backend = _service(
            MeasurementPolicy(cache_mode="ping")
        )
        first = service.ping_probe("VP", 1, flow_id=9)
        second = service.ping_probe("VP", 1, flow_id=9)
        assert second is first
        assert len(backend.submitted) == 1
        assert service.obs.metrics.get("measure.cache.hits") == 1

    def test_ping_cache_is_per_source(self):
        service, backend = _service(
            MeasurementPolicy(cache_mode="ping")
        )
        service.ping_probe("VP1", 1, flow_id=9)
        service.ping_probe("VP2", 1, flow_id=9)
        assert len(backend.submitted) == 2

    def test_seed_ping_serves_later_pings(self):
        service, backend = _service(
            MeasurementPolicy(cache_mode="ping")
        )
        seeded = ProbeReply(
            probe_ttl=5, reply_kind=ECHO_REPLY, responder=1,
            reply_ttl=250, rtt_ms=4.0,
        )
        service.seed_ping("VP", 1, 9, seeded)
        reply = service.ping_probe("VP", 1, flow_id=9)
        assert reply is seeded
        assert backend.submitted == []
        assert service.obs.metrics.get("measure.cache.seeded") == 1

    def test_seed_ping_noop_when_cache_off(self):
        service, backend = _service()
        service.seed_ping(
            "VP", 1, 9, ProbeReply(probe_ttl=5, reply_kind=ECHO_REPLY)
        )
        assert service.cached_replies == 0

    def test_all_mode_caches_traceroute_probes(self):
        service, backend = _service(
            MeasurementPolicy(cache_mode="all")
        )
        service.traceroute_probe("VP", 1, ttl=3, flow_id=9)
        service.traceroute_probe("VP", 1, ttl=3, flow_id=9)
        service.traceroute_probe("VP", 1, ttl=4, flow_id=9)
        assert len(backend.submitted) == 2

    def test_flush_cache_forces_remeasurement(self):
        service, backend = _service(
            MeasurementPolicy(cache_mode="ping")
        )
        service.ping_probe("VP", 1, flow_id=9)
        service.flush_cache()
        service.ping_probe("VP", 1, flow_id=9)
        assert len(backend.submitted) == 2
        assert service.obs.metrics.get("measure.cache.flushes") == 1


class TestBatchSubmission:
    def test_batch_goes_through_backend_batch_path(self):
        service, backend = _service()
        replies = service.ping_batch(
            [ProbeRequest("VP", dst, 64, 9) for dst in (1, 2, 3)]
        )
        assert backend.batch_calls == 1
        assert [r.responder for r in replies] == [1, 2, 3]
        assert service.probes_sent == 3

    def test_batch_serves_cached_entries_first(self):
        service, backend = _service(
            MeasurementPolicy(cache_mode="ping")
        )
        service.ping_probe("VP", 2, flow_id=9)
        replies = service.ping_batch(
            [ProbeRequest("VP", dst, 64, 9) for dst in (1, 2, 3)]
        )
        assert [r.responder for r in replies] == [1, 2, 3]
        # Only the two uncached requests hit the backend.
        assert len(backend.submitted) == 3
        assert service.obs.metrics.get("measure.cache.hits") == 1


class TestCoercion:
    def test_as_probe_service_accepts_backend(self):
        backend = FakeBackend()
        service = as_probe_service(backend)
        assert isinstance(service, ProbeService)
        assert service.backend is backend

    def test_as_probe_service_passes_service_through(self):
        service, _ = _service()
        assert as_probe_service(service) is service

    def test_as_probe_service_rejects_junk(self):
        with pytest.raises(TypeError):
            as_probe_service(object())


class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def internet(self):
        return build_internet(
            InternetConfig(
                profiles=tuple(paper_profiles(0.4)),
                vantage_points=3,
                stubs_per_transit=2,
                seed=11,
            )
        )

    def test_ping_phase_dedupes_trace_destinations(self, internet):
        campaign = Campaign(
            internet.prober,
            internet.vps,
            internet.asn_of_address,
            CampaignConfig(
                suspicious_asns=tuple(internet.transit_asns)
            ),
        )
        campaign.run(internet.campaign_targets())
        metrics = campaign.obs.metrics
        # Reached destinations are pinged from the trace-phase cache,
        # never re-probed on the wire.
        assert metrics.get("campaign.pings_saved") > 0
        assert (
            metrics.get("campaign.pings_saved")
            == metrics.get("measure.cache.hits")
        )

    def test_budget_capped_run_reports_partial(self, internet):
        from repro.measure import SimBackend
        from repro.probing.prober import Prober

        # A fresh prober/service: budgets count from zero.
        campaign = Campaign(
            Prober(SimBackend(internet.engine)),
            internet.vps,
            internet.asn_of_address,
            CampaignConfig(
                suspicious_asns=tuple(internet.transit_asns),
                probe_budget=40,
            ),
        )
        result = campaign.run(internet.campaign_targets())
        assert result.partial
        assert "probe budget exhausted" in result.stop_reason
        assert result.probes_sent <= 40
        assert campaign.obs.metrics.get("campaign.partial_runs") >= 1
