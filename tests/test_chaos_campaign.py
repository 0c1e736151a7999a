"""End-to-end chaos tests: campaigns under every fault profile.

The contract under test (ISSUE: chaos measurement plane): every
shipped fault profile completes a campaign without a traceback and
with a populated ``data_quality`` annotation; the zero-fault profile
changes nothing; checkpoint→kill→resume under faults is bit-identical
to the uninterrupted faulty run; and a budget that dies mid-revelation
keeps the partial revelation, marks it incomplete, and resumes to the
full result.
"""

from dataclasses import replace

import pytest

from repro.core.brpr import backward_recursive_revelation
from repro.core.revelation import reveal_tunnel
from repro.core.technique import default_techniques
from repro.experiments.common import CampaignContext, ContextConfig
from repro.faults import FAULT_PROFILES
from repro.measure.service import BudgetExceeded
from repro.obs import measurement_counters
from repro.serve.registry import TopologySpec
from repro.synth.gns3 import build_gns3

#: Small-but-complete campaign (mirrors ``tools/soak.py campaign``):
#: every phase runs and revelations happen under every profile.
TOPOLOGY = TopologySpec(
    scale=0.4, seed=11, vantage_points=3, stubs_per_transit=2
)
POLICY = dict(max_retries=1, breaker_threshold=3)


def _build(profile, probe_budget=None, checkpoint_dir=None,
           resume=False):
    return CampaignContext(
        ContextConfig(
            fault_profile=profile,
            probe_budget=probe_budget,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            topology=TOPOLOGY,
            **POLICY,
        )
    )


def _measured(context):
    """The campaign's measurement counters, in full."""
    return measurement_counters(
        context.campaign.obs.metrics.counters_snapshot()
    )


class TestEveryProfileDegradesGracefully:
    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    def test_campaign_survives_with_data_quality(self, profile):
        context = _build(profile)
        result = context.result
        assert not result.partial  # no budget: must run to the end
        quality = result.data_quality
        assert quality["grade"] in ("high", "degraded", "poor")
        # Grading enumerates the technique registry, so every shipped
        # technique (including new entrants like tnt) gets a score.
        assert set(quality["techniques"]) == set(
            default_techniques().names()
        )
        assert quality["counters"]["probes"] > 0
        if FAULT_PROFILES[profile].inert:
            assert quality["counters"]["faults_injected"] == 0
        elif profile != "flap":  # flap mutates routes, not replies
            assert quality["counters"]["faults_injected"] > 0
        assert result.traces  # degraded, never empty


class TestZeroFaultTransparency:
    def test_none_profile_equals_clean_campaign(self):
        clean = _build(None)
        wrapped = _build("none")
        assert wrapped.result == clean.result
        assert _measured(wrapped) == _measured(clean)


class TestResultIdentity:
    def test_other_seed_is_another_campaign(self):
        seed11 = _build(None).result
        seed12 = CampaignContext(
            ContextConfig(topology=replace(TOPOLOGY, seed=12), **POLICY)
        ).result
        assert seed12 != seed11


class TestFaultyResume:
    @pytest.mark.parametrize("profile", ["hostile", "flap"])
    def test_resume_is_bit_identical(self, profile, tmp_path):
        warehouse = str(tmp_path / f"warehouse-{profile}")
        baseline = _build(profile)
        total = (
            baseline.result.probes_sent
            + baseline.result.revelation_probes
        )
        interrupted = _build(
            profile, probe_budget=total // 2,
            checkpoint_dir=warehouse,
        )
        assert interrupted.result.partial
        resumed = _build(
            profile, checkpoint_dir=warehouse, resume=True
        )
        assert not resumed.result.partial
        assert resumed.result == baseline.result
        assert _measured(resumed) == _measured(baseline)

    def test_hostile_resume_from_early_interrupt(self, tmp_path):
        # A 100-probe budget dies early in the trace phase (the full
        # run spends about 400): most of the campaign runs after the
        # resume.
        warehouse = str(tmp_path / "warehouse")
        baseline = _build("hostile")
        interrupted = _build(
            "hostile", probe_budget=100, checkpoint_dir=warehouse
        )
        assert interrupted.result.partial
        resumed = _build(
            "hostile", checkpoint_dir=warehouse, resume=True
        )
        assert not resumed.result.partial
        assert resumed.result == baseline.result
        assert _measured(resumed) == _measured(baseline)


class TestBudgetMidRevelation:
    def test_partial_revelation_kept_and_resumable(self, tmp_path):
        warehouse = str(tmp_path / "warehouse")
        baseline = _build("loss-light")
        # Land the exhaustion inside the revelation phase.
        budget = (
            baseline.result.probes_sent
            + baseline.result.revelation_probes // 2
        )
        interrupted = _build(
            "loss-light", probe_budget=budget,
            checkpoint_dir=warehouse,
        )
        result = interrupted.result
        assert result.partial
        assert "campaign" in result.stop_reason
        incomplete = [
            revelation
            for revelation in result.revelations.values()
            if not revelation.complete
        ]
        assert len(incomplete) == 1
        # The aborted recursion's finds survive, flagged incomplete.
        full = baseline.result.revelations
        for revelation in incomplete:
            key = (revelation.ingress, revelation.egress)
            assert set(revelation.revealed) <= set(
                full[key].revealed
            )
        resumed = _build(
            "loss-light", checkpoint_dir=warehouse, resume=True
        )
        assert all(
            revelation.complete
            for revelation in resumed.result.revelations.values()
        )
        assert resumed.result == baseline.result
        assert _measured(resumed) == _measured(baseline)


class TestScopedBudgetExhaustion:
    """Satellite: budget death inside the revelation recursions."""

    def _testbed(self):
        return build_gns3("backward-recursive")

    def _endpoints(self, testbed):
        return (
            testbed.address("PE1.left"),
            testbed.address("PE2.left"),
        )

    def test_brpr_keeps_partial_on_exhaustion(self):
        full = self._testbed()
        ingress, egress = self._endpoints(full)
        complete = backward_recursive_revelation(
            full.prober, full.vantage_point, ingress, egress
        )
        assert complete.success
        first_cost = len(complete.steps[0].trace.hops)

        testbed = self._testbed()
        # Enough for the first recursion step plus one probe: the
        # second trace dies mid-flight.
        testbed.prober.service.configure(
            scope_budgets={"brpr": first_cost + 1}
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            backward_recursive_revelation(
                testbed.prober, testbed.vantage_point,
                ingress, egress,
            )
        exc = excinfo.value
        assert exc.scope == "brpr"
        partial = exc.partial_brpr
        assert partial is not None
        assert not partial.complete
        assert partial.revealed  # the first step's find is kept
        assert set(partial.revealed) < set(complete.revealed)
        metrics = testbed.prober.obs.metrics
        assert metrics.get("brpr.incomplete") == 1

    def test_revelation_keeps_partial_on_exhaustion(self):
        full = self._testbed()
        ingress, egress = self._endpoints(full)
        complete = reveal_tunnel(
            full.prober, full.vantage_point, ingress, egress
        )
        assert complete.complete
        first_cost = complete.probes_used // complete.traces_used

        testbed = self._testbed()
        testbed.prober.service.configure(
            scope_budgets={"revelation": first_cost + 1}
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            reveal_tunnel(
                testbed.prober, testbed.vantage_point,
                ingress, egress,
            )
        exc = excinfo.value
        assert exc.scope == "revelation"
        partial = exc.partial_revelation
        assert partial is not None
        assert not partial.complete
        assert set(partial.revealed) < set(complete.revealed)
        metrics = testbed.prober.obs.metrics
        assert metrics.get("revelation.incomplete") == 1
