"""Tests for the shared experiment infrastructure."""

import gc

from repro.experiments.common import (
    ContextConfig,
    campaign_context,
    format_table,
)
from repro.serve.registry import TopologySpec, default_registry


class TestContextCaching:
    def test_same_config_returns_same_object(self):
        a = campaign_context(ContextConfig())
        b = campaign_context(ContextConfig())
        assert a is b

    def test_different_config_builds_fresh(self):
        a = campaign_context(ContextConfig())
        b = campaign_context(ContextConfig(topology=TopologySpec(seed=999, scale=0.4)))
        assert a is not b
        assert a.internet.network is not b.internet.network

    def test_propagate_everywhere_flag(self):
        visible = campaign_context(
            ContextConfig(
                topology=TopologySpec(ttl_propagate_everywhere=True)
            )
        )
        for asn in visible.internet.transit_asns:
            for router in visible.internet.network.routers_in_as(asn):
                assert router.mpls.ttl_propagate

    def test_alias_and_asn_resolvers(self):
        context = campaign_context(ContextConfig())
        router = context.internet.network.routers_in_as(3257)[0]
        assert context.alias_of(router.loopback) == router.name
        assert context.asn_of(router.loopback) == 3257
        assert context.alias_of(0x01010101) is None

    def test_evicted_contexts_leave_no_listeners(self):
        """Contexts dropped from the memo must not stay hooked onto
        the shared snapshot's control plane (nor be pinned alive)."""
        topology = dict(
            scale=0.3, seed=23, vantage_points=3, stubs_per_transit=2
        )
        default_registry().attach(TopologySpec(**topology)).detach()
        control = default_registry().rendered(
            TopologySpec(**topology)
        ).control
        listeners = control._invalidation_listeners
        gc.collect()
        baseline = len(listeners)

        def context(budget):
            campaign_context(
                ContextConfig(
                    probe_budget=budget, fault_profile="hostile",
                    topology=TopologySpec(**topology),
                )
            )

        # Budgets large enough never to stop a run early.
        context(100_000)
        gc.collect()
        per_context = len(listeners) - baseline
        assert per_context > 0
        for budget in range(100_001, 100_006):
            context(budget)
        gc.collect()
        # The memo keeps four contexts; the other two must be gone.
        assert len(listeners) <= baseline + 4 * per_context


class TestFormatTable:
    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_no_title(self):
        text = format_table(["x"], [(1,)])
        assert not text.startswith("\n")
        assert text.splitlines()[0].strip() == "x"

    def test_columns_align(self):
        text = format_table(
            ["name", "v"], [("long-name-here", 1), ("s", 22)]
        )
        lines = text.splitlines()
        # All rows have equal padded width for column one.
        positions = {line.rstrip().rfind(" ") for line in lines[2:]}
        assert len(positions) >= 1

    def test_mixed_types_stringified(self):
        text = format_table(
            ["a"], [(None,), (1.5,), ("x",)]
        )
        assert "None" in text and "1.5" in text
