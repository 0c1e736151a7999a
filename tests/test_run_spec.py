"""The run spec: which fields key a snapshot and a chain, and what
every front end's spec refuses.

:class:`RunSpec` declares the fields every front end's run shares and
splits them into identity (keys the snapshot) and execution (steers
the run).  The literal keys and chain ids of default runs are pinned
in ``test_run_identity.py``; this module checks the split itself.
"""

import dataclasses

import pytest

from repro.campaign.stack import RunSpec
from repro.experiments.common import CampaignContext, ContextConfig
from repro.fleet import FleetConfig
from repro.monitor import MonitorConfig, MonitorLoop, chain_id
from repro.serve import TenantSpec, TopologySpec, default_registry
from repro.store import (
    CampaignStore,
    campaign_key,
    chain_snapshots,
    fold_timeline,
)

BASE = RunSpec(topology=TopologySpec(scale=0.3))

#: One non-default value per RunSpec field.
NON_DEFAULT = {
    "topology": TopologySpec(scale=0.3, seed=2018),
    "fault_profile": "hostile",
    "max_retries": 1,
    "breaker_threshold": 3,
    "probe_budget": 50,
    "checkpoint_dir": "elsewhere",
    "resume": True,
}

#: The same values as flat chain fields.  ``resume`` has none: each
#: epoch of a chain resumes its own snapshot by itself.
CHAIN_VALUES = {
    "topology": {"seed": 2018},
    "fault_profile": {"fault_profile": "hostile"},
    "max_retries": {"max_retries": 1},
    "breaker_threshold": {"breaker_threshold": 3},
    "probe_budget": {"probe_budget": 50},
    "checkpoint_dir": {"warehouse": "elsewhere"},
}


def _snapshot_key(spec):
    """The content key a checkpoint of ``spec`` would open."""
    internet = default_registry().attach(spec.topology)
    try:
        return campaign_key(
            spec.checkpoint_topology(),
            spec.campaign_config(internet),
            internet.campaign_targets(),
        )["key"]
    finally:
        internet.detach()


def test_every_field_is_covered():
    names = {field.name for field in dataclasses.fields(RunSpec)}
    assert set(NON_DEFAULT) == names
    assert set(CHAIN_VALUES) == names - {"resume"}
    assert set(RunSpec.IDENTITY) <= names


def test_key_formula_matches_a_checkpointed_run(tmp_path):
    CampaignContext(
        ContextConfig(
            topology=BASE.topology,
            probe_budget=50,
            checkpoint_dir=str(tmp_path),
        )
    )
    (snapshot,) = CampaignStore(tmp_path).snapshots()
    assert snapshot.manifest()["key"] == _snapshot_key(BASE)


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
def test_snapshot_key_changes_exactly_for_identity(name):
    changed = dataclasses.replace(BASE, **{name: NON_DEFAULT[name]})
    assert (_snapshot_key(changed) != _snapshot_key(BASE)) == (
        name in RunSpec.IDENTITY
    )


@pytest.mark.parametrize("name", sorted(CHAIN_VALUES))
def test_chain_id_changes_exactly_for_identity(name):
    base = MonitorConfig(warehouse="wh", epochs=2)
    changed = dataclasses.replace(base, **CHAIN_VALUES[name])
    # The chain field really is the run-spec field under test.
    assert changed.run_spec() == dataclasses.replace(
        base.run_spec(), **{name: getattr(changed.run_spec(), name)}
    )
    assert getattr(changed.run_spec(), name) != getattr(
        base.run_spec(), name
    )
    assert (chain_id(changed) != chain_id(base)) == (
        name in RunSpec.IDENTITY
    )


def test_chains_differing_in_retries_keep_separate_timelines(tmp_path):
    warehouse = str(tmp_path)
    plain = MonitorConfig(
        warehouse=warehouse, epochs=2, churn_profile="steady",
        scale=0.2, vantage_points=2, stubs_per_transit=1,
    )
    retried = dataclasses.replace(
        plain, max_retries=2, breaker_threshold=3
    )
    # The default-valued chain keeps the id it always had.
    assert chain_id(plain) == "036e1a58fd1f"
    assert chain_id(retried) != chain_id(plain)
    for config in (plain, retried):
        MonitorLoop(config).run()
    chains = chain_snapshots(warehouse)
    assert sorted(chains) == sorted([chain_id(plain), chain_id(retried)])
    for members in chains.values():
        assert len(members) == 2
        assert len(fold_timeline(members)["epochs"]) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: RunSpec(probe_budget=0),
        lambda: RunSpec(probe_budget=-5),
        lambda: RunSpec(max_retries=-1),
        lambda: RunSpec(breaker_threshold=0),
        lambda: ContextConfig(probe_budget=0),
        lambda: ContextConfig(record_path="log.jsonl", resume=True),
        lambda: TenantSpec(tenant="t", max_targets=0),
        lambda: TenantSpec(tenant="t", max_targets=-1),
        lambda: TenantSpec(tenant="t", probe_budget=-5),
        lambda: TenantSpec(),
        lambda: MonitorConfig(warehouse="wh", probe_budget=0),
        lambda: MonitorConfig(warehouse="wh", max_retries=-1),
        lambda: FleetConfig(warehouse="wh", breaker_threshold=0),
    ],
    ids=[
        "budget-zero", "budget-negative", "retries-negative",
        "breaker-zero", "context-budget", "context-record-resume",
        "tenant-targets-zero", "tenant-targets-negative",
        "tenant-budget", "tenant-unnamed", "monitor-budget",
        "monitor-retries", "fleet-breaker",
    ],
)
def test_specs_reject_out_of_range_values(build):
    with pytest.raises(ValueError):
        build()
