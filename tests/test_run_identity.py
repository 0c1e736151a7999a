"""Run-identity pins: topology keys, snapshot keys and chain ids.

Every front end — ``repro campaign``/``repro chaos``, ``repro serve``,
``repro monitor`` and ``repro fleet`` — derives a snapshot identity
from its config.  Stored warehouses are found again only through
these identities, so they are pinned here as literal values: a
refactor of the config shapes must leave every one unchanged, or
every existing snapshot and chain would be orphaned.
"""

import dataclasses

import pytest

from repro.experiments.common import CampaignContext, ContextConfig
from repro.fleet import FleetConfig
from repro.monitor import MonitorConfig, MonitorLoop, chain_id
from repro.serve import TenantSpec, TopologySpec, topology_key
from repro.store import CampaignStore

TOPOLOGY_FIELDS = {
    field.name for field in dataclasses.fields(TopologySpec)
}


def _context_config(**values):
    """A ContextConfig from flat topology and execution values.

    ContextConfig nests its topology in a :class:`TopologySpec`;
    older trees declared the same fields flat.  Building either shape
    keeps these pins checkable on both sides of that change.
    """
    names = {field.name for field in dataclasses.fields(ContextConfig)}
    if "topology" not in names:
        return ContextConfig(**values)
    topology = {
        name: values.pop(name)
        for name in list(values)
        if name in TOPOLOGY_FIELDS
    }
    return ContextConfig(topology=TopologySpec(**topology), **values)


def _snapshot(root):
    (snapshot,) = CampaignStore(root).snapshots()
    return snapshot.manifest()


def _campaign_manifest(tmp_path, name, **values):
    """The manifest of a (budget-stopped) checkpointed campaign."""
    root = tmp_path / name
    CampaignContext(
        _context_config(
            scale=0.3,
            probe_budget=50,
            checkpoint_dir=str(root),
            **values,
        )
    )
    return _snapshot(root)


class TestTopologyKeys:
    def test_default_spec(self):
        assert topology_key(TopologySpec()) == (
            "d33fc652c0823e57ad7a29c3f663e07d"
            "1fd175d0c22dcdf05bfe3c5e325b5dc1"
        )

    def test_te_spec(self):
        spec = TopologySpec(
            te_tunnels_per_transit=2, te_ttl_propagate=True
        )
        assert topology_key(spec) == (
            "62649462f89d07216688954736bd15f1"
            "64239214bdc326872d199c0a94bfff00"
        )


class TestCampaignSnapshotKeys:
    @pytest.mark.parametrize(
        "name, values, key",
        [
            ("clean", {},
             "40ade1e8be99392610b199db9857de7a"
             "4c6079d770cdbbc04d5069fcd280335b"),
            ("hostile", {"fault_profile": "hostile"},
             "44d683d36ab722750750902cb07ae5b5"
             "a5dda17bc7878f45bffd4933503902d9"),
            ("te", {"te_tunnels_per_transit": 1},
             "4544cf776cb78698f481af432ce5fcf7"
             "fdef6463cdea79df1167d2de086956e9"),
            ("tnt", {"revelation_technique": "tnt"},
             "c64ac2dbcb84887297f60b9a4aaebd8e"
             "63063375a9830e49751445e7c53b8e73"),
        ],
    )
    def test_snapshot_key(self, tmp_path, name, values, key):
        manifest = _campaign_manifest(tmp_path, name, **values)
        assert manifest["key"] == key

    def test_tenant_descriptor_matches_campaign(self, tmp_path):
        manifest = _campaign_manifest(
            tmp_path, "hostile", fault_profile="hostile"
        )
        tenant = TenantSpec(
            tenant="t",
            topology=TopologySpec(scale=0.3),
            fault_profile="hostile",
        )
        assert tenant.checkpoint_topology() == (
            manifest["fingerprint"]["topology"]
        )


class TestChainIdentity:
    @pytest.mark.parametrize(
        "profile, chain, key",
        [
            ("gentle", "0c72d6ee636c",
             "4e90369bb26d0c8973e5d642e9abf4b7"
             "99da50e4d3bccb08ec202548a341baff"),
            ("steady", "0ea558b1a9f1",
             "bd2319eef3045d6ab6903618d3c33392"
             "3be39c39ebadf1c4b218fadd956894d1"),
        ],
    )
    def test_chain_id_and_epoch_one_key(self, tmp_path, profile, chain,
                                        key):
        config = MonitorConfig(
            warehouse=str(tmp_path / profile),
            epochs=2,
            churn_profile=profile,
        )
        assert chain_id(config) == chain
        report = MonitorLoop(config).run()
        assert report.chain == chain
        assert report.epochs[1].key == key

    def test_fleet_chain_ids(self, tmp_path):
        config = FleetConfig(warehouse=str(tmp_path), chains=3)
        assert config.chain_ids() == [
            "0c72d6ee636c", "2769cfb505de", "d0832957c427",
        ]
