"""``repro.store`` — the persistent campaign warehouse.

Campaigns so far were ephemeral: kill the process and every probe is
lost.  This package gives a campaign a durable home:

* :mod:`repro.store.layout` — versioned on-disk layout
  (``repro.store/2``), content-keyed snapshots, crash-tolerant JSONL
  record I/O;
* :mod:`repro.store.warehouse` — :class:`CampaignStore` /
  :class:`Snapshot`, the directory-level containers;
* :mod:`repro.store.checkpoint` — :class:`CampaignCheckpoint`, the
  phase/pair-granular checkpoint-resume protocol driven by
  :meth:`repro.campaign.orchestrator.Campaign.run` (resumed runs are
  bit-identical to uninterrupted ones, measurement counters
  included), :func:`fold_state` (what a record prefix restores: its
  per-record counter deltas summed) and :func:`result_document`;
* :mod:`repro.store.diff` — longitudinal diffing between snapshots
  (``repro diff``): tunnels appeared / disappeared / length-changed
  and per-AS deployment deltas;
* :mod:`repro.store.timeline` — the monitoring product
  (``repro monitor``): folds a chain of epoch snapshots into
  per-pair tunnel lifecycles (born/died/resized/technique-changed)
  with per-AS churn-rate rollups, schema ``repro.monitor/1``;
* :mod:`repro.store.fleet` — the fleet product (``repro fleet``):
  folds *many* chains into one cross-chain aggregate with per-AS
  churn baselines, churn-spike alerts and a fleet data-quality
  grade, schema ``repro.fleet/1``.

Layering: ``repro.store`` sits *above* the campaign layer (it imports
dataset serializers and is handed live campaign objects), while the
orchestrator only ever sees the checkpoint through duck typing — no
import cycle.
"""

from repro.store.checkpoint import (
    CampaignCheckpoint,
    StoreMismatch,
    fold_state,
    result_document,
)
from repro.store.diff import (
    diff_snapshots,
    render_diff,
    resolve_snapshot,
    snapshot_tunnels,
)
from repro.store.fleet import fold_fleet, render_fleet
from repro.store.layout import (
    DIFF_SCHEMA,
    FLEET_SCHEMA,
    IDENTITY_EXCLUDED_FIELDS,
    IDENTITY_OMITTED_WHEN_NONE,
    MONITOR_SCHEMA,
    PHASES,
    RESUME_EXEMPT_COUNTERS,
    STORE_SCHEMA,
    campaign_key,
    config_fingerprint,
    snapshot_dirname,
)
from repro.store.timeline import (
    chain_snapshots,
    fold_timeline,
    render_timeline,
)
from repro.store.warehouse import CampaignStore, Snapshot

__all__ = [
    "STORE_SCHEMA",
    "DIFF_SCHEMA",
    "FLEET_SCHEMA",
    "MONITOR_SCHEMA",
    "PHASES",
    "IDENTITY_EXCLUDED_FIELDS",
    "IDENTITY_OMITTED_WHEN_NONE",
    "RESUME_EXEMPT_COUNTERS",
    "campaign_key",
    "config_fingerprint",
    "snapshot_dirname",
    "CampaignStore",
    "Snapshot",
    "CampaignCheckpoint",
    "StoreMismatch",
    "fold_state",
    "result_document",
    "chain_snapshots",
    "diff_snapshots",
    "fold_fleet",
    "fold_timeline",
    "render_diff",
    "render_fleet",
    "render_timeline",
    "resolve_snapshot",
    "snapshot_tunnels",
]
