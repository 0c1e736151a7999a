#!/usr/bin/env python3
"""Run the simulator perf benches and write ``BENCH_perf.json``.

Executes ``benchmarks/test_simulator_performance.py`` under
pytest-benchmark, collects ops/sec and mean latency per bench, adds
trajectory-cache effectiveness from a warm campaign replay, and writes
the combined snapshot to ``BENCH_perf.json`` at the repository root —
the checked-in perf trajectory for this repo.

Usage::

    PYTHONPATH=src python tools/bench_perf.py [output.json]
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_benches() -> dict:
    """Run the pytest benches; return name -> {ops_per_sec, mean_us}."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", delete=False
    ) as handle:
        json_path = Path(handle.name)
    try:
        subprocess.run(
            [
                sys.executable, "-m", "pytest",
                "benchmarks/test_simulator_performance.py",
                "--benchmark-only", "-q",
                f"--benchmark-json={json_path}",
            ],
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
        )
        payload = json.loads(json_path.read_text())
    finally:
        json_path.unlink(missing_ok=True)
    benches = {}
    for bench in payload["benchmarks"]:
        stats = bench["stats"]
        benches[bench["name"]] = {
            "ops_per_sec": round(stats["ops"], 2),
            "mean_us": round(stats["mean"] * 1e6, 3),
        }
    return benches


def cache_stats() -> dict:
    """Trajectory-cache counters from a warm campaign replay.

    Runs with two prewarm workers so the snapshot reflects the
    parallel configuration, and merges the worker-side counters
    (re-exported under ``prewarm.engine.*`` in the parent registry)
    into the totals — the engine's own counters only see the parent
    process, so without the merge a multi-worker run reports an
    inflated hit rate (the workers' cold misses happen off-process
    while their probe trajectories replay in the parent as pure hits).
    Replies never enter the trajectory cache: the parent walks each
    one concretely during its replay, and ``hops_walked`` counts them.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.campaign.orchestrator import Campaign, CampaignConfig
    from repro.synth.internet import InternetConfig, build_internet

    internet = build_internet(InternetConfig(seed=77))
    campaign = Campaign(
        internet.prober,
        internet.vps,
        internet.asn_of_address,
        CampaignConfig(workers=2),
    )
    campaign.run(internet.campaign_targets())
    stats = internet.engine.cache_stats()
    metrics = internet.prober.obs.metrics
    prewarm_hits = metrics.get("prewarm.engine.trajectory_hits")
    prewarm_misses = metrics.get("prewarm.engine.trajectory_misses")
    hits = stats["trajectory_hits"] + prewarm_hits
    misses = stats["trajectory_misses"] + prewarm_misses
    total = hits + misses
    stats.update(
        trajectory_hits=hits,
        trajectory_misses=misses,
        hit_rate=round(hits / total, 4) if total else 0.0,
        prewarm_worker_hits=prewarm_hits,
        prewarm_worker_misses=prewarm_misses,
    )
    return stats


def resume_stats() -> dict:
    """Resumed-vs-cold campaign timing (checkpoint warehouse).

    Runs the seeded campaign cold, then interrupts a checkpointed
    twin halfway through its probe budget and resumes it; the resumed
    leg replays the persisted prefix instead of re-probing, so its
    wall-clock (and simulated packet count) quantifies what a
    checkpoint is worth operationally.
    """
    import shutil
    import tempfile
    import time

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.campaign.orchestrator import Campaign, CampaignConfig
    from repro.store import CampaignCheckpoint
    from repro.synth.internet import InternetConfig, build_internet

    def build(budget=None):
        internet = build_internet(InternetConfig(seed=77))
        return internet, Campaign(
            internet.prober,
            internet.vps,
            internet.asn_of_address,
            CampaignConfig(
                suspicious_asns=tuple(internet.transit_asns),
                probe_budget=budget,
            ),
        )

    topology = {"kind": "synthetic-internet", "seed": 77}
    internet, campaign = build()
    start = time.perf_counter()
    cold = campaign.run(internet.campaign_targets())
    cold_seconds = time.perf_counter() - start
    total_probes = cold.probes_sent + cold.revelation_probes

    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        internet, campaign = build(budget=total_probes // 2)
        campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(root, topology),
        )
        internet, campaign = build()
        start = time.perf_counter()
        resumed = campaign.run(
            internet.campaign_targets(),
            checkpoint=CampaignCheckpoint(root, topology, resume=True),
        )
        resumed_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cold_seconds": round(cold_seconds, 4),
        "resumed_seconds": round(resumed_seconds, 4),
        "resumed_speedup": round(
            cold_seconds / resumed_seconds, 2
        ) if resumed_seconds else None,
        "total_probes": total_probes,
        "resumed_packets_simulated": resumed.perf.packets_simulated,
        "cold_packets_simulated": cold.perf.packets_simulated,
        "bit_identical": resumed.traces == cold.traces
        and resumed.revelations == cold.revelations,
    }


def monitor_stats() -> dict:
    """Incremental monitoring epochs vs full re-campaigns.

    Runs the same 3-epoch churned monitor chain twice — once with the
    staleness engine carrying unchanged pairs forward, once re-running
    full revelation every epoch — and reports the probe/wall-clock
    saving.  ``tunnels_identical`` asserts the incremental-safety
    contract: every epoch's merged tunnel inventory must be
    byte-identical to the full re-campaign's (also pinned by test).
    """
    import shutil
    import tempfile
    import time

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.monitor import MonitorConfig, MonitorLoop
    from repro.store import chain_snapshots, snapshot_tunnels

    def run(incremental):
        root = tempfile.mkdtemp(prefix="bench-monitor-")
        try:
            start = time.perf_counter()
            loop = MonitorLoop(
                MonitorConfig(
                    warehouse=root,
                    epochs=3,
                    churn_profile="steady",
                    incremental=incremental,
                )
            )
            report = loop.run()
            seconds = time.perf_counter() - start
            chain = chain_snapshots(root, chain=report.chain)
            inventories = [
                json.dumps(snapshot_tunnels(snapshot), sort_keys=True)
                for snapshot in chain[report.chain]
            ]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return report, inventories, seconds

    incremental, inc_inventories, inc_seconds = run(True)
    full, full_inventories, full_seconds = run(False)
    inc_campaign = sum(
        outcome.campaign_probes for outcome in incremental.epochs
    )
    inc_evidence = sum(
        outcome.evidence_probes for outcome in incremental.epochs
    )
    full_campaign = sum(
        outcome.campaign_probes for outcome in full.epochs
    )
    inc_total = inc_campaign + inc_evidence
    return {
        "epochs": len(incremental.epochs),
        "pairs_carried": sum(
            outcome.pairs_carried for outcome in incremental.epochs
        ),
        "incremental_campaign_probes": inc_campaign,
        "incremental_evidence_probes": inc_evidence,
        "incremental_probes": inc_total,
        "full_probes": full_campaign,
        "probe_ratio": round(inc_total / full_campaign, 4)
        if full_campaign else None,
        "incremental_seconds": round(inc_seconds, 4),
        "full_seconds": round(full_seconds, 4),
        "tunnels_identical": inc_inventories == full_inventories,
    }


def serve_stats() -> dict:
    """Multi-tenant serve throughput over shared snapshots.

    Runs eight tenant campaigns over two rendered topologies through
    the campaign server and reports fleet throughput plus the
    snapshot-sharing ledger; ``bit_identical`` asserts the serve
    determinism contract (a served single-tenant run equals the
    standalone orchestrator, measurement counters included).
    """
    import time

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import measurement_counters
    from repro.serve import (
        ServeClient,
        SnapshotRegistry,
        TenantSpec,
        TopologySpec,
        run_standalone,
    )

    specs = [
        TenantSpec(
            tenant=f"bench-{index}",
            topology=TopologySpec(
                scale=0.3,
                seed=11 + index % 2,
                vantage_points=3,
                stubs_per_transit=2,
            ),
            max_targets=4,
        )
        for index in range(8)
    ]
    registry = SnapshotRegistry()
    client = ServeClient(registry=registry, max_active=4)
    try:
        start = time.perf_counter()
        handles = [client.submit(spec) for spec in specs]
        results = [handle.wait(timeout=600) for handle in handles]
        seconds = time.perf_counter() - start
        probe = handles[0]
        served = (
            results[0].traces,
            results[0].revelations,
            measurement_counters(
                probe.session.metrics.counters_snapshot()
            ),
        )
    finally:
        client.close()
    expected, metrics = run_standalone(specs[0])
    standalone = (
        expected.traces,
        expected.revelations,
        measurement_counters(metrics.counters_snapshot()),
    )
    reuse = registry.stats()
    probes = sum(result.probes_sent for result in results)
    return {
        "tenants": len(specs),
        "snapshots": reuse["renders"],
        "builds_avoided": reuse["builds_avoided"],
        "fleet_seconds": round(seconds, 4),
        "campaigns_per_sec": round(len(specs) / seconds, 2),
        "probes_per_sec": round(probes / seconds, 1),
        "bit_identical": served == standalone,
    }


def fleet_stats() -> dict:
    """Fleet throughput plus crash-recovery overhead.

    Runs a 2-chain monitoring fleet clean, then again with every
    chain hard-killed mid-epoch and restarted from checkpoints, and
    reports both legs: ``fleet_throughput`` quantifies concurrent
    chains over one shared render, ``fleet_recovery`` the cost of a
    full crash storm.  ``doc_identical`` asserts the fleet recovery
    contract (the crashed fleet's ``repro.fleet/1`` aggregate is
    byte-identical to the unfailed one's — also pinned by test).
    """
    import shutil
    import tempfile
    import time

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.fleet import FleetConfig, FleetSupervisor

    def run(kill_plan=None):
        root = tempfile.mkdtemp(prefix="bench-fleet-")
        supervisor = FleetSupervisor(
            FleetConfig(
                warehouse=root,
                chains=2,
                epochs=2,
                vantage_points=3,
                stubs_per_transit=2,
                churn_profile="steady",
                backoff_base_ms=0.5,
            ),
            kill_plan=kill_plan,
        )
        start = time.perf_counter()
        report = supervisor.run()
        seconds = time.perf_counter() - start
        document = (Path(root) / "fleet.json").read_bytes()
        shutil.rmtree(root, ignore_errors=True)
        return report, supervisor, seconds, document

    clean, clean_sup, clean_seconds, clean_doc = run()
    kill_plan = {0: 90, 1: 250}
    crashed, crash_sup, crashed_seconds, crashed_doc = run(kill_plan)
    epochs = sum(c.epochs_completed for c in clean.chains)
    reuse = clean_sup.registry.stats()
    throughput = {
        "chains": len(clean.chains),
        "epochs": epochs,
        "fleet_seconds": round(clean_seconds, 4),
        "epochs_per_sec": round(epochs / clean_seconds, 2)
        if clean_seconds else None,
        "renders": reuse["renders"],
        "checkouts": reuse["checkouts"],
        "builds_avoided": reuse["builds_avoided"],
        "grade": clean.document["summary"]["grade"],
    }
    recovery = {
        "kills": sum(c.injected_kills for c in crashed.chains),
        "restarts": sum(c.restarts for c in crashed.chains),
        "clean_seconds": round(clean_seconds, 4),
        "crashed_seconds": round(crashed_seconds, 4),
        "recovery_overhead": round(
            crashed_seconds / clean_seconds, 2
        ) if clean_seconds else None,
        "checkouts": crash_sup.registry.stats()["checkouts"],
        "doc_identical": crashed_doc == clean_doc,
    }
    return {"throughput": throughput, "recovery": recovery}


def main() -> int:
    """Run everything and write the JSON snapshot."""
    output = Path(
        sys.argv[1] if len(sys.argv) > 1 else REPO_ROOT / "BENCH_perf.json"
    )
    snapshot = {
        "benches": run_benches(),
        "campaign_cache": cache_stats(),
        "campaign_resume": resume_stats(),
        "serve_throughput": serve_stats(),
        "monitor_incremental_speedup": monitor_stats(),
    }
    fleet = fleet_stats()
    snapshot["fleet_throughput"] = fleet["throughput"]
    snapshot["fleet_recovery"] = fleet["recovery"]
    benches = snapshot["benches"]
    cached = benches.get("test_perf_full_traceroute")
    uncached = benches.get("test_perf_full_traceroute_uncached")
    if cached and uncached and cached["mean_us"]:
        snapshot["traceroute_speedup"] = round(
            uncached["mean_us"] / cached["mean_us"], 2
        )
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
