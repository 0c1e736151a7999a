#!/usr/bin/env python
"""Soak harness: interrupt a campaign, recover it, assert it is the same.

One harness, three entry points.  Each subcommand drives its front
end hard and checks the result against an undisturbed twin with one
identity check: ``CampaignResult ==`` plus the measurement counters
in full for campaigns, ``fleet.json`` bytes for fleets.

``campaign``
    Every fault profile (three with ``--quick``) on a fixed topology,
    per DESIGN §11: no crash, a populated ``data_quality``; a
    mid-campaign probe budget stops cleanly without overshoot; the
    budget-killed run, resumed on a fresh stack, equals the
    uninterrupted one; and in full mode pairs and revelations never
    increase along ``LOSS_LADDER``.
``serve``
    N tenants over M topology seeds share one server: renders between
    the keys that ran and the distinct keys, one attach per started
    session, every session completes (or, after
    ``--sigterm-after-completed K``, completed + cancelled ==
    tenants), and one completed session per topology equals the
    standalone orchestrator.
``fleet``
    A crash storm kills every chain at a staggered probe count; the
    recovered ``fleet.json`` equals an unfailed fleet's byte for byte,
    with one render.  ``--epoch-deadline`` arms the watchdog, which
    must fire.  ``--park``: one chain parks under a zero restart
    budget, the grade drops below ``high``, and resuming the
    warehouse completes it byte-identically.

Each run writes ``<subcommand>-soak.json`` into ``--out``, a report
ending in ``failures`` and ``ok``, and keeps its warehouses in a fresh
``<subcommand>-warehouses-*`` directory there, so re-running into one
``--out`` never meets an earlier run's snapshots.  ``campaign`` adds
``campaign-quarantine.jsonl`` and ``serve`` adds ``serve-events.jsonl``,
ending in a ``serve.metrics`` record.  Exit status 1 means an
invariant failed.

Usage::

    PYTHONPATH=src python tools/soak.py campaign [--quick] [--out DIR]
    PYTHONPATH=src python tools/soak.py serve --tenants 8 --snapshots 2 \
        [--sigterm-after-completed K]
    PYTHONPATH=src python tools/soak.py fleet --chains 3 --epochs 2 \
        [--epoch-deadline 150] [--park]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import tempfile
import traceback
from contextlib import closing

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.cli import add_spec_flags, positive, positive_floats, spec_from_args  # noqa: E402
from repro.experiments.common import CampaignContext, ContextConfig  # noqa: E402
from repro.faults import LOSS_LADDER, profile_names  # noqa: E402
from repro.fleet import FleetConfig, FleetSupervisor  # noqa: E402
from repro.obs import JsonlSink, measurement_counters  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeClient,
    TenantSpec,
    TopologySpec,
    run_standalone,
    topology_key,
)

#: Profiles exercised by ``campaign --quick``: the inert baseline, one
#: stateless-fault profile, one network-mutating profile.
QUICK_PROFILES = ("none", "loss-light", "flap")

#: The ``campaign`` soak's small-but-complete topology: every phase
#: runs and revelations happen under every profile.
CAMPAIGN_TOPOLOGY = TopologySpec(
    scale=0.4, seed=11, vantage_points=3, stubs_per_transit=2
)
POLICY = dict(max_retries=1, breaker_threshold=3)

GRADES = ("high", "degraded", "poor")


def check(failures, condition, message):
    """Record ``message`` as a failure unless ``condition`` holds."""
    if not condition:
        failures.append(message)


def crashed(failures, what):
    """Record the exception being handled as a ``what`` crash."""
    failures.append(f"{what} crashed:\n{traceback.format_exc()}")


def differing_fields(left, right):
    """Names of the compared ``CampaignResult`` fields that differ."""
    return [
        spec.name
        for spec in dataclasses.fields(left)
        if spec.compare
        and getattr(left, spec.name) != getattr(right, spec.name)
    ]


def check_same_campaign(failures, what, got, expected):
    """The identity check: ``got`` and ``expected`` are
    ``(result, counters)`` pairs; both parts must be equal, the
    counters compared over ``measurement_counters`` in full."""
    result, counters = got
    expected_result, expected_counters = expected
    if result != expected_result:
        failures.append(
            f"{what}: result differs in "
            f"{', '.join(differing_fields(result, expected_result))}"
        )
    check(
        failures,
        measurement_counters(counters)
        == measurement_counters(expected_counters),
        f"{what}: measurement counters differ",
    )


# ----------------------------------------------------------------------
# campaign: every fault profile through crash / budget / resume


def _campaign(profile, **execution):
    """A fresh campaign stack on the soak topology, through ``profile``."""
    return CampaignContext(
        ContextConfig(
            fault_profile=profile,
            topology=CAMPAIGN_TOPOLOGY,
            **POLICY,
            **execution,
        )
    )


def soak_profile(profile, warehouse, failures):
    """Run one profile through the no-crash / budget / resume gauntlet.

    Returns the uninterrupted run's context, or None when it crashed.
    """
    try:
        baseline = _campaign(profile)
    except Exception:  # noqa: BLE001 - the soak's whole point
        crashed(failures, "uninterrupted run")
        return None
    result = baseline.result
    quality = result.data_quality
    check(failures, not result.partial, "uninterrupted run is partial")
    check(
        failures,
        quality.get("grade") in GRADES,
        f"data_quality grade missing or unknown: {quality.get('grade')!r}",
    )
    check(
        failures,
        quality.get("techniques") and quality.get("counters"),
        "data_quality techniques/counters not populated",
    )

    total = result.probes_sent + result.revelation_probes
    budget = total // 2
    try:
        partial = _campaign(
            profile, probe_budget=budget, checkpoint_dir=warehouse
        ).result
    except Exception:  # noqa: BLE001
        crashed(failures, "budgeted run")
        return baseline
    check(
        failures,
        partial.partial,
        f"budget {budget} of {total} probes did not interrupt the run",
    )
    spent = partial.probes_sent + partial.revelation_probes
    check(failures, spent <= budget, f"budget overshoot: spent {spent} of {budget}")

    try:
        resumed = _campaign(profile, checkpoint_dir=warehouse, resume=True)
    except Exception:  # noqa: BLE001
        crashed(failures, "resume")
        return baseline
    check_same_campaign(
        failures,
        "resumed vs uninterrupted",
        (resumed.result, resumed.campaign.obs.metrics.counters_snapshot()),
        (result, baseline.campaign.obs.metrics.counters_snapshot()),
    )
    return baseline


def volumes(result):
    """The report's digest of one campaign outcome."""
    return {
        "traces": len(result.traces),
        "pings": len(result.pings),
        "pairs": len(result.pairs),
        "revelations": len(result.revelations),
        "revealed": len(result.successful_revelations()),
        "probes_sent": result.probes_sent,
        "revelation_probes": result.revelation_probes,
        "quarantined": len(result.quarantine),
    }


def check_ladder(entries, failures):
    """Recall must degrade monotonically along the loss ladder."""
    by_profile = {entry["profile"]: entry for entry in entries}
    rungs = [
        by_profile[name]["volumes"]
        for name in LOSS_LADDER
        if "volumes" in by_profile.get(name, {})
    ]
    if len(rungs) < len(LOSS_LADDER):
        failures.append("ladder rungs missing volumes (earlier crash?)")
        return
    for metric in ("pairs", "revealed"):
        values = [rung[metric] for rung in rungs]
        check(
            failures,
            all(b <= a for a, b in zip(values, values[1:])),
            f"{metric} not monotonically non-increasing along "
            f"{' -> '.join(LOSS_LADDER)}: {values}",
        )


def soak_campaign(args, failures):
    """The ``campaign`` subcommand; returns its report body."""
    warehouses = fresh_warehouses(args)
    profiles = list(QUICK_PROFILES) if args.quick else profile_names()
    entries = []
    quarantine_path = os.path.join(args.out, "campaign-quarantine.jsonl")
    with open(quarantine_path, "w", encoding="utf-8") as sink:
        for profile in profiles:
            local = []
            baseline = soak_profile(
                profile, os.path.join(warehouses, profile), local
            )
            failures.extend(f"{profile}: {failure}" for failure in local)
            entries.append({"profile": profile})
            if baseline is None:
                continue
            result = baseline.result
            entries[-1].update(
                volumes=volumes(result), data_quality=result.data_quality
            )
            for record in result.quarantine:
                tagged = {"profile": profile, **record}
                sink.write(json.dumps(tagged, sort_keys=True) + "\n")
            print(
                f"{profile}: grade {result.data_quality.get('grade')}, "
                f"{len(result.pairs)} pairs, "
                f"{len(result.successful_revelations())} revealed, "
                f"{len(result.quarantine)} quarantined"
            )
    if not args.quick:
        check_ladder(entries, failures)
    return {
        "quick": args.quick,
        "warehouses": warehouses,
        "config": {**dataclasses.asdict(CAMPAIGN_TOPOLOGY), **POLICY},
        "profiles": entries,
    }


# ----------------------------------------------------------------------
# serve: many tenants, few snapshots, served == standalone


def tenant_specs(args):
    """The soak's tenant fleet, spread round-robin over snapshots."""
    cycle = args.weights or [1.0]
    topology = spec_from_args(TopologySpec, args)
    return [
        spec_from_args(
            TenantSpec,
            args,
            tenant=f"soak-{index:02d}",
            topology=dataclasses.replace(topology, seed=args.seed + index % args.snapshots),
            weight=cycle[index % len(cycle)],
        )
        for index in range(args.tenants)
    ]


def verify_standalone(handles, failures):
    """One completed session per distinct topology must equal the
    standalone orchestrator; returns how many were verified."""
    seen = set()
    for handle in handles:
        session = handle.session
        key = topology_key(handle.spec.topology)
        if session.status != "done" or key in seen:
            continue
        seen.add(key)
        expected, metrics = run_standalone(handle.spec)
        check_same_campaign(
            failures,
            f"{handle.spec.tenant}: served vs standalone",
            (session.result, session.metrics.counters_snapshot()),
            (expected, metrics.counters_snapshot()),
        )
    check(failures, seen, "no completed session to verify against standalone")
    return len(seen)


def soak_serve(args, failures):
    """The ``serve`` subcommand; returns its report body."""
    with closing(JsonlSink(os.path.join(args.out, "serve-events.jsonl"))) as sink:
        client = ServeClient(max_active=args.max_active, stream_sink=sink)
        try:
            report = serve_tenants(args, client, failures)
        finally:
            client.close()
        sink.write({"kind": "serve.metrics", "summary": {**report, "failures": failures}})
    registry = report["registry"]
    print(
        f"serve: {report['completed']} completed, {report['cancelled']} "
        f"cancelled, {registry['renders']} renders, "
        f"{registry['builds_avoided']} builds avoided, "
        f"{report['verified_standalone']} verified vs standalone"
    )
    return report


def serve_tenants(args, client, failures):
    """Submit the tenants to ``client``, wait, and check the ledger."""
    drained = []
    if args.sigterm_after_completed is not None:
        def on_sigterm(_signum, _frame):
            drained.append(True)
            client.request_drain(cancel_queued=True)

        signal.signal(signal.SIGTERM, on_sigterm)

    handles = [client.submit(spec) for spec in tenant_specs(args)]
    completed, cancelled = 0, 0
    for handle in handles:
        try:
            handle.wait(timeout=600)
            completed += 1
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            if handle.status == "cancelled":
                cancelled += 1
            else:
                failures.append(f"{handle.spec.tenant}: {handle.status}: {exc!r}")
        if completed == args.sigterm_after_completed and not drained:
            # Delivered synchronously: CPython runs the handler in the
            # main thread before the next wait.
            os.kill(os.getpid(), signal.SIGTERM)

    stats = client.stats()
    registry = stats["registry"]
    keys = {topology_key(handle.spec.topology) for handle in handles}
    started = [handle for handle in handles if handle.status != "cancelled"]
    started_keys = {topology_key(handle.spec.topology) for handle in started}
    check(
        failures,
        registry["renders"] <= len(keys),
        f"registry rendered {registry['renders']} topologies for "
        f"{len(keys)} distinct keys (sharing is broken)",
    )
    check(
        failures,
        registry["renders"] >= len(started_keys),
        f"registry rendered {registry['renders']} topologies but "
        f"{len(started_keys)} keys actually ran",
    )
    check(
        failures,
        registry["attaches"] == len(started),
        f"registry saw {registry['attaches']} attaches for "
        f"{len(started)} started sessions",
    )
    if drained:
        check(failures, stats["draining"], "SIGTERM did not put the server in drain")
        check(
            failures,
            completed + cancelled == len(handles),
            f"drain lost sessions: {completed} completed + "
            f"{cancelled} cancelled != {len(handles)}",
        )
    else:
        check(
            failures,
            completed == len(handles),
            f"only {completed}/{len(handles)} sessions completed",
        )
    return {
        "tenants": len(handles),
        "completed": completed,
        "cancelled": cancelled,
        "drain_requested": bool(drained),
        "verified_standalone": verify_standalone(handles, failures),
        "registry": registry,
        "scheduler": stats["scheduler"],
    }


# ----------------------------------------------------------------------
# fleet: crash storm and park drill, fleet.json bytes identical


def _fleet(args, warehouse, kill_plan=None, **overrides):
    """Run one soak fleet over ``warehouse``; returns its report,
    supervisor and ``fleet.json`` bytes."""
    # The watchdog arms only where a caller passes ``epoch_deadline``.
    config = {"warehouse": warehouse, "backoff_base_ms": 0.5, "epoch_deadline": None}
    config.update(overrides)
    supervisor = FleetSupervisor(
        spec_from_args(FleetConfig, args, **config), kill_plan=kill_plan
    )
    report = supervisor.run()
    with open(os.path.join(warehouse, "fleet.json"), "rb") as handle:
        return report, supervisor, handle.read()


def soak_fleet(args, failures):
    """The ``fleet`` subcommand; returns its report body."""
    warehouses = fresh_warehouses(args)
    clean, _, oracle = _fleet(args, os.path.join(warehouses, "clean"))
    check(failures, clean.completed, "clean fleet did not complete every chain")

    kill_plan = {index: (index + 1) * args.kill_stride for index in range(args.chains)}
    storm_report, supervisor, storm_bytes = _fleet(
        args,
        os.path.join(warehouses, "storm"),
        kill_plan=kill_plan,
        epoch_deadline=args.epoch_deadline,
    )
    chains = storm_report.chains
    storm = {
        "chains": args.chains,
        "kill_plan": {str(k): v for k, v in kill_plan.items()},
        "injected_kills": sum(c.injected_kills for c in chains),
        "watchdog_kills": sum(c.watchdog_kills for c in chains),
        "restarts": sum(c.restarts for c in chains),
        "statuses": [c.status for c in chains],
        "renders": supervisor.registry.renders,
        "checkouts": supervisor.registry.checkouts,
        "bit_identical": storm_bytes == oracle,
    }
    check(
        failures,
        storm_report.completed,
        f"crash storm left chains unfinished: {storm['statuses']}",
    )
    check(
        failures,
        storm["injected_kills"] == args.chains,
        f"expected {args.chains} injected kills, saw {storm['injected_kills']}",
    )
    check(failures, storm["bit_identical"], "storm fleet.json diverges from the unfailed fleet")
    check(
        failures,
        storm["renders"] == 1,
        f"storm rendered {storm['renders']} internets; the "
        "shared-render contract is exactly 1",
    )
    if args.epoch_deadline:
        check(
            failures,
            storm["watchdog_kills"],
            "watchdog armed but never fired; lower --epoch-deadline",
        )
    report = {
        "warehouses": warehouses,
        "clean_epochs": sum(c.epochs_completed for c in clean.chains),
        "alerts": len(clean.document.get("alerts") or []),
        "grade": clean.document["summary"]["grade"],
        "storm": storm,
    }

    if args.park:
        park_dir = os.path.join(warehouses, "park")
        parked_report, _, _ = _fleet(
            args,
            park_dir,
            kill_plan={args.chains - 1: args.kill_stride},
            restart_budget=0,
        )
        parked = [c for c in parked_report.chains if c.status == "parked"]
        grade = parked_report.document["summary"]["grade"]
        resumed, _, resumed_bytes = _fleet(args, park_dir)
        report["park"] = {
            "parked_chains": len(parked),
            "degraded_grade": grade,
            "resume_statuses": [c.status for c in resumed.chains],
            "resume_bit_identical": resumed_bytes == oracle,
        }
        check(
            failures,
            len(parked) == 1,
            f"expected exactly 1 parked chain, saw {len(parked)}",
        )
        check(failures, grade != "high", "parked chain did not downgrade the fleet grade")
        check(failures, resumed.completed, "parked warehouse did not resume cleanly")
        check(
            failures,
            report["park"]["resume_bit_identical"],
            "resumed park warehouse diverges from the unfailed fleet",
        )
    print(
        f"fleet: storm {storm['injected_kills']} kills, "
        f"{storm['restarts']} restarts, {storm['renders']} render(s), "
        f"bit-identical {storm['bit_identical']}"
    )
    return report


# ----------------------------------------------------------------------
# the harness: one report, one exit status


SOAKS = {"campaign": soak_campaign, "serve": soak_serve, "fleet": soak_fleet}


def fresh_warehouses(args):
    """A new directory under ``--out`` for this run's warehouses."""
    return tempfile.mkdtemp(prefix=f"{args.command}-warehouses-", dir=args.out)


def parse_args(argv=None):
    """The harness command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", default="soak-out", metavar="DIR",
        help="report, artifacts and per-run warehouse directory",
    )
    topology = add_spec_flags(
        argparse.ArgumentParser(add_help=False, parents=[common]),
        scale=0.3,
        seed=2017,
        vantage_points=3,
        stubs_per_transit=2,
        fault_profile=None,
    )

    campaign = commands.add_parser(
        "campaign", parents=[common], help="every fault profile: crash, budget, resume"
    )
    campaign.add_argument(
        "--quick", action="store_true",
        help=f"only {', '.join(QUICK_PROFILES)} and skip the ladder check",
    )

    serve = commands.add_parser(
        "serve", parents=[topology], help="many tenants over shared snapshots"
    )
    serve.add_argument("--tenants", type=positive, default=8)
    serve.add_argument(
        "--snapshots", type=positive, default=2,
        help="distinct topology seeds (each rendered once, shared)",
    )
    add_spec_flags(serve, max_targets=6)
    serve.add_argument("--max-active", type=positive, default=4)
    serve.add_argument(
        "--weights", type=positive_floats, default=None,
        help="comma-separated scheduler weights cycled over tenants",
    )
    add_spec_flags(serve, probe_budget=None)
    serve.add_argument(
        "--sigterm-after-completed", type=int, default=None, metavar="K",
        help="SIGTERM once K sessions have completed and assert the "
        "drain contract (queued cancelled, active finish, exit 0)",
    )

    fleet = commands.add_parser(
        "fleet", parents=[topology], help="crash storm and park drill"
    )
    add_spec_flags(fleet, chains=3, epochs=2, churn_profile="steady")
    fleet.add_argument(
        "--kill-stride", type=int, default=70, metavar="PROBES",
        help="chain i of the storm is hard-killed after "
        "(i + 1) * PROBES cumulative probes",
    )
    # The watchdog arms in the storm only; the storm's restart budget
    # must cover several watchdog kills per epoch.
    add_spec_flags(fleet, epoch_deadline=None, restart_budget=60)
    fleet.add_argument(
        "--park", action="store_true",
        help="also park a chain under a zero restart budget, then "
        "resume its warehouse to a byte-identical complete run",
    )
    return parser.parse_args(argv)


def main(argv=None):
    """Run one soak; returns the process exit code."""
    args = parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    failures = []
    report = {"soak": args.command}
    report.update(SOAKS[args.command](args, failures))
    report["failures"] = failures
    report["ok"] = not failures
    path = os.path.join(args.out, f"{args.command}-soak.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
        handle.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{args.command} soak {'OK' if report['ok'] else 'FAILED'}: report in {path}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
