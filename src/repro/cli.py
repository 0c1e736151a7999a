"""Command-line interface.

``repro`` exposes the library's main flows without writing Python:

* ``repro emulate <scenario>`` — Fig. 4-style transcripts from the
  emulated testbed;
* ``repro campaign`` — the full synthetic-Internet campaign with the
  per-AS summary tables (optionally saving the dataset as JSON), and,
  with ``--fault-profile``, measured through an injected fault profile
  (loss, latency, rate limiting, blackouts, flaps, malformed replies)
  with quarantine counts and the data-quality grade; ``repro chaos``
  is the same command with chaos defaults;
* ``repro experiment <id>`` — regenerate one of the paper's tables or
  figures (``fig01`` … ``fig11``, ``table1`` … ``table6``);
* ``repro diff SNAP_A SNAP_B`` — longitudinal comparison of two
  campaign snapshots (tunnels appeared/disappeared/length-changed,
  per-AS deltas);
* ``repro serve`` — many tenant campaigns multiplexed over shared
  rendered snapshots by the threaded campaign server (fair scheduling,
  per-tenant budgets and chaos, combined JSONL event stream);
* ``repro fleet`` — a supervised fleet of monitor chains over one
  shared render (copy-on-churn twins, watchdogs, crash-identical
  restarts, churn-spike alerting, SIGTERM drain);
* ``repro inspect {trace,store,timeline} PATH`` — operator digests of
  a run's artefacts (event trace, warehouse, monitor timeline);
* ``repro list`` — available experiment identifiers.

``repro campaign --checkpoint DIR`` persists every completed probe
unit into a warehouse snapshot under ``DIR``; after an interruption
(budget stop, crash, Ctrl-C), ``repro campaign --resume DIR`` picks
the run back up and produces a result bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import shlex
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    fig01_degree,
    fig04_gns3,
    fig05_ftl,
    fig06_rtt,
    fig07_rfa,
    fig08_te_er,
    fig09_rtla,
    fig10_degree,
    fig11_pathlen,
    graph_summary,
    table1_signatures,
    table2_visibility,
    table3_crossval,
    table4_per_as,
    table5_deployment,
    table6_applicability,
    tnt_crossval,
)
from repro.campaign.stack import RunSpec
from repro.experiments.common import ContextConfig, campaign_context
from repro.serve.registry import TopologySpec
from repro.synth.gns3 import SCENARIOS, build_gns3

__all__ = [
    "EXPERIMENTS", "SPEC_FLAGS", "add_spec_flags", "main",
    "non_negative", "non_negative_float", "positive", "positive_float",
    "positive_floats", "spec_from_args",
]

#: Experiment id -> module with a ``run()`` returning ``.text``.
EXPERIMENTS: Dict[str, object] = {
    "fig01": fig01_degree,
    "fig04": fig04_gns3,
    "fig05": fig05_ftl,
    "fig06": fig06_rtt,
    "fig07": fig07_rfa,
    "fig08": fig08_te_er,
    "fig09": fig09_rtla,
    "fig10": fig10_degree,
    "fig11": fig11_pathlen,
    "table1": table1_signatures,
    "table2": table2_visibility,
    "table3": table3_crossval,
    "table4": table4_per_as,
    "table5": table5_deployment,
    "table6": table6_applicability,
    "tnt": tnt_crossval,
    "graphs": graph_summary,
}


def positive(text):
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative(text):
    """argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_float(text):
    """argparse type: a finite number above 0."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be finite and above 0, got {text}"
        )
    return value


def positive_floats(text):
    """argparse type: comma-separated finite numbers above 0."""
    return [positive_float(value) for value in text.split(",")]


def non_negative_float(text):
    """argparse type: a finite number of at least 0."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


#: Spec field -> ``(flag, type, metavar, help)``.  Every option that
#: sets a field of a run spec (:class:`TopologySpec`, ``RunSpec`` and
#: its ``TenantSpec``/``ChainSpec``/``FleetConfig`` views) is declared
#: here once; commands and ``tools/soak.py`` pick theirs with
#: :func:`add_spec_flags`, and :func:`spec_from_args` reads them back.
SPEC_FLAGS: Dict[str, Tuple[str, object, Optional[str], str]] = {
    # The measured network (TopologySpec).
    "scale": ("--scale", positive_float, None, "AS size multiplier"),
    "seed": ("--seed", int, None, "topology seed"),
    "vantage_points": (
        "--vantage-points", positive, None, "vantage point count"
    ),
    "stubs_per_transit": (
        "--stubs-per-transit", positive, None, "stub ASes per transit AS"
    ),
    # The rest of the run's identity (RunSpec).
    "fault_profile": (
        "--fault-profile", None, "NAME",
        "inject this chaos profile between the measurement service and "
        "the simulator (see 'repro campaign --list'); serve, monitor "
        "and fleet refuse network-mutating profiles",
    ),
    "max_retries": (
        "--max-retries", non_negative, "N",
        "re-probe unresponsive (*) hops up to N times",
    ),
    "breaker_threshold": (
        "--breaker-threshold", non_negative, "N",
        "consecutive ping losses before a target is parked until the "
        "end of the phase (0 disables the breaker)",
    ),
    # Execution (RunSpec, TenantSpec).
    "probe_budget": (
        "--probe-budget", positive, "N",
        "stop cleanly (partial result) after N probes, per tenant for "
        "serve and per chain epoch for monitor and fleet",
    ),
    "max_targets": (
        "--max-targets", positive, "N",
        "truncate each tenant's target list to N targets",
    ),
    # Monitor chains (ChainSpec).
    "epochs": (
        "--epochs", positive, "N",
        "monitoring epochs to run (epoch 0 is the baseline campaign)",
    ),
    "churn_profile": (
        "--churn-profile", None, "NAME",
        "shipped churn profile applied between epochs (see 'repro "
        "monitor --list')",
    ),
    "churn_seed": (
        "--churn-seed", int, "N",
        "churn RNG seed (defaults to --seed); fleet chain i uses base+i",
    ),
    # Fleet supervision (FleetConfig).
    "chains": (
        "--chains", positive, "N",
        "concurrent monitor chains, each over a private copy-on-churn "
        "twin",
    ),
    "restart_budget": (
        "--restart-budget", non_negative, "N",
        "deaths tolerated per chain before it is parked (parking "
        "downgrades the fleet grade, never fails the run)",
    ),
    "epoch_deadline": (
        "--epoch-deadline", positive, "N",
        "watchdog: kill and restart any epoch that submits more than "
        "N probes (simulated clock — probe ticks)",
    ),
    "backoff_base_ms": (
        "--backoff-base-ms", non_negative_float, "MS",
        "base for the exponential restart backoff",
    ),
    "alert_factor": (
        "--alert-factor", positive_float, "X",
        "churn-spike alert when a transition's lifecycle-event count "
        "exceeds X times the chain's trailing baseline",
    ),
    "alert_min_events": (
        "--alert-min-events", non_negative, "N",
        "minimum lifecycle events before a spike can alert",
    ),
}

#: The :class:`TopologySpec` fields a command line can set.
TOPOLOGY_FLAGS = ("scale", "seed", "vantage_points", "stubs_per_transit")

#: The flags that key a run's snapshot (the topology's and
#: :data:`RunSpec.IDENTITY`'s), in :data:`SPEC_FLAGS` order.
IDENTITY_FLAGS = TOPOLOGY_FLAGS + tuple(
    name for name in RunSpec.IDENTITY if name in SPEC_FLAGS
)


def add_spec_flags(parser, aliases=None, **defaults):
    """Declare the :data:`SPEC_FLAGS` options named in ``defaults``, in
    that order, with those defaults; ``aliases`` maps a field to extra
    spellings of its flag."""
    for name, default in defaults.items():
        flag, kind, metavar, text = SPEC_FLAGS[name]
        parser.add_argument(
            flag, *(aliases or {}).get(name, ()), dest=name, type=kind,
            metavar=metavar, default=default, help=text,
        )
    return parser


def spec_from_args(cls, args: argparse.Namespace, **values):
    """``cls`` built from the :data:`SPEC_FLAGS` options ``args``
    carries plus ``values``, which win; a nested ``topology`` is built
    the same way.  A flag left at None keeps the field's default."""
    names = {spec_field.name for spec_field in dataclasses.fields(cls)}
    if "topology" in names and "topology" not in values:
        values["topology"] = spec_from_args(TopologySpec, args)
    for name in names & SPEC_FLAGS.keys() & vars(args).keys():
        value = getattr(args, name)
        if name == "breaker_threshold":
            value = value or None  # the flag's 0 disables the breaker
        if value is not None:
            values.setdefault(name, value)
    return cls(**values)


def _add_campaign_arguments(parser, aliases=None):
    """The ``campaign`` options (shared by its ``chaos`` alias)."""
    add_spec_flags(
        parser, aliases, scale=1.0, seed=2017, vantage_points=8,
        probe_budget=None, max_retries=0, fault_profile=None,
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_profiles",
        help="list shipped fault profiles and exit",
    )
    add_spec_flags(parser, breaker_threshold=0)
    store_group = parser.add_mutually_exclusive_group()
    store_group.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="checkpoint the run into a warehouse snapshot under DIR "
        "(each completed trace/ping/revelation is persisted; an "
        "interrupted run becomes resumable)",
    )
    store_group.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume the campaign checkpointed under DIR; completed "
        "work is restored, only the remainder is probed, and the "
        "result is bit-identical to an uninterrupted run",
    )
    log_group = parser.add_mutually_exclusive_group()
    log_group.add_argument(
        "--record", metavar="PATH", default=None,
        help="record every probe exchange to a JSONL probe log",
    )
    log_group.add_argument(
        "--replay", metavar="PATH", default=None,
        help="serve probes from a recorded probe log (no simulation)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-phase timings and engine cache counters",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="write the campaign dataset as JSON",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the run summary (volumes, data_quality) as JSON",
    )
    parser.add_argument(
        "--quarantine-out", metavar="PATH", default=None,
        help="write the quarantined-reply records as JSONL",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write a markdown campaign report",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the structured event trace as JSONL (all levels)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics registry snapshot (.prom/.txt for "
        "Prometheus text format, anything else for JSON)",
    )
    return parser


def _add_chain_arguments(parser):
    """The chain options ``monitor`` and ``fleet`` share (the
    :class:`~repro.monitor.loop.ChainSpec` fields)."""
    add_spec_flags(
        parser, epochs=3, scale=0.3, seed=2017, vantage_points=4,
        stubs_per_transit=3, churn_profile="gentle", churn_seed=None,
        fault_profile=None, probe_budget=None,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Through the Wormhole: Tracking Invisible "
            "MPLS Tunnels' (IMC 2017)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase logging verbosity (-v info, -vv debug; one "
        "setting drives stdlib logging and the structured event log)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emulate = sub.add_parser(
        "emulate", help="traceroute the Fig. 2 testbed"
    )
    emulate.add_argument("scenario", choices=SCENARIOS)
    emulate.add_argument(
        "--target", default="CE2.left",
        help="named target, e.g. CE2.left or PE2.left",
    )

    _add_campaign_arguments(
        sub.add_parser(
            "campaign", help="run the synthetic-Internet campaign"
        )
    )
    # The chaos alias: the campaign command with chaos defaults.
    _add_campaign_arguments(
        sub.add_parser(
            "chaos",
            help="alias: repro campaign under an injected fault "
            "profile (hostile by default)",
        ),
        aliases={"fault_profile": ("--profile",)},
    ).set_defaults(
        fault_profile="hostile",
        scale=0.5,
        vantage_points=4,
        max_retries=1,
        breaker_threshold=3,
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one table/figure"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the experiment's structured document as "
        "JSON (experiments without one fail with an error)",
    )
    # Topology overrides for the experiments whose run() takes a
    # ContextConfig.
    add_spec_flags(
        experiment, scale=None, seed=None, vantage_points=None,
        stubs_per_transit=None,
    )

    diff = sub.add_parser(
        "diff",
        help="compare two campaign snapshots (tunnel churn, per-AS "
        "deltas)",
    )
    diff.add_argument(
        "snapshot_a",
        help="first snapshot: its directory, or a warehouse root "
        "holding exactly one snapshot",
    )
    diff.add_argument("snapshot_b", help="second snapshot, likewise")
    diff.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the diff document (repro.store.diff/1) as "
        "JSON",
    )

    monitor = sub.add_parser(
        "monitor",
        help="run a continuous-monitoring chain: churn + incremental "
        "epoch re-campaigns + tunnel-lifecycle timeline",
    )
    monitor.add_argument(
        "--warehouse", metavar="DIR", default=None,
        help="warehouse root holding the chain's epoch snapshots "
        "(re-running the same command resumes the chain); required "
        "unless --list",
    )
    monitor.add_argument(
        "--list", action="store_true", dest="list_profiles",
        help="list shipped churn profiles and exit",
    )
    _add_chain_arguments(monitor)
    monitor.add_argument(
        "--full", action="store_true",
        help="disable the incremental path: re-reveal every pair "
        "every epoch (the control arm)",
    )
    monitor.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the folded timeline (repro.monitor/1) as JSON",
    )
    monitor.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the structured event stream (monitor.* counters "
        "included) as JSONL",
    )

    configs = sub.add_parser(
        "configs", help="dump IOS-style configs for a testbed scenario"
    )
    configs.add_argument("scenario", choices=SCENARIOS)
    configs.add_argument(
        "--router", default=None, help="only this router's config"
    )

    export = sub.add_parser(
        "export", help="write every figure's data series as CSV"
    )
    export.add_argument("directory")

    serve = sub.add_parser(
        "serve",
        help="multiplex tenant campaigns over shared rendered "
        "snapshots",
    )
    serve.add_argument(
        "--tenants", type=positive, default=8, metavar="N",
        help="tenant campaigns to submit",
    )
    serve.add_argument(
        "--snapshots", type=positive, default=2, metavar="M",
        help="distinct topology seeds the tenants are spread over "
        "(each is rendered once and shared)",
    )
    add_spec_flags(
        serve, scale=0.3, seed=2017, vantage_points=3,
        stubs_per_transit=2,
    )
    serve.add_argument(
        "--max-active", type=positive, default=4,
        help="sessions running concurrently (each holds one worker "
        "thread; the rest queue)",
    )
    serve.add_argument(
        "--weights", default=None, metavar="W1,W2,...",
        help="comma-separated fair-scheduler weights cycled over the "
        "tenants (default: equal)",
    )
    add_spec_flags(
        serve, probe_budget=None, fault_profile=None, max_targets=None
    )
    serve.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="write the combined tenant-tagged event stream as JSONL",
    )
    serve.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the server summary (registry reuse, per-tenant "
        "grants) as JSON",
    )

    fleet = sub.add_parser(
        "fleet",
        help="run a supervised fleet of monitor chains over one "
        "shared rendered topology (copy-on-churn twins, crash "
        "recovery, churn alerting)",
    )
    fleet.add_argument(
        "--warehouse", metavar="DIR", required=True,
        help="warehouse root shared by every chain; the folded "
        "repro.fleet/1 aggregate is written there as fleet.json",
    )
    add_spec_flags(fleet, chains=3)
    _add_chain_arguments(fleet)
    add_spec_flags(
        fleet, restart_budget=3, epoch_deadline=None,
        backoff_base_ms=25.0,
    )
    fleet.add_argument(
        "--kill-chain", action="append", default=None,
        metavar="INDEX[:PROBES]",
        help="fault drill: hard-kill chain INDEX's first attempt "
        "after PROBES cumulative probes (default 100); repeatable. "
        "The chain restarts from its checkpoints and must converge "
        "byte-identically",
    )
    add_spec_flags(fleet, alert_factor=2.0, alert_min_events=2)
    fleet.add_argument(
        "--resume", action="store_true",
        help="continue a fleet whose warehouse already holds a "
        "fleet.json (completed epochs are skipped; crashed epochs "
        "resume from their checkpoints)",
    )
    fleet.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the fleet report (ledger + repro.fleet/1 "
        "document) as JSON",
    )

    inspect = sub.add_parser(
        "inspect",
        help="digest a run's artefacts: an event trace, a warehouse, "
        "or a monitor timeline",
    )
    views = inspect.add_subparsers(dest="view", required=True)
    trace = views.add_parser(
        "trace",
        help="probes per phase, cache ratio, outcomes, faults, serve "
        "tenants and spans of a --trace-out/--events-out JSONL",
    )
    trace.add_argument("path", help="JSONL event stream")
    trace.add_argument(
        "--faults", action="store_true",
        help="print only the chaos events (fault.injected, "
        "fault.flap, measure.quarantine) as JSONL",
    )
    views.add_parser(
        "store",
        help="per-snapshot records, checkpoint chain, probe spend, "
        "run status and per-AS result of a warehouse",
    ).add_argument(
        "path", help="warehouse root or one snapshot directory"
    )
    views.add_parser(
        "timeline",
        help="epoch table and tunnel lifecycles of a monitor chain",
    ).add_argument(
        "path",
        help="repro.monitor/1 document (repro monitor --json) or a "
        "warehouse root",
    )

    sub.add_parser("list", help="list experiment identifiers")
    return parser


def _cmd_emulate(args: argparse.Namespace) -> int:
    testbed = build_gns3(args.scenario)
    trace = testbed.traceroute(args.target)
    print(testbed.render(trace))
    return 0


def _resume_command(args: argparse.Namespace) -> str:
    """The ``repro campaign`` command line keying this run's snapshot
    (the resume hint's prefix): the identity flags the command
    declares."""
    words = ["repro", "campaign"]
    for name in IDENTITY_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            words += [SPEC_FLAGS[name][0], str(value)]
    return shlex.join(words)


@contextlib.contextmanager
def _event_trace(path: Optional[str]):
    """Mirror the global event log, all levels, to JSONL at ``path``
    for the block (a no-op without a path).  Registries appended to
    the yielded list close the trace with a ``campaign.metrics``
    counters event (the one ``repro inspect trace`` sums)."""
    registries: List[object] = []
    if not path:
        yield registries
        return
    from repro.obs import DEBUG, JsonlSink, get_event_log

    # Attached before the run's stack exists: the global event log is
    # exactly what lets --trace-out capture a run not yet built.
    sink = JsonlSink(path)
    log = get_event_log()
    log.attach(sink)
    log.set_level(DEBUG)
    try:
        yield registries
    finally:
        for registry in registries:
            log.emit(
                "campaign.metrics", counters=registry.counters_snapshot()
            )
        log.detach(sink)
        sink.close()


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.faults import FAULT_PROFILES, fault_profile

    if args.list_profiles:
        for name, profile in FAULT_PROFILES.items():
            kind = (
                "inert" if profile.inert
                else "network flaps" if profile.mutates_network
                else "reply faults"
            )
            print(f"{name:12s} {kind}")
        return 0
    if args.fault_profile is not None:
        try:
            fault_profile(args.fault_profile)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    from repro.measure.replay import ProbeLogError, ReplayMiss
    from repro.store import StoreMismatch

    try:
        config = spec_from_args(
            ContextConfig, args,
            record_path=args.record,
            replay_path=args.replay,
            checkpoint_dir=args.resume or args.checkpoint,
            resume=args.resume is not None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _event_trace(args.trace_out) as traced:
        try:
            context = campaign_context(config)
        except (StoreMismatch, ReplayMiss, ProbeLogError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        traced.append(context.internet.engine.obs.metrics)
    result = context.result
    registry = context.internet.engine.obs.metrics
    if args.metrics_out:
        from repro.obs.export import write_metrics

        write_metrics(registry, args.metrics_out)
    print(
        f"{context.internet.network}, {len(context.internet.vps)} VPs; "
        f"{len(result.traces)} traces, {len(result.pairs)} candidate "
        f"pairs, {len(result.successful_revelations())} tunnels revealed"
    )
    quality = result.data_quality or {}
    if args.fault_profile is not None:
        counters = quality.get("counters", {})
        print(
            f"faults injected: {counters.get('faults_injected', 0)}, "
            f"quarantined: {counters.get('quarantined', 0)}, "
            f"retries exhausted: {counters.get('retries_exhausted', 0)}, "
            f"pings parked: {counters.get('pings_parked', 0)}"
        )
        print(
            f"data quality: {quality.get('grade', 'n/a')} "
            f"(confidence {quality.get('confidence', 'n/a')}, "
            f"response rate {quality.get('response_rate', 'n/a')})"
        )
    if result.partial:
        print(
            "PARTIAL RUN: "
            + result.stop_summary(command=_resume_command(args))
        )
    if result.checkpoint_dir:
        print(f"snapshot: {result.checkpoint_dir}")
    if args.record:
        print(f"probe log recorded to {args.record}")
    if args.replay:
        print(f"probes replayed from {args.replay}")
    if args.stats:
        from repro.campaign.report import render_perf_section
        from repro.serve.registry import default_registry

        print()
        print(render_perf_section(result))
        reuse = default_registry().stats()
        if reuse["builds_avoided"]:
            print(
                f"snapshot reuse: {reuse['builds_avoided']} "
                f"internet build(s) avoided this process "
                f"(~{reuse['saved_ms']} ms saved across "
                f"{reuse['renders']} rendered snapshot(s))"
            )
    print()
    print(table4_per_as.run(context.config).text)
    print()
    print(table5_deployment.run(context.config).text)
    if args.save:
        from repro.probing.dataset import save_dataset

        save_dataset(
            args.save,
            result.traces,
            pings=result.pings,
            revelations=result.revelations,
            metadata={"seed": args.seed, "scale": args.scale},
        )
        print(f"\ndataset written to {args.save}")
    if args.quarantine_out:
        with open(args.quarantine_out, "w", encoding="utf-8") as sink:
            for record in result.quarantine:
                sink.write(json.dumps(record, sort_keys=True))
                sink.write("\n")
        print(f"quarantine log written to {args.quarantine_out}")
    if args.json:
        document = {
            "profile": args.fault_profile,
            "seed": args.seed,
            "scale": args.scale,
            "partial": result.partial,
            "volumes": {
                "traces": len(result.traces),
                "pings": len(result.pings),
                "pairs": len(result.pairs),
                "revelations": len(result.revelations),
                "revealed": len(result.successful_revelations()),
                "quarantined": len(result.quarantine),
            },
            "data_quality": quality,
        }
        Path(args.json).write_text(json.dumps(document, indent=1))
        print(f"summary written to {args.json}")
    if args.report:
        from repro.campaign.report import render_report

        names = {
            asn: profile.name
            for asn, profile in context.internet.profiles.items()
        }
        Path(args.report).write_text(
            render_report(
                result,
                context.aggregator,
                frpla=context.frpla,
                as_names=names,
            )
        )
        print(f"report written to {args.report}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = EXPERIMENTS[args.id]
    if any(getattr(args, name) is not None for name in TOPOLOGY_FLAGS):
        import inspect

        if "config" not in inspect.signature(module.run).parameters:
            print(
                f"error: experiment {args.id!r} takes no context "
                "overrides",
                file=sys.stderr,
            )
            return 2
        result = module.run(spec_from_args(ContextConfig, args))
    else:
        result = module.run()
    print(result.text)
    if args.json:
        document = getattr(result, "document", None)
        if document is None:
            print(
                f"error: experiment {args.id!r} has no structured "
                "document",
                file=sys.stderr,
            )
            return 2
        Path(args.json).write_text(json.dumps(document, indent=1))
        print(f"document written to {args.json}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.store import diff_snapshots, render_diff

    try:
        document = diff_snapshots(args.snapshot_a, args.snapshot_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(document))
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1))
        print(f"diff written to {args.json}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.synth.churn import CHURN_PROFILES

    if args.list_profiles:
        for name, profile in sorted(CHURN_PROFILES.items()):
            rates = ", ".join(
                f"{field}={value}"
                for field, value in (
                    ("link", profile.link_cost_flips),
                    ("ldp", profile.ldp_policy_flips),
                    ("te+", profile.te_installs),
                    ("te-", profile.te_teardowns),
                    ("vendor", profile.vendor_upgrades),
                )
                if value
            )
            print(f"{name:<10} {rates or 'no events'}")
        return 0
    if not args.warehouse:
        print(
            "error: --warehouse is required (or use --list)",
            file=sys.stderr,
        )
        return 2
    from repro.monitor import MonitorConfig, MonitorLoop
    from repro.store import (
        StoreMismatch,
        chain_snapshots,
        fold_timeline,
        render_timeline,
    )

    with _event_trace(args.trace_out) as traced:
        try:
            loop = MonitorLoop(
                spec_from_args(
                    MonitorConfig, args,
                    warehouse=args.warehouse,
                    incremental=not args.full,
                )
            )
            # The closing counters carry the monitor.* family.
            traced.append(loop.obs.metrics)
            report = loop.run()
        except (StoreMismatch, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for outcome in report.epochs:
        state = (
            "partial" if outcome.partial
            else "cached" if outcome.skipped
            else "resumed" if outcome.resumed
            else "ran"
        )
        print(
            f"epoch {outcome.epoch}: {state} — "
            f"{outcome.tunnels} tunnels, {outcome.pairs} pairs "
            f"({outcome.pairs_carried} carried), "
            f"{outcome.campaign_probes} campaign + "
            f"{outcome.evidence_probes} evidence probes, "
            f"{len(outcome.churn_events)} churn events"
        )
    if report.partial:
        print(f"monitor stopped early: {report.stop_reason}")
        return 0
    chains = chain_snapshots(args.warehouse, chain=report.chain)
    timeline = fold_timeline(chains[report.chain])
    print()
    print(render_timeline(timeline))
    if args.json:
        Path(args.json).write_text(json.dumps(timeline, indent=1))
        print(f"timeline written to {args.json}")
    return 0


def _parse_kill_plan(specs) -> Dict[int, int]:
    """``--kill-chain INDEX[:PROBES]`` entries -> {index: probes}."""
    plan: Dict[int, int] = {}
    for spec in specs or []:
        index, _, probes = str(spec).partition(":")
        try:
            plan[int(index)] = int(probes) if probes else 100
        except ValueError:
            raise ValueError(
                f"bad --kill-chain {spec!r}: expected "
                "INDEX or INDEX:PROBES"
            ) from None
    return plan


def _cmd_fleet(args: argparse.Namespace) -> int:
    import signal
    from repro.fleet import FleetConfig, FleetSupervisor
    from repro.store import CampaignStore, render_fleet

    try:
        kill_plan = _parse_kill_plan(args.kill_chain)
        config = spec_from_args(
            FleetConfig, args, warehouse=args.warehouse
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    marker = CampaignStore(args.warehouse).fleet_path
    if marker.exists() and not args.resume:
        print(
            f"error: {marker} already exists — this warehouse "
            "already ran a fleet; pass --resume to continue it "
            "(completed epochs are skipped, crashed epochs resume "
            "from their checkpoints) or use a fresh --warehouse",
            file=sys.stderr,
        )
        return 2
    supervisor = FleetSupervisor(config, kill_plan=kill_plan)
    previous = signal.signal(
        signal.SIGTERM,
        lambda signum, frame: supervisor.request_drain(),
    )
    try:
        report = supervisor.run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)
    for outcome in report.chains:
        extras = []
        if outcome.restarts:
            extras.append(f"{outcome.restarts} restarts")
        if outcome.injected_kills:
            extras.append(f"{outcome.injected_kills} injected kills")
        if outcome.watchdog_kills:
            extras.append(f"{outcome.watchdog_kills} watchdog kills")
        print(
            f"chain {outcome.index} ({outcome.chain}): "
            f"{outcome.status} — "
            f"{outcome.epochs_completed}/{config.epochs} epochs"
            + (f" ({', '.join(extras)})" if extras else "")
        )
        if outcome.stop_reason:
            print(f"  {outcome.stop_reason}")
    if report.drained:
        print(
            "fleet drained; re-run with --resume to continue "
            "every unfinished chain"
        )
    print()
    print(render_fleet(report.document))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=1)
        )
        print(f"fleet report written to {args.json}")
    return 0


def _cmd_configs(args: argparse.Namespace) -> int:
    from repro.synth.ios_config import network_configs, router_config

    testbed = build_gns3(args.scenario)
    if args.router is not None:
        print(router_config(testbed.network.router(args.router)))
        return 0
    for name, text in network_configs(testbed.network).items():
        print(f"### {name}")
        print(text)
        print()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all_figures

    written = export_all_figures(args.directory)
    for path in written:
        print(path)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import AdmissionError, ServeClient, TenantSpec

    weights = [1.0] * args.tenants
    if args.weights:
        try:
            cycle = positive_floats(args.weights)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(
                f"error: bad --weights {args.weights!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        weights = [cycle[i % len(cycle)] for i in range(args.tenants)]
    sink = None
    if args.events_out:
        from repro.obs import JsonlSink

        sink = JsonlSink(args.events_out)
    topology = spec_from_args(TopologySpec, args)
    client = ServeClient(max_active=args.max_active, stream_sink=sink)
    try:
        handles = []
        for index in range(args.tenants):
            spec = spec_from_args(
                TenantSpec, args,
                tenant=f"tenant-{index:02d}",
                topology=dataclasses.replace(
                    topology, seed=args.seed + index % args.snapshots
                ),
                weight=weights[index],
            )
            try:
                handles.append(client.submit(spec))
            except AdmissionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        for handle in handles:
            result = handle.wait()
            revealed = len(result.successful_revelations())
            flag = " PARTIAL" if result.partial else ""
            print(
                f"{handle.spec.tenant}: {len(result.traces)} traces, "
                f"{len(result.pairs)} candidate pairs, "
                f"{revealed} tunnels revealed{flag}"
            )
        stats = client.stats()
        reuse = stats["registry"]
        print(
            f"snapshots: {reuse['renders']} rendered, "
            f"{reuse['builds_avoided']} build(s) avoided "
            f"(~{reuse['saved_ms']} ms saved)"
        )
        if args.json:
            Path(args.json).write_text(json.dumps(stats, indent=1))
            print(f"summary written to {args.json}")
        if args.events_out:
            print(f"event stream written to {args.events_out}")
    finally:
        client.close()
        if sink is not None:
            sink.close()
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.inspect import store_view, timeline_view, trace_view

    try:
        if args.view == "trace":
            return trace_view(args.path, faults=args.faults)
        if args.view == "store":
            return store_view(args.path)
        return timeline_view(args.path)
    except BrokenPipeError:  # e.g. piped into head
        return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for identifier in sorted(EXPERIMENTS):
        module = EXPERIMENTS[identifier]
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{identifier:8s} {summary}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    from repro.obs import configure

    configure(args.verbose)
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        "emulate": _cmd_emulate,
        "campaign": _cmd_campaign,
        "experiment": _cmd_experiment,
        "diff": _cmd_diff,
        "monitor": _cmd_monitor,
        "fleet": _cmd_fleet,
        "chaos": _cmd_campaign,
        "configs": _cmd_configs,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "inspect": _cmd_inspect,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
