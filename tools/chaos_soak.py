#!/usr/bin/env python
"""Chaos soak harness: every fault profile, every invariant.

For each shipped fault profile (``repro.faults.FAULT_PROFILES``) the
soak runs the seeded campaign three times and asserts the degradation
contract (DESIGN §11):

1. **No crash** — the faulty campaign completes with a populated
   ``data_quality`` block;
2. **Budgets respected** — a probe budget sized to land mid-campaign
   stops the run cleanly (partial result, no overshoot);
3. **Resume bit-identity** — the checkpointed, budget-killed run,
   resumed on a fresh stack, equals the uninterrupted faulty run
   field-by-field: traces, pings, pairs, revelations, probe totals,
   the quarantine log, ``data_quality``, and the measurement-plane
   counters;
4. **Monotone degradation** (full mode) — candidate pairs and
   successful revelations are non-increasing along the loss ladder
   (``none`` → ``loss-light`` → ``loss-heavy``), whose profiles share
   a seed so their drop sets nest.

``--quick`` trims the matrix to three representative profiles (clean,
stateless loss, network flaps) for CI smoke; the full matrix is the
release gate.  Results land in ``--out`` as ``soak_report.json`` plus
a combined ``quarantine.jsonl`` tagged per profile.  Exit status is
non-zero when any invariant fails.

Usage::

    PYTHONPATH=src python tools/chaos_soak.py [--quick] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.experiments.common import CampaignContext, ContextConfig  # noqa: E402
from repro.faults import LOSS_LADDER, profile_names  # noqa: E402
from repro.obs import measurement_counters  # noqa: E402
from repro.serve.registry import TopologySpec  # noqa: E402
from repro.store import RESUME_EXEMPT_COUNTERS  # noqa: E402

#: Profiles exercised by ``--quick`` (CI smoke): the inert baseline,
#: one stateless-fault profile, one network-mutating profile.
QUICK_PROFILES = ("none", "loss-light", "flap")

#: Small-but-complete campaign: every phase runs, revelations happen,
#: and the full matrix stays within a CI smoke budget.
TOPOLOGY = dict(scale=0.4, seed=11, vantage_points=3, stubs_per_transit=2)
POLICY = dict(max_retries=1, breaker_threshold=3)

GRADES = ("high", "degraded", "poor")


def _build(profile, probe_budget=None, checkpoint_dir=None, resume=False):
    """A fresh campaign stack measured through ``profile``."""
    return CampaignContext(
        ContextConfig(
            fault_profile=profile,
            probe_budget=probe_budget,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            topology=TopologySpec(**TOPOLOGY),
            **POLICY,
        )
    )


def _counters(context):
    """Measurement-plane counters, resume-exempt names removed."""
    counters = dict(
        measurement_counters(
            context.campaign.obs.metrics.counters_snapshot()
        )
    )
    for name in RESUME_EXEMPT_COUNTERS:
        counters.pop(name, None)
    return counters


def _volumes(result):
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


def _check(failures, condition, message):
    if not condition:
        failures.append(message)
    return condition


def soak_profile(profile, out_dir):
    """Run one profile through the no-crash / budget / resume gauntlet.

    Returns a JSON-ready report entry; its ``failures`` list is empty
    when every invariant held.
    """
    failures = []
    entry = {"profile": profile, "failures": failures}

    # 1. Uninterrupted faulty run: no crash, data_quality populated.
    try:
        baseline = _build(profile)
    except Exception:  # noqa: BLE001 - the soak's whole point
        failures.append(
            f"uninterrupted run crashed:\n{traceback.format_exc()}"
        )
        return entry
    result = baseline.result
    quality = result.data_quality
    entry["volumes"] = _volumes(result)
    entry["data_quality"] = quality
    entry["quarantine_records"] = [
        dict(record) for record in result.quarantine
    ]
    _check(failures, not result.partial, "uninterrupted run is partial")
    _check(
        failures,
        quality.get("grade") in GRADES,
        f"data_quality grade missing or unknown: {quality.get('grade')!r}",
    )
    _check(
        failures,
        quality.get("techniques") and quality.get("counters"),
        "data_quality techniques/counters not populated",
    )
    baseline_counters = _counters(baseline)

    # 2. Budget-killed checkpointed run: clean stop, no overshoot.
    total = result.probes_sent + result.revelation_probes
    budget = total // 2
    warehouse = os.path.join(out_dir, f"warehouse-{profile}")
    try:
        killed = _build(
            profile, probe_budget=budget, checkpoint_dir=warehouse
        )
    except Exception:  # noqa: BLE001
        failures.append(
            f"budgeted run crashed:\n{traceback.format_exc()}"
        )
        return entry
    partial = killed.result
    _check(
        failures,
        partial.partial,
        f"budget {budget} of {total} probes did not interrupt the run",
    )
    spent = partial.probes_sent + partial.revelation_probes
    _check(
        failures,
        spent <= budget,
        f"budget overshoot: spent {spent} of {budget}",
    )

    # 3. Fresh-stack resume equals the uninterrupted run bit-for-bit.
    try:
        resumed_context = _build(
            profile, checkpoint_dir=warehouse, resume=True
        )
    except Exception:  # noqa: BLE001
        failures.append(f"resume crashed:\n{traceback.format_exc()}")
        return entry
    resumed = resumed_context.result
    _check(failures, not resumed.partial, "resumed run still partial")
    for field in (
        "traces", "pings", "pairs", "revelations",
        "probes_sent", "revelation_probes", "quarantine",
        "data_quality",
    ):
        _check(
            failures,
            getattr(resumed, field) == getattr(result, field),
            f"resume mismatch in {field}",
        )
    _check(
        failures,
        _counters(resumed_context) == baseline_counters,
        "resume mismatch in measurement counters",
    )

    return entry


def write_quarantine(entries_by_profile, path):
    """Combined per-profile quarantine log (one JSONL, tagged)."""
    with open(path, "w", encoding="utf-8") as sink:
        for profile, records in entries_by_profile.items():
            for record in records:
                tagged = {"profile": profile}
                tagged.update(record)
                sink.write(json.dumps(tagged, sort_keys=True))
                sink.write("\n")


def check_ladder(report):
    """Recall must degrade monotonically along the loss ladder."""
    failures = []
    by_profile = {entry["profile"]: entry for entry in report}
    rungs = [
        by_profile[name]["volumes"]
        for name in LOSS_LADDER
        if name in by_profile and "volumes" in by_profile[name]
    ]
    if len(rungs) < len(LOSS_LADDER):
        failures.append("ladder rungs missing volumes (earlier crash?)")
        return failures
    for metric in ("pairs", "revealed"):
        values = [rung[metric] for rung in rungs]
        if any(b > a for a, b in zip(values, values[1:])):
            failures.append(
                f"{metric} not monotonically non-increasing along "
                f"{' -> '.join(LOSS_LADDER)}: {values}"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"only {', '.join(QUICK_PROFILES)} and skip the ladder check",
    )
    parser.add_argument(
        "--out", default="chaos-out", metavar="DIR",
        help="artifact directory (soak_report.json, quarantine.jsonl)",
    )
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    profiles = list(QUICK_PROFILES) if args.quick else profile_names()

    report = []
    quarantines = {}
    failed = False
    for profile in profiles:
        print(f"=== {profile}")
        entry = soak_profile(profile, args.out)
        report.append(entry)
        if "data_quality" in entry:
            quality = entry["data_quality"]
            volumes = entry["volumes"]
            print(
                f"    grade {quality.get('grade')} "
                f"(confidence {quality.get('confidence')}), "
                f"{volumes['pairs']} pairs, "
                f"{volumes['revealed']} revealed, "
                f"{volumes['quarantined']} quarantined"
            )
        for failure in entry["failures"]:
            failed = True
            print(f"    FAIL: {failure}")
        # The report stays digest-sized: full quarantine records go to
        # the combined JSONL artifact instead.
        quarantines[profile] = entry.pop("quarantine_records", [])

    ladder_failures = []
    if not args.quick:
        ladder_failures = check_ladder(report)
        for failure in ladder_failures:
            failed = True
            print(f"FAIL (ladder): {failure}")

    document = {
        "schema": "repro.chaos-soak/1",
        "quick": args.quick,
        "config": {**TOPOLOGY, **POLICY},
        "profiles": report,
        "ladder_failures": ladder_failures,
        "ok": not failed,
    }
    report_path = os.path.join(args.out, "soak_report.json")
    with open(report_path, "w", encoding="utf-8") as sink:
        json.dump(document, sink, indent=1)
    print(f"report written to {report_path}")
    quarantine_path = os.path.join(args.out, "quarantine.jsonl")
    write_quarantine(quarantines, quarantine_path)
    print(f"quarantine log written to {quarantine_path}")

    verdict = "OK" if not failed else "FAILED"
    print(f"chaos soak {verdict}: {len(profiles)} profiles")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
