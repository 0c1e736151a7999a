#!/usr/bin/env python3
"""End-to-end benchmark with a traced per-layer split.

Run from the repository root::

    python3 bench/run.py --workload campaign-cold --seed 1 --seconds 20
    python3 bench/run.py --workload serve-shared --trace 1
    python3 bench/run.py                  # every workload, one subprocess each

One invocation measures one workload (see ``workloads.py``) in its own
process: it times the program's import and the workload's set-up
(three times, median), then runs rounds of the workload's units.  The
number of rounds is ``--seconds`` divided by the workload's nominal
round length on a 2-core box, so a run measures for about that long
and every run at one seed does identical work.  It prints every
metric by name with its unit, runs the correctness checks, and ends
with one JSON line::

    {"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over rounds).
``--trace 1`` follows every untraced round with a traced repeat of
the same inputs and reports the per-layer split of the traced ones
instead: every layer's self time and waiting as shares of the traced
span time, its calls per unit, the counters each layer exposes as
ratios, and the tracing overhead.  Traced spans of the first traced
unit go to ``bench/out/<workload>.spans.jsonl``.

The exit code is 0 only when every unit passed its checks (and, when
tracing, the layer split adds up); 2 when the program cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

from spans import HARNESS, LAYERS, SpanRecorder, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Default measuring time per run (BENCHMARK.json's ``run_seconds``).
RUN_SECONDS = 20
#: Set-up runs per invocation; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Pooled unit latencies needed before a p90 is reported.
P90_MIN_SAMPLES = 100
#: Layer-split acceptance: layer self times must add up to the traced
#: span time within this share, and the harness's own share stays
#: under the second bound.
LAYER_SUM_TOLERANCE = 0.02
UNATTRIBUTED_LIMIT = 0.05
#: An untraced round plus its traced repeat take about this many
#: untraced round lengths.
TRACED_PAIR_FACTOR = 2.5

#: End-to-end metrics reported by ``--trace 0`` (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("sim_us_per_probe", "us"),
    ("probes_per_unit", "count"),
    ("revealed_per_unit", "count"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics reported by ``--trace 1`` (name, unit).  Times
#: are shares of the traced span time, so an idle layer reads 0
#: without a time that never changes; ``traced.unit_ms`` converts.
PER_LAYER = (
    (("traced.unit_ms", "ms"),)
    + tuple(
        (f"{layer}.{kind}", unit)
        for layer in LAYERS
        for kind, unit in (
            ("self_share", "share"), ("wait_share", "share"),
            ("calls", "count"),
        )
    )
    + (
        ("unattributed.share", "share"),
        ("tracing.layer_sum_error", "share"),
        ("tracing.overhead", "ratio"),
        ("dataplane.packets_per_probe", "ratio"),
        ("dataplane.trajectory_hit_rate", "ratio"),
        ("routing.resolves_per_probe", "ratio"),
        ("measure.cache_hit_rate", "ratio"),
        ("measure.retries_per_probe", "ratio"),
        ("measure.quarantined_per_probe", "ratio"),
        ("faults.injected_per_probe", "ratio"),
        ("core.reveal_success_rate", "ratio"),
        ("campaign.phase_trace_share", "share"),
        ("campaign.phase_ping_share", "share"),
        ("campaign.phase_extract_share", "share"),
        ("campaign.phase_revelation_share", "share"),
        ("synth.render_share", "share"),
        ("synth.clone_share", "share"),
        ("synth.churn_share", "share"),
        ("store.records", "count"),
        ("store.bytes_written", "B"),
        ("store.replay_share", "share"),
        ("monitor.carry_share", "share"),
        ("monitor.evidence_probes", "count"),
        ("fleet.fold_share", "share"),
    )
)

#: Span names whose inclusive time makes up a derived share.
_INCLUSIVE = {
    "campaign.phase_trace_share": ("Campaign.trace_phase",),
    "campaign.phase_ping_share": ("Campaign.ping_phase",),
    "campaign.phase_extract_share": ("Campaign.extract_pairs",),
    "campaign.phase_revelation_share": ("Campaign.revelation_phase",),
    "synth.render_share": ("build_internet",),
    "synth.clone_share": ("SyntheticInternet.clone",),
    "synth.churn_share": ("ChurnModel.advance",),
    "store.replay_share": (
        "Snapshot.records", "CampaignCheckpoint.restored_trace",
        "CampaignCheckpoint.restored_ping",
        "CampaignCheckpoint.restored_revelation",
    ),
    "fleet.fold_share": ("fold_fleet",),
}


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(values: Sequence[float]) -> Optional[float]:
    """p90, or None below :data:`P90_MIN_SAMPLES` samples (fewer than
    ten samples would lie beyond it)."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[8]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# One workload


@dataclass
class Round:
    """One round's raw numbers (kept in the ``--out`` document)."""

    index: int
    traced: bool
    seconds: float
    units: int
    failed: int
    probes: int
    revealed: int
    latencies_s: List[float]
    digest: str

    def document(self) -> dict:
        return {
            "index": self.index, "traced": self.traced,
            "seconds": self.seconds, "units": self.units,
            "failed": self.failed, "probes": self.probes,
            "revealed": self.revealed,
            "latencies_ms": [value * 1e3 for value in self.latencies_s],
            "digest": self.digest,
        }


class _Counters:
    """Counter totals of every stack built while tracing: the metrics
    registries of the forwarding engines created, minus the counters
    a checkpoint resume merged back in (restored, not measured)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._registries: Dict[int, object] = {}
        self.totals: Counter = Counter()
        self._restored: Counter = Counter()

    def on_engine(self, engine) -> None:
        registry = engine.obs.metrics
        with self._lock:
            self._registries[id(registry)] = registry

    def on_restore(self, counters: Dict[str, int]) -> None:
        with self._lock:
            self._restored.update(counters)

    def close_round(self) -> None:
        with self._lock:
            for registry in self._registries.values():
                self.totals.update(registry.counters_snapshot())
            self.totals.subtract(self._restored)
            self._registries.clear()
            self._restored.clear()


def _round_digest(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _round_count(seconds: float, workload, trace: bool) -> int:
    """Rounds (untraced + traced pairs when tracing) that fill
    ``seconds`` on the reference box.  The count depends only on the
    arguments, so every run at one seed does identical work."""
    per_round = workload.round_seconds * (
        TRACED_PAIR_FACTOR if trace else 1.0
    )
    return max(1, round(seconds / per_round))


def end_to_end(rounds: Sequence[Round], setup_s: float) -> dict:
    """The end-to-end metrics of the untraced rounds."""
    measured = [r for r in rounds if not r.traced]
    # Failed units carry no latency; a run where every unit failed
    # still reports (and fails its checks).
    latencies = [value for r in measured for value in r.latencies_s] or [0.0]
    tail = tail_percentile(latencies)
    units = sum(r.units for r in measured)
    return {
        "setup_s": setup_s,
        "units_per_s": statistics.median(
            _ratio(r.units, r.seconds) for r in measured
        ),
        "unit_p50_ms": statistics.median(latencies) * 1e3,
        "unit_p90_ms": None if tail is None else tail * 1e3,
        "sim_us_per_probe": statistics.median(
            _ratio(r.seconds, r.probes) * 1e6 for r in measured
        ),
        "probes_per_unit": _ratio(sum(r.probes for r in measured), units),
        "revealed_per_unit": _ratio(
            sum(r.revealed for r in measured), units
        ),
        "failed_share": _ratio(
            sum(r.failed for r in rounds), sum(r.units for r in rounds)
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def per_layer(recorder: SpanRecorder, counters: Counter,
              rounds: Sequence[Round], extras: Counter) -> dict:
    """The per-layer split of the traced rounds."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    units = sum(r.units for r in traced)
    total = recorder.root_seconds()
    layers = recorder.layer_totals()
    names = recorder.name_totals()
    metrics = {"traced.unit_ms": _ratio(total, units) * 1e3}
    for layer in LAYERS:
        wall, cpu, calls = layers.get(layer, (0.0, 0.0, 0))
        metrics[f"{layer}.self_share"] = _ratio(wall, total)
        metrics[f"{layer}.wait_share"] = _ratio(wall - cpu, total)
        metrics[f"{layer}.calls"] = _ratio(calls, units)
    metrics["unattributed.share"] = _ratio(
        layers.get(HARNESS, (0.0,))[0], total
    )
    layer_sum = sum(row[0] for row in layers.values())
    metrics["tracing.layer_sum_error"] = _ratio(
        abs(layer_sum - total), total
    )
    metrics["tracing.overhead"] = _ratio(
        statistics.median(_ratio(r.units, r.seconds) for r in plain),
        statistics.median(_ratio(r.units, r.seconds) for r in traced),
    )
    probes = counters["measure.probes"]
    hits = counters["engine.trajectory_hits"]
    resolves = sum(
        names.get(name, (0,))[0]
        for name in ("ControlPlane.resolve", "ControlPlane.resolve_prefix")
    )
    successes = sum(
        value for name, value in counters.items()
        if name.startswith("technique.") and name.endswith(".success")
    )
    metrics.update({
        "dataplane.packets_per_probe": _ratio(
            counters["engine.packets_simulated"], probes
        ),
        "dataplane.trajectory_hit_rate": _ratio(
            hits, hits + counters["engine.trajectory_misses"]
        ),
        "routing.resolves_per_probe": _ratio(resolves, probes),
        "measure.cache_hit_rate": _ratio(
            counters["measure.cache.hits"],
            counters["measure.cache.hits"] + counters["probe.sent.ping"],
        ),
        "measure.retries_per_probe": _ratio(
            counters["measure.retries"], probes
        ),
        "measure.quarantined_per_probe": _ratio(
            counters["measure.quarantined"], probes
        ),
        "faults.injected_per_probe": _ratio(
            counters["faults.injected"], probes
        ),
        "core.reveal_success_rate": _ratio(
            successes, counters["revelation.attempts"]
        ),
        "store.records": _ratio(counters["store.records"], units),
        "store.bytes_written": _ratio(counters["store.bytes"], units),
        "monitor.carry_share": _ratio(
            extras["pairs_carried"], extras["pairs"]
        ),
        "monitor.evidence_probes": _ratio(
            extras["evidence_probes"], units
        ),
    })
    for metric, span_names in _INCLUSIVE.items():
        metrics[metric] = _ratio(
            sum(names.get(name, (0, 0.0))[1] for name in span_names), total
        )
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload in this process; returns the exit code."""
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} "
            "is missing (run from a repository checkout)",
            file=sys.stderr,
        )
        return 2
    _pin_to_one_cpu()
    workload_class = WORKLOADS[args.workload]
    import_runs = [
        _import_seconds(workload_class.modules)
        for _ in range(SETUP_REPEATS)
    ]
    sys.path.insert(0, str(ROOT / "src"))
    for module in workload_class.modules:
        importlib.import_module(module)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workload_class, import_runs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _pin_to_one_cpu() -> None:
    """Run this process (and its children) on one CPU.

    The program holds the interpreter lock, so a second CPU adds no
    throughput; on a virtual machine it adds noise instead, because
    waking a thread on the other CPU is a hypervisor round trip whose
    latency follows the host's load (serve-shared ran ~30 % faster
    and repeated within ~5 % pinned, against ~20 % unpinned).  The
    highest-numbered CPU is the one least likely to take interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_seconds(modules: Sequence[str]) -> float:
    """Import ``modules`` in a fresh interpreter and return how long
    the imports took there (interpreter start-up excluded)."""
    code = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "start = time.perf_counter()\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - start)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        check=True, timeout=120,
    )
    return float(completed.stdout)


def _measure(args, workload_class, import_runs: List[float],
             workdir: Path) -> int:
    workload = workload_class(args.seed, workdir, units=args.units)
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_runs.append(time.perf_counter() - start)
    setup_s = statistics.median(import_runs) + statistics.median(setup_runs)

    trace = bool(args.trace)
    recorder = SpanRecorder(keep_units=["0.0t"]) if trace else None
    counters = _Counters()
    extras: Counter = Counter()
    rounds: List[Round] = []
    failures: List[str] = []
    outputs: Dict[str, str] = {}
    # Every traced round repeats the inputs of the untraced round
    # before it, so the two compare like for like.
    plan = [
        (index, traced)
        for index in range(_round_count(args.seconds, workload, trace))
        for traced in ((False, True) if trace else (False,))
    ]
    for index, traced in plan:
        undo = (
            install(recorder, counters.on_engine, counters.on_restore)
            if traced else None
        )
        try:
            seconds, results = workload.run_round(
                index, "t" if traced else "", recorder if traced else None
            )
        finally:
            if undo is not None:
                undo()
        if traced:
            counters.close_round()
            for result in results:
                extras.update(result.extra)
        failed = 0
        for result in results:
            reason = result.failure
            expected = outputs.setdefault(result.key, result.digest)
            if reason is None and result.digest != expected:
                reason = "output differs from an earlier unit's with the " \
                         "same input"
            if reason is not None:
                failed += 1
                failures.append(f"unit {result.unit}: {reason}")
        passed = [r for r in results if r.failure is None]
        rounds.append(Round(
            index=index, traced=traced, seconds=seconds,
            units=len(results), failed=failed,
            probes=sum(r.probes for r in results),
            revealed=sum(r.revealed for r in results),
            latencies_s=[r.latency_s for r in passed],
            digest=_round_digest([r.digest for r in results]),
        ))

    metrics = end_to_end(rounds, setup_s)
    layers = None
    if trace:
        layers = per_layer(recorder, counters.totals, rounds, extras)
        if layers["tracing.layer_sum_error"] > LAYER_SUM_TOLERANCE:
            failures.append(
                "layer self times do not add up to the traced span "
                f"time (off by {layers['tracing.layer_sum_error']:.2%})"
            )
        if layers["unattributed.share"] >= UNATTRIBUTED_LIMIT:
            failures.append(
                "unattributed share "
                f"{layers['unattributed.share']:.2%} is not under "
                f"{UNATTRIBUTED_LIMIT:.0%}"
            )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload.name}.spans.jsonl"
        recorder.write_jsonl(spans_path)

    attempted = sum(r.units for r in rounds)
    failed = sum(r.failed for r in rounds)
    digest = _round_digest([r.digest for r in rounds if not r.traced])
    _print_report(workload, args, rounds, metrics, layers, setup_runs,
                  import_runs, failures, digest)
    if args.out:
        document = {
            "workload": workload.name, "why": workload.why,
            "seed": args.seed, "seconds": args.seconds,
            "trace": int(trace), "units_per_round": workload.units,
            "import_runs_s": import_runs, "setup_runs_s": setup_runs,
            "output_digest": digest, "attempted": attempted,
            "failed": failed, "failures": failures,
            "metrics": metrics, "layers": layers,
            "rounds": [r.document() for r in rounds],
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    selected = PER_LAYER if trace else END_TO_END
    values = layers if trace else metrics
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in selected
        },
    }))
    return 0 if not failures else 1


def _print_report(workload, args, rounds, metrics, layers, setup_runs,
                  import_runs, failures, digest) -> None:
    traced = sum(1 for r in rounds if r.traced)
    print(
        f"# {workload.name} (seed {args.seed}): {len(rounds)} rounds of "
        f"{workload.units} units, {traced} traced"
    )
    print(f"  why: {workload.why}")
    print(
        "  set-up: median import of "
        + ", ".join(f"{value:.4f}" for value in import_runs)
        + " s + median set-up of "
        + ", ".join(f"{value:.4f}" for value in setup_runs) + " s"
    )
    units = dict(END_TO_END)
    units.update(unit_p90_ms="ms", failed_share="share")
    for name, value in metrics.items():
        shown = "null (under 100 samples)" if value is None else (
            f"{value:.6g}"
        )
        print(f"  {name:<22} {shown} {units[name]}")
    print(f"  output_digest          {digest}")
    if layers is not None:
        unit_ms = layers["traced.unit_ms"]
        print(f"  traced span time per unit: {unit_ms:.2f} ms")
        print(f"  {'layer':<12} {'self ms':>10} {'wait ms':>10} "
              f"{'calls':>10} {'share':>7}")
        for layer in LAYERS:
            share = layers[f"{layer}.self_share"]
            print(
                f"  {layer:<12} {share * unit_ms:>10.2f} "
                f"{layers[f'{layer}.wait_share'] * unit_ms:>10.2f} "
                f"{layers[f'{layer}.calls']:>10.1f} {share:>7.2%}"
            )
        skip = {f"{layer}.{kind}" for layer in LAYERS
                for kind in ("self_share", "wait_share", "calls")}
        for name, unit in PER_LAYER:
            if name not in skip and name != "traced.unit_ms":
                print(f"  {name:<32} {layers[name]:.6g} {unit}")
    if failures:
        print(f"  checks: {len(failures)} FAILED")
        for failure in failures[:20]:
            print(f"    {failure}")
    else:
        print("  checks: all passed")


# ---------------------------------------------------------------------------
# Every workload


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own subprocess, one after another."""
    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    documents = {}
    status = 0
    for name in WORKLOADS:
        out = OUT / f"{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out),
        ]
        if args.units:
            command += ["--units", str(args.units)]
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode == 2:
            return 2
        status = status or completed.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: {name} printed no result", file=sys.stderr)
            return 1
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
        documents[name] = json.loads(out.read_text())
    if args.out:
        Path(args.out).write_text(json.dumps(documents, indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with a traced per-layer split."
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="measure one workload in this process (default: every "
        "workload, each in its own subprocess)",
    )
    parser.add_argument("--seed", type=int, default=2017,
                        help="workload input seed (default 2017)")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="measuring time per workload on a 2-core box; sets the "
        f"number of rounds (default {RUN_SECONDS}, at least one round)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = report the per-layer split instead of the "
        "end-to-end metrics",
    )
    parser.add_argument(
        "--units", type=int, default=None,
        help="units per round (default: the workload's own size)",
    )
    parser.add_argument("--out", default=None,
                        help="write the raw per-round document here")
    args = parser.parse_args(argv)
    if args.units is not None and args.units < 1:
        parser.error("--units must be at least 1")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
