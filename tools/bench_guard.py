#!/usr/bin/env python3
"""Fail CI when a perf bench regresses past the committed baseline.

Compares a fresh pytest-benchmark JSON export against the means
recorded in the checked-in ``BENCH_perf.json`` snapshot.  A bench
whose fresh mean exceeds the committed mean by more than the
tolerance fails the run; benches missing on either side are reported
but do not fail (CI machines differ, new benches have no baseline
yet).

Usage::

    python tools/bench_guard.py bench-perf.json \
        [--baseline BENCH_perf.json] [--tolerance 0.25] \
        [--bench test_perf_full_traceroute_uncached ...]
    python tools/bench_guard.py --monitor
    python tools/bench_guard.py --fleet

By default the scalar traceroute hot path, its cold-cache variant and
the RSVP-TE steering path are guarded; pass ``--bench`` to guard more.  ``--monitor``
validates the committed ``monitor_incremental_speedup`` section
instead of (or in addition to) the bench means, and ``--fleet`` the
committed ``fleet_throughput``/``fleet_recovery`` sections (shared
render, crash-recovery byte-identity, sane recovery overhead).
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benches guarded when ``--bench`` is not given: the scalar hot path
#: every other bench builds on, the cold-cache trace that pays every
#: probe build and reply walk, and the RSVP-TE steering path layered
#: on top of them.
DEFAULT_BENCHES = (
    "test_perf_full_traceroute_uncached",
    "test_perf_full_traceroute_cold",
    "test_perf_full_traceroute_te",
)


def check_monitor(section) -> list:
    """Validate the ``monitor_incremental_speedup`` invariants.

    The committed section must show the incremental path actually
    carrying pairs, spending fewer probes than the full arm, and —
    the safety contract — producing byte-identical tunnel
    inventories.  Returns failure strings (empty = ok).
    """
    if not isinstance(section, dict):
        return ["no monitor_incremental_speedup section in baseline"]
    failures = []
    if not section.get("tunnels_identical"):
        failures.append(
            "tunnels_identical is false: incremental epochs diverged "
            "from full re-campaigns"
        )
    if not section.get("pairs_carried"):
        failures.append("pairs_carried is 0: nothing was skipped")
    ratio = section.get("probe_ratio")
    if ratio is None or ratio >= 1.0:
        failures.append(
            f"probe_ratio {ratio!r} is not < 1.0: no probe saving"
        )
    if not failures:
        print(
            "  ok monitor_incremental_speedup: "
            f"{section.get('pairs_carried')} pairs carried, "
            f"probe ratio {ratio}, inventories identical"
        )
    return failures


def check_fleet(throughput, recovery) -> list:
    """Validate the committed fleet bench sections.

    ``fleet_throughput`` must show one shared render feeding every
    chain checkout; ``fleet_recovery`` must show the crash storm
    actually killing and restarting chains while the folded document
    stays byte-identical, at a recovery overhead that is a
    multiplier, not an explosion.  Returns failure strings.
    """
    failures = []
    if not isinstance(throughput, dict):
        failures.append("no fleet_throughput section in baseline")
        throughput = {}
    if not isinstance(recovery, dict):
        failures.append("no fleet_recovery section in baseline")
        recovery = {}
    if throughput:
        if throughput.get("renders") != 1:
            failures.append(
                f"fleet rendered {throughput.get('renders')!r} "
                "internets; the shared-render contract is exactly 1"
            )
        if (throughput.get("checkouts") or 0) < (
            throughput.get("chains") or 0
        ):
            failures.append(
                "fewer checkouts than chains: copy-on-churn twins "
                "are not per-chain"
            )
        if throughput.get("grade") != "high":
            failures.append(
                f"clean fleet graded {throughput.get('grade')!r}, "
                "expected 'high'"
            )
    if recovery:
        if not recovery.get("doc_identical"):
            failures.append(
                "doc_identical is false: the crashed fleet's "
                "aggregate diverged from the unfailed fleet's"
            )
        if not recovery.get("restarts"):
            failures.append(
                "restarts is 0: the crash storm never restarted "
                "anything"
            )
        overhead = recovery.get("recovery_overhead")
        if overhead is None or overhead > 6.0:
            failures.append(
                f"recovery_overhead {overhead!r} is not a sane "
                "multiplier (expected <= 6.0)"
            )
    if not failures:
        print(
            "  ok fleet: 1 render / "
            f"{throughput.get('checkouts')} checkouts, "
            f"{recovery.get('restarts')} restarts recovered at "
            f"{recovery.get('recovery_overhead')}x, aggregate "
            "byte-identical"
        )
    return failures


def fresh_means(payload: dict) -> dict:
    """name -> mean microseconds from a pytest-benchmark export."""
    return {
        bench["name"]: bench["stats"]["mean"] * 1e6
        for bench in payload.get("benchmarks", ())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "results", type=Path, nargs="?",
        help="fresh pytest-benchmark JSON export (optional with "
        "--monitor)",
    )
    parser.add_argument(
        "--baseline", type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="committed snapshot to compare against",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression (0.25 = 25%%)",
    )
    parser.add_argument(
        "--bench", action="append", default=None,
        help="bench name to guard (repeatable); defaults to the "
        "scalar traceroute hot path",
    )
    parser.add_argument(
        "--monitor", action="store_true",
        help="also validate the committed "
        "monitor_incremental_speedup section (carried pairs, probe "
        "saving, inventory identity)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="also validate the committed fleet_throughput/"
        "fleet_recovery sections (shared render, crash-recovery "
        "byte-identity, sane overhead)",
    )
    args = parser.parse_args(argv)

    snapshot = json.loads(args.baseline.read_text())
    if args.monitor:
        failures = check_monitor(
            snapshot.get("monitor_incremental_speedup")
        )
        if failures:
            print(
                "monitor guard: " + "; ".join(failures)
            )
            return 1
    if args.fleet:
        failures = check_fleet(
            snapshot.get("fleet_throughput"),
            snapshot.get("fleet_recovery"),
        )
        if failures:
            print("fleet guard: " + "; ".join(failures))
            return 1
    if args.results is None:
        if args.monitor or args.fleet:
            return 0
        parser.error("results export required unless --monitor/--fleet")

    baseline = snapshot.get("benches", {})
    means = fresh_means(json.loads(args.results.read_text()))
    guarded = args.bench or list(DEFAULT_BENCHES)

    failures = []
    for name in guarded:
        base = baseline.get(name, {}).get("mean_us")
        mean = means.get(name)
        if base is None or mean is None:
            print(f"SKIP {name}: no {'baseline' if base is None else 'fresh'} mean")
            continue
        limit = base * (1.0 + args.tolerance)
        verdict = "FAIL" if mean > limit else "ok"
        print(
            f"{verdict:>4} {name}: mean {mean:.2f}us vs baseline "
            f"{base:.2f}us (limit {limit:.2f}us)"
        )
        if mean > limit:
            failures.append(name)

    if failures:
        print(
            f"perf guard: {len(failures)} bench(es) regressed more "
            f"than {args.tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
