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

By default the scalar traceroute hot path, its cold-cache variant and
the RSVP-TE steering path are guarded; pass ``--bench`` to guard more.
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


def fresh_means(payload: dict) -> dict:
    """name -> mean microseconds from a pytest-benchmark export."""
    return {
        bench["name"]: bench["stats"]["mean"] * 1e6
        for bench in payload.get("benchmarks", ())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "results", type=Path,
        help="fresh pytest-benchmark JSON export",
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
    args = parser.parse_args(argv)

    snapshot = json.loads(args.baseline.read_text())
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
