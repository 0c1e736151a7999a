#!/usr/bin/env python3
"""Run the simulator perf benches and write ``BENCH_perf.json``.

Executes ``benchmarks/test_simulator_performance.py`` under
pytest-benchmark, collects ops/sec and mean latency per bench, and
writes them to ``BENCH_perf.json`` at the repository root — the
baseline ``tools/bench_guard.py`` compares fresh micro-bench runs
against.  End-to-end numbers come from ``bench/run.py``, which repeats
every run and reports its spread.

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


def main() -> int:
    """Run the benches and write the JSON snapshot."""
    output = Path(
        sys.argv[1] if len(sys.argv) > 1 else REPO_ROOT / "BENCH_perf.json"
    )
    snapshot = {"benches": run_benches()}
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {output}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
