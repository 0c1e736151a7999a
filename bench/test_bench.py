"""Tests for the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import HARNESS, LAYERS, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClocks:
    """Per-thread wall and CPU clocks the test sets by hand."""

    def __init__(self) -> None:
        self.wall = {}
        self.cpu = {}

    def set(self, wall: float, cpu: float = None) -> None:
        ident = threading.get_ident()
        self.wall[ident] = wall
        self.cpu[ident] = wall / 2 if cpu is None else cpu

    def recorder(self) -> SpanRecorder:
        return SpanRecorder(
            keep_units=["u"],
            clock=lambda: self.wall[threading.get_ident()],
            cpu_clock=lambda: self.cpu[threading.get_ident()],
        )


def _span(clocks, recorder, layer, start, end, body=None):
    clocks.set(start)
    recorder.enter(layer, layer)
    if body is not None:
        body()
    clocks.set(end)
    recorder.leave()


def test_nested_and_sibling_self_time():
    clocks = FakeClocks()
    recorder = clocks.recorder()
    recorder.unit = "u"

    def root_body():
        _span(clocks, recorder, "dataplane", 2, 5, lambda: _span(
            clocks, recorder, "routing", 3, 4))
        _span(clocks, recorder, "measure", 6, 9)

    _span(clocks, recorder, HARNESS, 0, 10, root_body)
    layers = recorder.layer_totals()
    assert layers[HARNESS][0] == pytest.approx(4)
    assert layers["dataplane"][0] == pytest.approx(2)
    assert layers["routing"][0] == pytest.approx(1)
    assert layers["measure"][0] == pytest.approx(3)
    # CPU runs at half the wall clock, so half of every self time waits.
    assert layers["dataplane"][1] == pytest.approx(1)
    assert recorder.root_seconds() == pytest.approx(10)
    assert sum(row[0] for row in layers.values()) == pytest.approx(10)
    names = recorder.name_totals()
    assert names["dataplane"] == (1, pytest.approx(3))
    kept = {span[5]: span for span in recorder.kept}
    assert kept["routing"][1] == kept["dataplane"][0]  # parent id
    assert all(span[2] == "u" for span in recorder.kept)


def test_two_thread_spans_keep_separate_stacks():
    clocks = FakeClocks()
    recorder = clocks.recorder()
    started = threading.Event()
    finish = threading.Event()

    def worker():
        recorder.bind_unit("u")
        clocks.set(0)
        recorder.enter("serve", "serve")
        started.set()
        finish.wait(5)
        _span(clocks, recorder, "dataplane", 1, 3)
        clocks.set(6)
        recorder.leave()

    thread = threading.Thread(target=worker)
    thread.start()
    assert started.wait(5)
    # The main thread's span opens while the worker's is still open: it
    # must be a root of its own, not the worker's child.
    _span(clocks, recorder, "campaign", 0, 10)
    finish.set()
    thread.join(5)
    assert not thread.is_alive()
    layers = recorder.layer_totals()
    assert layers["campaign"][0] == pytest.approx(10)
    assert layers["serve"][0] == pytest.approx(4)
    assert layers["dataplane"][0] == pytest.approx(2)
    assert recorder.root_seconds() == pytest.approx(16)
    assert [span[5] for span in recorder.kept] == ["dataplane", "serve"]


def test_percentile_rule():
    assert run.tail_percentile([1.0] * 99) is None
    values = [float(value) for value in range(100)]
    assert run.tail_percentile(values) == statistics.quantiles(
        values, n=10
    )[8]


def test_benchmark_json_is_self_consistent():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in spec["workloads"])
    assert [w["why"] for w in spec["workloads"]] == [
        workload.why for workload in WORKLOADS.values()
    ]
    end_to_end = spec["end_to_end"]
    per_layer = spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert [(m["name"], m["unit"]) for m in end_to_end] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in per_layer] == list(
        run.PER_LAYER
    )
    every = names + [m["name"] for m in end_to_end + per_layer]
    assert len(set(every)) == len(every)
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    assert {f"{layer}.self_share" for layer in LAYERS} <= {
        m["name"] for m in per_layer
    }


def _smoke(trace: int):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0",
         "--units", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().split("\n")[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def test_smoke_every_workload_untraced():
    result = _smoke(0)
    assert result["attempted"] == 2 * len(WORKLOADS)
    expected = {
        f"{workload}/{name}" for workload in WORKLOADS
        for name, _ in run.END_TO_END
    }
    assert set(result["metrics"]) == expected
    assert all(
        metric["value"] > 0 for metric in result["metrics"].values()
    )


def test_smoke_every_workload_traced():
    result = _smoke(1)
    expected = {
        f"{workload}/{name}" for workload in WORKLOADS
        for name, _ in run.PER_LAYER
    }
    assert set(result["metrics"]) == expected
    for workload in WORKLOADS:
        metrics = result["metrics"]
        assert metrics[f"{workload}/tracing.layer_sum_error"]["value"] <= (
            run.LAYER_SUM_TOLERANCE
        )
        assert metrics[f"{workload}/unattributed.share"]["value"] < (
            run.UNATTRIBUTED_LIMIT
        )
        assert (BENCH / "out" / f"{workload}.spans.jsonl").stat().st_size


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign-cold",
         "--seconds", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
