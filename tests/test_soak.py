"""Tests for the soak harness in ``tools/soak.py``."""

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "soak.py"


@pytest.fixture(scope="module")
def soak():
    spec = importlib.util.spec_from_file_location("soak", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(out, command):
    with open(out / f"{command}-soak.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_campaign_rerun_into_the_same_out(tmp_path):
    # Each run keeps its warehouses in a fresh directory, so a second
    # run never resumes into the first run's snapshots.
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(_TOOL), "campaign", "--quick",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert _report(tmp_path, "campaign")["ok"] is True
    assert len(list(tmp_path.glob("campaign-warehouses-*"))) == 2


@pytest.mark.parametrize(
    "flag",
    ["--snapshots", "--tenants", "--probe-budget", "--max-targets",
     "--max-active", "--vantage-points"],
)
def test_serve_rejects_sizes_below_one(soak, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        soak.parse_args(["serve", flag, "0"])
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    ["serve --scale 0", "fleet --scale 0", "fleet --restart-budget -1",
     "fleet --epoch-deadline 0"],
)
def test_rejects_out_of_range_numbers(soak, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        soak.parse_args(argv.split())
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_serve_smoke(soak, tmp_path):
    assert soak.main(
        ["serve", "--tenants", "2", "--snapshots", "1",
         "--out", str(tmp_path)]
    ) == 0
    report = _report(tmp_path, "serve")
    assert report["ok"] is True
    assert report["completed"] == 2
    assert report["verified_standalone"] == 1
    assert report["registry"]["renders"] == 1
    events = (tmp_path / "serve-events.jsonl").read_text().splitlines()
    assert json.loads(events[-1])["kind"] == "serve.metrics"


def test_identity_check_reports_a_changed_result(
    soak, tmp_path, monkeypatch
):
    run_standalone = soak.run_standalone

    def perturbed(spec):
        result, metrics = run_standalone(spec)
        return replace(result, probes_sent=result.probes_sent + 1), metrics

    monkeypatch.setattr(soak, "run_standalone", perturbed)
    assert soak.main(
        ["serve", "--tenants", "1", "--snapshots", "1",
         "--out", str(tmp_path)]
    ) == 1
    report = _report(tmp_path, "serve")
    assert report["ok"] is False
    assert report["failures"] == [
        "soak-00: served vs standalone: result differs in probes_sent"
    ]
