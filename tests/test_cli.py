"""Tests for the command-line interface."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXPERIMENTS, main

#: The source root a child ``python -m repro.cli`` imports from.
_SOURCE = str(Path(repro.__file__).resolve().parents[1])


class TestEmulate:
    def test_backward_recursive_transcript(self, capsys):
        assert main(["emulate", "backward-recursive"]) == 0
        out = capsys.readouterr().out
        assert "PE1.left" in out
        assert "P1.left" not in out  # tunnel hidden

    def test_default_shows_labels(self, capsys):
        main(["emulate", "default"])
        out = capsys.readouterr().out
        assert "MPLS Label" in out

    def test_custom_target(self, capsys):
        main(["emulate", "explicit-route", "--target", "PE2.left"])
        out = capsys.readouterr().out
        assert "P2.left" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["emulate", "bogus"])


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "<255, 255>" in out

    def test_fig11(self, capsys):
        assert main(["experiment", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "path length" in out.lower()

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestList:
    def test_lists_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identifier in EXPERIMENTS:
            assert identifier in out
        assert len(EXPERIMENTS) == 17  # 15 paper artefacts + graphs + tnt


class TestCampaign:
    def test_campaign_prints_tables_and_saves(self, capsys, tmp_path):
        path = tmp_path / "dataset.json"
        code = main(["campaign", "--save", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tunnels revealed" in out
        assert "Table 4" in out
        assert "Table 5" in out
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert document["traces"]


class TestServe:
    def test_serve_multi_tenant_summary(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        code = main([
            "serve", "--tenants", "4", "--snapshots", "2",
            "--scale", "0.3", "--seed", "11",
            "--vantage-points", "3", "--stubs-per-transit", "2",
            "--max-targets", "4", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant-00" in out and "tenant-03" in out
        assert "2 rendered" in out
        document = json.loads(path.read_text())
        assert document["registry"]["renders"] == 2
        assert document["registry"]["builds_avoided"] == 2
        assert len(document["scheduler"]) == 4

    def test_serve_rejects_bad_weights(self, capsys):
        assert main(["serve", "--weights", "fast,slow"]) == 2

    def test_serve_rejects_non_finite_weights(self):
        # In a child process under a timeout: a NaN weight that slips
        # through stalls the scheduler instead of failing.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--tenants", "2",
             "--snapshots", "1", "--max-targets", "2",
             "--weights", "nan,1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": _SOURCE},
        )
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr

    def test_serve_rejects_mutating_profile(self, capsys):
        assert main(
            ["serve", "--tenants", "1", "--fault-profile", "flap"]
        ) == 2


class TestConfigs:
    def test_single_router_config(self, capsys):
        assert main(
            ["configs", "totally-invisible", "--router", "PE2"]
        ) == 0
        out = capsys.readouterr().out
        assert "hostname PE2" in out
        assert "mpls ldp explicit-null" in out

    def test_whole_testbed(self, capsys):
        assert main(["configs", "backward-recursive"]) == 0
        out = capsys.readouterr().out
        assert "### PE1" in out
        assert "### CE2" in out
        assert "no mpls ip propagate-ttl" in out


class TestExport:
    def test_export_writes_csvs(self, capsys, tmp_path):
        assert main(["export", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig07_rfa_pdf.csv" in out
        assert (tmp_path / "fig05_ftl_pdf.csv").exists()


class TestCampaignOptions:
    def test_scale_flag(self, capsys):
        assert main(
            ["campaign", "--scale", "0.4", "--seed", "123",
             "--vantage-points", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out

    @pytest.mark.parametrize("argv", [
        "campaign --scale 0.3 --probe-budget -5",
        "chaos --probe-budget 0",
        "campaign --scale 0",
        "campaign --scale nan",
        "campaign --vantage-points 0",
        "campaign --max-retries -1",
        "campaign --breaker-threshold -1",
        "monitor --warehouse {wh} --scale 0.3 --epochs 1 --probe-budget -1",
        "monitor --warehouse {wh} --epochs 0",
        "fleet --warehouse {wh} --vantage-points 0",
        "fleet --warehouse {wh} --chains 0",
        "fleet --warehouse {wh} --restart-budget -1",
        "fleet --warehouse {wh} --epoch-deadline 0",
        "fleet --warehouse {wh} --backoff-base-ms -5",
        "fleet --warehouse {wh} --backoff-base-ms nan",
        "fleet --warehouse {wh} --alert-factor 0",
        "fleet --warehouse {wh} --alert-factor inf",
        "fleet --warehouse {wh} --alert-min-events -1",
        "serve --tenants 0",
        "serve --snapshots 0",
        "serve --probe-budget 0",
        "serve --max-active 0",
        "serve --max-targets 0",
        "serve --stubs-per-transit 0",
        "experiment table4 --scale -1",
    ])
    def test_out_of_range_numbers_exit_two(self, capsys, tmp_path, argv):
        args = shlex.split(argv.format(wh=tmp_path / "wh"))
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "must be" in capsys.readouterr().err


class TestCampaignCheckpoint:
    def test_checkpoint_resume_and_diff(self, capsys, tmp_path):
        warehouse = tmp_path / "warehouse"
        args = ["campaign", "--scale", "0.5", "--seed", "11"]
        assert main(
            args + ["--probe-budget", "400",
                    "--checkpoint", str(warehouse)]
        ) == 0
        out = capsys.readouterr().out
        assert "PARTIAL RUN" in out
        assert "snapshot:" in out
        assert f"--resume {warehouse}" in out

        assert main(args + ["--resume", str(warehouse)]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL RUN" not in out
        assert "snapshot:" in out

        diff_json = tmp_path / "diff.json"
        assert main(
            ["diff", str(warehouse), str(warehouse),
             "--json", str(diff_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "Tunnel churn" in out
        document = json.loads(diff_json.read_text())
        assert document["schema"] == "repro.store.diff/1"
        assert document["summary"]["appeared"] == 0
        assert document["summary"]["unchanged"] > 0

    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "--scale", "0.3", "--seed", "11"],
            ["chaos", "--scale", "0.4"],
        ],
        ids=["clean", "chaos"],
    )
    def test_printed_resume_hint_resumes(self, capsys, tmp_path,
                                         command):
        warehouse = str(tmp_path / "warehouse")
        assert main(
            command + ["--probe-budget", "200", "--checkpoint", warehouse]
        ) == 0
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("PARTIAL RUN")
        ]
        hint = line.split("resume with: ", 1)[1]
        assert main(shlex.split(hint)[1:]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL RUN" not in out
        assert "snapshot:" in out

    def test_resume_without_warehouse_fails(self, capsys, tmp_path):
        code = main(
            ["campaign", "--scale", "0.5", "--seed", "11",
             "--resume", str(tmp_path / "nowhere")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_rejects_empty_directory(self, capsys, tmp_path):
        assert main(["diff", str(tmp_path), str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_and_resume_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["campaign", "--checkpoint", "a", "--resume", "b"]
            )
        capsys.readouterr()

    def test_recording_a_resumed_run_is_refused(self, capsys, tmp_path):
        # A resumed run probes only the remainder, so its log could
        # never be replayed from the start.
        warehouse = str(tmp_path / "warehouse")
        args = ["campaign", "--scale", "0.3", "--vantage-points", "3"]
        assert main(
            args + ["--probe-budget", "300", "--checkpoint", warehouse]
        ) == 0
        capsys.readouterr()
        log = tmp_path / "tail.jsonl"
        assert main(
            args + ["--resume", warehouse, "--record", str(log)]
        ) == 2
        assert "error:" in capsys.readouterr().err
        assert not log.exists()

    def test_replay_miss_exits_two(self, capsys, tmp_path):
        log = str(tmp_path / "partial.jsonl")
        args = ["campaign", "--scale", "0.3", "--vantage-points", "3"]
        assert main(
            args + ["--probe-budget", "300", "--record", log]
        ) == 0
        capsys.readouterr()
        assert main(args + ["--replay", log]) == 2
        assert "error: probe log" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,name,content", [
        ("--replay", "missing.jsonl", None),
        ("--replay", "notes.txt", "not json\n"),
        ("--replay", "future.jsonl", '{"schema": "repro.probelog/99"}\n'),
        ("--replay", "fields.jsonl", '{"dst": 1}\n'),
        ("--record", "no-such-dir/log.jsonl", None),
    ], ids=[
        "replay-missing", "replay-not-json", "replay-wrong-schema",
        "replay-not-entries", "record-missing-dir",
    ])
    def test_unusable_probe_log_exits_two(
        self, capsys, tmp_path, flag, name, content
    ):
        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        code = main(
            ["campaign", "--scale", "0.3", "--vantage-points", "3",
             flag, str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert "Traceback" not in err


class TestChaosAlias:
    def test_alias_matches_campaign_with_fault_profile(
        self, capsys, tmp_path
    ):
        topology = ["--scale", "0.4", "--seed", "11",
                    "--vantage-points", "3"]
        alias = tmp_path / "alias.json"
        canonical = tmp_path / "canonical.json"
        assert main(
            ["chaos", "--profile", "hostile", "--json", str(alias)]
            + topology
        ) == 0
        assert main(
            ["campaign", "--fault-profile", "hostile",
             "--max-retries", "1", "--breaker-threshold", "3",
             "--json", str(canonical)]
            + topology
        ) == 0
        out = capsys.readouterr().out
        assert "faults injected:" in out
        assert alias.read_bytes() == canonical.read_bytes()
        assert json.loads(alias.read_text())["profile"] == "hostile"

    def test_lists_fault_profiles(self, capsys):
        assert main(["campaign", "--list"]) == 0
        listing = capsys.readouterr().out
        assert main(["chaos", "--list"]) == 0
        assert capsys.readouterr().out == listing
        assert "hostile" in listing

    def test_unknown_profile_exits_two(self, capsys):
        assert main(["chaos", "--profile", "no-such"]) == 2
        assert "error:" in capsys.readouterr().err


class TestHashSeedContract:
    def test_dataset_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Set and dict iteration order over strings follows the hash
        # seed; a saved dataset must not.
        datasets = []
        for hash_seed in ("0", "12345"):
            path = tmp_path / f"dataset-{hash_seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "campaign",
                 "--scale", "0.3", "--seed", "2017",
                 "--fault-profile", "hostile", "--vantage-points", "3",
                 "--save", str(path)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": _SOURCE,
                     "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            datasets.append(path.read_bytes())
        assert datasets[0] == datasets[1]
