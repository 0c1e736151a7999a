"""Golden tests for the artefact inspector.

Each golden under ``tests/golden/inspect/`` is one view's stdout over
a fixed artefact; warehouse roots are replaced by ``<warehouse>`` so
the files hold no temporary paths.
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "inspect"


def _view(*argv):
    """``(exit code, stdout, stderr)`` of ``repro inspect ARGV``;
    argparse errors report their ``SystemExit`` code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["inspect", *map(str, argv)])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _golden(view, path, name, *flags):
    code, out, err = _view(view, *flags, path)
    assert code == 0, err
    assert out.replace(str(path), "<warehouse>") == (
        GOLDEN / name
    ).read_text()


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def campaign_warehouse(tmp_path_factory):
    """A budget-interrupted campaign's warehouse (one partial
    snapshot)."""
    warehouse = tmp_path_factory.mktemp("campaign") / "wh"
    _quiet([
        "campaign", "--scale", "0.3", "--seed", "11",
        "--probe-budget", "300", "--checkpoint", str(warehouse),
    ])
    return warehouse


@pytest.fixture(scope="module")
def monitor_run(tmp_path_factory):
    """A 3-epoch ``steady`` chain: (warehouse, --json path, stdout)."""
    root = tmp_path_factory.mktemp("monitor")
    warehouse, document = root / "mw", root / "timeline.json"
    stdout = _quiet([
        "monitor", "--warehouse", str(warehouse), "--epochs", "3",
        "--churn-profile", "steady", "--vantage-points", "3",
        "--stubs-per-transit", "2", "--json", str(document),
    ])
    return warehouse, document, stdout


class TestGolden:
    def test_trace(self):
        _golden("trace", GOLDEN / "trace.jsonl", "trace.txt")

    def test_trace_faults(self):
        _golden(
            "trace", GOLDEN / "trace.jsonl", "trace-faults.jsonl",
            "--faults",
        )

    def test_timeline_document_with_lifecycles(self):
        _golden(
            "timeline", GOLDEN / "timeline-events.json",
            "timeline-events.txt",
        )

    def test_store_of_interrupted_campaign(self, campaign_warehouse):
        _golden("store", campaign_warehouse, "campaign-store.txt")

    def test_store_of_monitor_chain(self, monitor_run):
        _golden("store", monitor_run[0], "monitor-store.txt")

    def test_timeline_of_monitor_warehouse(self, monitor_run):
        _golden("timeline", monitor_run[0], "monitor-timeline.txt")

    def test_timeline_of_monitor_document(self, monitor_run):
        _golden("timeline", monitor_run[1], "monitor-timeline-json.txt")


def test_monitor_prints_the_inspector_timeline(monitor_run):
    """``repro monitor`` and ``repro inspect timeline`` share one
    renderer: the block monitor prints is the document's view."""
    _, document, stdout = monitor_run
    code, out, _ = _view("timeline", document)
    assert code == 0
    start = stdout.index("# Monitor timeline")
    assert stdout[start:stdout.index("timeline written to")] == out


@pytest.mark.parametrize(
    "argv, code, printed",
    [
        ([], 2, ""),
        (["trace", "{tmp}/missing.jsonl"], 2, ""),
        (["trace", "{tmp}/empty.jsonl"], 1, "no probe.sent events"),
        (["store", "{tmp}"], 1, ""),
        (["timeline", "{tmp}/empty.jsonl"], 1, ""),
    ],
    ids=[
        "no-view", "missing-trace", "empty-trace", "no-snapshots",
        "not-a-timeline",
    ],
)
def test_exit_codes(tmp_path, argv, code, printed):
    (tmp_path / "empty.jsonl").write_text("")
    got, out, _ = _view(*(arg.format(tmp=tmp_path) for arg in argv))
    assert got == code
    assert printed in out
