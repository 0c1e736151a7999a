"""Tests for the trace view of ``repro inspect``."""

import json

import pytest

from repro.cli import main
from repro.inspect import load_records, render_trace, summarize


def _records():
    return [
        {"kind": "phase.start", "phase": "trace"},
        {"kind": "probe.sent", "vp": "A", "dst": 1, "ttl": 2,
         "flow": 9, "probe": "traceroute"},
        {"kind": "cache.miss", "origin": "A", "dst": 1, "flow": 9},
        {"kind": "cache.hit", "origin": "A", "dst": 1, "flow": 9},
        {"kind": "cache.hit", "origin": "A", "dst": 1, "flow": 9},
        {"kind": "phase.end", "phase": "trace", "seconds": 0.5},
        {"kind": "probe.sent", "vp": "A", "dst": 2, "ttl": 2,
         "flow": 9, "probe": "ping"},
        {"kind": "revelation.verdict", "ingress": 1, "egress": 2,
         "method": "brpr", "revealed": 3},
        {"kind": "technique.verdict", "technique": "dpr",
         "success": True},
        {"kind": "technique.verdict", "technique": "dpr",
         "success": False},
        {"kind": "span", "name": "engine.walk", "span": 1,
         "parent": None, "ms": 2.0},
        {"kind": "span", "name": "engine.walk", "span": 2,
         "parent": None, "ms": 4.0},
    ]


def _inspect(path):
    return main(["inspect", "trace", str(path)])


class TestSummarize:
    def test_probes_bracketed_by_phase(self):
        summary = summarize(_records())
        assert summary["probes_per_phase"] == {
            "trace": 1, "(outside)": 1,
        }
        assert summary["phase_seconds"] == {"trace": 0.5}

    def test_cache_ratio_from_events(self):
        summary = summarize(_records())
        assert summary["cache"] == {
            "hits": 2, "misses": 1,
            "hit_ratio": pytest.approx(2 / 3),
        }

    def test_cache_falls_back_to_metrics_counters(self):
        records = [{
            "kind": "campaign.metrics",
            "counters": {
                "engine.trajectory_hits": 8,
                "engine.trajectory_misses": 2,
            },
        }]
        summary = summarize(records)
        assert summary["cache"]["hit_ratio"] == pytest.approx(0.8)

    def test_counters_sum_over_every_metrics_record(self):
        """A served stream closes one registry per session: the
        digest is the whole stream's, not the last session's."""
        records = [
            {
                "kind": "campaign.metrics",
                "tenant": tenant,
                "counters": {
                    "engine.trajectory_hits": 104,
                    "engine.trajectory_misses": 68,
                    "technique.combined.attempts": 4,
                },
            }
            for tenant in ("tenant-00", "tenant-01")
        ]
        summary = summarize(records)
        assert summary["cache"]["hits"] == 208
        assert summary["cache"]["misses"] == 136
        assert summary["techniques"] == {"combined": {"attempts": 8}}
        text = render_trace(summary)
        assert "208 hits / 136 misses" in text
        assert "combined.attempts                 8" in text

    def test_revelation_and_technique_outcomes(self):
        summary = summarize(_records())
        assert summary["revelation_methods"] == {"brpr": 1}
        assert summary["technique_verdicts"] == {
            "dpr": {"success": 1, "failure": 1},
        }

    def test_span_aggregation(self):
        summary = summarize(_records())
        assert summary["spans"]["engine.walk"] == {
            "count": 2, "total_ms": 6.0, "mean_ms": 3.0,
        }


class TestRenderAndMain:
    def test_render_mentions_every_section(self):
        text = render_trace(summarize(_records()))
        assert "Probes per phase" in text
        assert "72" not in text  # sanity: numbers come from input
        assert "66.7% hit ratio" in text
        assert "dpr          1/2 successful" in text

    def test_main_reads_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in _records()) + "\n"
            + "not json\n"
        )
        assert _inspect(path) == 0
        assert "Campaign trace summary" in capsys.readouterr().out

    def test_main_rejects_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert _inspect(path) == 1

    def test_empty_file_still_prints_zero_record_summary(
        self, tmp_path, capsys
    ):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        _inspect(path)
        captured = capsys.readouterr()
        assert "Campaign trace summary" in captured.out
        assert "no probe.sent events" in captured.out
        assert "no records found" in captured.err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "does-not-exist.jsonl"
        assert _inspect(path) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_and_non_object_lines_are_skipped(
        self, tmp_path, capsys
    ):
        path = tmp_path / "trunc.jsonl"
        path.write_text(
            json.dumps({"kind": "probe.sent"}) + "\n"
            + "42\n"                      # JSON, but not an object
            + '"stray string"\n'
            + '[1, 2, 3]\n'
            + '{"kind": "phase.sta'       # truncated mid-write
        )
        assert _inspect(path) == 0
        summary = summarize(load_records(str(path)))
        assert summary["probes_per_phase"] == {"(outside)": 1}
