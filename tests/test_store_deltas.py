"""Checkpoint records cost what changed since the previous record.

``CampaignCheckpoint`` exports the response cache, label bindings,
quarantine log and measurement counters as deltas.  The differential
property test drives a real :class:`ProbeService` and
:class:`LabelAllocator` through random interleavings of inserts,
flushes, allocations and quarantine appends, and compares every
record's deltas with a reference copy of the full-diff rule the store
used before (scan and diff the whole state on every record).  The
chain tests fold the counter deltas back into the cumulative counters
and resume twice from inside the revelation phase.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.measure import (
    ECHO_REPLY,
    MeasurementPolicy,
    ProbeBackend,
    ProbeReply,
    ProbeService,
)
from repro.measure.backend import reply_to_wire
from repro.mpls.labels import LabelAllocator
from repro.net.addressing import Prefix
from repro.experiments.common import CampaignContext, ContextConfig
from repro.obs import Obs, measurement_counters
from repro.serve.registry import TopologySpec
from repro.store import (
    PHASES,
    RESUME_EXEMPT_COUNTERS,
    CampaignCheckpoint,
    CampaignStore,
    StoreMismatch,
    fold_state,
)
from repro.store.layout import read_phase_records, rewrite_records
from repro.store.warehouse import Snapshot


class _CountingBackend(ProbeBackend):
    """Echo-replies everything; each reply's RTT is its submission
    number, so an overwritten cache entry is visible in the export."""

    name = "counting"

    def __init__(self):
        self.obs = Obs()
        self.sent = 0

    def submit(self, request):
        self.sent += 1
        return ProbeReply(
            probe_ttl=request.ttl,
            reply_kind=ECHO_REPLY,
            responder=request.dst,
            reply_ttl=250,
            rtt_ms=float(self.sent),
        )


class _FullDiff:
    """The full-diff export rule, kept as the reference: rescan the
    whole cache, binding table and quarantine log on every record."""

    def __init__(self, service, allocator):
        self.service = service
        self.allocator = allocator
        self.cache_known = frozenset(service._cache)
        self.labels_known = len(allocator)
        self.quarantine_known = len(service.quarantine_records)

    def record(self):
        cache = self.service._cache
        keys = frozenset(cache)
        cache_flushed = bool(self.cache_known - keys)
        if cache_flushed:
            self.cache_known = frozenset()
        cache_added = [
            {
                "key": list(key),
                "probe_ttl": cache[key].probe_ttl,
                "reply": reply_to_wire(cache[key]),
            }
            for key in sorted(k for k in cache if k not in self.cache_known)
        ]
        if cache_added:
            self.cache_known = keys
        quarantine = self.service.quarantine_records
        quarantine_added = [
            dict(record) for record in quarantine[self.quarantine_known:]
        ]
        self.quarantine_known = len(quarantine)
        labels_added = []
        for position, ((router, fec), label) in enumerate(
            self.allocator._bindings.items()
        ):
            if position < self.labels_known:
                continue
            if isinstance(fec, Prefix):
                labels_added.append([router, fec.network, fec.length, label])
            else:
                labels_added.append([router, *fec, label])
        self.labels_known = len(self.allocator)
        return {
            "cache_added": cache_added,
            "cache_flushed": cache_flushed,
            "labels_added": labels_added,
            "quarantine_added": quarantine_added,
        }


def _bound_checkpoint(service, allocator):
    """A checkpoint bound to a bare service and allocator, the way
    ``begin`` binds it to a campaign."""
    checkpoint = CampaignCheckpoint("unused")
    checkpoint._campaign = SimpleNamespace(
        service=service,
        prober=SimpleNamespace(engine=SimpleNamespace(labels=allocator)),
    )
    checkpoint._result = SimpleNamespace(probes_sent=0, revelation_probes=0)
    checkpoint._obs = service.obs
    checkpoint._mark_deltas()
    return checkpoint


def _deltas(checkpoint):
    state = checkpoint._state_block()
    return {
        "cache_added": state["cache_added"],
        "cache_flushed": state.get("cache_flushed", False),
        "labels_added": state["labels_added"],
        "quarantine_added": state["quarantine_added"],
    }


_dsts = st.integers(min_value=1, max_value=6)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_dsts, min_size=1, max_size=4)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("ldp"), st.sampled_from("PQR"), _dsts),
        st.tuples(st.just("te"), st.sampled_from("PQR"), _dsts),
        st.tuples(st.just("quarantine"), st.integers(1, 3)),
        st.tuples(st.just("record")),
    ),
    max_size=40,
)


def _apply(service, allocator, operation):
    kind = operation[0]
    if kind == "insert":
        # A repeated destination is served from the entry its first
        # ping cached (a hit, not a second insert).
        for dst in operation[1]:
            service.ping_probe("vp", dst, 7, 255)
    elif kind == "flush":
        service.flush_cache()
    elif kind == "ldp":
        allocator.binding(operation[1], Prefix(operation[2] << 8, 24))
    elif kind == "te":
        allocator.binding(operation[1], ("te", f"tunnel-{operation[2]}"))
    else:
        service.import_quarantine(
            [{"reason": "spoofed", "dst": n} for n in range(operation[1])]
        )


class TestDeltaExports:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(warmup=_operations, operations=_operations)
    # A flush, then the same keys again before the next record.
    @example(
        warmup=[("insert", [1, 2]), ("record",)],
        operations=[("flush",), ("insert", [2, 1]), ("record",)],
    )
    # A subset re-inserted after the flush: the record must flush.
    @example(
        warmup=[("insert", [1, 2, 3]), ("record",)],
        operations=[("flush",), ("insert", [3, 4]), ("record",)],
    )
    # Flushes of an empty cache, and two flushes between records.
    @example(
        warmup=[("flush",)],
        operations=[
            ("flush",), ("record",), ("insert", [5, 5]), ("flush",),
            ("insert", [5]), ("flush",), ("insert", [6]), ("record",),
        ],
    )
    def test_every_record_matches_the_full_diff(self, warmup, operations):
        service = ProbeService(
            _CountingBackend(), policy=MeasurementPolicy(cache_mode="ping")
        )
        allocator = LabelAllocator()
        # State from before the run: the deltas start after it.
        for operation in warmup:
            if operation[0] != "record":
                _apply(service, allocator, operation)
        checkpoint = _bound_checkpoint(service, allocator)
        reference = _FullDiff(service, allocator)
        for operation in operations + [("record",)]:
            if operation[0] == "record":
                assert _deltas(checkpoint) == reference.record()
            else:
                _apply(service, allocator, operation)


# ---------------------------------------------------------------------------
# Counter deltas: the fold of a record prefix is the cumulative counters

#: The chaos suite's small-but-complete campaign: every phase runs and
#: revelations happen under every profile.
TOPOLOGY = TopologySpec(
    scale=0.4, seed=11, vantage_points=3, stubs_per_transit=2
)


def _context(profile, probe_budget=None, checkpoint_dir=None,
             resume=False):
    return CampaignContext(
        ContextConfig(
            fault_profile=profile,
            probe_budget=probe_budget,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            topology=TOPOLOGY,
            max_retries=1,
            breaker_threshold=3,
        )
    )


def _measured(context):
    return measurement_counters(
        context.campaign.obs.metrics.counters_snapshot()
    )


def _chain(warehouse):
    """Every record of the warehouse's one snapshot, in seq order."""
    (snapshot,) = CampaignStore(warehouse).snapshots()
    records = [
        record for phase in PHASES for record in snapshot.records(phase)
    ]
    assert [record["seq"] for record in records] == list(
        range(len(records))
    )
    return records


@pytest.fixture(scope="module", params=["hostile", "flap"])
def uninterrupted(request):
    """``(profile, context)`` of an uninterrupted faulty run."""
    return request.param, _context(request.param)


class TestCounterDeltaChain:
    def test_fold_of_every_prefix_is_the_cumulative_snapshot(
        self, uninterrupted, tmp_path, monkeypatch
    ):
        """Folding records ``0..k`` gives the cumulative measurement
        counters the registry held when record ``k`` was built (what
        ``repro.store/1`` wrote into every record)."""
        profile, _ = uninterrupted
        cumulative = []
        state_block = CampaignCheckpoint._state_block

        def spy(checkpoint):
            counters = measurement_counters(
                checkpoint._obs.metrics.counters_snapshot()
            )
            for name in RESUME_EXEMPT_COUNTERS:
                counters.pop(name, None)
            cumulative.append(counters)
            return state_block(checkpoint)

        monkeypatch.setattr(CampaignCheckpoint, "_state_block", spy)
        _context(profile, checkpoint_dir=str(tmp_path))
        records = _chain(tmp_path)
        assert len(records) == len(cumulative)
        for k, expected in enumerate(cumulative):
            assert fold_state(records[: k + 1])["counters"] == expected
        if profile == "flap":
            # The flaps invalidate the cache mid-run: the full-diff
            # fallback ran and was recorded.
            assert any(
                record["state"].get("cache_flushed") for record in records
            )

    def test_double_resume_from_inside_revelation(
        self, uninterrupted, tmp_path
    ):
        """Resume 1 rewrites the pairs phase while the registry holds
        restored revelation counters; resume 2 must still restore the
        uninterrupted run's counters."""
        profile, baseline = uninterrupted
        warehouse = str(tmp_path)
        traced = baseline.result.probes_sent
        revelation = baseline.result.revelation_probes
        first = _context(
            profile, probe_budget=traced + revelation // 3,
            checkpoint_dir=warehouse,
        )
        assert first.result.partial
        (snapshot,) = CampaignStore(warehouse).snapshots()
        pairs = snapshot.phase_path("pairs").read_bytes()
        stopped_at = len(snapshot.records("revelation"))
        assert stopped_at > 0
        second = _context(
            profile, probe_budget=traced + 2 * revelation // 3,
            checkpoint_dir=warehouse, resume=True,
        )
        assert second.result.partial
        assert len(snapshot.records("revelation")) > stopped_at
        # The rewrite kept every pair record as it was.
        assert snapshot.phase_path("pairs").read_bytes() == pairs
        final = _context(profile, checkpoint_dir=warehouse, resume=True)
        assert not final.result.partial
        assert final.result == baseline.result
        assert _measured(final) == _measured(baseline)


    def test_cumulative_counter_snapshots_are_refused(self, tmp_path):
        """A ``repro.store/1`` snapshot holds cumulative counters that
        the fold would sum: the schema check refuses to resume it."""
        warehouse = str(tmp_path)
        _context("hostile", probe_budget=100, checkpoint_dir=warehouse)
        (snapshot,) = CampaignStore(warehouse).snapshots()
        manifest = json.loads(snapshot.manifest_path.read_text())
        snapshot.manifest_path.write_text(
            json.dumps(dict(manifest, schema="repro.store/1"))
        )
        with pytest.raises(StoreMismatch, match="repro.store/1"):
            _context("hostile", checkpoint_dir=warehouse, resume=True)


# ---------------------------------------------------------------------------
# Phase-file I/O


class TestPhaseFiles:
    def test_failed_rewrite_leaves_the_old_file_intact(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rewrite_records(path, [{"index": 0}, {"index": 1}])
        before = path.read_bytes()

        def records():
            yield {"index": 0, "new": True}
            raise RuntimeError("crash mid-rewrite")

        with pytest.raises(RuntimeError):
            rewrite_records(path, records())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_torn_only_line_counts_as_no_records(self, tmp_path):
        snapshot = Snapshot(tmp_path / "snap")
        snapshot.phases_dir.mkdir(parents=True)
        torn = json.dumps({"index": 0, "seq": 0})[:-3]
        snapshot.phase_path("trace").write_text(torn)
        assert not snapshot.has_records()
        snapshot.phase_path("ping").write_text(
            json.dumps({"index": 0, "seq": 0}) + "\n" + torn
        )
        assert snapshot.has_records()

    def test_read_stops_at_the_limit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rewrite_records(path, [{"index": n} for n in range(3)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        assert read_phase_records(path, limit=1) == [{"index": 0}]
        assert len(read_phase_records(path)) == 3
