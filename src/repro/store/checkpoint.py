"""Checkpoint/resume protocol over a campaign snapshot.

:class:`CampaignCheckpoint` is the handle the orchestrator drives
(``Campaign.run(..., checkpoint=...)``).  The contract that makes a
resumed run **bit-identical** to an uninterrupted one:

* every completed unit of work — one traceroute, one fingerprint
  ping, one pair's revelation (with its follow-up pings) — is
  appended to the snapshot as one flushed record *with* the state a
  resume needs: the measurement service's budget accounting, and
  what changed since the previous record — response-cache entries,
  label bindings, quarantine records and measurement-counter deltas
  (built from what changed, not by diffing the whole state);
* on resume, the surviving record prefix is replayed through the
  same observation calls the live code path uses (analyzer intake
  included), while the service state, response cache, and
  measurement counters (:func:`fold_state`) are restored from the
  records — so the remaining live work sees exactly the world the
  interrupted run left, and the finished result (revelations, per-AS
  aggregates, measurement counters) matches an uninterrupted run bit
  for bit;
* counters in :data:`~repro.store.layout.RESUME_EXEMPT_COUNTERS`
  (run-lifecycle counts like ``campaign.partial_runs``) are *not*
  restored — an uninterrupted run never accumulates them.

Records carry a global ``seq`` so a resume can detect a corrupt
earlier-phase tail even when later phases still parse: validation
accepts the longest pipeline-ordered prefix with contiguous
sequence numbers and truncates everything after the first gap.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import EXECUTION_PREFIXES, Obs
from repro.probing.dataset import (
    pings_from_dicts,
    pings_to_dicts,
    revelations_from_dicts,
    revelations_to_dicts,
    traces_from_dicts,
    traces_to_dicts,
)
from repro.store.layout import (
    PHASES,
    RESUME_EXEMPT_COUNTERS,
    STORE_SCHEMA,
    campaign_key,
)
from repro.store.warehouse import CampaignStore, Snapshot

__all__ = [
    "StoreMismatch",
    "CampaignCheckpoint",
    "checkpoint_prefix",
    "fold_state",
    "result_document",
]


class StoreMismatch(ValueError):
    """The snapshot does not belong to this campaign (different
    topology seed, config, or target set — the content key differs),
    or its records contradict the campaign being resumed."""


def checkpoint_prefix(
    snapshot: Snapshot,
) -> Dict[str, Tuple[List[dict], List[dict]]]:
    """Per phase, ``(records, kept)``: the phase file's valid record
    prefix and the part of it on the longest seq-contiguous pipeline
    prefix.  A resume keeps exactly ``kept`` (and truncates the
    rest); once one phase breaks the chain, later phases keep
    nothing."""
    prefix: Dict[str, Tuple[List[dict], List[dict]]] = {}
    position = 0
    broken = False
    for phase in PHASES:
        records = snapshot.records(phase)
        kept: List[dict] = []
        if not broken:
            for record in records:
                if record.get("seq") != position:
                    break
                kept.append(record)
                position += 1
            broken = len(kept) < len(records)
        prefix[phase] = (records, kept)
    return prefix


def fold_state(records: Iterable[dict]) -> Optional[dict]:
    """The checkpointed state as of the last of ``records``, a kept
    record prefix in ``seq`` order: that record's state block with
    ``counters`` replaced by the sum of every record's counter delta.
    None when no record carries a state block."""
    last: Optional[dict] = None
    counters: Dict[str, int] = {}
    for record in records:
        state = record.get("state")
        if not isinstance(state, dict):
            continue
        for name, value in (state.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        last = state
    return None if last is None else dict(last, counters=counters)


def _ping_to_dict(ping) -> dict:
    return pings_to_dicts({ping.dst: ping})[0]


def _ping_from_dict(data: dict):
    return pings_from_dicts([data])[data["dst"]]


class CampaignCheckpoint:
    """Phase/pair-granular persistence for one campaign run.

    Parameters
    ----------
    root:
        Warehouse root directory; the snapshot lives under it at a
        directory derived from the campaign's content key.
    topology:
        JSON-ready descriptor of how the measured network is built
        (seed, scale, vantage points, ...) — part of the content key,
        since the same config over a different topology is a
        different campaign.
    resume:
        False (default) starts a fresh snapshot and refuses to touch
        one that already holds records; True requires an existing
        snapshot and restores its surviving record prefix.
    """

    def __init__(
        self,
        root: Union[str, "CampaignStore"],
        topology: Optional[Dict[str, object]] = None,
        resume: bool = False,
    ) -> None:
        self.store = (
            root if isinstance(root, CampaignStore)
            else CampaignStore(root)
        )
        self.topology = dict(topology or {})
        self.resume = resume
        self.snapshot: Optional[Snapshot] = None
        self.key: Optional[str] = None
        self._campaign = None
        self._result = None
        self._obs: Obs = Obs()
        self._restored: Dict[str, List[dict]] = {
            phase: [] for phase in PHASES
        }
        #: Records present per phase (restored + written this run);
        #: the ``seq`` chain and the pairs rewrite base derive from
        #: these, never from the restored counts alone.
        self._counts: Dict[str, int] = {
            phase: 0 for phase in PHASES
        }
        self._seq = 0
        #: Quarantine length and label bindings as of the previous
        #: record: each record exports what lies past them (the
        #: service keeps the response cache's export cursor).
        self._labels_known = 0
        self._quarantine_known = 0
        #: Per counter name: does a record carry it (a measurement
        #: counter outside RESUME_EXEMPT_COUNTERS)?
        self._checkpointed: Dict[str, bool] = {}
        #: Those counters' values as of the previous record in ``seq``
        #: order; each record stores its difference from them.
        self._counted: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle (driven by Campaign.run)

    def begin(self, campaign, destinations, result) -> None:
        """Bind to a campaign run: open/validate the snapshot and,
        when resuming, restore service state, response cache, and
        measurement counters from the surviving records."""
        if campaign.service is None:
            raise ValueError(
                "checkpointing needs a prober with a ProbeService"
            )
        self._campaign = campaign
        self._result = result
        self._obs = campaign.obs
        identity = campaign_key(
            self.topology, campaign.config, destinations
        )
        self.key = identity["key"]
        self.snapshot = self.store.snapshot_for_key(self.key)
        metrics = self._obs.metrics
        if self.resume:
            self._open_existing(identity)
            with self._obs.tracer.span(
                "store.restore", snapshot=str(self.snapshot.path)
            ):
                self._restore_state()
            metrics.inc("store.resumes")
            if self._obs.events.info:
                self._obs.events.emit(
                    "store.resume",
                    snapshot=str(self.snapshot.path),
                    **{
                        phase: len(records)
                        for phase, records in self._restored.items()
                    },
                )
        else:
            self._open_fresh(identity)
            metrics.inc("store.snapshots.created")
            if self._obs.events.info:
                self._obs.events.emit(
                    "store.checkpoint",
                    snapshot=str(self.snapshot.path),
                )
        self._mark_deltas()
        result.checkpoint_dir = str(self.snapshot.path)

    def finish(self, result) -> None:
        """Record the run's outcome and release file handles."""
        if self.snapshot is None:
            return
        self.snapshot.write_run_status(
            {
                "completed": not result.partial,
                "partial": result.partial,
                "stop_reason": result.stop_reason,
                "traces": len(result.traces),
                "pings": len(result.pings),
                "pairs": len(result.pairs),
                "revelations": len(result.revelations),
                "probes_sent": result.probes_sent,
                "revelation_probes": result.revelation_probes,
                "quarantined": len(
                    getattr(result, "quarantine", [])
                ),
                "data_quality": (
                    getattr(result, "data_quality", {}) or {}
                ).get("grade"),
                "updated": time.time(),
            }
        )
        self.snapshot.close()

    # ------------------------------------------------------------------
    # Restored-record access (phase loops replay these first)

    def restored_count(self, phase: str) -> int:
        """Records available to replay for ``phase``."""
        return len(self._restored[phase])

    def restored_trace(self, index: int):
        """The restored trace at ``index`` (phase-order prefix)."""
        record = self._restored["trace"][index]
        return traces_from_dicts([record["trace"]])[0]

    def restored_ping(self, index: int) -> Tuple[str, int, object]:
        """The restored ping observation: ``(vp, address, result)``."""
        record = self._restored["ping"][index]
        return (
            record["vp"],
            record["address"],
            _ping_from_dict(record["ping"]),
        )

    def restored_revelation(self, index: int):
        """The restored pair outcome at ``index``.

        Returns ``(ingress, egress, revelation, follow_up_pings)``
        where the pings are the ``(address, PingResult)`` probes the
        original run issued for newly revealed routers.
        """
        record = self._restored["revelation"][index]
        revelation = revelations_from_dicts([record["revelation"]])[
            (record["ingress"], record["egress"])
        ]
        pings = [
            (entry["address"], _ping_from_dict(entry["ping"]))
            for entry in record["pings"]
        ]
        return record["ingress"], record["egress"], revelation, pings

    # ------------------------------------------------------------------
    # Record writers (phase loops call these after each live unit)

    def record_trace(self, index: int, trace) -> None:
        """Persist one completed traceroute (plus state delta)."""
        self._append(
            "trace",
            {
                "seq": self._seq,
                "index": index,
                "trace": traces_to_dicts([trace])[0],
                "state": self._state_block(),
            },
        )

    def record_ping(
        self, index: int, vp: str, address: int, ping
    ) -> None:
        """Persist one completed ping (plus state delta)."""
        self._append(
            "ping",
            {
                "seq": self._seq,
                "index": index,
                "vp": vp,
                "address": address,
                "ping": _ping_to_dict(ping),
                "state": self._state_block(),
            },
        )

    def record_pairs(self, result) -> None:
        """Persist the extracted candidate pairs (whole phase at once).

        Extraction is pure computation over the traces, so the phase
        is always recomputed on resume; the records exist for the
        warehouse (inspection, diffing) and are rewritten in place —
        deterministic extraction makes the rewrite byte-identical.
        A resume keeps the restored records' state blocks: by then
        the registry may hold revelation-phase counters, and a delta
        taken from it would count them twice in the fold.
        """
        kept = self._restored["pairs"]
        base = self._counts["trace"] + self._counts["ping"]
        trace_index = {
            id(trace): position
            for position, trace in enumerate(result.traces)
        }
        records = []
        for index, pair in enumerate(result.pairs):
            records.append(
                {
                    "seq": base + index,
                    "index": index,
                    "vp": pair.vp,
                    "ingress": pair.ingress,
                    "egress": pair.egress,
                    "asn": pair.asn,
                    "trace_index": trace_index.get(id(pair.trace)),
                    "state": (
                        kept[index]["state"]
                        if index < len(kept)
                        else self._state_block()
                    ),
                }
            )
        self.snapshot.truncate_to("pairs", records)
        self._restored["pairs"] = records
        self._counts["pairs"] = len(records)
        self._seq = (
            base + len(records) + self._counts["revelation"]
        )
        self._obs.metrics.inc("store.records", len(records))

    def record_revelation(
        self,
        index: int,
        revelation,
        pings: Sequence[Tuple[int, object]],
    ) -> None:
        """Persist one revelation attempt with its follow-up pings."""
        key = (revelation.ingress, revelation.egress)
        self._append(
            "revelation",
            {
                "seq": self._seq,
                "index": index,
                "ingress": revelation.ingress,
                "egress": revelation.egress,
                "revelation": revelations_to_dicts(
                    {key: revelation}
                )[0],
                "pings": [
                    {
                        "address": address,
                        "ping": _ping_to_dict(ping),
                    }
                    for address, ping in pings
                ],
                "state": self._state_block(),
            },
        )

    # ------------------------------------------------------------------
    # Internals

    def _open_fresh(self, identity: dict) -> None:
        if self.snapshot.exists() and self.snapshot.has_records():
            raise StoreMismatch(
                f"snapshot {self.snapshot.path} already holds "
                "checkpoint records; resume it instead (--resume) or "
                "remove the directory to start over"
            )
        self.snapshot.initialise(self.key, identity["fingerprint"])

    def _open_existing(self, identity: dict) -> None:
        if not self.snapshot.exists():
            keys = [
                (snapshot.manifest() or {}).get("key", "?")[:12]
                for snapshot in self.store.snapshots()
            ]
            raise StoreMismatch(
                f"no snapshot for this campaign under "
                f"{self.store.root} (expected key "
                f"{self.key[:12]}, found: {keys or 'none'}) — the "
                "topology seed, campaign config, or target set "
                "differs from the checkpointed run"
            )
        manifest = self.snapshot.manifest() or {}
        if manifest.get("key") != self.key:
            raise StoreMismatch(
                f"snapshot {self.snapshot.path} was written by a "
                "different campaign (content key mismatch)"
            )
        if manifest.get("schema") != STORE_SCHEMA:
            raise StoreMismatch(
                f"unsupported store schema "
                f"{manifest.get('schema')!r} (expected "
                f"{STORE_SCHEMA!r})"
            )
        self._load_records()

    def _load_records(self) -> None:
        """Accept the longest seq-contiguous pipeline prefix and
        truncate whatever follows (crash-damaged tails)."""
        for phase, (records, kept) in checkpoint_prefix(
            self.snapshot
        ).items():
            if len(kept) < len(records):
                self.snapshot.truncate_to(phase, kept)
            self._restored[phase] = kept
            self._counts[phase] = len(kept)
        self._seq = sum(self._counts.values())

    def _restore_state(self) -> None:
        """Reinstate service accounting, response cache, and
        measurement counters from the surviving records."""
        service = self._campaign.service
        allocator = self._allocator()
        metrics = self._obs.metrics
        state = fold_state(chain(*self._restored.values()))
        if state is not None:
            # Service/backend state first: re-firing the interrupted
            # run's flaps invalidates caches on the still-empty fresh
            # stack, instead of wiping the entries imported below.
            service.restore_state(state.get("service") or {})
            metrics.merge_counters(state["counters"])
            self._counted = dict(state["counters"])
            result_state = state.get("result") or {}
            self._result.probes_sent = int(
                result_state.get("probes_sent", 0)
            )
            self._result.revelation_probes = int(
                result_state.get("revelation_probes", 0)
            )
        cache_entries = 0
        for phase in PHASES:
            for record in self._restored[phase]:
                state = record.get("state")
                if not isinstance(state, dict):
                    continue
                if state.get("cache_flushed"):
                    # Replay the mid-run invalidation at the exact
                    # record where the interrupted run observed it.
                    service.flush_cache()
                cache_entries += service.import_cache(
                    state.get("cache_added") or []
                )
                service.import_quarantine(
                    state.get("quarantine_added") or []
                )
                if allocator is not None:
                    # LDP labels are first-use allocated: reinstate
                    # the interrupted run's allocation order so live
                    # probes observe the same label numbers.
                    allocator.import_bindings(
                        state.get("labels_added") or []
                    )
        restored = sum(
            len(records) for records in self._restored.values()
        )
        metrics.inc("store.restored.records", restored)
        metrics.inc("store.restored.cache_entries", cache_entries)

    def _mark_deltas(self) -> None:
        """Start record deltas from the service and allocator state
        this run continues from (a resume's restored state included)."""
        service = self._campaign.service
        service.cache_mark()
        self._quarantine_known = len(service.quarantine_records)
        allocator = self._allocator()
        if allocator is not None:
            self._labels_known = len(allocator)

    def _state_block(self) -> dict:
        service = self._campaign.service
        checkpointed = self._checkpointed
        counted = self._counted
        # The counter delta: a counter the chain has not carried yet
        # is listed even at 0, so the fold rebuilds the key set too.
        counters = {}
        for name, value in self._obs.metrics.counters_snapshot().items():
            keep = checkpointed.get(name)
            if keep is None:
                keep = checkpointed[name] = not (
                    name.startswith(EXECUTION_PREFIXES)
                    or name in RESUME_EXEMPT_COUNTERS
                )
            if keep:
                before = counted.get(name)
                if before != value:
                    counters[name] = value - (before or 0)
                    counted[name] = value
        # ``cache_flushed``: a flap-driven invalidation dropped a key
        # the previous record had exported, so the full current cache
        # is re-exported and the resume must flush at this exact point
        # before importing it.
        cache_flushed, cache_added = service.export_cache_delta()
        quarantine_added = service.export_quarantine(
            self._quarantine_known
        )
        self._quarantine_known += len(quarantine_added)
        allocator = self._allocator()
        labels_added = []
        if allocator is not None:
            labels_added = allocator.export_bindings(
                self._labels_known
            )
            self._labels_known += len(labels_added)
        return {
            "result": {
                "probes_sent": self._result.probes_sent,
                "revelation_probes": self._result.revelation_probes,
            },
            "service": service.state_snapshot(),
            "counters": counters,
            "cache_added": cache_added,
            # Only stamped when a flush happened, so clean-run record
            # bytes are unchanged across versions.
            **({"cache_flushed": True} if cache_flushed else {}),
            "labels_added": labels_added,
            "quarantine_added": quarantine_added,
        }

    def _allocator(self):
        """The prober's LDP label allocator (None for backends
        without a simulated dataplane)."""
        engine = getattr(self._campaign.prober, "engine", None)
        return getattr(engine, "labels", None)

    def _append(self, phase: str, record: dict) -> None:
        written = self.snapshot.append(phase, record)
        self._seq += 1
        self._counts[phase] += 1
        metrics = self._obs.metrics
        metrics.inc("store.records")
        metrics.inc("store.bytes", written)
        if self._obs.events.debug:
            self._obs.events.emit(
                "store.record",
                phase=phase,
                index=record["index"],
                seq=record["seq"],
            )


# ---------------------------------------------------------------------------
# Result summaries (the diffable artefact)


def result_document(
    result,
    aggregator=None,
    frpla=None,
    as_names: Optional[Dict[int, str]] = None,
) -> dict:
    """Build the ``result.json`` summary for a finished campaign.

    ``aggregator``/``frpla`` follow the shapes used by
    :mod:`repro.campaign.report`; when omitted (e.g. a bare test
    run), the per-AS section is empty but the tunnel inventory —
    what :mod:`repro.store.diff` needs — is still complete.
    """
    names = as_names or {}
    asn_of_pair = {
        (pair.ingress, pair.egress): pair.asn
        for pair in result.pairs
    }
    tunnels = []
    for (ingress, egress), revelation in sorted(
        result.revelations.items()
    ):
        if not revelation.success:
            continue
        tunnels.append(
            {
                "ingress": ingress,
                "egress": egress,
                "asn": asn_of_pair.get((ingress, egress)),
                "length": revelation.tunnel_length,
                "method": revelation.method.value,
                "technique": getattr(
                    revelation, "technique", "combined"
                ),
                "revealed": list(revelation.revealed),
            }
        )
    per_as = []
    if aggregator is not None:
        for asn in aggregator.asns():
            summary = aggregator.revelation_summary(asn)
            row = aggregator.deployment_row(asn, frpla=frpla)
            per_as.append(
                {
                    "asn": asn,
                    "name": names.get(asn),
                    "ie_pairs": summary.ie_pairs,
                    "revealed_pairs": summary.revealed_pairs,
                    "pct_revealed": summary.pct_revealed,
                    "lsr_ips": summary.lsr_ips,
                    "density_before": summary.density_before,
                    "density_after": summary.density_after,
                    "frpla_median": row.frpla_median,
                    "rtla_median": row.rtla_median,
                    "ftl_median": row.ftl_median,
                }
            )
    return {
        "partial": result.partial,
        "stop_reason": result.stop_reason,
        "volumes": {
            "traces": len(result.traces),
            "pings": len(result.pings),
            "pairs": len(result.pairs),
            "revelations": len(result.revelations),
            "tunnels_revealed": len(tunnels),
            "probes_sent": result.probes_sent,
            "revelation_probes": result.revelation_probes,
            "quarantined": len(getattr(result, "quarantine", [])),
        },
        "data_quality": getattr(result, "data_quality", {}) or None,
        "tunnels": tunnels,
        "per_as": per_as,
    }
