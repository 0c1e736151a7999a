"""Layer-boundary spans for the traced benchmark run.

The benchmark attributes wall-clock to the ``src/repro`` packages a
probe passes through by wrapping their public entry points from the
outside: methods are patched on their class, module functions are
patched in every ``repro`` module that imported them.  Nothing in the
program changes; :func:`install` returns an undo handle and the
untraced rounds run the original code.

Accounting rules (tested in ``test_bench.py``):

* every thread keeps its own span stack, so spans nest strictly per
  thread and a span's *children* are the spans opened directly under
  it on the same thread;
* a span's self time is its duration minus its children's durations;
  its wait time is self wall-clock minus self thread-CPU time (GIL,
  turnstile and I/O waits);
* the root spans of every thread add up to the traced total, and the
  layer self times (harness spans included, as ``unattributed``) add
  up to that total again.

The wrapper's own clock reads land in the calling span's self time,
so layers that call many wrapped functions read slightly high; the
traced run reports the whole cost as ``tracing.overhead``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BOUNDARIES",
    "LAYERS",
    "HARNESS",
    "SpanRecorder",
    "install",
]

#: The program layers, in the order a probe crosses them top-down.
LAYERS = (
    "fleet", "monitor", "serve", "campaign", "store", "core",
    "probing", "measure", "faults", "dataplane", "routing", "synth",
)

#: Layer name of the benchmark's own per-unit root spans.
HARNESS = "unattributed"

#: ``(layer, module, attribute)`` for every wrapped entry point.  A
#: dotted attribute is a method patched on its class; a plain one is
#: a module function patched wherever it was imported.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("synth", "repro.synth.internet", "build_internet"),
    ("synth", "repro.synth.internet", "SyntheticInternet.attach"),
    ("synth", "repro.synth.internet", "SyntheticInternet.clone"),
    ("synth", "repro.synth.internet", "AttachedInternet.detach"),
    ("synth", "repro.synth.churn", "ChurnModel.advance"),
    ("routing", "repro.routing.control", "ControlPlane.resolve"),
    ("routing", "repro.routing.control", "ControlPlane.resolve_prefix"),
    ("routing", "repro.routing.control", "ControlPlane.invalidate"),
    ("routing", "repro.routing.control",
     "ControlPlane.install_te_tunnel"),
    ("routing", "repro.routing.control",
     "ControlPlane.remove_te_tunnel"),
    ("dataplane", "repro.dataplane.engine", "ForwardingEngine.send_probe"),
    ("dataplane", "repro.dataplane.engine",
     "ForwardingEngine.send_probe_batch"),
    ("dataplane", "repro.dataplane.engine",
     "ForwardingEngine.flush_trajectories"),
    ("measure", "repro.measure.service", "ProbeService.traceroute_probe"),
    ("measure", "repro.measure.service", "ProbeService.ping_probe"),
    ("measure", "repro.measure.service", "ProbeService.udp_probe"),
    ("measure", "repro.measure.service", "ProbeService.traceroute_batch"),
    ("measure", "repro.measure.service", "ProbeService.ping_batch"),
    ("measure", "repro.measure.service", "ProbeService.flush_cache"),
    ("faults", "repro.faults.backend", "FaultyBackend.submit"),
    ("faults", "repro.faults.backend", "FaultyBackend.submit_batch"),
    ("probing", "repro.probing.prober", "Prober.traceroute"),
    ("probing", "repro.probing.prober", "Prober.ping"),
    ("probing", "repro.probing.prober", "Prober.udp_probe"),
    ("probing", "repro.probing.prober", "Prober.ping_sweep"),
    ("core", "repro.core.revelation", "reveal_tunnel"),
    ("core", "repro.core.signatures", "SignatureInventory.observe_trace"),
    ("core", "repro.core.signatures", "SignatureInventory.observe_ping"),
    ("core", "repro.core.rtla", "RtlaAnalyzer.add_trace"),
    ("core", "repro.core.rtla", "RtlaAnalyzer.add_ping"),
    ("core", "repro.core.frpla", "FrplaAnalyzer.add_traces"),
    ("campaign", "repro.campaign.orchestrator", "Campaign.run"),
    ("campaign", "repro.campaign.orchestrator", "Campaign.trace_phase"),
    ("campaign", "repro.campaign.orchestrator", "Campaign.ping_phase"),
    ("campaign", "repro.campaign.orchestrator", "Campaign.extract_pairs"),
    ("campaign", "repro.campaign.orchestrator",
     "Campaign.revelation_phase"),
    ("campaign", "repro.campaign.orchestrator", "Campaign.frpla"),
    ("campaign", "repro.campaign.postprocess", "Aggregator.__init__"),
    ("store", "repro.store.checkpoint", "CampaignCheckpoint.begin"),
    ("store", "repro.store.checkpoint", "CampaignCheckpoint.finish"),
    ("store", "repro.store.checkpoint", "CampaignCheckpoint.record_trace"),
    ("store", "repro.store.checkpoint", "CampaignCheckpoint.record_ping"),
    ("store", "repro.store.checkpoint", "CampaignCheckpoint.record_pairs"),
    ("store", "repro.store.checkpoint",
     "CampaignCheckpoint.record_revelation"),
    ("store", "repro.store.checkpoint",
     "CampaignCheckpoint.restored_trace"),
    ("store", "repro.store.checkpoint", "CampaignCheckpoint.restored_ping"),
    ("store", "repro.store.checkpoint",
     "CampaignCheckpoint.restored_revelation"),
    ("store", "repro.store.checkpoint", "result_document"),
    ("store", "repro.store.warehouse", "Snapshot.append"),
    ("store", "repro.store.warehouse", "Snapshot.records"),
    ("store", "repro.store.fleet", "fold_fleet"),
    ("store", "repro.store.layout", "write_json"),
    ("serve", "repro.serve.session", "CampaignSession._run"),
    ("serve", "repro.serve.registry", "SnapshotRegistry.attach"),
    ("serve", "repro.serve.registry", "SnapshotRegistry.checkout"),
    ("serve", "repro.serve.scheduler", "ScheduledBackend.submit"),
    ("serve", "repro.serve.scheduler", "ScheduledBackend.submit_batch"),
    ("monitor", "repro.monitor.loop", "MonitorLoop.run"),
    ("monitor", "repro.monitor.staleness", "StalenessEngine.assess"),
    ("fleet", "repro.fleet.supervisor", "ChainWorker.__init__"),
    ("fleet", "repro.fleet.supervisor", "ChainWorker.run"),
)

# Frame slots of an open span (a list, mutated as children close).
_LAYER, _NAME, _UNIT, _ID, _PARENT, _START, _CPU, _CHILD, _CHILD_CPU = (
    range(9)
)


class _ThreadState(threading.local):
    """Per-thread span stack and aggregates."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.unit: Optional[str] = None
        self.acc: Optional["_Totals"] = None


class _Totals:
    """One thread's aggregates (merged when the round ends)."""

    __slots__ = ("layers", "names", "roots")

    def __init__(self) -> None:
        #: layer -> [self wall s, self cpu s, calls]
        self.layers: Dict[str, List[float]] = defaultdict(
            lambda: [0.0, 0.0, 0]
        )
        #: span name -> [calls, inclusive wall s]
        self.names: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        #: wall-clock of the spans opened on an empty stack
        self.roots = 0.0


class SpanRecorder:
    """Collects spans in memory and rolls them up per layer.

    ``keep_units`` names the units whose raw spans are kept for the
    JSONL dump; every span, kept or not, feeds the per-layer
    aggregates.  The clocks are parameters so tests can drive them.
    """

    def __init__(
        self,
        keep_units: Sequence[str] = (),
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ) -> None:
        self.keep_units = frozenset(keep_units)
        self.kept: List[tuple] = []
        #: Unit a thread's root span belongs to when the thread did
        #: not bind one itself (the single client's current unit).
        self.unit: Optional[str] = None
        self._clock = clock
        self._cpu = cpu_clock
        self._local = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: List[_Totals] = []

    # ------------------------------------------------------------------

    def _totals(self) -> "_Totals":
        totals = _Totals()
        with self._lock:
            self._threads.append(totals)
        self._local.acc = totals
        return totals

    def bind_unit(self, unit: Optional[str]) -> None:
        """Attribute this thread's next root spans to ``unit``."""
        self._local.unit = unit

    def enter(self, layer: str, name: str) -> list:
        """Open a span on the calling thread; returns its frame."""
        local = self._local
        stack = local.stack
        if stack:
            parent = stack[-1]
            unit, parent_id = parent[_UNIT], parent[_ID]
        else:
            unit = local.unit if local.unit is not None else self.unit
            parent_id = 0
        frame = [layer, name, unit, next(self._ids), parent_id,
                 0.0, 0.0, 0.0, 0.0]
        stack.append(frame)
        frame[_CPU] = self._cpu()
        frame[_START] = self._clock()
        return frame

    def leave(self) -> None:
        """Close the calling thread's innermost span."""
        end = self._clock()
        self._close(self._local.stack[-1], end, self._cpu())

    def _close(self, frame: list, end: float, cpu_end: float) -> None:
        local = self._local
        local.stack.pop()
        duration = end - frame[_START]
        cpu = cpu_end - frame[_CPU]
        totals = local.acc or self._totals()
        row = totals.layers[frame[_LAYER]]
        row[0] += duration - frame[_CHILD]
        row[1] += cpu - frame[_CHILD_CPU]
        row[2] += 1
        named = totals.names[frame[_NAME]]
        named[0] += 1
        named[1] += duration
        if local.stack:
            parent = local.stack[-1]
            parent[_CHILD] += duration
            parent[_CHILD_CPU] += cpu
        else:
            totals.roots += duration
        if frame[_UNIT] in self.keep_units:
            self.kept.append((
                frame[_ID], frame[_PARENT], frame[_UNIT],
                threading.get_ident(), frame[_LAYER], frame[_NAME],
                frame[_START], duration, duration - frame[_CHILD],
                cpu - frame[_CHILD_CPU],
            ))

    # ------------------------------------------------------------------
    # Roll-ups

    def layer_totals(self) -> Dict[str, Tuple[float, float, int]]:
        """Layer -> (self wall s, self cpu s, calls), all threads."""
        merged: Dict[str, List[float]] = defaultdict(
            lambda: [0.0, 0.0, 0]
        )
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for layer, (wall, cpu, calls) in list(totals.layers.items()):
                row = merged[layer]
                row[0] += wall
                row[1] += cpu
                row[2] += calls
        return {layer: tuple(row) for layer, row in merged.items()}

    def name_totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, inclusive wall s), all threads."""
        merged: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for name, (calls, wall) in list(totals.names.items()):
                merged[name][0] += calls
                merged[name][1] += wall
        return {name: tuple(row) for name, row in merged.items()}

    def root_seconds(self) -> float:
        """Traced span time: every thread's root spans, summed."""
        with self._lock:
            return sum(totals.roots for totals in self._threads)

    def write_jsonl(self, path) -> int:
        """Dump the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for (span_id, parent, unit, thread, layer, name, start,
                 duration, self_s, cpu_s) in self.kept:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "unit": unit,
                    "thread": thread, "layer": layer, "name": name,
                    "start_s": start, "dur_ms": duration * 1e3,
                    "self_ms": self_s * 1e3, "self_cpu_ms": cpu_s * 1e3,
                }) + "\n")
        return len(self.kept)


# ---------------------------------------------------------------------------
# Patching


def _span_wrapper(recorder: SpanRecorder, layer: str, name: str,
                  function: Callable) -> Callable:
    # The hot path: clock reads sit right next to the wrapped call so
    # the span excludes its own bookkeeping.
    enter, close = recorder.enter, recorder._close
    clock, cpu_clock = recorder._clock, recorder._cpu

    def wrapper(*args, **kwargs):
        frame = enter(layer, name)
        try:
            return function(*args, **kwargs)
        finally:
            end = clock()
            close(frame, end, cpu_clock())

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", name)
    wrapper.__doc__ = getattr(function, "__doc__", None)
    return wrapper


def _session_wrapper(recorder: SpanRecorder, layer: str, name: str,
                     function: Callable) -> Callable:
    """``CampaignSession._run`` runs on a server thread: bind the
    thread to the unit named by the session's tenant first."""
    inner = _span_wrapper(recorder, layer, name, function)

    def wrapper(session, *args, **kwargs):
        recorder.bind_unit(session.spec.tenant)
        try:
            return inner(session, *args, **kwargs)
        finally:
            recorder.bind_unit(None)

    wrapper.__wrapped__ = function
    return wrapper


def install(
    recorder: SpanRecorder,
    on_engine: Callable[[object], None],
    on_restore: Callable[[Dict[str, int]], None],
) -> Callable[[], None]:
    """Patch every boundary in :data:`BOUNDARIES`; returns the undo.

    ``on_engine`` sees every ``ForwardingEngine`` built while
    installed (its metrics registry holds the stack's counters), and
    ``on_restore`` every counter batch a checkpoint resume merges
    back into a registry (so live work can be told from restored).
    """
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    for layer, module_name, attribute in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            make = (
                _session_wrapper if attribute == "CampaignSession._run"
                else _span_wrapper
            )
            patch(owner, method, make(recorder, layer, attribute, original))
            continue
        original = getattr(module, attribute)
        wrapper = _span_wrapper(recorder, layer, attribute, original)
        for name, loaded in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and loaded is not None
                and loaded.__dict__.get(attribute) is original
            ):
                patch(loaded, attribute, wrapper)

    from repro.dataplane.engine import ForwardingEngine
    from repro.obs.metrics import MetricsRegistry

    build = ForwardingEngine.__dict__["__init__"]

    def engine_init(engine, *args, **kwargs):
        build(engine, *args, **kwargs)
        on_engine(engine)

    patch(ForwardingEngine, "__init__", engine_init)
    merge = MetricsRegistry.__dict__["merge_counters"]

    def merge_counters(registry, counters, *args, **kwargs):
        on_restore(dict(counters))
        return merge(registry, counters, *args, **kwargs)

    patch(MetricsRegistry, "merge_counters", merge_counters)

    def undo() -> None:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
        patches.clear()

    return undo
