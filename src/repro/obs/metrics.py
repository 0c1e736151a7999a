"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the observability subsystem
(:mod:`repro.obs`).  It is deliberately minimal — plain dictionaries
and integer adds — because it sits on the simulator's hot path: the
forwarding engine increments counters per probe and per walked hop.
The hot path takes no locks: each component stack (one per campaign,
served session or fleet chain) owns its registry, and registries
combine only through an explicit merge
(:meth:`MetricsRegistry.merge_counters`).

Counter names are dotted paths (``probe.sent.traceroute``,
``engine.trajectory_hits``).  The first segment is a namespace with
defined invariance semantics:

* **measurement counters** (``probe.*``, ``trace.*``, ``campaign.*``,
  ``revelation.*``, ``dpr.*``, ``brpr.*``, ``frpla.*``, ``rtla.*``)
  describe *what was measured* and are invariant under execution
  strategy — a replayed, resumed or walk-per-probe campaign reports
  exactly the same totals as a live, uninterrupted, cached run;
* **execution counters** (``engine.*``, ``phase.*``, ``span.*``, …)
  describe *how* the run executed (cache hits vs misses, timings,
  checkpoint writes) and legitimately differ between such runs.

:func:`measurement_counters` filters a registry down to the invariant
set; the record→replay, resume == uninterrupted and cached ==
walk-per-probe tests pin the contract.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "EXECUTION_PREFIXES",
    "measurement_counters",
]

#: Default histogram buckets — log-spaced upper bounds suitable for
#: both small counts (trace hops, revelation steps) and milliseconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)

#: Counter namespaces that depend on the execution strategy (caching,
#: wall-clock, checkpoint/resume) rather than on what was measured.
EXECUTION_PREFIXES: Tuple[str, ...] = (
    "dataplane.", "engine.", "monitor.", "phase.", "serve.", "span.",
    "store.",
)


class Histogram:
    """A fixed-bucket histogram (cumulative on export, like Prometheus).

    ``bounds`` are the inclusive upper bounds of each bucket; one
    implicit ``+Inf`` bucket catches the overflow.  Observation is one
    bisect plus two adds.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: Per-bucket observation counts (len(bounds) + 1, last = +Inf).
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0  #: sum of observed values
        self.count: int = 0  #: number of observations

    def observe(self, value: float) -> None:
        """Account one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dict (bounds, per-bucket counts, sum, count)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms behind dotted names.

    Everything is a plain dict operation; the registry is safe to hit
    from the forwarding engine's per-probe path.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Counters

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + value

    def get(self, name: str, default: int = 0) -> int:
        """Current value of counter ``name``."""
        return self._counters.get(name, default)

    @property
    def counters(self) -> Mapping[str, int]:
        """Live view of every counter (do not mutate)."""
        return self._counters

    def counters_snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of all counters."""
        return dict(self._counters)

    def merge_counters(self, deltas: Mapping[str, int]) -> None:
        """Add ``deltas`` into this registry (a resume folds the
        interrupted run's checkpointed counters in this way)."""
        for name, value in deltas.items():
            self.inc(name, value)

    # ------------------------------------------------------------------
    # Gauges

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Current value of gauge ``name``."""
        return self._gauges.get(name, default)

    @property
    def gauges(self) -> Mapping[str, float]:
        """Live view of every gauge (do not mutate)."""
        return self._gauges

    # ------------------------------------------------------------------
    # Histograms

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        """Fetch (or create) the histogram called ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(buckets or DEFAULT_BUCKETS)
            self._histograms[name] = histogram
        return histogram

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        """Record one observation into histogram ``name``."""
        self.histogram(name, buckets).observe(value)

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        """Live view of every histogram (do not mutate)."""
        return self._histograms

    # ------------------------------------------------------------------
    # Whole-registry operations

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of the full registry."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric (tests and fresh CLI runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def measurement_counters(
    counters: Mapping[str, int]
) -> Dict[str, int]:
    """The execution-strategy-invariant subset of ``counters``.

    These are the totals that must be identical between a live run and
    its replay, or an interrupted-and-resumed run and its
    uninterrupted twin (see the module docstring for the namespace
    contract).
    """
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(EXECUTION_PREFIXES)
    }
