"""ECMP multipath enumeration (MDA-style flow sweeping).

Load balancing is the main noise source for the paper's techniques:
footnote 11 (DPR may rediscover a parallel equal-cost path), Fig. 9a's
negative-gap mass, and RTLA's per-VP pairing all trace back to ECMP.
This module enumerates the equal-cost paths between a vantage point
and a destination by sweeping Paris flow identifiers, in the spirit of
the Multipath Detection Algorithm — enough to quantify path diversity
in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.net.router import Router
from repro.probing.prober import Prober

__all__ = ["MultipathResult", "enumerate_paths", "path_diversity"]


@dataclass
class MultipathResult:
    """Equal-cost paths discovered between one (source, destination)."""

    source: str
    dst: int
    #: Distinct responding-address sequences, one per discovered path.
    paths: List[Tuple[int, ...]] = field(default_factory=list)
    #: Flow identifiers that produced each path (parallel list).
    flows: List[List[int]] = field(default_factory=list)
    probes_used: int = 0

    @property
    def path_count(self) -> int:
        """Number of distinct paths observed."""
        return len(self.paths)

def enumerate_paths(
    prober: Prober,
    source: Router,
    dst: int,
    flows: int = 16,
    start_ttl: int = 1,
) -> MultipathResult:
    """Sweep ``flows`` Paris flow identifiers and collect the paths.

    Only complete traces (destination reached, no stars) are counted —
    a star would make two identical paths look distinct.
    """
    if flows < 1:
        raise ValueError("need at least one flow")
    result = MultipathResult(source=source.name, dst=dst)
    seen: Dict[Tuple[int, ...], int] = {}
    before = prober.probes_sent
    for flow_id in range(1, flows + 1):
        trace = prober.traceroute(
            source, dst, flow_id=flow_id, start_ttl=start_ttl
        )
        if not trace.destination_reached:
            continue
        if any(not hop.responded for hop in trace.hops):
            continue
        path = tuple(trace.addresses)
        index = seen.get(path)
        if index is None:
            seen[path] = len(result.paths)
            result.paths.append(path)
            result.flows.append([flow_id])
        else:
            result.flows[index].append(flow_id)
    result.probes_used = prober.probes_sent - before
    return result


def path_diversity(
    prober: Prober,
    source: Router,
    destinations: Sequence[int],
    flows: int = 8,
    start_ttl: int = 1,
) -> Dict[int, int]:
    """Distinct-path count per destination (ECMP diversity survey)."""
    return {
        dst: enumerate_paths(
            prober, source, dst, flows=flows, start_ttl=start_ttl
        ).path_count
        for dst in destinations
    }
