"""FRPLA — Forward/Return Path Length Analysis (Sec. 3.1).

When a forward tunnel is invisible, traceroute underestimates the
forward path length, while the *return* path length is complete: the
``min(IP-TTL, LSE-TTL)`` rule at the end of return tunnels re-injects
tunnel hops into the reply's IP-TTL.  The difference

    RFA = return_path_length - forward_path_length

is therefore shifted toward positive values for egress LERs of
invisible tunnels, while for tunnel-free paths it follows a roughly
normal distribution centred at 0 (routing asymmetry).  FRPLA is a
*statistical*, AS-granularity technique: a positive median shift over
many ingress points flags the AS as hiding tunnels and estimates their
average length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.signatures import return_path_length
from repro.obs import Obs
from repro.probing.prober import Trace, TraceHop
from repro.stats.distributions import Distribution

__all__ = ["RfaSample", "rfa_of_hop", "rfa_samples", "FrplaAnalyzer"]


@dataclass(frozen=True)
class RfaSample:
    """One Return-vs-Forward Asymmetry observation."""

    address: int  #: responding address
    forward_length: int  #: hop distance (probe TTL) of the responder
    return_length: int  #: inferred reply path length
    rfa: int  #: return_length - forward_length


def rfa_of_hop(hop: TraceHop) -> Optional[RfaSample]:
    """RFA sample for one responding time-exceeded hop, if computable."""
    if not hop.responded or hop.reply_kind != "time-exceeded":
        return None
    return_len = return_path_length(hop.reply_ttl)
    if return_len is None:
        return None
    return RfaSample(
        address=hop.address,
        forward_length=hop.probe_ttl,
        return_length=return_len,
        rfa=return_len - hop.probe_ttl,
    )


def rfa_samples(traces: Iterable[Trace]) -> List[RfaSample]:
    """All RFA samples extractable from ``traces``."""
    samples: List[RfaSample] = []
    for trace in traces:
        for hop in trace.hops:
            sample = rfa_of_hop(hop)
            if sample is not None:
                samples.append(sample)
    return samples


class FrplaAnalyzer:
    """AS-granularity FRPLA: per-AS RFA distributions and shifts.

    ``asn_of`` maps an address to its AS (IP-to-AS mapping in the
    paper; ground truth in the simulator).  Optionally pass a
    ``classify`` callable mapping an address to a role label (e.g.
    ``"egress"`` / ``"ingress"`` / ``"other"``) to split distributions
    the way Fig. 7a does.
    """

    def __init__(
        self,
        asn_of: Callable[[int], Optional[int]],
        classify: Optional[Callable[[int], str]] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self._asn_of = asn_of
        self._classify = classify or (lambda address: "all")
        #: (asn, role) -> raw RFA values
        self._values: Dict[tuple, List[int]] = {}
        self.obs = obs if obs is not None else Obs()

    # ------------------------------------------------------------------

    def add_sample(self, sample: RfaSample) -> None:
        """Account one RFA observation."""
        asn = self._asn_of(sample.address)
        if asn is None:
            return
        self.obs.metrics.inc("frpla.samples")
        self.obs.metrics.inc("technique.frpla.samples")
        role = self._classify(sample.address)
        self._values.setdefault((asn, role), []).append(sample.rfa)

    def add_trace(self, trace: Trace) -> None:
        """Account every usable hop of ``trace``."""
        for hop in trace.hops:
            sample = rfa_of_hop(hop)
            if sample is not None:
                self.add_sample(sample)

    def add_traces(self, traces: Iterable[Trace]) -> None:
        """Account many traces."""
        for trace in traces:
            self.add_trace(trace)

    # ------------------------------------------------------------------

    def asns(self) -> List[int]:
        """ASes with at least one sample."""
        return sorted({asn for asn, _ in self._values})

    def distribution(
        self, asn: Optional[int] = None, role: Optional[str] = None
    ) -> Distribution:
        """RFA distribution filtered by AS and/or role."""
        values: List[int] = []
        for (sample_asn, sample_role), batch in self._values.items():
            if asn is not None and sample_asn != asn:
                continue
            if role is not None and sample_role != role:
                continue
            values.extend(batch)
        return Distribution(values)

    def shift(self, asn: int, role: Optional[str] = None) -> Optional[float]:
        """Median RFA for the AS — the FRPLA tunnel-length estimate.

        None when no samples.  A value clearly above 0 flags invisible
        tunnels; the magnitude approximates the mean return-tunnel
        length (Sec. 3.4: it actually measures tunnel length *plus*
        routing asymmetry, hence the need for many vantage points).
        """
        distribution = self.distribution(asn, role)
        return distribution.median if len(distribution) else None

    def suspicious_asns(self, threshold: float = 1.5) -> List[int]:
        """ASes whose median RFA exceeds ``threshold``."""
        result = []
        for asn in self.asns():
            shift = self.shift(asn)
            if shift is not None and shift >= threshold:
                result.append(asn)
        # A gauge, not a counter: the verdict is recomputable and
        # repeated calls must not accumulate.
        self.obs.metrics.set_gauge("frpla.suspicious_asns", len(result))
        if self.obs.events.info:
            self.obs.events.emit(
                "technique.verdict", technique="frpla",
                success=bool(result), asns=result,
            )
        return result
