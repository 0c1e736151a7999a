"""RTLA — Return Tunnel Length Analysis (Sec. 3.1, Fig. 3).

For routers with the Juniper ``<255, 64>`` signature, two reply kinds
leave the same router with *different* initial TTLs:

* ``time-exceeded`` starts at 255 — inside a no-ttl-propagate return
  tunnel the LSE-TTL (pushed at 255) drops below it, so the ``min``
  rule copies the LSE-TTL back at the tunnel exit: tunnel hops are
  counted in the return path.
* ``echo-reply`` starts at 64 — the LSE-TTL (255 - a few) always stays
  above it, the ``min`` rule keeps the IP-TTL: tunnel hops are *not*
  counted.

The gap between the two inferred return path lengths is exactly the
return tunnel length::

    h(I, E) = (255 - ttl_te) - (64 - ttl_er)

RTLA is per-router (unlike the AS-statistical FRPLA) and insensitive
to routing asymmetry, but only applies to ``<255, 64>`` targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.signatures import (
    Signature,
    SignatureInventory,
    return_path_length,
)
from repro.obs import Obs
from repro.probing.prober import PingResult, Trace
from repro.stats.distributions import Distribution

__all__ = ["RtlaEstimate", "rtla_gap", "RtlaAnalyzer"]


@dataclass(frozen=True)
class RtlaEstimate:
    """Return tunnel length inferred for one address."""

    address: int
    te_return_length: int  #: return path length via time-exceeded
    er_return_length: int  #: return path length via echo-reply
    tunnel_length: int  #: the gap — number of hops in the return LSP


def rtla_gap(
    te_reply_ttl: Optional[int], er_reply_ttl: Optional[int]
) -> Optional[RtlaEstimate]:
    """Compute the RTLA gap from the two residual TTLs.

    Returns None when either observation is missing or when the
    inferred initials are not the ``<255, 64>`` pair (RTLA does not
    apply to other signatures).
    """
    te_len = return_path_length(te_reply_ttl)
    er_len = return_path_length(er_reply_ttl)
    if te_len is None or er_len is None:
        return None
    signature = Signature(
        time_exceeded=255 if te_reply_ttl > 128 else None,
        echo_reply=64 if er_reply_ttl <= 64 else None,
    )
    if not signature.rtla_capable:
        return None
    return RtlaEstimate(
        address=0,
        te_return_length=te_len,
        er_return_length=er_len,
        tunnel_length=te_len - er_len,
    )


class RtlaAnalyzer:
    """Pairs trace hops with pings and derives return tunnel lengths.

    Observations are keyed per *(vantage point, address)*: the two
    reply kinds only share a return path when they were probed from
    the same vantage point, so cross-VP pairing would measure routing
    differences instead of the tunnel.
    """

    def __init__(
        self,
        inventory: Optional[SignatureInventory] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self.inventory = inventory or SignatureInventory()
        #: best (largest) TE residual TTL per (vp, address)
        self._te_ttl: Dict[Tuple[str, int], int] = {}
        #: best (largest) echo-reply residual TTL per (vp, address)
        self._er_ttl: Dict[Tuple[str, int], int] = {}
        self.obs = obs if obs is not None else Obs()

    def __eq__(self, other: object) -> bool:
        """Equal over the observations; the ``obs`` sink is not state."""
        if not isinstance(other, RtlaAnalyzer):
            return NotImplemented
        return (
            self.inventory == other.inventory
            and self._te_ttl == other._te_ttl
            and self._er_ttl == other._er_ttl
        )

    def bind_obs(self, obs: Obs) -> "RtlaAnalyzer":
        """Redirect future intake counters into ``obs``.

        ``CampaignResult`` default-constructs its analyzer before the
        campaign can hand over its bundle; the orchestrator re-binds
        here so RTLA intake lands in the campaign's registry.
        """
        self.obs = obs
        return self

    # ------------------------------------------------------------------
    # Intake

    def add_trace(self, trace: Trace) -> None:
        """Ingest time-exceeded residual TTLs from a trace."""
        self.inventory.observe_trace(trace)
        for hop in trace.hops:
            if (
                hop.responded
                and hop.reply_kind == "time-exceeded"
                and hop.reply_ttl is not None
            ):
                self.obs.metrics.inc("rtla.te_observations")
                self.obs.metrics.inc("technique.rtla.observations")
                key = (trace.source, hop.address)
                previous = self._te_ttl.get(key)
                if previous is None or hop.reply_ttl > previous:
                    self._te_ttl[key] = hop.reply_ttl

    def add_ping(self, result: PingResult) -> None:
        """Ingest one echo-reply residual TTL."""
        self.inventory.observe_ping(result)
        if (
            result.responded
            and result.reply_ttl is not None
            and result.source is not None
        ):
            self.obs.metrics.inc("rtla.er_observations")
            self.obs.metrics.inc("technique.rtla.observations")
            key = (result.source, result.dst)
            previous = self._er_ttl.get(key)
            if previous is None or result.reply_ttl > previous:
                self._er_ttl[key] = result.reply_ttl

    # ------------------------------------------------------------------
    # Inference

    def addresses(self) -> List[int]:
        """Addresses with both observation kinds from some shared VP."""
        paired = {
            address
            for (vp, address) in self._te_ttl
            if (vp, address) in self._er_ttl
        }
        return sorted(paired)

    def estimate(self, address: int) -> Optional[RtlaEstimate]:
        """Return tunnel length for ``address`` (None if inapplicable).

        Applies only to addresses whose inferred signature is the
        Juniper ``<255, 64>`` pair.  Among vantage points holding both
        observations, the one with the shortest (cleanest) return path
        — the largest TE residual — wins.
        """
        candidates: List[Tuple[int, int]] = []
        for (vp, seen_address), te_ttl in self._te_ttl.items():
            if seen_address != address:
                continue
            er_ttl = self._er_ttl.get((vp, seen_address))
            if er_ttl is not None:
                candidates.append((te_ttl, er_ttl))
        if not candidates:
            return None
        if not self.inventory.signature(address).rtla_capable:
            return None
        te_ttl, er_ttl = max(candidates)
        te_len = return_path_length(te_ttl)
        er_len = return_path_length(er_ttl)
        if te_len is None or er_len is None:
            return None
        return RtlaEstimate(
            address=address,
            te_return_length=te_len,
            er_return_length=er_len,
            tunnel_length=te_len - er_len,
        )

    def estimates(self) -> List[RtlaEstimate]:
        """All per-address estimates."""
        results = []
        for address in self.addresses():
            estimate = self.estimate(address)
            if estimate is not None:
                results.append(estimate)
        # Gauge (idempotent): estimates() is a recomputation, not an
        # accumulation.
        self.obs.metrics.set_gauge("rtla.estimates", len(results))
        return results

    def median_tunnel_length(
        self, asn_of: Optional[Callable[[int], Optional[int]]] = None,
        asn: Optional[int] = None,
    ) -> Optional[float]:
        """Median return tunnel length, optionally restricted to an AS."""
        lengths = []
        for estimate in self.estimates():
            if asn is not None and asn_of is not None:
                if asn_of(estimate.address) != asn:
                    continue
            lengths.append(estimate.tunnel_length)
        if not lengths:
            return None
        return Distribution(lengths).median
