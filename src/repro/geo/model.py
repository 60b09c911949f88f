"""The per-message delay model the simulated switch consults.

:class:`GeoDelayModel` maps node names to datacenters and answers, for
one datagram, which :class:`~repro.geo.topology.LinkParams` applies,
whether the hop crosses the WAN, and what degradation factor (from the
``wandegrade`` windows active now) multiplies the propagation delay.

It is deliberately passive: :class:`repro.sim.network.Network` keeps
drawing jitter from its own seeded stream, so attaching a one-DC
topology with the default intra link reproduces the flat network's
delay distribution draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.geo.topology import LinkParams, Topology


@dataclass(frozen=True)
class DegradeWindow:
    """One active ``wandegrade`` stretch: the directed ``src_dc ->
    dst_dc`` propagation delay is multiplied by ``factor`` while the
    window is held.  Overlapping windows compose."""

    src_dc: str
    dst_dc: str
    factor: float = 4.0

    def __post_init__(self):
        if self.factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, "
                             f"got {self.factor!r}")


class GeoDelayModel:
    """Node-to-DC assignment plus the live link lookup."""

    def __init__(self, topology: Topology, dc_of: Dict[str, str],
                 default_dc: str):
        topology.require_dc(default_dc)
        for name, dc in dc_of.items():
            topology.require_dc(dc)
        self.topology = topology
        self.dc_of = dict(dc_of)
        self.default_dc = default_dc
        self._windows: List[DegradeWindow] = []
        # Cross-DC traffic counters; observability gauges export them.
        self.wan_messages = 0
        self.wan_mb = 0.0

    def dc(self, node_name: str) -> str:
        """The DC a node lives in (unmapped nodes sit in the default)."""
        return self.dc_of.get(node_name, self.default_dc)

    def add_degrade(self, window: DegradeWindow) -> None:
        self.topology.require_dc(window.src_dc)
        self.topology.require_dc(window.dst_dc)
        self._windows.append(window)

    def remove_degrade(self, window: DegradeWindow) -> None:
        self._windows.remove(window)

    def degrade_factor(self, src_dc: str, dst_dc: str) -> float:
        factor = 1.0
        for window in self._windows:
            if window.src_dc == src_dc and window.dst_dc == dst_dc:
                factor *= window.factor
        return factor

    def link_for(self, src: str, dst: str) -> Tuple[LinkParams, bool, float]:
        """``(link, crosses_wan, degrade_factor)`` for one datagram."""
        src_dc = self.dc(src)
        dst_dc = self.dc(dst)
        link = self.topology.link(src_dc, dst_dc)
        wan = src_dc != dst_dc
        factor = (self.degrade_factor(src_dc, dst_dc)
                  if wan and self._windows else 1.0)
        return link, wan, factor
