"""Multi-datacenter network topology: named DCs and a per-link matrix.

The paper's cluster lives behind one 1 Gbps switch; a geo deployment
spreads that cluster across datacenters connected by WAN links that are
two to three orders of magnitude slower.  A :class:`Topology` names the
datacenters and gives every *directed* DC pair a :class:`LinkParams`
(latency, bandwidth, jitter): intra-DC traffic keeps the paper's switch
calibration, cross-DC traffic defaults to a configurable WAN link, and
individual directed pairs may be overridden -- asymmetric routes (a
transatlantic path that is slower one way) are first-class.

The topology itself is pure data; :mod:`repro.geo.model` turns it into
the per-message delay model the simulated switch consults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.network import NetworkParams

_DC_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class LinkParams:
    """Calibration for one directed DC-to-DC link.

    Same shape as :class:`repro.sim.network.NetworkParams`: a message
    costs ``latency_s + size/bandwidth + Exp(jitter_mean_s)``.
    """

    latency_s: float
    bandwidth_mb_s: float
    jitter_mean_s: float

    def __post_init__(self):
        if self.latency_s < 0.0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s!r}")
        if self.bandwidth_mb_s <= 0.0:
            raise ValueError(f"bandwidth_mb_s must be positive, "
                             f"got {self.bandwidth_mb_s!r}")
        if self.jitter_mean_s <= 0.0:
            raise ValueError(f"jitter_mean_s must be positive, "
                             f"got {self.jitter_mean_s!r}")


_PARAMS = NetworkParams()

#: Intra-DC default: exactly the paper's single-switch calibration, so a
#: one-DC topology reproduces the flat network's delay distribution.
DEFAULT_INTRA = LinkParams(latency_s=_PARAMS.base_latency_s,
                           bandwidth_mb_s=_PARAMS.bandwidth_mb_s,
                           jitter_mean_s=_PARAMS.jitter_mean_s)

#: WAN default: ~25 ms one-way (50 ms RTT -- same-continent DCs), a
#: fraction of the switch bandwidth, and millisecond-scale jitter.
DEFAULT_WAN = LinkParams(latency_s=0.025,
                         bandwidth_mb_s=40.0,
                         jitter_mean_s=0.002)


def _check_dc_name(name: str) -> str:
    if not _DC_NAME.match(name):
        raise ValueError(f"bad datacenter name {name!r} (want letters, "
                         f"digits, '-' or '_', starting with a letter)")
    return name


@dataclass(frozen=True)
class Topology:
    """Named datacenters plus the directed latency/bandwidth matrix.

    ``links`` holds per-directed-pair overrides as
    ``(((src_dc, dst_dc), LinkParams), ...)``; any pair not listed falls
    back to ``intra`` (same DC) or ``wan`` (different DCs).  The first
    DC in ``dcs`` is the *home* DC: placement policies seat the initial
    leader there and clients default to it.
    """

    dcs: Tuple[str, ...]
    intra: LinkParams = DEFAULT_INTRA
    wan: LinkParams = DEFAULT_WAN
    links: Tuple[Tuple[Tuple[str, str], LinkParams], ...] = ()

    def __post_init__(self):
        if not self.dcs:
            raise ValueError("a topology needs at least one datacenter")
        for name in self.dcs:
            _check_dc_name(name)
        if len(set(self.dcs)) != len(self.dcs):
            raise ValueError(f"duplicate datacenter names in {self.dcs!r}")
        for (src, dst), _link in self.links:
            for name in (src, dst):
                if name not in self.dcs:
                    raise ValueError(f"link override names unknown "
                                     f"datacenter {name!r}")

    def require_dc(self, name: str) -> str:
        if name not in self.dcs:
            raise ValueError(f"unknown datacenter {name!r} "
                             f"(topology has {', '.join(self.dcs)})")
        return name

    def _overrides(self) -> Dict[Tuple[str, str], LinkParams]:
        return dict(self.links)

    def link(self, src_dc: str, dst_dc: str) -> LinkParams:
        """The directed link ``src_dc -> dst_dc`` (asymmetry allowed)."""
        self.require_dc(src_dc)
        self.require_dc(dst_dc)
        override = self._overrides().get((src_dc, dst_dc))
        if override is not None:
            return override
        return self.intra if src_dc == dst_dc else self.wan

    def rtt_s(self, a: str, b: str) -> float:
        """Round-trip propagation delay between two DCs."""
        return self.link(a, b).latency_s + self.link(b, a).latency_s

    def max_rtt_s(self) -> float:
        """The worst round trip anywhere in the topology.

        Failure-detector timeouts are derived from this so a slow but
        healthy WAN pair is never mistaken for a crash.
        """
        worst = self.rtt_s(self.dcs[0], self.dcs[0])
        for a in self.dcs:
            for b in self.dcs:
                worst = max(worst, self.rtt_s(a, b))
        return worst
