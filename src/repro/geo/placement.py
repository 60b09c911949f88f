"""Geo deployment policy: replica placement and quorum shapes.

:class:`GeoConfig` bundles a :class:`~repro.geo.topology.Topology` with
the two policy knobs that decide where commit latency lives:

**Placement** -- which DC each replica index sits in (identical for
every shard's group, so shard ``g`` replica ``i`` and shard ``h``
replica ``i`` are co-located):

* ``spread``: round-robin across DCs -- best survivability (losing any
  one DC loses at most ``ceil(n/len(dcs))`` replicas), worst commit
  latency (a majority always crosses the WAN).
* ``leader-local``: a bare majority (``n//2 + 1``) in the home DC
  (where replica 0, the initial leader, lives), the rest round-robin
  over the remaining DCs -- majority commits never leave the building,
  but losing the home DC loses the majority.
* ``pinned``: an explicit DC per replica index.

**Quorum shape** -- how big the Paxos phase-1 (leader election) and
phase-2 (command accept) quorums are:

* ``majority``: the classic ``n//2 + 1`` for both; no overrides.
* ``leader-local``: flexible quorums (FPaxos): phase-2 shrinks to the
  number of replicas co-located with the initial leader, phase-1 grows
  to ``n - q2 + 1`` so the two still intersect.  Commits are intra-DC
  fast; elections pay the WAN (rare by design).
* ``flex:<k>``: explicit phase-2 quorum of ``k`` with
  ``q1 = n - k + 1``.

Flexible shapes disable Fast Paxos (its 3n/4 fast quorum and recovery
rule assume majority intersection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.geo.topology import Topology
from repro.paxos.config import HEARTBEAT_INTERVAL_S

PLACEMENTS = ("spread", "leader-local", "pinned")
QUORUM_SHAPES = ("majority", "leader-local")  # plus "flex:<k>"


@dataclass(frozen=True)
class GeoConfig:
    """One geo deployment: topology + placement + quorum shape.

    ``client_dc`` is where the reverse proxy and the emulated-browser
    fleet live (defaults to the topology's home DC); ``pinned`` is the
    per-replica-index DC list used when ``placement='pinned'``.
    """

    topology: Topology
    placement: str = "spread"
    quorum: str = "majority"
    pinned: Tuple[str, ...] = ()
    client_dc: Optional[str] = None

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r} "
                             f"(want one of {', '.join(PLACEMENTS)})")
        if (self.quorum not in QUORUM_SHAPES
                and not self.quorum.startswith("flex:")):
            raise ValueError(f"unknown quorum shape {self.quorum!r} (want "
                             f"{', '.join(QUORUM_SHAPES)}, or 'flex:<k>')")
        if self.quorum.startswith("flex:"):
            text = self.quorum[len("flex:"):]
            if not text.isdigit() or int(text) < 1:
                raise ValueError(f"bad flexible quorum {self.quorum!r} "
                                 f"(want 'flex:<positive int>')")
        if self.placement == "pinned":
            if not self.pinned:
                raise ValueError("placement='pinned' needs pinned=(dc, ...)")
            for name in self.pinned:
                self.topology.require_dc(name)
        elif self.pinned:
            raise ValueError("pinned= only makes sense with "
                             "placement='pinned'")
        if self.client_dc is not None:
            self.topology.require_dc(self.client_dc)

    @property
    def home_dc(self) -> str:
        return self.topology.dcs[0]

    @property
    def effective_client_dc(self) -> str:
        return self.client_dc if self.client_dc is not None else self.home_dc


def placement_dcs(geo: GeoConfig, replicas: int) -> Tuple[str, ...]:
    """The DC of each replica index under the configured policy."""
    dcs = geo.topology.dcs
    if geo.placement == "pinned":
        if len(geo.pinned) != replicas:
            raise ValueError(f"pinned placement names {len(geo.pinned)} DCs "
                             f"but the group has {replicas} replicas")
        return geo.pinned
    if geo.placement == "spread":
        return tuple(dcs[i % len(dcs)] for i in range(replicas))
    # leader-local: a bare majority in the home DC, rest round-robin.
    majority = replicas // 2 + 1
    remote = dcs[1:] or dcs
    return tuple(dcs[0] if i < majority else remote[(i - majority) % len(remote)]
                 for i in range(replicas))


def quorum_sizes(geo: GeoConfig, replicas: int) -> Optional[Tuple[int, int]]:
    """The ``(q1, q2)`` override for the quorum shape, or ``None`` for
    plain majorities (no override, bit-for-bit the non-geo engine)."""
    if geo.quorum == "majority":
        return None
    if geo.quorum == "leader-local":
        leader_dc = placement_dcs(geo, replicas)[0]
        q2 = sum(1 for dc in placement_dcs(geo, replicas) if dc == leader_dc)
    else:  # flex:<k>
        q2 = int(geo.quorum[len("flex:"):])
    if not 1 <= q2 <= replicas:
        raise ValueError(f"phase-2 quorum {q2} out of range for "
                         f"{replicas} replicas")
    return replicas - q2 + 1, q2


def paxos_geo_overrides(geo: GeoConfig, replicas: int,
                        failure_timeout_s: float) -> Dict[str, object]:
    """Per-topology :class:`~repro.paxos.config.PaxosConfig` overrides.

    * ``failure_timeout_s`` stretches to cover four worst-case WAN round
      trips plus two heartbeat periods, so a healthy remote leader is
      never declared dead by a far-away detector.  The LAN default is
      already wider than that for single-switch latencies, so a no-WAN
      topology leaves it untouched.
    * Non-majority quorum shapes set the phase-1/phase-2 quorum sizes
      and turn Fast Paxos off.
    """
    overrides: Dict[str, object] = {}
    floor = 2.0 * HEARTBEAT_INTERVAL_S + 4.0 * geo.topology.max_rtt_s()
    if floor > failure_timeout_s:
        overrides["failure_timeout_s"] = floor
    sizes = quorum_sizes(geo, replicas)
    if sizes is not None:
        overrides["phase1_quorum"], overrides["phase2_quorum"] = sizes
        overrides["enable_fast"] = False
    return overrides
