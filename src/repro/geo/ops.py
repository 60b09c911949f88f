"""Geo wiring for :class:`repro.harness.cluster.RobustStoreCluster`.

Assign every node a DC, hand the switch a delay model, and translate
DC-scoped faults (``dcfail``, ``wanpart``, ``wandegrade``) into the
crash/partition primitives the cluster already has.  :class:`GeoState`
owns that bookkeeping; the cluster keeps only thin methods over it.

Replica *targets* are opaque here: the cluster hands in one
``(fault_target, node_name)`` pair per replica and gets the same
targets back per DC, so the state never inspects their shape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.geo.model import GeoDelayModel
from repro.geo.placement import GeoConfig, placement_dcs


class GeoState:
    """One cluster's node-to-DC assignment and DC-level fault views."""

    def __init__(self, geo: GeoConfig,
                 groups: Sequence[Sequence[Tuple[Any, str]]],
                 infra_nodes: Sequence[str]):
        """``groups`` holds, per replica group, the ``(fault_target,
        node_name)`` pairs in replica-index order; ``infra_nodes`` are
        the proxy and client node names (they live in the client DC)."""
        self.geo = geo
        dcs = placement_dcs(geo, len(groups[0]))
        client_dc = geo.effective_client_dc
        assignment: Dict[str, str] = {}
        self.replica_dc_of: Dict[str, str] = {}
        self._dc_targets: Dict[str, List[Any]] = {
            dc: [] for dc in geo.topology.dcs}
        self._dc_nodes: Dict[str, List[str]] = {
            dc: [] for dc in geo.topology.dcs}
        for group in groups:
            if len(group) != len(dcs):
                raise ValueError("all replica groups must be the same size")
            for index, (target, name) in enumerate(group):
                assignment[name] = dcs[index]
                self.replica_dc_of[name] = dcs[index]
                self._dc_targets[dcs[index]].append(target)
        for name in infra_nodes:
            assignment[name] = client_dc
        for name, dc in assignment.items():
            self._dc_nodes[dc].append(name)
        self.replica_dcs = dcs
        self.client_dc = client_dc
        self.model = GeoDelayModel(geo.topology, assignment,
                                   default_dc=client_dc)

    # ------------------------------------------------------------------
    def require_dc(self, name: str) -> str:
        return self.geo.topology.require_dc(name)

    def replica_targets(self, dc: str) -> List[Any]:
        """Fault targets of the replicas housed in ``dc``."""
        self.require_dc(dc)
        return list(self._dc_targets[dc])

    def nodes_in(self, dc: str) -> List[str]:
        self.require_dc(dc)
        return list(self._dc_nodes[dc])

    def cut_pairs(self, dc: str,
                  peer_dcs: Sequence[str]) -> List[Tuple[str, str]]:
        """Every node pair severed by a WAN partition isolating ``dc``
        from ``peer_dcs`` (the switch blocks both directions per pair)."""
        isolated = self.nodes_in(dc)
        far = [name for peer in peer_dcs for name in self.nodes_in(peer)]
        return [(a, b) for a in isolated for b in far]
