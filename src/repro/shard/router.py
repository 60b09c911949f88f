"""The shard-aware router: one proxy fronting all shard groups.

A :class:`~repro.web.proxy.ReverseProxy` subclass, so the probing,
fall/rise bookkeeping, redispatch, and broken-connection semantics of
the paper's HAProxy model apply unchanged -- the only override is the
backend choice: every request is mapped to its **home shard** (the
session customer's owner group, falling back to a stable hash of the
client id before a session binds to a customer) and balanced over the
live replicas of that group only.

Per-shard instruments (``shard.s<g>.*``) feed the per-shard WIPS and
router-distribution series that ``repro report --aggregate`` folds into
cluster-level numbers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.registry import registry_of
from repro.shard.partition import Partitioner
from repro.sim.node import Node
from repro.web.http import Request
from repro.web.proxy import ProxyParams, ReverseProxy


class ShardRouter(ReverseProxy):
    """Routes each interaction to its home shard's replica group."""

    def __init__(self, node: Node, shard_backends: List[List[str]],
                 partitioner: Partitioner,
                 params: Optional[ProxyParams] = None):
        flat = [name for group in shard_backends for name in group]
        super().__init__(node, flat, params)
        self.partitioner = partitioner
        self._shard_sets = [frozenset(group) for group in shard_backends]
        # Per-shard counts: ``stats["s<g>.router_hits"]`` and so on,
        # published as ``shard.s<g>.*``.  The ok/WIRT counts are the
        # proxy's per-backend group counts, the group being the shard.
        self._hit_keys = [f"s{g}.router_hits"
                          for g in range(len(shard_backends))]
        keys = [f"s{g}.{count}" for g in range(len(shard_backends))
                for count in ("router_hits", "interactions_ok",
                              "wirt_sum_s")]
        self.stats.update(dict.fromkeys(keys, 0))
        self._count_by_group({name: f"s{g}"
                              for g, group in enumerate(shard_backends)
                              for name in group})
        registry_of(node.sim).register_counts(
            self.stats, {f"shard.{key}": key for key in keys})

    # ------------------------------------------------------------------
    def home_shard(self, request: Request) -> int:
        """The shard that owns this request's session."""
        c_id = request.session.get("c_id")
        if c_id is not None:
            return self.partitioner.shard_of_customer(c_id)
        # No customer bound yet: stable per-client hash, so the whole
        # anonymous prefix of a session stays on one group.
        return request.client_id % len(self._shard_sets)

    def _pick_backend(self, request: Request, attempt: int) -> Optional[str]:
        shard = self.home_shard(request)
        if attempt == 0:
            self.stats[self._hit_keys[shard]] += 1
        members = self._shard_sets[shard]
        pool = [b for b in self.active if b in members]
        if not pool:
            return None
        return pool[(request.client_id + attempt) % len(pool)]
