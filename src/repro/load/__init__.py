"""Load generation models (closed-loop RBE fleet vs open-loop arrivals).

``build_load`` is where :class:`repro.harness.cluster.RobustStoreCluster`
constructs its load tier, dispatching on ``ClusterConfig.load_mode``:

* ``"closed"`` -- the paper's per-client RBE fleet, byte-identical to
  the historical inline loop (same seed-fork names in the same order);
* ``"open"`` -- one :class:`OpenLoopLoadSource` per client node, each
  carrying an equal share of the offered WIPS (see
  :mod:`repro.load.open_loop`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.load.open_loop import OpenLoopLoadSource, class_mix, class_rates

__all__ = ["OpenLoopLoadSource", "class_mix", "class_rates", "build_load"]


def build_load(client_nodes, proxy_name, profile, collector, seed,
               config) -> Tuple[list, List[OpenLoopLoadSource]]:
    """Build and start the configured load tier.

    Returns ``(rbes, sources)``; exactly one of the two lists is
    non-empty.
    """
    rbes: list = []
    sources: List[OpenLoopLoadSource] = []
    retry = config.retry_policy()
    propagate = config.defenses
    if config.load_mode == "open":
        n = len(client_nodes)
        share = config.effective_offered_wips / n
        for k, node in enumerate(client_nodes):
            source = OpenLoopLoadSource(
                node, proxy_name, profile, collector,
                seed.fork(f"open-load-{k}"),
                source_id=k, wips=share,
                population=config.effective_population,
                arrival=config.arrival,
                timeout_s=config.scaled_rbe_timeout_s,
                retry=retry, propagate_deadline=propagate)
            source.start()
            sources.append(source)
        return rbes, sources
    # Closed loop: the historical RBE fleet, fork names unchanged so
    # pre-existing runs stay bit-for-bit reproducible.  The retry stream
    # is a NEW named fork created only when retries are on, so enabling
    # it cannot shift any historical stream.
    from repro.tpcw.rbe import RemoteBrowserEmulator
    for k in range(config.num_rbes):
        node = client_nodes[k % len(client_nodes)]
        retry_rng = (seed.fork_random(f"retry-rbe-{k}")
                     if retry is not None and retry.enabled else None)
        rbe = RemoteBrowserEmulator(
            node, proxy_name, profile, collector,
            seed.fork_random(f"rbe-{k}"),
            rbe_id=k + 1,
            think_time_s=config.think_time_s,
            timeout_s=config.scaled_rbe_timeout_s,
            use_navigation=config.use_navigation,
            retry=retry, retry_rng=retry_rng,
            propagate_deadline=propagate)
        rbe.start()
        rbes.append(rbe)
    return rbes, sources
