"""Load generation models (closed-loop RBE fleet vs open-loop arrivals).

Both drivers put each interaction through one client core
(:mod:`repro.load.client`: attempts, retries, recording, sessions) and
keep only what their load model adds.  ``build_load`` is where
:class:`repro.harness.cluster.RobustStoreCluster` constructs its load
tier, dispatching on ``ClusterConfig.load_mode``:

* ``"closed"`` -- the paper's per-client RBE fleet
  (:mod:`repro.load.closed_loop`), byte-identical to the historical
  inline loop (same seed-fork names in the same order);
* ``"open"`` -- one :class:`OpenLoopLoadSource` per client node, each
  carrying an equal share of the offered WIPS (see
  :mod:`repro.load.open_loop`).
"""

from __future__ import annotations

from typing import List

from repro.load.client import ClientCore
from repro.load.closed_loop import RemoteBrowserEmulator
from repro.load.open_loop import OpenLoopLoadSource, class_mix, class_rates

__all__ = ["OpenLoopLoadSource", "RemoteBrowserEmulator", "class_mix",
           "class_rates", "build_load"]


def build_load(client_nodes, proxy_name, profile, collector, seed,
               config) -> List[ClientCore]:
    """Build and start the configured load tier; returns its drivers."""
    drivers: list = []
    retry = config.retry_policy()
    propagate = config.defenses
    if config.load_mode == "open":
        share = config.effective_offered_wips / len(client_nodes)
        for k, node in enumerate(client_nodes):
            drivers.append(OpenLoopLoadSource(
                node, proxy_name, profile, collector,
                seed.fork(f"open-load-{k}"),
                source_id=k, wips=share,
                population=config.effective_population,
                arrival=config.arrival,
                timeout_s=config.rbe_timeout_s,
                retry=retry, propagate_deadline=propagate))
    else:
        # Closed loop: the historical RBE fleet, fork names unchanged so
        # pre-existing runs stay bit-for-bit reproducible.  The retry
        # stream is a NEW named fork created only when retries are on,
        # so enabling it cannot shift any historical stream.
        for k in range(config.num_rbes):
            retry_rng = (seed.fork_random(f"retry-rbe-{k}")
                         if retry is not None and retry.enabled else None)
            drivers.append(RemoteBrowserEmulator(
                client_nodes[k % len(client_nodes)], proxy_name, profile,
                collector, seed.fork_random(f"rbe-{k}"),
                rbe_id=k + 1,
                think_time_s=config.think_time_s,
                timeout_s=config.rbe_timeout_s,
                use_navigation=config.use_navigation,
                retry=retry, retry_rng=retry_rng,
                propagate_deadline=propagate))
    for driver in drivers:
        driver.start()
    return drivers
