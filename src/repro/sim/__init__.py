"""Deterministic discrete-event simulation substrate.

This package replaces the paper's physical testbed (an 18-node cluster with
1 Gbps Ethernet and local 7200-rpm disks) with a simulated one.  It provides:

* :class:`~repro.sim.core.Simulator` -- the event loop and virtual clock.
* :class:`~repro.sim.core.Process` -- generator-based cooperative processes.
* :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.Channel` -- synchronization primitives.
* :class:`~repro.sim.resource.ServiceStation` -- FIFO single-server queueing
  resource used to model CPUs; ``request()`` returns a
  :class:`~repro.sim.resource.Grant`.
* :class:`~repro.sim.disk.Disk` and :class:`~repro.sim.disk.WriteAheadLog` --
  stable storage with fsync semantics and group commit.
* :class:`~repro.sim.network.Network` -- message passing with latency and
  bandwidth costs.
* :class:`~repro.sim.node.Node` -- a cluster machine with crash/restart
  semantics: volatile state (CPU queue, processes) dies with the node, the
  disk survives.
* :class:`~repro.sim.rng.SeedTree` -- deterministic, named random streams.
"""

from repro.sim.core import (
    AllOf,
    Channel,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.disk import (
    CorruptObject,
    Disk,
    DiskParams,
    LogFrame,
    StorageFault,
    StorageNemesis,
    WriteAheadLog,
)
from repro.sim.network import (
    Nemesis,
    NemesisParams,
    NemesisWindow,
    Network,
    NetworkParams,
)
from repro.sim.node import Node
from repro.sim.resource import Grant, ServiceStation
from repro.sim.rng import SeedTree

__all__ = [
    "AllOf",
    "Channel",
    "CorruptObject",
    "Disk",
    "DiskParams",
    "LogFrame",
    "Event",
    "Grant",
    "Interrupted",
    "Nemesis",
    "NemesisParams",
    "NemesisWindow",
    "Network",
    "NetworkParams",
    "Node",
    "Process",
    "SeedTree",
    "ServiceStation",
    "SimulationError",
    "Simulator",
    "StorageFault",
    "StorageNemesis",
    "Timeout",
    "WriteAheadLog",
]
