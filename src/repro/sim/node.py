"""A cluster machine: CPU, disk, processes, and crash/restart semantics.

A :class:`Node` separates what a crash destroys from what it spares:

* **volatile** -- running processes (killed), CPU queue (reset), message
  handlers (cleared), anything the application kept in plain memory;
* **persistent** -- the :class:`~repro.sim.disk.Disk` contents that were
  durable at crash time.

``crash()`` is the paper's "abrupt server shutdown (kill at the OS level)";
``restart()`` powers the hardware back on, after which a boot function (set
by deployment code and invoked by the watchdog) re-instantiates the
application from disk -- the paper's "abrupt server reboot".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim.core import Process, SimulationError, Simulator
from repro.sim.disk import Disk, DiskParams
from repro.sim.network import Network
from repro.sim.resource import ServiceStation
from repro.sim.trace import log_of

#: Length of a node's process list that triggers its first sweep.
_MIN_SWEEP = 64


class Node:
    """One simulated machine attached to the cluster network."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 disk_params: Optional[DiskParams] = None,
                 cpu_speed: float = 1.0):
        self.sim = sim
        self.network = network
        self.name = name
        self.alive = True
        self.incarnation = 0
        self.cpu_speed = cpu_speed
        self.disk = Disk(sim, disk_params, name=f"{name}-disk")
        self.cpu = ServiceStation(sim, name=f"{name}-cpu", speed=cpu_speed)
        self.boot: Optional[Callable[["Node"], None]] = None
        # Live processes, plus finished ones not yet swept by spawn();
        # crash() kills them all (killing a finished process is a no-op).
        self._processes: List[Process] = []
        self._sweep_at = _MIN_SWEEP
        self._handlers: Dict[str, Callable[[Any, str], None]] = {}
        self._crash_listeners: List[Callable[["Node"], None]] = []
        self._volatile_crash_hooks: List[Callable[[], None]] = []
        self.crash_count = 0
        self.last_crash_at: Optional[float] = None
        self.last_restart_at: Optional[float] = None
        self._events = log_of(sim)
        network.register(self)

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Run a process on this node; it dies if the node crashes."""
        if not self.alive:
            raise SimulationError(f"cannot spawn on crashed node {self.name}")
        process = self.sim.spawn(gen, name=f"{self.name}/{name}" if name else "")
        process.hosted = True
        processes = self._processes
        if len(processes) >= self._sweep_at:
            # Drop finished processes in bulk, not one reap event each:
            # sweeping when the list doubles keeps spawn O(1) amortised.
            self._processes = processes = [
                p for p in processes if not p.finished]
            self._sweep_at = max(_MIN_SWEEP, 2 * len(processes))
        processes.append(process)
        return process

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def handle(self, port: str, fn: Callable[[Any, str], None]) -> None:
        """Register ``fn(payload, src)`` for messages arriving on ``port``."""
        self._handlers[port] = fn

    def send(self, dst: str, port: str, payload: Any,
             size_mb: float = 0.0005, trace: Optional[str] = None) -> None:
        """Send a datagram; a dead node cannot speak."""
        if not self.alive:
            return
        self.network.multicast(self.name, (dst,), port, payload, size_mb,
                               trace)

    # ------------------------------------------------------------------
    # failure semantics
    # ------------------------------------------------------------------
    def add_crash_listener(self, fn: Callable[["Node"], None]) -> None:
        """Observe crashes (e.g. the proxy's broken-connection signal).

        Listeners persist across restarts; they model effects that propagate
        outside the dead machine, like TCP resets.
        """
        self._crash_listeners.append(fn)

    def add_volatile_crash_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once at the next crash, then forget it.

        For per-incarnation cleanup (e.g. a write-ahead log dropping its
        un-flushed tail); re-registered by whatever boots the next
        incarnation.
        """
        self._volatile_crash_hooks.append(fn)

    def crash(self) -> None:
        """Abrupt shutdown: kill everything volatile, keep the disk."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        self.last_crash_at = self.sim.now
        if self._events is not None:
            self._events.emit("node.crash", self.name,
                              incarnation=self.incarnation)
        processes, self._processes = self._processes, []
        for process in processes:
            process.kill()
        self._handlers.clear()
        self.cpu.reset()
        self.disk.on_crash()
        hooks, self._volatile_crash_hooks = self._volatile_crash_hooks, []
        for hook in hooks:
            hook()
        for listener in list(self._crash_listeners):
            listener(self)

    def restart(self) -> None:
        """Power back on with empty volatile state; disk contents intact."""
        if self.alive:
            raise SimulationError(f"node {self.name} is already running")
        self.alive = True
        self.incarnation += 1
        self.last_restart_at = self.sim.now
        if self._events is not None:
            self._events.emit("node.restart", self.name,
                              incarnation=self.incarnation)
        self.cpu = ServiceStation(self.sim, name=f"{self.name}-cpu",
                                  speed=self.cpu_speed)

    def reboot(self) -> None:
        """restart() then run the deployment-provided boot function."""
        self.restart()
        if self.boot is not None:
            self.boot(self)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Node {self.name} {state} inc={self.incarnation}>"
