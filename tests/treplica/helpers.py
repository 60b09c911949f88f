"""Shared fixtures for Treplica tests: a replicated key-value application."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.paxos.config import PaxosConfig
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from repro.treplica import Action, InMemoryApplication, TreplicaConfig, TreplicaRuntime


class KVApp(InMemoryApplication):
    """A dict plus an apply log (the log exposes the total order)."""

    def __init__(self, nominal_size_mb: float = 1.0):
        super().__init__(state={"data": {}, "log": []},
                         nominal_size_mb=nominal_size_mb)
        self.snapshot_calls = 0  # full encodes this incarnation paid for

    def snapshot(self) -> bytes:
        self.snapshot_calls += 1
        return super().snapshot()


class Put(Action):
    """Deterministic write: all inputs are action arguments."""

    cpu_cost_s = 0.0002

    def __init__(self, key, value, stamp=None):
        self.key = key
        self.value = value
        self.stamp = stamp

    def apply(self, app):
        app.state["data"][self.key] = (self.value, self.stamp)
        app.state["log"].append((self.key, self.value))
        return self.value


class TreplicaCluster:
    """N nodes each hosting a KVApp under a TreplicaRuntime."""

    def __init__(self, n: int, seed: int = 11, nominal_size_mb: float = 1.0,
                 config: Optional[TreplicaConfig] = None):
        self.sim = Simulator()
        self.seed = SeedTree(seed)
        self.network = Network(self.sim, NetworkParams(), seed=self.seed)
        self.config = config or TreplicaConfig()
        self.nominal_size_mb = nominal_size_mb
        self.n = n
        self.nodes: List[Node] = [
            Node(self.sim, self.network, f"r{i}") for i in range(n)]
        self.names = [node.name for node in self.nodes]
        self.runtimes: List[Optional[TreplicaRuntime]] = [None] * n
        for i in range(n):
            self._boot(i)

    def _boot(self, i: int) -> None:
        app = KVApp(nominal_size_mb=self.nominal_size_mb)
        runtime = TreplicaRuntime(self.nodes[i], self.names, i, app,
                                  config=self.config, seed=self.seed)
        runtime.start()
        self.runtimes[i] = runtime

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def put(self, replica: int, key, value) -> None:
        """Fire-and-forget execute from a client process on the replica."""
        runtime = self.runtimes[replica]

        def client():
            result = yield from runtime.execute(Put(key, value))
            return result

        self.nodes[replica].spawn(client(), name=f"client-{key}")

    def put_blocking(self, replica: int, key, value, timeout: float = 10.0):
        """Execute and return the result (runs the simulator)."""
        runtime = self.runtimes[replica]
        results = []

        def client():
            result = yield from runtime.execute(Put(key, value))
            results.append(result)

        self.nodes[replica].spawn(client(), name=f"client-{key}")
        deadline = self.sim.now + timeout
        while not results and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 0.1)
        return results[0] if results else None

    def crash(self, replica: int) -> None:
        self.nodes[replica].crash()
        self.runtimes[replica] = None

    def reboot(self, replica: int) -> None:
        self.nodes[replica].restart()
        self._boot(replica)

    # ------------------------------------------------------------------
    def logs(self) -> Dict[int, list]:
        return {i: list(rt.app.state["log"])
                for i, rt in enumerate(self.runtimes) if rt is not None}

    def assert_converged(self):
        logs = [tuple(log) for log in self.logs().values()]
        assert logs, "no live replicas"
        assert all(log == logs[0] for log in logs), "replica states diverge"
