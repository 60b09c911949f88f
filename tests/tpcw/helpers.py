"""A replicated bookstore (no web tier) for facade/action tests."""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from repro.tpcw.app import BookstoreApplication
from repro.tpcw.bookstore import BookstoreServlets
from repro.tpcw.database import TPCWDatabase
from repro.tpcw.population import PopulationParams
from repro.tpcw.state import BookstoreState
from repro.treplica import TreplicaConfig, TreplicaRuntime


class BookstoreCluster:
    """N replicas each running the bookstore under Treplica."""

    def __init__(self, n: int = 3, seed: int = 5,
                 params: Optional[PopulationParams] = None,
                 config: Optional[TreplicaConfig] = None):
        self.sim = Simulator()
        self.seed = SeedTree(seed)
        self.network = Network(self.sim, NetworkParams(), seed=self.seed)
        self.params = params or PopulationParams(
            num_items=150, num_ebs=1, entity_scale=0.02, seed=seed)
        self.config = config or TreplicaConfig(checkpoint_interval_s=30.0)
        # The deployment's genesis checkpoint, as RobustStoreCluster keeps it.
        self.genesis = BookstoreApplication.populated(self.params).snapshot()
        self.n = n
        self.nodes: List[Node] = [
            Node(self.sim, self.network, f"r{i}") for i in range(n)]
        self.names = [node.name for node in self.nodes]
        self.runtimes: List[Optional[TreplicaRuntime]] = [None] * n
        self.dbs: List[Optional[TPCWDatabase]] = [None] * n
        self.servlets: List[Optional[BookstoreServlets]] = [None] * n
        for i in range(n):
            self._boot(i)

    def _boot(self, i: int) -> None:
        node = self.nodes[i]
        runtime = TreplicaRuntime(node, self.names, i,
                                  BookstoreApplication(BookstoreState()),
                                  config=self.config, seed=self.seed)
        runtime.restore_state((self.genesis, ()))
        db = TPCWDatabase(runtime, clock=lambda: self.sim.now,
                          rng=self.seed.fork_random(
                              f"db-{i}-{node.incarnation}"))
        self.runtimes[i] = runtime
        self.dbs[i] = db
        self.servlets[i] = BookstoreServlets(
            db, self.seed.fork_random(f"servlet-{i}-{node.incarnation}"))
        runtime.start()

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def call(self, replica: int, generator, timeout: float = 15.0):
        """Run a facade write generator to completion and return its value."""
        results = []

        def client():
            value = yield from generator
            results.append(value)

        self.nodes[replica].spawn(client())
        deadline = self.sim.now + timeout
        while not results and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 0.1)
        assert results, "facade call did not complete in time"
        return results[0]

    def crash(self, replica: int) -> None:
        self.nodes[replica].crash()
        self.runtimes[replica] = None
        self.dbs[replica] = None

    def reboot(self, replica: int) -> None:
        self.nodes[replica].restart()
        self._boot(replica)

    def states(self):
        return [rt.app.state for rt in self.runtimes if rt is not None]

    def assert_converged(self):
        apps = [rt.app for rt in self.runtimes if rt is not None]
        reference = canonical(apps[0])
        for app in apps[1:]:
            assert canonical(app) == reference


def detached_runtime(app) -> TreplicaRuntime:
    """A never-started single-replica runtime around ``app``: enough to
    drive the checkpoint-state methods without a cluster."""
    sim = Simulator()
    node = Node(sim, Network(sim, NetworkParams(), seed=SeedTree(0)), "r0")
    return TreplicaRuntime(node, ["r0"], 0, app)


def structure(obj):
    """``obj`` as nested tuples of plain values: slotted rows by slot,
    maps sorted by key, sequences in order -- equal for equal content
    whatever the objects' identities."""
    if hasattr(obj, "__slots__"):
        return tuple((name, structure(getattr(obj, name)))
                     for name in obj.__slots__)
    if isinstance(obj, dict):
        return tuple(sorted((key, structure(v)) for key, v in obj.items()))
    if isinstance(obj, (list, tuple, deque)):
        return tuple(structure(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(obj))
    return obj


def canonical(app) -> tuple:
    """A structural digest of every attribute of the state, insensitive to
    object identity (two semantically identical states can share rows, or
    differ in raw pickle bytes when one was rebuilt via restore)."""
    return tuple((name, structure(attr))
                 for name, attr in sorted(vars(app.state).items()))
