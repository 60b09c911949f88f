"""The asynchronous persistent queue -- Treplica's main abstraction.

A totally ordered, durable collection of objects: ``enqueue`` is
asynchronous (the object will appear in the order exactly once on every
replica), ``dequeue`` blocks until the next object in the total order is
available locally.  Persistence means a replica can crash, recover, and
bind again to its queue, certain that no enqueue from any replica was
missed -- the queue's durability is the Paxos acceptors' durability.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.paxos.config import PaxosConfig
from repro.paxos.engine import PaxosEngine
from repro.paxos.messages import Command
from repro.sim.core import Event
from repro.sim.disk import WriteAheadLog
from repro.sim.node import Node
from repro.sim.rng import SeedTree


class PersistentQueue:
    """One replica's binding to the replicated queue.

    Items come out as ``(instance, uid, payload)`` triples in the cluster-
    wide total order, deduplicated (retransmissions collapse).  Crashed
    replicas rebind by constructing a new queue on the same node: durable
    Paxos state is restored from the node's disk and the missed suffix is
    learned from the peers.
    """

    def __init__(self, node: Node, replica_names, my_id: int,
                 config: Optional[PaxosConfig] = None,
                 seed: Optional[SeedTree] = None,
                 start_instance: int = 0,
                 wal: Optional[WriteAheadLog] = None,
                 delivered_uids=()):
        self.node = node
        self._sim = node.sim
        config = config or PaxosConfig()
        seed = seed or SeedTree(0)
        if wal is None:
            wal = WriteAheadLog(self._sim, node.disk,
                                name=f"{node.name}-queue-wal", node=node)
        self.engine = PaxosEngine(node, replica_names, my_id, config, seed,
                                  wal=wal, start_instance=start_instance,
                                  delivered_uids=delivered_uids)
        self._stream = self._sim.channel()  # (instance, ((uid, payload), ...))
        self._items = []  # item-level buffer for dequeue()
        self._uid_counter = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind to the queue: restore durable state and begin learning."""
        if self._started:
            raise RuntimeError("queue already bound")
        self._started = True
        self.engine.start()
        self.node.spawn(self._pump(), name="queue-pump")

    def _pump(self):
        while True:
            instance, fresh = yield self.engine.delivery
            items = tuple((command.uid, command.payload) for command in fresh)
            self._stream.put((instance, items))

    # ------------------------------------------------------------------
    def enqueue(self, payload: Any, size_mb: float = 0.0004,
                uid: Optional[str] = None) -> str:
        """Asynchronously add ``payload`` to the total order; returns its uid."""
        if uid is None:
            self._uid_counter += 1
            uid = (f"{self.node.name}.{self.node.incarnation}"
                   f":{self._uid_counter}")
        self.engine.submit(Command(uid, payload, size_mb=size_mb))
        return uid

    def dequeue_batch(self) -> Event:
        """Awaitable for the next ``(instance, items)`` group in order,
        where ``items`` is a tuple of ``(uid, payload)`` pairs (empty for
        a no-op gap filler).  Consensus batches several enqueues into one
        instance; batch granularity lets consumers apply an instance
        atomically (checkpoints then always sit at instance boundaries).
        """
        return self._stream.get()

    def dequeue(self) -> Event:
        """Awaitable for the next single ``(instance, uid, payload)`` item
        in the total order (the paper's ``Object dequeue()``).

        Intended for a single consumer per replica; batches are unpacked
        internally.  No-op entries are skipped.
        """
        done = self._sim.event()
        self._fill_item(done)
        return done

    def _fill_item(self, done: Event) -> None:
        if self._items:
            done.succeed(self._items.pop(0))
            return

        def on_batch(event: Event) -> None:
            instance, items = event.value
            for uid, payload in items:
                self._items.append((instance, uid, payload))
            self._fill_item(done)  # empty batches: wait for the next one

        self._stream.get().add_callback(on_batch)

    # ------------------------------------------------------------------
    @property
    def decided_watermark(self) -> int:
        return self.engine.watermark

    @property
    def mode(self) -> str:
        return self.engine.mode

    def truncate_below(self, instance: int) -> None:
        self.engine.truncate_below(instance)
