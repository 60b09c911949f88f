"""Partitioned RobustStore: multi-group Paxos sharding.

The paper runs one consensus group for the whole bookstore, so total
order is the throughput ceiling no matter how many replicas are added.
This package adds the standard way past that cap (Spinnaker-style
key-range partitioning across independent Paxos cohorts):

* :class:`~repro.shard.partition.Partitioner` -- deterministic key-range
  partitioning of the TPC-W entity space (customers own carts/orders;
  items are partitioned for stock ownership);
* :func:`~repro.shard.database.sharded_database_factory` -- the
  per-replica 2PC endpoints and shard-aware facade that
  :class:`~repro.harness.cluster.RobustStoreCluster` plugs into every
  :class:`~repro.harness.cluster.ReplicaGroup` it builds (the cluster
  class itself is shared with the flat k=1 deployment and imports this
  package only when ``shards > 1``);
* :class:`~repro.shard.router.ShardRouter` -- maps every interaction to
  its home shard via the session's customer id;
* :mod:`~repro.shard.txn` -- a deterministic two-phase commit
  coordinator, ordered through the participating groups' own logs, for
  the few cross-shard writes (buy-confirms touching foreign stock).

Entry point: ``Experiment(...).shards(k)`` or ``repro run --shards k``.
"""

from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter

__all__ = ["Partitioner", "ShardRouter"]
