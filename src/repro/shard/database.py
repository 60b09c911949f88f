"""Shard-aware ``TPCW_Database`` facade.

Each replica of a sharded deployment serves exactly the same servlet
code as the unsharded store, against this subclass of the facade.  Two
things change:

* **new customers** are allocated out of the shard's disjoint dynamic
  id block (:data:`repro.shard.partition.DYNAMIC_BLOCK`), so the
  independent groups never hand out colliding ids;
* **buy-confirm** splits the cart's stock movement by item ownership.
  Carts whose items the home shard owns entirely (the overwhelming
  majority: the router pins a session to the customer's shard and the
  item ranges are aligned) take the plain single-group path, bit for
  bit.  Carts touching foreign stock run a two-phase commit against the
  owner groups (:mod:`repro.shard.txn`): prepare the foreign deltas,
  then order the local commit record with those items excluded, then
  broadcast the decision.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.shard.partition import Partitioner
from repro.shard.txn import TxnCoordinator, TxnParticipant
from repro.tpcw import actions as acts
from repro.tpcw.database import TPCWDatabase


class ShardedTPCWDatabase(TPCWDatabase):
    """Facade for one replica of one shard group."""

    def __init__(self, runtime, clock, rng, partitioner: Partitioner,
                 shard: int, coordinator: TxnCoordinator):
        super().__init__(runtime, clock, rng)
        self._partitioner = partitioner
        self._shard = shard
        self._coordinator = coordinator

    # ------------------------------------------------------------------
    def create_new_customer(self, fname, lname, street1, street2, city,
                            state_code, zip_code, co_id, phone, email,
                            birthdate, data):
        discount = round(self._rng.uniform(0.0, 0.5), 2)
        action = acts.CreateNewCustomer(
            fname, lname, street1, street2, city, state_code, zip_code,
            co_id, phone, email, birthdate, data, discount,
            timestamp=self._clock(),
            id_floor=self._partitioner.customer_id_floor(self._shard))
        return (yield from self._runtime.execute(action))

    # ------------------------------------------------------------------
    def buy_confirm(self, sc_id: int, c_id: int,
                    cc_type: Optional[str] = None,
                    cc_number: Optional[str] = None,
                    cc_name: Optional[str] = None,
                    shipping_type: Optional[str] = None,
                    ship_addr: Optional[Tuple] = None):
        lines = self.get_cart(sc_id)
        parts: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        if lines:
            foreign: Dict[int, list] = {}
            for i_id in sorted(lines):
                owner = self._partitioner.shard_of_item(i_id)
                if owner != self._shard:
                    foreign.setdefault(owner, []).append((i_id, lines[i_id]))
            parts = {shard: tuple(deltas)
                     for shard, deltas in foreign.items()}
        if not parts:
            # Entirely home-owned: the unsharded path, unchanged.
            return (yield from super().buy_confirm(
                sc_id, c_id, cc_type, cc_number, cc_name, shipping_type,
                ship_addr))

        tx_id = self._coordinator.new_tx_id()
        ok = yield from self._coordinator.prepare(tx_id, parts)
        if not ok:
            self._coordinator.decide(tx_id, parts, commit=False)
            return None
        foreign_items = frozenset(i_id for deltas in parts.values()
                                  for i_id, _ in deltas)
        action = self._buy_confirm_action(
            sc_id, c_id, cc_type, cc_number, cc_name, shipping_type,
            ship_addr, foreign_items=foreign_items, tx_id=tx_id)
        o_id = yield from self._runtime.execute(action)
        self._coordinator.decide(tx_id, parts, commit=o_id is not None)
        return o_id

    # ------------------------------------------------------------------
    def admin_confirm(self, i_id: int, new_cost: float):
        owner = self._partitioner.shard_of_item(i_id)
        if owner == self._shard:
            # Home-owned item: the unsharded path, unchanged.
            return (yield from super().admin_confirm(i_id, new_cost))
        # Foreign-owned item: the catalog update (cost/images plus the
        # related-item recompute from the home group's recent orders)
        # must be ordered atomically against the owner group's stock
        # movements, so it runs the same 2PC as a cross-shard
        # buy-confirm.  The prepare carries a zero stock delta -- a
        # pure participation mark that pins the tx in the owner's log --
        # and the home-ordered AdminConfirm record doubles as the
        # durable decision the termination protocol reads.
        tx_id = self._coordinator.new_tx_id()
        parts = {owner: ((i_id, 0),)}
        ok = yield from self._coordinator.prepare(tx_id, parts)
        if not ok:
            self._coordinator.decide(tx_id, parts, commit=False)
            return None
        action = acts.AdminConfirm(
            i_id, new_cost,
            new_image=f"img/image_{i_id}_v2.gif",
            new_thumbnail=f"img/thumb_{i_id}_v2.gif",
            timestamp=self._clock(), tx_id=tx_id)
        updated = yield from self._runtime.execute(action)
        self._coordinator.decide(tx_id, parts, commit=updated is not None)
        return updated


def sharded_database_factory(partitioner: Partitioner,
                             group_names: List[List[str]]) -> Callable:
    """The ``ReplicaGroup`` database hook of a partitioned deployment.

    The returned callable builds the shard-aware facade plus its 2PC
    endpoints for one replica, and re-builds them on every
    reboot/incarnation.  ``group_names`` (every group's member list) is
    read at boot time, so the caller may fill it after creating the
    groups.
    """
    def make_database(group, index: int, node, runtime) -> ShardedTPCWDatabase:
        coordinator = TxnCoordinator(node, group.shard, group_names)
        coordinator.start()
        TxnParticipant(node, runtime, group.shard, group_names).start()
        return ShardedTPCWDatabase(
            runtime, clock=lambda: group.sim.now,
            rng=group.seed.fork_random(f"db-{index}-{node.incarnation}"),
            partitioner=partitioner, shard=group.shard,
            coordinator=coordinator)
    return make_database
