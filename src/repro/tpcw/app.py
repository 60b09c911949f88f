"""The Treplica application wrapper for the bookstore state."""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.treplica.application import Application
from repro.tpcw.population import PopulationParams, populate
from repro.tpcw.state import BookstoreState


@dataclass(frozen=True, eq=False)
class BookstoreSnapshot:
    """One checkpoint base of the bookstore.

    ``encoded`` is the pickle of the updatable part of the state plus the
    size multiplier; ``shared`` holds a shallow copy of each
    :attr:`BookstoreState.INSERT_ONLY` table, in that order, whose rows
    are the live state's own objects.  ``len()`` is the encoded size.
    """

    encoded: bytes
    shared: Tuple[Dict, ...]

    def __len__(self) -> int:
        return len(self.encoded)


class BookstoreApplication(Application):
    """RobustStore's replicated black box.

    Holds the :class:`BookstoreState`.  A snapshot copies what can change
    and shares what cannot: it pickles the updatable tables, indexes,
    allocators and 2PC bookkeeping, and keeps a shallow copy of each
    insert-only table (:attr:`BookstoreState.INSERT_ONLY`), so the rows
    themselves are never encoded.  ``restore()`` unpickles the updatable
    part and gives the state its own copy of each insert-only table:
    isolation comes from copying the containers, and from no action ever
    writing a row of those tables after it was inserted.

    A snapshot is only the *base* of a checkpoint: Treplica journals the
    deterministic actions applied after it and snapshots again only when
    the journal has grown as large as the state.  The first base is not
    taken by a replica at all: the cluster snapshots the populated store
    once (the genesis checkpoint), and every replica starts as an empty
    application that ``restore()``s it, so the genesis rows are held once
    per deployment, not once per replica.  The nominal size -- what
    drives simulated checkpoint and recovery costs -- is the state's
    entity-count model times the population's ``size_multiplier``
    (carried in the snapshot), so a scaled-down population still reports
    (and grows) paper-scale MB.
    """

    def __init__(self, state: BookstoreState, size_multiplier: float = 1.0):
        self.state = state
        self.size_multiplier = size_multiplier

    @classmethod
    def populated(cls, params: PopulationParams) -> "BookstoreApplication":
        """Build a deterministically populated application."""
        return cls(populate(params), size_multiplier=params.size_multiplier)

    def snapshot(self) -> BookstoreSnapshot:
        columns = vars(self.state)
        updatable = {name: value for name, value in columns.items()
                     if name not in BookstoreState.INSERT_ONLY}
        return BookstoreSnapshot(
            pickle.dumps((updatable, self.size_multiplier),
                         protocol=pickle.HIGHEST_PROTOCOL),
            tuple(dict(columns[name]) for name in BookstoreState.INSERT_ONLY))

    def restore(self, snapshot: BookstoreSnapshot) -> None:
        updatable, self.size_multiplier = pickle.loads(snapshot.encoded)
        state = BookstoreState.__new__(BookstoreState)
        vars(state).update(updatable)
        for name, table in zip(BookstoreState.INSERT_ONLY, snapshot.shared):
            setattr(state, name, dict(table))
        self.state = state

    def state_size_mb(self) -> float:
        return self.state.nominal_size_mb() * self.size_multiplier
