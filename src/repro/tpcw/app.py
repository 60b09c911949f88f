"""The Treplica application wrapper for the bookstore state."""

from __future__ import annotations

import pickle

from repro.treplica.application import Application
from repro.tpcw.population import PopulationParams, populate
from repro.tpcw.state import BookstoreState


class BookstoreApplication(Application):
    """RobustStore's replicated black box.

    Holds the :class:`BookstoreState`; snapshots are pickles (true state
    isolation for checkpoint/restore correctness).  A pickle is only the
    *base* of a checkpoint: Treplica journals the deterministic actions
    applied after it and encodes again only when the journal has grown
    as large as the state.  The first base is not encoded by a replica
    at all: the cluster snapshots the populated store once (the genesis
    checkpoint), and every replica starts as an empty application that
    ``restore()``s those shared bytes, so a steady run pays for one
    encode per deployment, not one per replica or per checkpoint.  The
    nominal size -- what drives simulated checkpoint and recovery costs
    -- is the state's entity-count model times the population's
    ``size_multiplier`` (carried in the snapshot), so a scaled-down
    population still reports (and grows) paper-scale MB.
    """

    def __init__(self, state: BookstoreState, size_multiplier: float = 1.0):
        self.state = state
        self.size_multiplier = size_multiplier

    @classmethod
    def populated(cls, params: PopulationParams) -> "BookstoreApplication":
        """Build a deterministically populated application."""
        return cls(populate(params), size_multiplier=params.size_multiplier)

    def snapshot(self) -> bytes:
        return pickle.dumps(
            (self.state, self.size_multiplier),
            protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, snapshot: bytes) -> None:
        self.state, self.size_multiplier = pickle.loads(snapshot)

    def state_size_mb(self) -> float:
        return self.state.nominal_size_mb() * self.size_multiplier
