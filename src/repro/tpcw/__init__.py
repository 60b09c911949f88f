"""The TPC-W online bookstore, retrofitted with Treplica (RobustStore).

Section 3/4 of the paper: the bookstore keeps its original three-tier
structure -- servlets call a database facade -- but the facade's SQL
transactions are replaced by deterministic actions executed through
Treplica's state machine, and its queries by local reads of the replicated
object model (9 entity classes).

Modules:

* :mod:`repro.tpcw.model` -- the 9 replicated entity classes;
* :mod:`repro.tpcw.state` -- the in-memory object store with indexes and
  the nominal-size model (the paper's 300/500/700 MB knob);
* :mod:`repro.tpcw.population` -- the TPC-W population generator;
* :mod:`repro.tpcw.actions` -- deterministic write actions (all
  non-determinism passed in as arguments, per Section 4);
* :mod:`repro.tpcw.database` -- the ``TPCW_Database`` facade;
* :mod:`repro.tpcw.app` -- the Treplica application wrapper;
* :mod:`repro.tpcw.workload` -- the 14 web interactions and the
  browsing/shopping/ordering mixes (WIPSb / WIPS / WIPSo).

The remote browser emulators that drive it live in
:mod:`repro.load.closed_loop`.
"""

from repro.tpcw.app import BookstoreApplication
from repro.tpcw.database import TPCWDatabase
from repro.tpcw.population import PopulationParams, populate
from repro.tpcw.state import BookstoreState
from repro.tpcw.workload import (
    BROWSING,
    Interaction,
    ORDERING,
    SHOPPING,
    WorkloadProfile,
    profile_by_name,
)

__all__ = [
    "BROWSING",
    "BookstoreApplication",
    "BookstoreState",
    "Interaction",
    "ORDERING",
    "PopulationParams",
    "SHOPPING",
    "TPCWDatabase",
    "WorkloadProfile",
    "populate",
    "profile_by_name",
]
