"""The action abstraction: deterministic state transitions.

An :class:`Action` is a self-contained, deterministic mutation of the
application state.  Determinism is the application's obligation (Section 4
of the paper): anything non-deterministic -- timestamps, random draws --
must be computed *before* the action is constructed and passed in as
arguments, so every replica applies byte-identical transitions.
"""

from __future__ import annotations

from typing import Any, Optional


class Action:
    """Base class for replicated actions.

    Subclasses implement :meth:`apply`, which receives the application
    object and returns the operation result.  ``apply`` must be
    deterministic: same state + same action => same new state and result
    on every replica.

    ``cpu_cost_s`` is the simulated CPU time charged when a replica
    executes the action (defaults to the runtime's configured cost);
    ``size_mb`` is its wire/log footprint.
    """

    cpu_cost_s: Optional[float] = None
    size_mb: float = 0.0004

    def apply(self, app: Any) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
