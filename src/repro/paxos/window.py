"""Per-instance Paxos state held in one list slot per instance.

The engine's acceptor and learner keep a value per consensus instance
(the decided batch, the vote, the instance promise).  Instances are
dense integers that only move upward, and a checkpoint or a state
transfer forgets a whole prefix at once, so an offset list is the
natural store: one pointer per instance instead of a dict entry with
its own int key, and forgetting a prefix is one slice deletion.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Any, Iterator, List


class InstanceWindow(MutableMapping):
    """A mapping from instance number to value over a dense slot list.

    Slot ``k`` holds the value of instance ``base + k``; ``None`` marks
    an empty slot, so ``None`` cannot be stored.  Setting an instance
    above the window pads it with empty slots, setting one below moves
    the base down, and :meth:`truncate_below` drops a prefix.  Iteration
    yields instances in increasing order.  The window must not be
    modified while it is iterated.
    """

    __slots__ = ("_base", "_slots")

    def __init__(self, base: int = 0):
        self._base = base
        self._slots: List[Any] = []

    # get and __contains__ sit on the engine's per-message path: one
    # bounds test, no exception (most misses are past the end).
    def get(self, instance: int, default: Any = None) -> Any:
        slots = self._slots
        offset = instance - self._base
        if 0 <= offset < len(slots):
            value = slots[offset]
            if value is not None:
                return value
        return default

    def __contains__(self, instance: object) -> bool:
        slots = self._slots
        offset = instance - self._base  # type: ignore[operator]
        return 0 <= offset < len(slots) and slots[offset] is not None

    def __getitem__(self, instance: int) -> Any:
        value = self.get(instance)
        if value is None:
            raise KeyError(instance)
        return value

    def __setitem__(self, instance: int, value: Any) -> None:
        if value is None:
            raise ValueError("an instance window cannot store None")
        slots = self._slots
        if not slots:
            self._base = instance
            slots.append(value)
            return
        offset = instance - self._base
        if offset < 0:
            slots[:0] = [None] * -offset
            self._base = instance
            offset = 0
        elif offset >= len(slots):
            slots.extend([None] * (offset - len(slots)))
            slots.append(value)
            return
        slots[offset] = value

    def __delitem__(self, instance: int) -> None:
        if instance not in self:
            raise KeyError(instance)
        self._slots[instance - self._base] = None

    def __iter__(self) -> Iterator[int]:
        base = self._base
        return (base + offset for offset, value in enumerate(self._slots)
                if value is not None)

    def __len__(self) -> int:
        return len(self._slots) - self._slots.count(None)

    def __repr__(self) -> str:
        return f"InstanceWindow({dict(self.items())!r})"

    def truncate_below(self, instance: int) -> None:
        """Forget every instance below ``instance``."""
        offset = instance - self._base
        if offset > 0:
            del self._slots[:offset]
            self._base = instance
