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

    ``base`` and ``slots`` are public for reading only, so the engine's
    hottest paths can inline :meth:`get` and ``in``: instance ``i`` holds
    ``slots[i - base]`` when ``0 <= i - base < len(slots)``.
    """

    __slots__ = ("base", "slots")

    def __init__(self, base: int = 0):
        self.base = base
        self.slots: List[Any] = []

    # get and __contains__ sit on the engine's per-message path: one
    # bounds test, no exception (most misses are past the end).
    def get(self, instance: int, default: Any = None) -> Any:
        slots = self.slots
        offset = instance - self.base
        if 0 <= offset < len(slots):
            value = slots[offset]
            if value is not None:
                return value
        return default

    def __contains__(self, instance: object) -> bool:
        slots = self.slots
        offset = instance - self.base  # type: ignore[operator]
        return 0 <= offset < len(slots) and slots[offset] is not None

    def __getitem__(self, instance: int) -> Any:
        value = self.get(instance)
        if value is None:
            raise KeyError(instance)
        return value

    def __setitem__(self, instance: int, value: Any) -> None:
        if value is None:
            raise ValueError("an instance window cannot store None")
        slots = self.slots
        if not slots:
            self.base = instance
            slots.append(value)
            return
        offset = instance - self.base
        if offset < 0:
            slots[:0] = [None] * -offset
            self.base = instance
            offset = 0
        elif offset >= len(slots):
            slots.extend([None] * (offset - len(slots)))
            slots.append(value)
            return
        slots[offset] = value

    def __delitem__(self, instance: int) -> None:
        if instance not in self:
            raise KeyError(instance)
        self.slots[instance - self.base] = None

    def __iter__(self) -> Iterator[int]:
        base = self.base
        return (base + offset for offset, value in enumerate(self.slots)
                if value is not None)

    def __len__(self) -> int:
        return len(self.slots) - self.slots.count(None)

    def __repr__(self) -> str:
        return f"InstanceWindow({dict(self.items())!r})"

    def truncate_below(self, instance: int) -> None:
        """Forget every instance below ``instance``."""
        offset = instance - self.base
        if offset > 0:
            del self.slots[:offset]
            self.base = instance
