"""Measurement utilities: deep memory sizing and timing.

The Figure 7c memory comparison needs an honest byte count of each
mechanism's state.  :func:`deep_sizeof` walks an object graph
(containers, ``__dict__``, ``__slots__``) with cycle protection and
sums ``sys.getsizeof`` over every reachable object — the Python
analogue of the JVM heap accounting the paper would have used.
"""

from __future__ import annotations

import sys
import time

__all__ = ["deep_sizeof", "Timer"]

_ATOMIC = (int, float, bool, complex, type(None))


def deep_sizeof(obj: object, *, _seen: set[int] | None = None) -> int:
    """Total bytes reachable from ``obj`` (shared objects counted once)."""
    seen = _seen if _seen is not None else set()
    stack = [obj]
    total = 0
    while stack:
        current = stack.pop()
        oid = id(current)
        if oid in seen:
            continue
        seen.add(oid)
        total += sys.getsizeof(current)
        if isinstance(current, _ATOMIC) or isinstance(current, (str, bytes)):
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
            continue
        if isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
            continue
        attrs = getattr(current, "__dict__", None)
        if attrs is not None:
            stack.append(attrs)
        slots = getattr(type(current), "__slots__", None)
        if slots is not None:
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                value = getattr(current, slot, None)
                if value is not None:
                    stack.append(value)
    return total


class Timer:
    """Context-manager wall-clock timer accumulating seconds."""

    def __init__(self):
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.elapsed += time.perf_counter() - self._start
        self._start = None

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed * 1e3

    def per_item_ms(self, items: int) -> float:
        """Milliseconds per item (0 if nothing processed)."""
        if items <= 0:
            return 0.0
        return self.elapsed_ms / items
