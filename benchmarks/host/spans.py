"""In-memory host-clock spans around calls into the library's public API.

The traced pass wraps every call the benchmark makes into a ``repro``
module as ``spans.call("<layer>.<function>", fn, *args)``; the untraced
pass uses :data:`OFF`, which calls straight through, so end-to-end numbers
never pay for the bookkeeping.  Spans live in memory and are reduced to
per-name totals when the run ends.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, List, Optional


class Spans:
    """Recorder of ``[name, start, end, parent_index]`` spans."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[list] = []
        self._open: List[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.records[index][2] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(end - start for n, start, end, _ in self.records
                   if n == name and end is not None)

    def last(self, name: str) -> Optional[float]:
        """Duration of the most recent span called ``name``, if any."""
        for n, start, end, _ in reversed(self.records):
            if n == name and end is not None:
                return end - start
        return None


#: The untraced pass: every ``call`` is a plain call.
OFF = Spans(enabled=False)
