"""In-memory spans and counters recorded around calls into ``repro`` layers.

Every span records its name, start, end and the span that was open when it
began.  Spans are kept in a list and only turned into per-layer numbers when
the traced pass ends.  The wrappers live here, in the benchmark, not in
``src/``: :class:`Patcher` rebinds a layer's public function or method to a
timing wrapper and puts the original back afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List


class Tracer:
    """Span and counter recorder for one traced pass (single thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` timed as span ``name``.

        A call made while a span of the same name is already innermost runs
        untimed, so recursive or delegating calls (a class calling its base
        class's ``fit``) count once, at the outermost call.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == name:
                return func(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        totals: Dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += durations[index] - child_time[index]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for name in self.names:
            totals[name] += 1
        return dict(totals)

    def top_level_time(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )


class Patcher:
    """Rebinds attributes for the length of a ``with`` block.

    ``function`` replaces a module-level function in every loaded ``repro``
    module that bound it at import time (``from x import f`` makes a second
    binding that patching the defining module alone would miss).
    """

    def __init__(self) -> None:
        self._undo: List[Callable[[], object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def on_exit(self, undo: Callable[[], object]) -> None:
        """Run ``undo`` when the block ends (restores run last-in, first-out)."""
        self._undo.append(undo)

    def set(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        self.on_exit(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it (subclasses are patched on their own)."""
        if attr in vars(cls):
            self.set(cls, attr, wrap(vars(cls)[attr]))
