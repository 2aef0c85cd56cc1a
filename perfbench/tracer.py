"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public functions of the program -- module functions
and methods defined on a class -- with wrappers that record one span per
call, and puts the original objects back when the run ends.  Spans keep
a link to the span that was open when they started and stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under
one root add up to the root's duration.

Probes attached to a wrapper run after the wrapped call returns, inside a
span of their own (:data:`PROBE`), so the cost of inspecting results is
charged to the tracer and never to the layer being measured.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span name of probe work (result inspection, hashing) done by the tracer.
PROBE = "trace.probe"


class Span:
    """One call: name, parent link, root name and timing."""

    __slots__ = ("name", "parent", "root", "start", "end", "child_seconds")

    def __init__(self, name: str, parent: Optional[int], root: str, start: float):
        self.name = name
        self.parent = parent
        self.root = root
        self.start = start
        self.end = start
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it.

    Counters recorded by probes are kept per root span name (``setup``,
    ``body``), like the spans, so one traced run can report set-up and
    body figures separately.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: ``owner.attribute`` names that were asked for but do not exist.
        self.missing: List[str] = []

    # -- spans -----------------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        root = self.spans[parent].root if parent is not None else name
        self.spans.append(Span(name, parent, root, self._clock()))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def finish(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError("spans must finish in the reverse order they began")
        self._open.pop()
        span = self.spans[index]
        span.end = self._clock()
        if span.parent is not None:
            self.spans[span.parent].child_seconds += span.seconds

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    def children(self, index: int, name: str) -> int:
        """How many direct children named *name* the span at *index* has."""
        return sum(1 for span in self.spans[index + 1:]
                   if span.parent == index and span.name == name)

    # -- counters --------------------------------------------------------------------
    def count(self, key: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *key* of the currently open root span."""
        root = self.spans[self._open[0]].root if self._open else ""
        self.counters[root][key] += amount

    # -- aggregation -----------------------------------------------------------------
    def totals(self, root: str) -> Dict[str, Dict[str, float]]:
        """Per span name under *root*: ``calls``, ``seconds`` and ``self_seconds``.

        ``seconds`` adds the durations of every call, so a name that
        recurses into itself counts the nested time twice; ``self_seconds``
        never double counts.
        """
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        for span in self.spans:
            if span.root != root:
                continue
            entry = table[span.name]
            entry["calls"] += 1
            entry["seconds"] += span.seconds
            entry["self_seconds"] += span.self_seconds
        return dict(table)

    # -- patching --------------------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str,
             probe: Optional[Callable[[tuple, dict, object, int], None]] = None) -> None:
        """Record a *name* span around every call of ``owner.attribute``.

        *owner* is a module or a class; only attributes defined on it
        directly are patched (an inherited method would be shadowed, not
        restored).  *probe* is called as ``probe(args, kwargs, result,
        span_index)`` after a call returns normally.
        """
        namespace = vars(owner)
        if attribute not in namespace:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        original = namespace[attribute]
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise TypeError(f"cannot wrap {attribute!r}: not a plain function")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(index)
            if probe is not None:
                with tracer.span(PROBE):
                    probe(args, kwargs, result, index)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every patch still installed."""
        return list(self._patches)

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
