"""Span ledger and summary statistics for the end-to-end benchmark.

Pure Python with no ``repro`` import: this is the math the benchmark's
own tests pin down.

* :class:`Tracer` wraps a layer's public function at its module or class
  attribute, records one span per call in memory, and restores every
  attribute when it is closed.
* :func:`exclusive_times` turns spans into per-name self times that,
  together with an explicit unattributed remainder, sum exactly to the
  traced wall time.
* :func:`nearest_rank` / :func:`tail_percentile` pick latency
  percentiles under the "at least ten samples beyond it" rule.
* :class:`FailureTally` counts failed scenarios against attempted ones.
"""

from __future__ import annotations

import heapq
import itertools
import math
import statistics
import threading
import time
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

#: One recorded call: ``(start_ns, seq, end_ns, name, thread_id)``.
#: ``seq`` is taken when the call starts, so among spans that start in
#: the same nanosecond the later-entered (inner) one sorts last.
Span = tuple[int, int, int, str, int]


class Tracer:
    """In-memory span recorder over patched module/class attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._seq = itertools.count()
        self._patches: list[tuple[Any, str, bool, Any]] = []

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` (a plain function or method).  ``observe``, if
        given, sees each return value after the span has closed."""
        fn: Callable = getattr(owner, attr)
        if isinstance(owner, type):
            fn = vars(owner).get(attr, fn)
        spans = self.spans
        seq = self._seq
        clock = time.perf_counter_ns
        ident = threading.get_ident

        def traced(*args, **kwargs):
            order = next(seq)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((start, order, clock(), name, ident()))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        self._patch(owner, attr, traced)

    def count_property(self, owner: type, attr: str, name: str) -> None:
        """Count every access of the property ``owner.attr``."""
        prop = vars(owner)[attr]
        counts = self.counts
        counts.setdefault(name, 0)
        getter = prop.fget

        def counted(obj):
            counts[name] += 1
            return getter(obj)

        self._patch(owner, attr, property(counted, doc=prop.__doc__))

    def close(self) -> None:
        """Restore every patched attribute (reverse patch order)."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def exclusive_times(
    spans: Iterable[Span], window: tuple[int, int]
) -> tuple[dict[str, int], int]:
    """Attribute every instant of ``window`` to at most one span name.

    At each instant the owner is the active span that started last (the
    innermost one, for properly nested calls).  A span's share is
    therefore its duration minus the part its children cover, and when
    children overlap each other (spans from concurrent threads) the
    overlap is counted once, for the later-started child.  Spans are
    clipped to the window.  Returns ``(self_ns_by_name, unattributed_ns)``
    whose values sum exactly to the window length.
    """
    t0, t1 = window
    events: list[tuple[int, int, int]] = []
    clipped: list[tuple[int, int, str]] = []
    for start, order, end, name, _tid in spans:
        start, end = max(start, t0), min(end, t1)
        if end <= start:
            continue
        i = len(clipped)
        clipped.append((start, order, name))
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()
    self_ns: dict[str, int] = {}
    active: list[tuple[int, int, int]] = []  # (-start, -seq, index)
    ended: set[int] = set()
    prev = t0
    for when, is_start, i in events:
        if when > prev:
            while active and active[0][2] in ended:
                heapq.heappop(active)
            if active:
                name = clipped[active[0][2]][2]
                self_ns[name] = self_ns.get(name, 0) + (when - prev)
            prev = when
        if is_start:
            start, order, _ = clipped[i]
            heapq.heappush(active, (-start, -order, i))
        else:
            ended.add(i)
    return self_ns, (t1 - t0) - sum(self_ns.values())


def nearest_rank(samples: Sequence[float], p: float) -> tuple[float, int]:
    """The nearest-rank ``p``-th percentile and how many samples lie
    beyond it: ``(value, beyond)``.  Exact for decimal ``p``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(
    samples: Sequence[float],
    ladder: Sequence[float] = (50, 90, 99, 99.9),
    min_beyond: int = 10,
) -> tuple[float, float, int] | None:
    """The highest percentile on ``ladder`` with at least ``min_beyond``
    samples beyond it: ``(p, value, beyond)``, or ``None`` if none has."""
    best = None
    for p in ladder:
        value, beyond = nearest_rank(samples, p)
        if beyond >= min_beyond:
            best = (p, value, beyond)
    return best


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the benchmark's
    run-to-run spread), with ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class FailureTally:
    """Scenarios attempted vs scenarios failed.

    A scenario is identified by a hashable key; it counts as failed once
    however many checks it fails, and every reason is kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: dict[Any, list[str]] = {}

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, key: Any, reason: str) -> None:
        self.reasons.setdefault(key, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    @property
    def failed_ratio(self) -> float:
        if self.attempted <= 0:
            raise ValueError("no scenarios attempted")
        return self.failed / self.attempted

    def examples(self, limit: int = 5) -> list[str]:
        return [
            f"{key}: {'; '.join(reasons)}"
            for key, reasons in itertools.islice(self.reasons.items(), limit)
        ]
