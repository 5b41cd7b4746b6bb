"""The benchmark's correctness gate: always on, feeds ``failed_ratio``.

Three checks, all outside the timed phase:

1. every scenario of a campaign has an ``ok`` journal record, and every
   Algorithm-1 record in the paper's configuration (purge window ``n``,
   pruning on) whose stable skeleton satisfies ``Psrcs(k)`` shows
   k-agreement, validity, termination and a decision within the Lemma 11
   bound (Theorem 16);
2. the summary the user received (written file or served text) is exactly
   the canonical grid-ordered lines of the journal;
3. a seeded sample of scenarios is re-run on the ``reference`` simulator
   and must reproduce the journaled canonical line byte for byte.
"""

from __future__ import annotations

import hashlib
import heapq
from pathlib import Path
from typing import Any, Sequence

from ledger import FailureTally

#: Journaled properties Theorem 16 and Lemma 11 guarantee under Psrcs(k).
PAPER_PROPERTIES = (
    "k_agreement_holds",
    "validity_holds",
    "within_bound",
    "all_decided",
)


def paper_violations(result) -> list[str]:
    """Why one journaled result breaks the paper (empty when it holds)."""
    if result.status != "ok":
        return [f"status {result.status}: {result.error}"]
    spec = result.spec
    paper_config = (
        spec.algorithm == "algorithm1"
        and spec.opt("purge_window") in (None, spec.n)
        and spec.opt("prune_unreachable", True) is True
    )
    if not (paper_config and result.psrcs_holds):
        return []
    return [
        f"{name} is {getattr(result, name)!r} under Psrcs({spec.k})"
        for name in PAPER_PROPERTIES
        if getattr(result, name) is not True
    ]


class Gate:
    """Accumulates check outcomes over every campaign of one run."""

    def __init__(self, seed: int, sample_size: int) -> None:
        self.seed = seed
        self.sample_size = sample_size
        self.tally = FailureTally()
        # Max-heap (negated digest) of the sample_size smallest digests.
        self._sample: list[tuple[int, Any, Any, str]] = []

    def check_campaign(
        self,
        tag: str,
        specs: Sequence,
        journal: str | Path,
        summary_text: str,
    ) -> None:
        """Check one campaign's journal and the summary its user got."""
        from repro.engine.store import ResultStore, canonical_line

        self.tally.attempt(len(specs))
        latest = ResultStore(journal).load()
        expected = []
        for spec in specs:
            key = (tag, spec.scenario_id)
            result = latest.get(spec.scenario_id)
            if result is None:
                self.tally.fail(key, "no journal record")
                expected.append(None)
                continue
            for reason in paper_violations(result):
                self.tally.fail(key, reason)
            line = canonical_line(result)
            expected.append(line)
            self._offer(key, spec, line)
        got = summary_text.splitlines()
        want = [line for line in expected if line is not None]
        if got != want:
            if len(got) != len(want):
                for spec in specs:
                    self.tally.fail(
                        (tag, spec.scenario_id),
                        f"summary has {len(got)} lines, journal {len(want)}",
                    )
            else:
                present = [s for s, e in zip(specs, expected) if e is not None]
                for spec, a, b in zip(present, got, want):
                    if a != b:
                        self.tally.fail(
                            (tag, spec.scenario_id),
                            "summary line differs from the journal",
                        )

    def _offer(self, key: Any, spec, line: str) -> None:
        digest = int.from_bytes(
            hashlib.sha256(
                f"{self.seed}:{key[0]}:{key[1]}".encode()
            ).digest()[:8],
            "big",
        )
        entry = (-digest, key, spec, line)
        if len(self._sample) < self.sample_size:
            heapq.heappush(self._sample, entry)
        elif self._sample and -digest > self._sample[0][0]:
            heapq.heapreplace(self._sample, entry)

    def check_reference_sample(self) -> int:
        """Re-run the sampled scenarios on the reference simulator and
        compare canonical lines.  Returns how many were re-run."""
        from repro.engine.backends import execute_scenario_with_backend
        from repro.engine.store import canonical_line

        for _, key, spec, line in sorted(self._sample, reverse=True):
            ref = execute_scenario_with_backend(spec, "reference")
            if canonical_line(ref) != line:
                self.tally.fail(key, "differs from the reference simulator")
        return len(self._sample)
