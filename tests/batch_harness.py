"""Run a work list's serial batch plan with lane compaction off.

``compact=False`` masks retired lanes and keeps every batch at full
width to its last straggler — the uncompacted reference the
differential suite and the fast-path benchmark compare the compacting
kernel against.  The campaign layers always compact, so this runs the
scheduler's plan straight through the batch kernel.

Usage::

    from batch_harness import run_plan_uncompacted        # tests/
    from tests.batch_harness import run_plan_uncompacted  # benchmarks/
"""

from __future__ import annotations

from repro.engine.backends import execute_scenario_batch
from repro.engine.scheduler import plan_batches


def run_plan_uncompacted(specs, jobs=1, pack_widths=False):
    """Grid-ordered results of the plan's batches, each run through the
    kernel with lane compaction off.  Every spec must be batchable (the
    plan has no singles)."""
    plan = plan_batches(
        list(enumerate(specs)), jobs=jobs, pack_widths=pack_widths
    )
    assert not plan.singles
    results = [None] * len(specs)
    for batch in plan.batches:
        lanes = execute_scenario_batch(
            [spec for _, spec in batch.items], width=batch.width,
            compact=False,
        )
        for (idx, _), result in zip(batch.items, lanes):
            results[idx] = result
    return results
