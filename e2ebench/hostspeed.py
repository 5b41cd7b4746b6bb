"""Host speed calibration for the end-to-end benchmark.

A shared virtual host does not run at one speed.  Other tenants' load
changes how much work one CPU second buys (shared cores and caches,
clock frequency): on the reference host by up to 2x, in phases of a few
seconds to many minutes, so CPU seconds alone cannot compare two runs
made at different times.  The benchmark therefore runs a fixed
calibration task on its own thread between timed units and around
set-up probes, about once per ``EVERY_S`` of the run (:class:`Sampler`),
and reports each time it measured as ``cpu_s * scale(samples)``, with
``samples`` the calibration times taken right before and right after
it: CPU seconds on a host where the task takes ``REFERENCE_S``.  Host
phases last seconds to minutes, so these local samples follow them.  The task is this file's own fixed code, shaped like
the program's hot spots (NumPy reductions over kernel-sized boolean
tensors, canonical JSON and sha256 of records), so it slows down with
the host much as the program does, and no change to the program can
move it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

#: Calibration task CPU seconds on the reference host (2-vCPU Xeon VM).
#: It only sets the scale of reported times.
REFERENCE_S = 0.020
#: Wall seconds of a run per calibration sample.
EVERY_S = 0.25


#: Lanes x n x n boolean tensor, the shape of a mid-size kernel batch.
_LANES = (np.arange(128 * 16 * 16).reshape(128, 16, 16) * 7919) % 10 < 3
_RECORD = {
    "n": 12, "k": 3, "options": [["f", 1], ["noise", 0.15]],
    "result": {"decisions": list(range(16)), "rounds": 40,
               "properties": {"agreement": True, "validity": True}},
}


def _canonical(obj):
    if isinstance(obj, dict):
        return {key: _canonical(obj[key]) for key in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    return obj


def calibration_task() -> int:
    """A fixed slice of the program's two hot kinds of work: boolean
    reductions over kernel-sized tensors, and canonical JSON plus
    sha256 of scenario records."""
    acc = 0
    lanes = _LANES
    for _ in range(45):
        acc += int(lanes.any(axis=2).sum()) + int(lanes.all(axis=1).sum())
        lanes = lanes | lanes.transpose(0, 2, 1)
    record = dict(_RECORD)
    for i in range(250):
        record["n"] = i
        text = json.dumps(_canonical(record), sort_keys=True,
                          separators=(",", ":"))
        acc ^= int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)
    return acc


def calibrate() -> float:
    """CPU seconds of one calibration task on the calling thread."""
    t0 = time.thread_time()
    calibration_task()
    return time.thread_time() - t0


class Sampler:
    """A run's calibration samples, spread evenly over its wall time:
    each call takes one sample per ``EVERY_S`` since the previous call
    ended, and at least ``minimum``, and returns them.  A unit timed
    between two calls is scaled by the samples of both."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last: float | None = None

    def __call__(self, minimum: int = 1) -> list[float]:
        due = minimum
        if self._last is not None:
            due = max(due, round((time.perf_counter() - self._last) / EVERY_S))
        taken = [calibrate() for _ in range(due)]
        self.samples += taken
        self._last = time.perf_counter()
        return taken


def scale(samples) -> float:
    """Factor from CPU seconds measured while the calibration ``samples``
    were taken to reference-host seconds.  The mean, not the median,
    weighs fast and slow host phases by their share of the run."""
    return REFERENCE_S / statistics.fmean(samples)
