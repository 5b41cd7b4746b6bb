"""The scenario executor and the one dispatch loop.

:func:`execute_scenario` is a *pure function* of a :class:`ScenarioSpec`:
every RNG in the simulation stack is derived from the spec's seed, so the
same spec produces bit-identical metrics in any process on any worker.
That purity is what parallel dispatch leans on — results arrive in
completion order but return in submission order, so a campaign's
output is deterministic regardless of ``jobs``.

:func:`execute_scenarios` plans its work list into dispatch units once
(:func:`_plan_units`: the scheduler's planned batches under the
``batched``/``auto`` backends, so chunking cannot break a batch — see
:mod:`repro.engine.scheduler` — and contiguous order-chunks otherwise)
and runs every unit through one runner, :func:`run_unit`: in-process on
the serial path (``jobs <= 1``, no ``timeout``, no shared pool: a
streaming loop, one scenario per chunk, no pickling) or in pool workers
(:func:`_execute_unit`), delivered in completion order.  A scenario
outside a planned batch runs through the one per-scenario backend rule,
:func:`repro.engine.backends.execute_scenario_with_backend`.

The pool and the remote fleet (:mod:`repro.engine.remote`) share one
:func:`dispatch` loop and so one failure policy.  A scenario that raises
becomes an ``"error"`` record inside the worker.  A unit whose worker
died while running it (OOM killer, segfault: ``BrokenProcessPool``, or a
lost fleet link) re-runs as singletons, so only a deterministic killer
fails; transient errors and units past the fleet deadline (``timeout``,
for stragglers, whose workers are killed) requeue whole, with
deterministic backoff, up to ``max_retries``.  Deterministic failures
and units observed running when the pool broke journal terminal
``"error"`` records; every other spent unit journals a retriable
``"timeout"``, so a resume re-runs the innocent and the campaign exits
red instead of hanging.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue
import random
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.analysis.properties import check_agreement_properties
from repro.analysis.stats import decision_stats
from repro.engine import faults as _faults
from repro.engine.contracts import ContractViolation
from repro.engine.contracts import get as _get_contracts
from repro.engine.scenarios import ScenarioSpec
from repro.engine.telemetry import Recorder
from repro.graphs.condensation import root_components
from repro.predicates.psrcs import Psrcs
from repro.rounds.simulator import RoundSimulator, SimulationConfig

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


class ExecutionStopped(RuntimeError):
    """Raised when a run is interrupted by a ``should_stop`` signal (the
    campaign service's shutdown path).  Every result journaled before the
    stop is already durable; the remaining scenarios simply never ran, so
    a resumed/resubmitted campaign picks up exactly where this left off."""


def is_terminal(status: str) -> bool:
    """Whether a journaled status is final for resume purposes.

    ``ok`` and deterministic ``error`` records are never re-executed;
    ``timeout`` (including transient chunk failures journaled as
    timeouts) stays retriable.  The single source of truth for the
    resume invariant — used by both ``ResultStore`` and ``Campaign``."""
    return status != STATUS_TIMEOUT


@dataclass(frozen=True)
class ScenarioResult:
    """The summary record of one executed scenario.

    Only *summaries* are kept (the decision/skeleton statistics the
    experiment tables report) — full :class:`~repro.rounds.run.Run`
    objects stay in the worker.  ``status`` is ``"ok"``, ``"error"`` or
    ``"timeout"``; metric fields are ``None`` for non-ok results.
    ``backend`` records which execution engine produced the result
    (provenance only: it is journaled but excluded from canonical
    summaries, which must be byte-identical across backends).
    ``extras`` holds family-specific metrics as sorted ``(name, value)``
    pairs of JSON scalars — registered experiment families stash the
    quantities the core schema has no column for (ablation invariant
    verdicts, duality α, the Figure 1 rendering).  Read via
    :meth:`extra`; empty extras are omitted from encoded records so core
    summaries keep their historical bytes.
    """

    spec: ScenarioSpec
    status: str = STATUS_OK
    error: str | None = None
    backend: str = "reference"
    num_rounds: int | None = None
    root_components: int | None = None
    psrcs_holds: bool | None = None
    distinct_decisions: int | None = None
    all_decided: bool | None = None
    k_agreement_holds: bool | None = None
    validity_holds: bool | None = None
    first_decision_round: int | None = None
    last_decision_round: int | None = None
    stabilization: int | None = None
    lemma11_bound: int | None = None
    within_bound: bool | None = None
    decision_values: tuple = ()
    extras: tuple = ()

    def __post_init__(self) -> None:
        canonical = tuple(sorted((str(k), v) for k, v in self.extras))
        if canonical != self.extras:
            object.__setattr__(self, "extras", canonical)

    def extra(self, name: str, default: Any = None) -> Any:
        """Read a family-specific extra metric by name."""
        for key, value in self.extras:
            if key == name:
                return value
        return default

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @classmethod
    def failure(
        cls,
        spec: ScenarioSpec,
        error: str,
        status: str = STATUS_ERROR,
        backend: str = "reference",
    ) -> "ScenarioResult":
        return cls(spec=spec, status=status, error=error, backend=backend)


def require_ok(
    results: Sequence[ScenarioResult],
) -> Sequence[ScenarioResult]:
    """Raise if any result is non-ok, surfacing the workers' errors.

    The executor converts worker exceptions into ``status != "ok"``
    records with ``None`` metrics; callers that build tables from the
    metrics would only blow up later (e.g. ``distinct_decisions > k``
    raising TypeError) with the real traceback lost."""
    failed = [r for r in results if not r.ok]
    if failed:
        details = "; ".join(
            f"{r.scenario_id} ({r.status}): {r.error}" for r in failed[:3]
        )
        raise RuntimeError(
            f"{len(failed)}/{len(results)} scenarios failed: {details}"
        )
    return results


def execute_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario end-to-end and summarize it.

    Never raises: any exception from construction or simulation becomes a
    ``"error"`` result, so a bad corner of a grid cannot take down a
    campaign.
    """
    try:
        adversary = spec.build_adversary()
        processes = spec.build_processes()
        config = SimulationConfig(max_rounds=spec.resolved_max_rounds())
        run = RoundSimulator(processes, adversary, config).run()
        stable = run.stable_skeleton()
        stats = decision_stats(run)
        report = check_agreement_properties(run, spec.k)
        return ScenarioResult(
            spec=spec,
            num_rounds=run.num_rounds,
            root_components=len(root_components(stable)),
            psrcs_holds=Psrcs(spec.k).check_skeleton(stable).holds,
            distinct_decisions=report.num_decision_values,
            all_decided=report.termination.holds,
            k_agreement_holds=report.k_agreement.holds,
            validity_holds=report.validity.holds,
            first_decision_round=stats.first_decision_round,
            last_decision_round=stats.last_decision_round,
            stabilization=stats.stabilization,
            lemma11_bound=stats.lemma11_bound,
            within_bound=stats.within_bound,
            decision_values=tuple(
                sorted(run.decision_values(), key=repr)
            ),
        )
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return ScenarioResult.failure(spec, f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Parallel dispatch
# ----------------------------------------------------------------------
def _split_payload(payload):
    """``(payload, meta)`` from a worker return value.

    Collecting workers return ``(payload, meta_dict)``; everything else
    (the metrics-off shape, monkeypatched test doubles) returns the bare
    payload.
    """
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[1], dict)
    ):
        return payload
    return payload, None


def _count_result(recorder, result: ScenarioResult) -> None:
    """Parent-side result accounting (single source for both backends)."""
    recorder.inc("executor.scenarios")
    if result.status == STATUS_OK:
        recorder.inc("executor.results_ok")
    elif result.status == STATUS_TIMEOUT:
        recorder.vinc("executor.results_timeout")
    else:
        recorder.vinc("executor.results_error")


def default_chunksize(num_specs: int, jobs: int) -> int:
    """~4 chunks per worker: large enough to amortize fork+pickle, small
    enough that the pool load-balances uneven scenario costs."""
    return max(1, num_specs // max(1, jobs * 4))


_RETRY_BASE_S = 0.05
_RETRY_CAP_S = 2.0

#: The dispatcher's one idle wait: a blocking inbox read bounded by this,
#: so stop latency (retry-backoff windows included) and the pool's
#: running-vs-queued polling cadence are both one poll.
POLL_S = 0.01


def retry_delay(key: str, attempt: int) -> float:
    """Backoff before in-run retry ``attempt`` (1-based) of a unit.

    Capped exponential with *deterministic* decorrelated jitter: the
    jitter RNG is seeded from the unit's first scenario id (a content
    hash that embeds the campaign seed) and the attempt number, so two
    colliding units spread apart but the schedule is reproducible."""
    spread = 0.5 + random.Random(f"{key}:{attempt}").random()
    return min(_RETRY_CAP_S, _RETRY_BASE_S * (2 ** (attempt - 1)) * spread)


def _reset_worker_signals() -> None:  # pragma: no cover — runs in workers
    """Pool-worker initializer: restore default signal dispositions.

    Workers fork *after* the CLI (or the service daemon) installed its
    graceful SIGTERM/SIGINT handlers, and fork copies those handlers
    into the child.  A worker that inherits "SIGTERM raises
    KeyboardInterrupt" survives ``proc.terminate()``: the interrupt is
    swallowed by the executor's task loop as an ordinary task failure
    and the worker goes right back to waiting for work — which turns
    every straggler-termination / fast-shutdown path into a hang (the
    parent exits only after joining the executor's manager thread,
    which waits on the immortal worker).  SIGTERM must mean death here;
    SIGINT is ignored so a terminal Ctrl-C interrupts only the parent,
    which then winds the pool down deliberately."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _terminate_pool(executor: ProcessPoolExecutor) -> int:
    """Shut a pool down *without* waiting, terminating every live worker
    (stragglers past the deadline, stalled or orphaned processes of a
    broken pool).  Returns the number of processes terminated.  The
    worker list must be snapshotted before shutdown clears it."""
    procs = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    terminated = 0
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            terminated += 1
    for proc in procs:
        if proc.is_alive():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover — last resort
                proc.kill()
                proc.join(timeout=1.0)
    return terminated


class WorkerPool:
    """A rebuildable process pool that can outlive one campaign.

    :func:`execute_scenarios` historically created (and destroyed) a
    ``ProcessPoolExecutor`` per call — the right shape for one-shot CLI
    runs, the wrong one for the always-on campaign service, which pays
    pool spin-up once and then multiplexes many campaign submissions
    across the same warm workers.  This wrapper owns that lifecycle:

    * ``submit`` delegates to the live executor (thread-safe: concurrent
      campaigns dispatch from their own threads);
    * ``rebuild`` terminates every worker and swaps in a fresh executor
      — the broken-pool / straggler recovery primitive.  It is
      *generation-aware*: a caller that observed the pool break passes
      the generation it saw, and the rebuild is skipped when another
      campaign already replaced that generation (so N concurrent victims
      of one crash do not thrash N fresh pools);
    * ``close`` ends the pool for good (``terminate=True`` kills live
      workers instead of waiting — the service's fast-shutdown path).
      A closed pool refuses new work and ``rebuild`` becomes a no-op,
      so in-flight campaigns wind down instead of respawning workers
      under a daemon that is exiting.

    Sharing one pool means one campaign's recovery actions are visible
    to its neighbors: a rebuild kills *all* in-flight units, whose
    campaigns see ``BrokenProcessPool`` and retry (``max_retries``) or
    journal retriable records for resume.  That is the deliberate
    trade — crash isolation stays at the campaign level, capacity is
    shared at the batch level.
    """

    def __init__(self, workers: int, mp_context=None) -> None:
        self.workers = max(1, workers)
        self._ctx = mp_context or multiprocessing.get_context()
        self._lock = threading.Lock()
        self._generation = 0
        self._closing = False
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._ctx,
            initializer=_reset_worker_signals,
        )

    @property
    def generation(self) -> int:
        """Bumped on every rebuild (see :meth:`rebuild`)."""
        return self._generation

    def submit(self, fn, /, *args):
        """Submit one call to the live executor.

        Raises ``RuntimeError`` once the pool is closed and
        ``BrokenProcessPool`` when the executor is broken — callers
        treat both as "this unit did not dispatch" and requeue."""
        with self._lock:
            if self._closing:
                raise RuntimeError("worker pool is closed")
            return self._executor.submit(fn, *args)

    def rebuild(self, seen_generation: int | None = None) -> int:
        """Terminate every worker and bring up a fresh executor.

        Returns the number of processes terminated (0 when the rebuild
        was skipped: pool closing, or ``seen_generation`` already
        replaced by a concurrent rebuild)."""
        with self._lock:
            if self._closing:
                return 0
            if (
                seen_generation is not None
                and seen_generation != self._generation
            ):
                return 0
            terminated = _terminate_pool(self._executor)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx,
                initializer=_reset_worker_signals,
            )
            self._generation += 1
            return terminated

    def close(self, terminate: bool = False) -> int:
        """Shut the pool down for good.  ``terminate=True`` kills live
        workers (fast shutdown); otherwise waits for in-flight work.
        Returns the number of processes terminated."""
        with self._lock:
            if self._closing:
                return 0
            self._closing = True
            if terminate:
                return _terminate_pool(self._executor)
            self._executor.shutdown(wait=True, cancel_futures=True)
            return 0


#: Unit failures that recur identically on a retry, by exception type
#: name — so a fleet worker's ``error`` reply classifies exactly like a
#: pool future's exception.
_TERMINAL_ERRORS = frozenset(
    {"PicklingError", "MaybeEncodingError", "AttributeError", "TypeError"}
)


def _terminal_failure(kind: str, was_running: bool) -> bool:
    """Whether a unit-level failure of exception type ``kind`` is
    deterministic (retrying would fail identically).  A broken pool is
    terminal only for the units observed running when it broke (one of
    them killed its worker); units still queued never executed."""
    if kind == "BrokenProcessPool":
        return was_running
    return kind in _TERMINAL_ERRORS


@dataclass(eq=False)
class _Unit:
    """One dispatch unit: a whole planned batch (``batch`` set), or an
    order-chunk of ``(index, spec)`` items — plan singles, per-scenario
    backends and split singletons."""

    items: list
    batch: Any = None

    @property
    def kind(self) -> str:
        return "chunk" if self.batch is None else "batch"

    def key(self) -> str:
        return self.items[0][1].scenario_id if self.items else "empty"


def _plan_units(
    indexed: list,
    backend: str,
    chunksize: int | None,
    jobs: int,
    plan=None,
    batch_memory: int | None = None,
    pack_widths: bool = False,
    recorder=None,
    plan_jobs: int | None = None,
) -> list[_Unit]:
    """The dispatch units, in plan order — the one place a work list is
    planned when no ``plan`` is passed.  Under the batched/auto backends
    the scheduler's whole planned batches ship (chunking must not break
    a batch), then the plan's non-batchable singles as contiguous
    order-chunks; other backends chunk the whole list.  Default chunk
    sizes spread over ``jobs`` workers; the plan is cut for
    ``plan_jobs`` (default ``jobs``; the fleet plans serially and
    pre-splits instead)."""
    units: list[_Unit] = []
    chunked = indexed
    if backend in ("batched", "auto"):
        if plan is None:
            from repro.engine.scheduler import plan_batches

            plan = plan_batches(
                indexed, batch_memory=batch_memory,
                jobs=jobs if plan_jobs is None else plan_jobs,
                pack_widths=pack_widths, recorder=recorder,
            )
        units = [_Unit(list(batch.items), batch) for batch in plan.batches]
        chunked = list(plan.singles)
    size = chunksize or default_chunksize(len(chunked), jobs)
    units += [_Unit(chunked[i:i + size]) for i in range(0, len(chunked), size)]
    return units


def run_unit(
    unit: _Unit, backend: str, recorder=None
) -> list[tuple[int, ScenarioResult]]:
    """Run one dispatch unit; returns ``(work-list index, result)`` pairs.

    The one unit runner of the serial loop, the pool worker and the
    fleet worker (:func:`_execute_unit`).  A planned batch runs through
    :func:`~repro.engine.scheduler.run_planned_batch`; any other unit
    runs each scenario through the one per-scenario backend rule,
    :func:`~repro.engine.backends.execute_scenario_with_backend`.  The
    fault hook fires exactly once per scenario, before any of the unit
    runs.
    """
    for _idx, spec in unit.items:
        _faults.before_scenario(spec)
    if unit.batch is not None:
        from repro.engine.scheduler import run_planned_batch

        return run_planned_batch(unit.batch, backend, recorder=recorder)
    from repro.engine.backends import execute_scenario_with_backend

    return [
        (idx, execute_scenario_with_backend(spec, backend, recorder))
        for idx, spec in unit.items
    ]


def _execute_unit(
    unit: _Unit, backend: str, collect_metrics: bool = False
) -> Any:
    """Worker entry point (pool and fleet): :func:`run_unit`.

    With ``collect_metrics`` the worker builds its own
    :class:`~repro.engine.telemetry.Recorder` and returns
    ``(payload, meta)`` — pid, busy seconds and a metrics snapshot —
    for the parent to merge; otherwise the bare payload (so test
    doubles see one shape).
    """
    if not collect_metrics:
        return run_unit(unit, backend)
    recorder = Recorder()
    t0 = time.perf_counter()
    payload = run_unit(unit, backend, recorder)
    if _faults.drop_worker_meta(unit.items):
        return payload
    return payload, {
        "pid": os.getpid(),
        "busy_s": time.perf_counter() - t0,
        "snapshot": recorder.snapshot(),
    }


class _Outcome(NamedTuple):
    """One dispatched unit's fate, as a slot adapter reports it."""

    ticket: Any
    payload: list | None = None  # [(index, ScenarioResult)] on success
    meta: dict | None = None  # worker busy_s + telemetry snapshot
    worker: Any = None  # per-worker accounting key
    error: tuple | None = None  # (exception type name, message)
    was_running: bool = False  # observed executing when it failed
    lost: bool = False  # the slot died with the unit on it


def _drain(inbox) -> list:
    """Everything in ``inbox``, blocking up to :data:`POLL_S` for the
    first item — the dispatcher's only idle wait."""
    items = []
    try:
        items.append(inbox.get(timeout=POLL_S))
        while True:
            items.append(inbox.get_nowait())
    except queue.Empty:
        return items


def dispatch(
    units: list[_Unit],
    slots,
    *,
    backend: str,
    timeout: float | None,
    max_retries: int,
    should_stop: Callable[[], bool] | None,
    recorder,
    deliver: Callable[[list], Any] | None,
) -> list[ScenarioResult]:
    """Run ``units`` on a slot adapter until every scenario has a result.

    The one dispatch loop of the pool (:class:`_PoolSlots`) and the fleet
    (:class:`repro.engine.remote._Fleet`): it owns the work queue with
    :func:`retry_delay` backoff, the retry and split rule, the fleet
    deadline, ``should_stop``, result counting and unit telemetry.  An
    adapter has ``size``, ``PREFIX``/``RETRIES`` (telemetry names),
    ``submit(unit)`` (a ticket, or ``None`` when no slot takes it),
    ``wait(pending)`` (:class:`_Outcome` events within one
    :func:`_drain`), ``cut(tickets)`` (kill the slots of expired units),
    ``usable()``/``recover()`` (``None`` once recovered, else the loss)
    and ``info(stats)`` (per-worker rows).

    A multi-scenario unit whose slot died while running it re-runs as
    singletons, each a new unit with the full retry budget (as if
    dispatched alone), so only a deterministic killer fails; a unit
    still queued in a broken pool requeues without using its budget;
    other retriable failures and deadline expiry requeue the whole
    unit; terminal failures (:func:`_terminal_failure`) are not
    retried, and a spent budget journals the failure.  Results reach
    ``deliver`` as each unit completes and come back in index order.
    """
    total = sum(len(unit.items) for unit in units)
    window = (
        timeout * math.ceil(total / slots.size) if timeout is not None else None
    )
    start = time.monotonic()
    deadline = start + window if window is not None else None
    work: list[tuple] = [(unit, 0, 0.0) for unit in units]
    pending: dict = {}  # ticket -> (unit, attempts, submit time)
    collected: dict[int, ScenarioResult] = {}
    stats: dict = {}  # worker -> [units, busy_s]
    contracts = _get_contracts()
    # Worker snapshots in delivery order: the merge-commutativity
    # contract re-merges them forward and backward at the end.
    witness: list[dict] | None = [] if (contracts and recorder) else None

    def release(pairs: list) -> None:
        for idx, result in pairs:
            if recorder:
                _count_result(recorder, result)
            collected[idx] = result
        if deliver is not None:
            deliver(pairs)

    def fail(unit: _Unit, error: str, status: str = STATUS_TIMEOUT) -> None:
        release([
            (idx, ScenarioResult.failure(
                spec, error, status=status, backend=backend))
            for idx, spec in unit.items
        ])

    def requeue(unit: _Unit, attempts: int) -> None:
        # ``attempts``: the unit's failures so far, against max_retries.
        delay = retry_delay(unit.key(), max(1, attempts))
        work.append((unit, attempts, time.monotonic() + delay))
        if recorder:
            recorder.vinc(slots.RETRIES)

    def account(out: _Outcome, submit_t: float) -> None:
        turnaround = time.monotonic() - submit_t
        recorder.add_duration("executor.unit_wall_s", turnaround)
        if out.meta is None:
            return
        if witness is not None:
            witness.append(out.meta["snapshot"])
        recorder.merge(out.meta["snapshot"])
        busy = out.meta["busy_s"]
        recorder.add_duration("executor.worker_busy_s", busy)
        recorder.add_duration(
            "executor.queue_wait_s", max(0.0, turnaround - busy)
        )
        worker = stats.setdefault(out.worker, [0, 0.0])
        worker[0] += 1
        worker[1] += busy

    while work or pending:
        if work and not pending and not slots.usable():
            lost = slots.recover()
            if lost is not None:
                for unit, _attempts, _not_before in work:
                    fail(unit, f"chunk failed: {lost}")
                work = []
                continue
        now = time.monotonic()
        held = []
        for i, entry in enumerate(work):
            if entry[2] > now:
                held.append(entry)
                continue
            ticket = slots.submit(entry[0])
            if ticket is None:
                held.extend(work[i:])
                break
            pending[ticket] = (entry[0], entry[1], time.monotonic())
        work = held
        outcomes = list(slots.wait(pending))
        if should_stop is not None and should_stop():
            # Keep what completed, but a shutdown that kills the workers
            # must not journal the units it broke.
            for out in outcomes:
                if out.error is None:
                    release(out.payload)
            raise ExecutionStopped("run interrupted by shutdown signal")
        for out in outcomes:
            unit, attempts, submit_t = pending.pop(out.ticket)
            if out.error is None:
                if recorder:
                    account(out, submit_t)
                release(out.payload)
                continue
            kind, message = out.error
            terminal = _terminal_failure(kind, out.was_running)
            if attempts >= max_retries or (terminal and not out.lost):
                fail(
                    unit, f"chunk failed: {kind}: {message}",
                    STATUS_ERROR if terminal else STATUS_TIMEOUT,
                )
            elif out.lost and out.was_running and len(unit.items) > 1:
                # The slot died without naming the guilty scenario.
                # Safe for planned batches too: results are tagged by
                # backend, not by grouping, so journal bytes match.
                # A pool break also fails the innocent units running
                # beside the dead worker: a fresh budget keeps once-only
                # deaths of later singletons from spending theirs twice.
                for item in unit.items:
                    requeue(_Unit([item]), 0)
                if recorder:
                    recorder.vinc(f"{slots.PREFIX}.singleton_splits")
            elif out.lost and not out.was_running:
                # Still queued when the pool broke: it never ran, so the
                # break charges it nothing (the rebuild budget bounds
                # how often a pool may break).
                requeue(unit, attempts)
            else:
                requeue(unit, attempts + 1)
        if pending and deadline is not None and time.monotonic() > deadline:
            # Fleet deadline: every unit still out expires together and
            # its slots are killed; with retries left it re-enters the
            # queue under a fresh window, else it journals a timeout.
            slots.cut(list(pending))
            expired = list(pending.values())
            pending.clear()
            for unit, attempts, _submit_t in expired:
                if attempts < max_retries:
                    requeue(unit, attempts + 1)
                else:
                    fail(unit, f"no result within {window:.1f}s")
            if any(attempts < max_retries for _u, attempts, _t in expired):
                deadline = time.monotonic() + window
    if witness is not None and len(witness) > 1:
        contracts.check_merge_commutative(
            witness, context={"backend": backend, "workers": slots.size}
        )
    if recorder and stats:
        wall = time.monotonic() - start
        recorder.set_info(f"{slots.PREFIX}.workers", slots.info(stats))
        if wall > 0:
            busy_total = sum(busy for _units, busy in stats.values())
            recorder.vgauge_max(
                f"{slots.PREFIX}.worker_utilization_pct",
                round(100.0 * busy_total / (slots.size * wall), 1),
            )
    return [collected[i] for i in range(len(collected))]


class _PoolSlots:
    """Dispatcher slots over a :class:`WorkerPool`.

    Takes every ready unit; futures report through a done-callback
    inbox, and running-vs-queued attribution is polled once per wait (a
    unit whose worker dies within one poll of starting may count as
    queued, i.e. retriable — the safe side).  A ``BrokenProcessPool``
    marks the pool dead until its futures drain; :meth:`recover` then
    rebuilds it (generation-aware, within a budget so a crashing
    workload terminates).  On exit a private pool closes — terminated
    when broken, cut or failing — and a broken shared one is rebuilt.
    """

    PREFIX = "executor"
    RETRIES = "executor.unit_retries"

    def __init__(self, pool, size, call, max_rebuilds, recorder) -> None:
        self.owned = pool is None
        self.pool = WorkerPool(size) if pool is None else pool
        self.size = size
        self.call = call
        self.max_rebuilds = max_rebuilds
        self.recorder = recorder
        self.rebuilds = 0
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.gens: dict = {}  # outstanding future -> generation at submit
        self.running: set = set()  # futures observed executing
        self.dead_gen: int | None = None  # generation seen broken
        self.stragglers = False

    def usable(self) -> bool:
        return self.dead_gen is None

    def submit(self, unit: _Unit):
        if self.dead_gen is not None:
            return None
        gen = self.pool.generation
        try:
            future = self.pool.submit(*self.call(unit))
        except (BrokenProcessPool, RuntimeError):
            # Broken (or a shared pool closing) before this unit
            # dispatched: it never ran and stays queued.
            self.dead_gen = gen
            return None
        self.gens[future] = gen
        future.add_done_callback(self.inbox.put)
        return future

    def wait(self, pending: dict):
        for future in pending:
            if future.running():
                self.running.add(future)
        for future in _drain(self.inbox):
            if future not in pending:
                continue  # cut at the deadline
            gen = self.gens.pop(future)
            was_running = future in self.running
            self.running.discard(future)
            try:
                payload, meta = _split_payload(future.result())
            except ContractViolation:
                # A violated invariant aborts the run loudly — never
                # journaled, never retried.
                raise
            except BaseException as exc:  # noqa: BLE001
                lost = isinstance(exc, BrokenProcessPool)
                if lost and self.dead_gen is None:
                    self.dead_gen = gen
                yield _Outcome(
                    future, error=(type(exc).__name__, str(exc)),
                    was_running=was_running, lost=lost,
                )
                continue
            yield _Outcome(
                future, payload, meta, worker=meta and meta["pid"]
            )

    def cut(self, futures: list) -> None:
        for future in futures:
            future.cancel()
            if self.dead_gen is None:
                self.dead_gen = self.gens[future]
            del self.gens[future]
        self.stragglers = True

    def recover(self) -> str | None:
        if self.rebuilds >= self.max_rebuilds:
            return (
                "BrokenProcessPool: worker pool broken and rebuild "
                "budget exhausted"
            )
        self.pool.rebuild(self.dead_gen)
        self.dead_gen = None
        self.stragglers = False
        self.rebuilds += 1
        if self.recorder:
            self.recorder.vinc("executor.pool_rebuilds")
        return None

    def info(self, stats: dict) -> list[dict]:
        return [
            {"pid": pid, "units": units, "busy_s": round(busy, 6)}
            for pid, (units, busy) in sorted(stats.items())
        ]

    def __enter__(self) -> "_PoolSlots":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # An in-flight exception (contract violation, stop, SIGINT or
        # SIGTERM as KeyboardInterrupt) must not hang on stuck workers.
        for future in self.gens:
            future.cancel()
        broken = self.dead_gen is not None
        terminated = 0
        if self.owned:
            terminated = self.pool.close(
                terminate=broken or exc_type is not None
            )
        elif broken:
            # A shared pool outlives this campaign: replace the broken
            # or straggler-holding workers (no-op when the pool is
            # closing or a neighbor already rebuilt that generation).
            terminated = self.pool.rebuild(self.dead_gen)
        if self.recorder and terminated and self.stragglers:
            self.recorder.vinc("executor.straggler_terminations", terminated)


def execute_scenarios(
    specs: Iterable[ScenarioSpec],
    jobs: int = 1,
    timeout: float | None = None,
    chunksize: int | None = None,
    on_result: Callable[[ScenarioResult], Any] | None = None,
    backend: str = "reference",
    batch_memory: int | None = None,
    pack_widths: bool = False,
    plan=None,
    recorder=None,
    max_retries: int = 0,
    pool: "WorkerPool | None" = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[ScenarioResult]:
    """Execute many scenarios, serially or on a process pool.

    Parameters
    ----------
    specs:
        The scenarios, in grid order.
    jobs:
        Worker processes; ``<= 1`` selects the serial backend (unless a
        ``timeout`` is set, which always routes through a pool — a hung
        scenario cannot be interrupted in-process).
    timeout:
        Per-scenario time budget in seconds.  The budgets pool into one
        fleet deadline (``timeout * ceil(len(specs) / workers)`` from
        pool start): chunks still pending at the deadline yield
        retriable ``"timeout"`` results and their workers are killed
        when the pool exits.  Coarse by design — it unsticks campaigns;
        it is not a precise per-run stopwatch.
    chunksize:
        Scenarios per dispatched task (default: :func:`default_chunksize`).
    on_result:
        Callback invoked in the *parent* process as each result arrives
        (completion order) — the campaign layer journals through this,
        so an interrupted campaign keeps every chunk that finished
        before the interrupt.
    backend:
        Execution engine per scenario: ``"reference"`` (default),
        ``"batched"`` (scheduler-planned mega-batches through one
        tensor program) or ``"auto"`` — see
        :mod:`repro.engine.backends`.
    batch_memory:
        Per-batch memory envelope in bytes for the batched/auto
        backends (``None``: the built-in budget) — a pure packing knob,
        results and journal bytes are identical whatever the envelope.
    pack_widths:
        Cross-``n`` packing for the batched/auto backends when the plan
        is computed *here* (``plan=None``): mixed-``n`` grids batch into
        one padded tensor program per round bucket — see
        :func:`repro.engine.scheduler.plan_batches`.  A pure packing
        knob: results and journal bytes are identical either way.
    plan:
        A precomputed :class:`~repro.engine.scheduler.BatchPlan` for
        exactly this work list (the campaign layer passes the plan its
        progress reporter was built from, so the list is only planned
        once).  ``None``: the batched/auto backends plan here.
    recorder:
        Optional :class:`~repro.engine.telemetry.Recorder`.  On the pool
        path workers collect into their own recorders and return
        snapshots with their payloads; the parent merges them (the merge
        is commutative, so the result is independent of worker count and
        completion order) and adds dispatch-side durations — per-unit
        turnaround, worker busy time, queue wait — plus per-worker
        utilization info.
    max_retries:
        Bounded *in-run* retries per dispatch unit for retriable
        failures (fleet-deadline timeouts, transient worker errors,
        broken pools) before the failure is journaled for a later
        resume — the :func:`dispatch` retry and split rule.  ``0``
        (default) journals on first failure.
    pool:
        A shared :class:`WorkerPool` (the campaign service's persistent
        pool).  ``None`` (default): a private pool is created and torn
        down here, exactly as before.  With a shared pool this call
        never shuts the pool down — broken pools and stragglers are
        handled by generation-aware :meth:`WorkerPool.rebuild` so
        concurrent campaigns on the same pool keep running.  A pool
        forces the pool code path even for ``jobs <= 1`` (the daemon
        multiplexes every campaign through its workers).
    should_stop:
        Zero-argument callable polled between dispatch rounds (and
        between serial results).  Returning ``True`` cancels pending
        work and raises :class:`ExecutionStopped`; everything already
        delivered to ``on_result`` stays journaled, so the campaign is
        resumable by hash.

    Returns
    -------
    Results in the same order as ``specs``, independent of ``jobs``.
    """
    from repro.engine.backends import checked_backend

    checked_backend(backend)
    spec_list = list(specs)
    if not spec_list:
        return []
    serial = (
        (jobs <= 1 or len(spec_list) <= 1) and timeout is None and pool is None
    )
    jobs = 1 if serial else max(1, jobs)
    # Serial units stream: one scenario per order-chunk, a planned batch
    # whole.  Results journal in plan order and return in grid order.
    units = _plan_units(
        list(enumerate(spec_list)), backend, 1 if serial else chunksize,
        jobs, plan, batch_memory, pack_widths, recorder,
    )

    def deliver(pairs: list) -> None:
        # Completion order: a slow unit must not hold back the
        # durability of the fast ones behind it.
        for _idx, result in pairs:
            on_result(result)

    if serial:
        results: list = [None] * len(spec_list)
        for unit in units:
            pairs = run_unit(unit, backend, recorder)
            for idx, result in pairs:
                if recorder:
                    _count_result(recorder, result)
                results[idx] = result
            if on_result is not None:
                deliver(pairs)
            if should_stop is not None and should_stop():
                raise ExecutionStopped("run interrupted by shutdown signal")
        return results

    workers = min(jobs, len(units))
    # The collect flag is appended only when metrics are on, so the
    # worker-call shape (and every monkeypatched test double) is
    # untouched on the default path.
    collect: tuple = (True,) if recorder else ()

    max_retries = max(0, max_retries)
    with _PoolSlots(
        pool, workers, lambda unit: (_execute_unit, unit, backend) + collect,
        2 * max_retries + 2, recorder,
    ) as slots:
        results = dispatch(
            units, slots, backend=backend, timeout=timeout,
            max_retries=max_retries, should_stop=should_stop,
            recorder=recorder,
            deliver=deliver if on_result is not None else None,
        )
    if recorder:
        recorder.vinc("executor.units_dispatched", len(units))
        recorder.vgauge_max("executor.pool_workers", workers)
    return results
