"""Deterministic, seed-driven fault injection for the executor/store
recovery paths.

A :class:`FaultPlan` is a pure function of its seed: whether a fault
fires for a given scenario is decided by hashing ``(seed, kind,
scenario_id)`` against the plan's per-kind rate, so the *same plan
always picks the same victims* — which is what lets tests and smoke
legs assert that a faulted campaign reconverges to journals
byte-identical to the fault-free run.

Fault kinds (all optional, rates in ``[0, 1]`` per scenario):

* ``kill`` — the worker process hard-exits (``os._exit``) before the
  victim scenario runs, breaking the pool mid-chunk.  Exercises crash
  isolation, running-vs-queued attribution and singleton-split retry.
* ``stall`` — the worker sleeps past the fleet deadline before the
  victim runs.  Exercises straggler termination and deadline retry.
* ``transient`` — the worker raises :class:`InjectedFault` before the
  victim runs.  Exercises retriable-vs-terminal classification and
  bounded in-run retry.
* ``torn`` — the *parent's* journal append writes a truncated line with
  no trailing newline and dies, simulating a writer killed mid-write.
  Exercises torn-tail healing and resume-by-hash.
* ``drop_meta`` — the worker's telemetry snapshot is dropped from its
  return payload.  Exercises the parent's tolerance for missing meta.

Every fault fires **at most once per plan** via an append-only ledger
file (written with ``O_APPEND`` + ``os.write`` so the entry is durable
even when the very next statement is ``os._exit``): the first run hits
the fault, the retry/resume does not, and the campaign must converge.
Without a ledger the plan fires on every encounter (useful for
unit-testing a single fault path).

Activation mirrors :mod:`repro.engine.contracts`: the plan is carried
in the ``REPRO_FAULTS`` environment variable as JSON so spawned pool
workers inherit it; :func:`active_plan` memoizes the decode.  With the
variable unset every hook is one dict lookup — zero-cost off.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, replace

FAULTS_ENV = "REPRO_FAULTS"

#: Worker-side fault kinds (fire only in pool workers, never the parent).
_WORKER_KINDS = ("kill", "stall", "transient")


class InjectedFault(RuntimeError):
    """Raised by an active fault plan (transient worker failures and the
    parent-side torn-write crash simulation)."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault campaign.  See module docstring."""

    seed: int
    kill: float = 0.0
    stall: float = 0.0
    transient: float = 0.0
    torn: float = 0.0
    drop_meta: float = 0.0
    #: How long a stalled worker sleeps — choose it >> the campaign
    #: ``--timeout`` so the stall reliably trips the fleet deadline.
    stall_s: float = 30.0
    #: Once-only ledger path (``None``: faults fire on every encounter).
    ledger: str | None = None
    #: Pid of the campaign parent — worker faults fire only in other
    #: processes, so serial in-process runs are never killed.
    parent_pid: int = 0

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_seed(cls, seed: int, **rates) -> "FaultPlan":
        return cls(seed=int(seed), parent_pid=os.getpid(), **rates)

    @classmethod
    def parse(cls, text: str, ledger: str | None = None) -> "FaultPlan":
        """Build a plan from the CLI's ``k=v[,k=v...]`` spec, e.g.
        ``"seed=11,kill=0.2,torn=0.1"``."""
        fields = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad fault spec {part!r}: expected key=value"
                )
            key, value = part.split("=", 1)
            key = key.strip()
            if key == "seed":
                fields[key] = int(value)
            elif key in (*_WORKER_KINDS, "torn", "drop_meta", "stall_s"):
                fields[key] = float(value)
            elif key == "ledger":
                fields[key] = value.strip()
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        if "seed" not in fields:
            raise ValueError("fault spec needs a seed=N entry")
        if ledger is not None and "ledger" not in fields:
            fields["ledger"] = ledger
        return cls.from_seed(**fields)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls(**json.loads(text))

    def install(self) -> "FaultPlan":
        """Publish this plan to the environment (workers inherit it) and
        make it this process's active plan."""
        global _CACHE
        plan = self if self.parent_pid else replace(
            self, parent_pid=os.getpid()
        )
        raw = plan.to_json()
        os.environ[FAULTS_ENV] = raw
        _CACHE = (raw, plan)
        return plan

    # ------------------------------------------------------------------
    # Victim selection (pure)
    # ------------------------------------------------------------------
    def wants(self, kind: str, scenario_id: str) -> bool:
        """Whether this plan targets ``scenario_id`` with ``kind`` —
        a pure function of ``(seed, kind, scenario_id)``."""
        rate = getattr(self, kind if kind != "drop" else "drop_meta")
        if rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{scenario_id}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < rate

    def victims(self, kind: str, scenario_ids) -> list[str]:
        """The (deterministic) subset of ids the plan targets — lets
        tests and smoke legs pick seeds with known victim counts."""
        return [sid for sid in scenario_ids if self.wants(kind, sid)]

    # ------------------------------------------------------------------
    # Once-only ledger
    # ------------------------------------------------------------------
    def _fired(self, key: str) -> bool:
        if self.ledger is None or not os.path.exists(self.ledger):
            return False
        with open(self.ledger, "r", encoding="utf-8") as fh:
            return any(line.strip() == key for line in fh)

    def _record(self, key: str) -> None:
        if self.ledger is None:
            return
        # O_APPEND + one os.write: atomic enough that the entry lands
        # even when the very next statement is os._exit().
        fd = os.open(
            self.ledger, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, (key + "\n").encode())
        finally:
            os.close(fd)

    def claim(self, kind: str, scenario_id: str) -> bool:
        """True exactly once per ``(kind, scenario_id)`` the plan
        targets: checks the rate, then the ledger, then records."""
        if not self.wants(kind, scenario_id):
            return False
        key = f"{kind}:{scenario_id}"
        if self._fired(key):
            return False
        self._record(key)
        return True


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_CACHE: tuple[str | None, FaultPlan | None] = (None, None)


def active_plan() -> FaultPlan | None:
    """The process's active plan, decoded (memoized) from the
    environment — ``None`` when fault injection is off."""
    global _CACHE
    raw = os.environ.get(FAULTS_ENV)
    if raw == _CACHE[0]:
        return _CACHE[1]
    plan = FaultPlan.from_json(raw) if raw else None
    _CACHE = (raw, plan)
    return plan


def clear() -> None:
    """Remove any active plan (tests)."""
    global _CACHE
    os.environ.pop(FAULTS_ENV, None)
    _CACHE = (None, None)


# ----------------------------------------------------------------------
# Hooks (called from the executor and store hot paths; one dict lookup
# when no plan is active)
# ----------------------------------------------------------------------
def before_scenario(spec) -> None:
    """Worker-side hook, called before each scenario executes.  Fires
    the plan's kill/stall/transient faults — only in pool workers, never
    in the campaign parent."""
    plan = active_plan()
    if plan is None:
        return
    if os.getpid() == plan.parent_pid:
        return
    if not (plan.kill or plan.stall or plan.transient):
        return
    sid = spec.scenario_id
    if plan.claim("kill", sid):
        # Hard worker death mid-chunk: no cleanup, no exception — the
        # pool's broken-pool protocol is the only witness.
        os._exit(17)
    if plan.claim("stall", sid):
        time.sleep(plan.stall_s)
    if plan.claim("transient", sid):
        raise InjectedFault(
            f"injected transient worker failure before {sid}"
        )


def torn_append(result) -> bool:
    """Parent-side hook, called by :meth:`ResultStore.append`.  True when
    the plan wants this journal append torn (the store then writes a
    truncated, newline-less line and raises :class:`InjectedFault`)."""
    plan = active_plan()
    if plan is None or not plan.torn:
        return False
    return plan.claim("torn", result.scenario_id)


def drop_worker_meta(items) -> bool:
    """Worker-side hook: whether this unit's telemetry snapshot should be
    dropped from the return payload (keyed on the unit's first
    ``(index, spec)`` item)."""
    plan = active_plan()
    if plan is None or not plan.drop_meta or not items:
        return False
    return plan.claim("drop", items[0][1].scenario_id)
