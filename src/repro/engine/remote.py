"""Distributed batch execution: ship planned batches to remote workers.

A coordinator (:func:`execute_remote`) distributes the batch scheduler's
deterministic, self-contained :class:`~repro.engine.scheduler.PlannedBatch`
units to remote worker processes over a pluggable transport and merges
their result shards back into one journal whose bytes are identical to a
single-host serial run — regardless of worker count, completion order,
or mid-run worker loss.

Transport
---------
The default transport is stdlib TCP carrying JSON lines (one message
object per line).  Both connection directions are supported through the
same :class:`WorkerEndpoint` seam, so an ssh-spawned variant (spawn the
worker over ssh with ``--connect`` back to the coordinator) is a drop-in:

* ``host:port`` — a *dial* endpoint: the worker runs
  ``repro worker --listen host:port`` and the coordinator dials it.
* ``listen:port`` (or ``listen:host:port``) — an *accept* endpoint: the
  coordinator binds and the worker dials in with
  ``repro worker --connect host:port``.

Protocol (coordinator → worker): ``setup`` (shipped environment —
contracts and fault plan — and the metrics-collect flag), then
``unit`` messages (``kind``, ``items``, ``backend``; a whole planned
batch adds its ``n``/``bucket``/``width``, an order-chunk carries plan
singles and non-batched backends), then ``shutdown``.  The worker runs
each unit through the pool's worker entry point, so through the one
unit runner (:func:`repro.engine.executor.run_unit`) a pool process or
the serial loop uses.  Worker → coordinator: ``hello`` on connect, then
one ``result`` or ``error`` per unit.  Results travel as journal
*records* (the canonical encoded result plus the producing backend —
:func:`repro.engine.store.journal_record`), so the wire carries exactly
what the journal stores.

Determinism
-----------
The journal-byte contract every prior speed PR preserved holds here by
construction:

* the coordinator plans with ``jobs=1`` — the scheduler's plan is a pure
  function of the work list, so the plan (and hence the canonical
  journal order) is identical to the serial single-host plan; fleet
  parallelism is recovered by pre-splitting large batches at their
  deterministic midpoints (:func:`~repro.engine.scheduler.split_planned`),
  which preserves plan-order coverage (the sampled
  ``scheduler.split_partition`` contract checks the cuts);
* result records are a pure function of the spec (backend provenance
  included), so *where* a unit ran never changes its bytes;
* a :class:`ShardMerger` holds completed results back until every
  earlier plan position has arrived, releasing them in plan order — the
  merged journal is byte-identical to the serial run whatever the
  completion order.

Dispatch is the pool's :func:`~repro.engine.executor.dispatch` loop
over worker links (:class:`_Fleet`, one unit in flight per link), so
retry, backoff, split and deadline behave as on a local pool: a lost
link with a unit in flight is a dead worker (a multi-scenario unit
re-runs as singletons), stragglers past the fleet deadline have their
links cut, and the fleet is lost once no link is left.  Workers also
append every record to a per-worker shard file next to the journal
(``<journal>.shard-<id>.jsonl`` on the coordinator); a restarted
campaign folds orphaned shard records back into the journal first
(:func:`absorb_shards`), so work that completed before a coordinator
crash is never re-executed.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import queue as queue_mod
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.engine.backends import checked_backend
from repro.engine.contracts import (
    CONTRACTS_ENV,
    ContractViolation,
    get as _get_contracts,
)
from repro.engine.executor import (
    ExecutionStopped,
    ScenarioResult,
    _drain,
    _execute_unit,
    _Outcome,
    _plan_units as _plan_dispatch_units,
    _split_payload,
    _Unit,
    dispatch,
    is_terminal,
)
from repro.engine.faults import FAULTS_ENV
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import decode_result, journal_record

PROTOCOL = 1

#: Environment the coordinator ships to every worker at session setup so
#: hardening drills (contracts, fault plans) behave as if the worker were
#: a local pool process.  Keys absent on the coordinator are *removed* on
#: the worker, keeping sessions hermetic.
SHIPPED_ENV = (CONTRACTS_ENV, FAULTS_ENV)

#: Budget for establishing each worker link at startup (dial retries /
#: accept wait), and for the worker's hello after the socket opens.
CONNECT_TIMEOUT_S = 20.0


class RemoteWorkerError(RuntimeError):
    """A worker link could not be established or the fleet is unusable."""


# ----------------------------------------------------------------------
# Endpoints — the pluggable transport seam.
# ----------------------------------------------------------------------


@dataclass
class WorkerEndpoint:
    """One remote worker address, in either connection direction.

    ``kind == "dial"``: the coordinator dials a listening worker.
    ``kind == "accept"``: the coordinator binds ``host:port`` and waits
    for a worker to dial in (``repro worker --connect``) — the seam an
    ssh-spawned transport plugs into.  :meth:`prepare` binds accept
    endpoints eagerly (resolving port ``0``), so callers can learn the
    bound port before spawning the worker.
    """

    kind: str
    host: str
    port: int
    _server: socket.socket | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def spec(self) -> str:
        if self.kind == "accept":
            return f"listen:{self.host}:{self.port}"
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, spec: str) -> "WorkerEndpoint":
        text = str(spec).strip()
        if not text:
            raise ValueError("empty worker endpoint")
        kind = "dial"
        if text.startswith("listen:"):
            kind = "accept"
            text = text[len("listen:"):]
        host, sep, port_text = text.rpartition(":")
        if not sep:
            host, port_text = "", text
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"invalid worker endpoint {spec!r}: port must be an "
                "integer (expected host:port or listen:[host:]port)"
            ) from None
        if not (0 <= port <= 65535):
            raise ValueError(f"invalid worker endpoint {spec!r}: bad port")
        return cls(kind=kind, host=host, port=port)

    def prepare(self) -> None:
        """Bind an accept endpoint (no-op for dial endpoints)."""
        if self.kind != "accept" or self._server is not None:
            return
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(4)
        self.port = server.getsockname()[1]
        self._server = server

    def establish(self, timeout: float = CONNECT_TIMEOUT_S) -> socket.socket:
        """Open the worker connection (dial with retry, or accept)."""
        deadline = time.monotonic() + timeout
        if self.kind == "accept":
            self.prepare()
            self._server.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                sock, _addr = self._server.accept()
            except (socket.timeout, OSError) as exc:
                raise RemoteWorkerError(
                    f"no worker dialed in to {self.spec} within {timeout:.0f}s"
                ) from exc
            return sock
        delay = 0.05
        while True:
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=timeout
                )
            except OSError as exc:
                if time.monotonic() + delay > deadline:
                    raise RemoteWorkerError(
                        f"cannot reach worker {self.spec}: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(0.5, delay * 2)

    def close(self) -> None:
        if self._server is not None:
            try:
                self._server.close()
            finally:
                self._server = None


def parse_workers(
    workers: str | Iterable[str | WorkerEndpoint],
) -> list[WorkerEndpoint]:
    """Parse a ``--workers`` value into endpoints.

    Accepts a comma-separated string (the CLI shape), an iterable of
    endpoint specs, or ready :class:`WorkerEndpoint` objects (passed
    through, so tests can hand over pre-bound accept endpoints).
    """
    if workers is None:
        return []
    if isinstance(workers, str):
        parts: Iterable = [p for p in workers.split(",") if p.strip()]
    else:
        parts = workers
    endpoints = []
    for part in parts:
        if isinstance(part, WorkerEndpoint):
            endpoints.append(part)
        else:
            endpoints.append(WorkerEndpoint.parse(part))
    return endpoints


def probe_worker(
    endpoint: str | WorkerEndpoint, timeout: float = 0.5
) -> dict:
    """Liveness-probe one dial endpoint (the daemon ``/metrics`` hook).

    Connects, reads the worker's hello and disconnects — the worker's
    accept loop treats the abandoned session as a finished coordinator
    and keeps serving.  Accept endpoints cannot be probed (the worker
    dials *us*), so they report ``alive: None``.
    """
    ep = (
        endpoint
        if isinstance(endpoint, WorkerEndpoint)
        else WorkerEndpoint.parse(endpoint)
    )
    info: dict[str, Any] = {"endpoint": ep.spec, "alive": None}
    if ep.kind != "dial":
        return info
    try:
        with socket.create_connection((ep.host, ep.port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            line = sock.makefile("r", encoding="utf-8").readline()
        hello = json.loads(line)
        info.update(
            alive=True,
            pid=hello.get("pid"),
            host=hello.get("host"),
            protocol=hello.get("protocol"),
        )
    except (OSError, ValueError) as exc:
        info.update(alive=False, error=f"{type(exc).__name__}: {exc}")
    return info


# ----------------------------------------------------------------------
# Wire helpers.
# ----------------------------------------------------------------------


def _send(wfile, msg: dict) -> None:
    wfile.write(json.dumps(msg, separators=(",", ":")) + "\n")
    wfile.flush()


def _decode_items(raw: Sequence) -> list[tuple[int, ScenarioSpec]]:
    return [(int(idx), ScenarioSpec.from_dict(data)) for idx, data in raw]


def _encode_items(items: Sequence) -> list:
    return [[idx, spec.to_dict()] for idx, spec in items]


def _append_records(fh, records: list) -> None:
    """Append ``(index, record)`` pairs to a shard file, one line each."""
    for _idx, record in records:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    fh.flush()


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------


def _run_unit(msg: dict, collect: bool) -> dict:
    """Execute one unit message; build the reply (never raises for
    scenario/unit failures — only :class:`ContractViolation` style
    aborts surface as fatal ``error`` replies)."""
    unit_id = msg.get("id")
    try:
        items = _decode_items(msg["items"])
        batch = None
        if msg.get("kind") == "batch":
            from repro.engine.scheduler import PlannedBatch

            batch = PlannedBatch(
                n=int(msg["n"]),
                bucket=int(msg["bucket"]),
                width=int(msg["width"]),
                items=tuple(items),
            )
        payload = _execute_unit(
            _Unit(items, batch), msg.get("backend", "batched"), collect
        )
    except ContractViolation as exc:
        return {
            "type": "error",
            "id": unit_id,
            "kind": "contract",
            "error": str(exc),
            "contract": exc.contract,
            "detail": exc.detail,
            "repro": exc.repro,
        }
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 — unit isolation
        return {
            "type": "error",
            "id": unit_id,
            "kind": type(exc).__name__,
            "error": str(exc),
        }
    payload, meta = _split_payload(payload)
    reply = {
        "type": "result",
        "id": unit_id,
        "pid": os.getpid(),
        "records": [
            [idx, journal_record(result)] for idx, result in payload
        ],
    }
    if meta is not None:
        reply["busy_s"] = meta["busy_s"]
        reply["snapshot"] = meta["snapshot"]
    return reply


def _apply_setup(msg: dict) -> bool:
    """Apply a setup message's shipped environment; return the collect
    flag.  Keys the coordinator did not ship are removed so repeated
    sessions against one long-lived worker stay hermetic."""
    env = msg.get("env") or {}
    for key in SHIPPED_ENV:
        if key in env:
            os.environ[key] = str(env[key])
        else:
            os.environ.pop(key, None)
    # Contracts memoize per process; re-resolve so a long-lived worker
    # honors each coordinator session's hardening choice.
    from repro.engine import contracts as _contracts

    if _contracts.enabled():
        _contracts.activate()
    else:
        _contracts.deactivate()
    return bool(msg.get("collect"))


def _serve_session(sock: socket.socket, spool: Path | None, log) -> None:
    """One coordinator session: hello, then serve units until shutdown
    or EOF.  The per-session spool file (when configured) receives every
    record this worker produced — its local journal shard."""
    rfile = sock.makefile("r", encoding="utf-8")
    wfile = sock.makefile("w", encoding="utf-8")
    collect = False
    spool_fh = None
    try:
        _send(
            wfile,
            {
                "type": "hello",
                "protocol": PROTOCOL,
                "pid": os.getpid(),
                "host": platform.node(),
            },
        )
        for line in rfile:
            line = line.strip()
            if not line:
                continue
            msg = json.loads(line)
            kind = msg.get("type")
            if kind == "setup":
                collect = _apply_setup(msg)
            elif kind == "unit":
                reply = _run_unit(msg, collect)
                if spool is not None and reply.get("type") == "result":
                    if spool_fh is None:
                        spool.parent.mkdir(parents=True, exist_ok=True)
                        spool_fh = spool.open("a", encoding="utf-8")
                    _append_records(spool_fh, reply["records"])
                _send(wfile, reply)
            elif kind == "shutdown":
                break
    finally:
        if spool_fh is not None:
            spool_fh.close()
        for fh in (rfile, wfile):
            try:
                fh.close()
            except OSError:
                pass


def worker_serve(
    listen: str | None = None,
    connect: str | None = None,
    spool: str | os.PathLike | None = None,
    port_file: str | os.PathLike | None = None,
    stream=None,
    connect_timeout: float = CONNECT_TIMEOUT_S,
) -> int:
    """The ``repro worker`` entrypoint.

    ``listen="host:port"`` binds and serves coordinator sessions until
    SIGTERM/SIGINT (port ``0`` picks a free port; ``port_file`` receives
    the bound ``host:port``, written atomically — the same handshake the
    daemon harness uses).  ``connect="host:port"`` dials a coordinator's
    accept endpoint (with retry while the coordinator binds) and serves
    exactly one session.  Returns a process exit code.
    """
    import signal
    import sys

    log = stream if stream is not None else sys.stderr

    def _say(text: str) -> None:
        try:
            log.write(f"worker: {text}\n")
            log.flush()
        except (OSError, ValueError):
            pass

    spool_path = Path(spool) if spool is not None else None
    if (listen is None) == (connect is None):
        _say("exactly one of --listen / --connect is required")
        return 2

    if connect is not None:
        ep = WorkerEndpoint.parse(connect)
        try:
            sock = WorkerEndpoint(
                kind="dial", host=ep.host, port=ep.port
            ).establish(connect_timeout)
        except RemoteWorkerError as exc:
            _say(str(exc))
            return 1
        _say(f"connected to coordinator {ep.host}:{ep.port}")
        with sock:
            _serve_session(sock, spool_path, log)
        return 0

    ep = WorkerEndpoint.parse(listen)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((ep.host, ep.port))
    server.listen(4)
    bound = f"{ep.host}:{server.getsockname()[1]}"
    if port_file is not None:
        target = Path(port_file)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(bound + "\n", encoding="utf-8")
        tmp.replace(target)
    _say(f"listening on {bound} (pid {os.getpid()})")

    stopping = threading.Event()

    def _terminate(signum, frame):  # noqa: ARG001 — signal API
        stopping.set()
        raise SystemExit(0)

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _terminate)
        except (ValueError, OSError):  # non-main thread (tests)
            pass
    server.settimeout(0.5)
    try:
        while not stopping.is_set():
            try:
                sock, addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            _say(f"session from {addr[0]}:{addr[1]}")
            try:
                with sock:
                    _serve_session(sock, spool_path, log)
            except (OSError, ValueError) as exc:
                _say(f"session ended: {type(exc).__name__}: {exc}")
    except SystemExit:
        pass
    finally:
        server.close()
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        _say("stopped")
    return 0


# ----------------------------------------------------------------------
# Deterministic shard-merge.
# ----------------------------------------------------------------------


class ShardMerger:
    """Release completion-order results in canonical plan order.

    Built from the plan-order index sequence (the order a serial
    single-host run journals in).  :meth:`add` buffers each arriving
    ``(index, result)`` and returns the newly releasable contiguous
    prefix — the merged journal stream is byte-identical to the serial
    run no matter the arrival order.  Strict by design: an unknown index
    or a duplicate arrival raises (the dispatcher deduplicates late
    straggler replies *before* merging).
    """

    def __init__(self, order: Sequence[int]) -> None:
        self._pos = {int(idx): pos for pos, idx in enumerate(order)}
        if len(self._pos) != len(order):
            raise ValueError("duplicate work indices in merge order")
        self._held: dict[int, tuple[int, ScenarioResult]] = {}
        self._next = 0
        self.total = len(self._pos)
        self.released = 0

    def add(self, idx: int, result: ScenarioResult) -> list:
        """Accept one completed result; return the newly released
        ``(idx, result)`` pairs in plan order (possibly empty)."""
        pos = self._pos[int(idx)]
        if pos < self._next or pos in self._held:
            raise ValueError(f"duplicate result for work index {idx}")
        self._held[pos] = (int(idx), result)
        out = []
        while self._next in self._held:
            out.append(self._held.pop(self._next))
            self._next += 1
            self.released += 1
        return out

    def drain(self) -> list:
        """Flush everything still held, in position order (gaps are
        skipped — their scenarios never completed and will re-run on
        resume).  Used on interrupt so completed work stays durable."""
        out = [self._held[pos] for pos in sorted(self._held)]
        self.released += len(out)
        self._held.clear()
        return out

    @property
    def pending(self) -> int:
        return len(self._held)


# ----------------------------------------------------------------------
# Coordinator.
# ----------------------------------------------------------------------

class _Link:
    """One live worker connection plus its reader thread."""

    def __init__(self, link_id: str, endpoint: WorkerEndpoint,
                 sock: socket.socket) -> None:
        self.id = link_id
        self.endpoint = endpoint
        self.sock = sock
        self.rfile = sock.makefile("r", encoding="utf-8")
        self.wfile = sock.makefile("w", encoding="utf-8")
        self.pid: int | None = None
        self.host: str | None = None
        self.closed = False
        self.inflight: str | None = None  # id of the unit on the worker
        self.dispatched = 0
        self.requeued = 0

    def read_hello(self, timeout: float) -> dict:
        self.sock.settimeout(timeout)
        try:
            line = self.rfile.readline()
        finally:
            self.sock.settimeout(None)
        if not line:
            raise RemoteWorkerError(
                f"worker {self.endpoint.spec} closed before hello"
            )
        hello = json.loads(line)
        if hello.get("type") != "hello":
            raise RemoteWorkerError(
                f"worker {self.endpoint.spec} sent {hello.get('type')!r} "
                "instead of hello"
            )
        if hello.get("protocol") != PROTOCOL:
            raise RemoteWorkerError(
                f"worker {self.endpoint.spec} speaks protocol "
                f"{hello.get('protocol')!r}, coordinator speaks {PROTOCOL}"
            )
        self.pid = hello.get("pid")
        self.host = hello.get("host")
        return hello

    def start_reader(self, inbox) -> None:
        def _pump() -> None:
            try:
                for line in self.rfile:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        msg = json.loads(line)
                    except ValueError:
                        continue
                    inbox.put((self, msg))
            except (OSError, ValueError):
                pass
            inbox.put((self, None))

        threading.Thread(
            target=_pump, name=f"remote-{self.id}", daemon=True
        ).start()

    def send(self, msg: dict) -> None:
        _send(self.wfile, msg)

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def info(self, units: int, busy_s: float) -> dict:
        return {
            "endpoint": self.endpoint.spec,
            "pid": self.pid,
            "host": self.host,
            "units": units,
            "busy_s": round(busy_s, 6),
            "dispatched": self.dispatched,
            "requeued": self.requeued,
        }


def _plan_units(
    indexed: list,
    backend: str,
    batch_memory: int | None,
    pack_widths: bool,
    plan,
    chunksize: int | None,
    fleet: int,
    recorder,
) -> list[_Unit]:
    """The executor's dispatch units, pre-split for the fleet.

    Planned with ``jobs=1`` so the plan — and the journal order —
    matches the serial single-host run exactly; default chunk sizes
    spread the plan singles over the fleet.  Large batches are then pre-split at their deterministic
    midpoints until the fleet has work for every worker — splits replace
    a unit in place, so plan-order coverage is preserved (the sampled
    ``scheduler.split_partition`` contract checks the cut).
    """
    from repro.engine.scheduler import can_split, split_planned

    units = _plan_dispatch_units(
        indexed, backend, chunksize, fleet, plan, batch_memory, pack_widths,
        recorder, plan_jobs=1,
    )
    while len(units) < fleet:
        splittable = [
            i for i, unit in enumerate(units)
            if unit.batch is not None and can_split(unit.batch)
        ]
        if not splittable:
            break
        best = max(splittable, key=lambda i: units[i].batch.lanes)
        batch = units[best].batch
        halves = split_planned(batch)
        contracts = _get_contracts()
        if contracts and contracts.sample("scheduler.split_partition"):
            contracts.check_split_partition(
                batch, halves, context={"backend": backend, "fleet": fleet}
            )
        units[best:best + 1] = [
            _Unit(list(half.items), half) for half in halves
        ]
    return units


def _unit_msg(unit: _Unit, unit_id: str, backend: str) -> dict:
    msg = {
        "type": "unit",
        "kind": unit.kind,
        "id": unit_id,
        "items": _encode_items(unit.items),
        "backend": backend,
    }
    if unit.batch is not None:
        batch = unit.batch
        msg.update(n=batch.n, bucket=batch.bucket, width=batch.width)
    return msg


class _Fleet:
    """Dispatcher slots over worker links (see
    :func:`~repro.engine.executor.dispatch`).

    One unit in flight per link, so slow workers never hoard; replies
    reach the dispatcher through the reader threads' shared inbox.  A
    lost connection is a lost slot (its in-flight unit reports
    ``lost``), a deadline cut closes the straggler's link (the remote
    worker notices on its next send and re-enters its accept loop), and
    the fleet is lost once no link is left.  Every result record is
    appended to the link's shard file (``<shard_base>.shard-<id>.jsonl``)
    as it arrives, before the merge.
    """

    PREFIX = "remote"
    RETRIES = "remote.batches_requeued"

    def __init__(self, endpoints, setup, connect_timeout, backend,
                 shard_base, recorder) -> None:
        self.endpoints = endpoints
        self.backend = backend
        self.shard_base = shard_base
        self.recorder = recorder
        self.inbox: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self.links: list[_Link] = []
        self.shards: dict[str, Any] = {}
        self.sent = 0
        try:
            for i, endpoint in enumerate(endpoints):
                link = _Link(f"w{i}", endpoint,
                             endpoint.establish(connect_timeout))
                self.links.append(link)
                try:
                    link.read_hello(connect_timeout)
                    link.send(setup)
                except (OSError, ValueError) as exc:
                    raise RemoteWorkerError(
                        f"handshake with worker {endpoint.spec} failed: {exc}"
                    ) from exc
                link.start_reader(self.inbox)
        except BaseException:
            self.close()
            raise
        self.size = len(self.links)

    def usable(self) -> bool:
        return any(not link.closed for link in self.links)

    def recover(self) -> str:
        return "RemoteWorkerError: remote fleet lost (all workers down)"

    def _lose(self, link: _Link) -> None:
        link.close()
        if self.recorder:
            self.recorder.vinc("remote.workers_lost")

    def submit(self, unit: _Unit):
        for link in self.links:
            if link.closed or link.inflight is not None:
                continue
            self.sent += 1
            msg = _unit_msg(unit, f"u{self.sent}", self.backend)
            try:
                link.send(msg)
            except (OSError, ValueError):
                self._lose(link)
                continue
            link.inflight = msg["id"]
            link.dispatched += 1
            if self.recorder:
                self.recorder.vinc("remote.batches_dispatched")
            return link
        return None

    def wait(self, pending: dict):
        for link, msg in _drain(self.inbox):
            if link.closed:
                continue  # a cut straggler's late reply, or its EOF
            if msg is None:
                self._lose(link)
                if link.inflight is not None:
                    link.inflight = None
                    link.requeued += 1
                    yield _Outcome(
                        link, was_running=True, lost=True,
                        error=("WorkerLost", f"worker {link.endpoint.spec} "
                               "connection lost"),
                    )
                continue
            if link.inflight is None or msg.get("id") != link.inflight:
                continue
            if msg.get("type") == "error":
                if msg.get("kind") == "contract":
                    raise ContractViolation(
                        msg.get("contract", "remote"),
                        msg.get("detail", msg.get("error", "remote violation")),
                        dict(msg.get("repro") or {},
                             worker=link.endpoint.spec),
                    )
                link.inflight = None
                link.requeued += 1
                yield _Outcome(
                    link, was_running=True,
                    error=(msg.get("kind", "RemoteError"),
                           msg.get("error", "?")),
                )
            elif msg.get("type") == "result":
                link.inflight = None
                records = msg.get("records", [])
                self._append_shard(link, records)
                snapshot = msg.get("snapshot")
                if self.recorder:
                    # Det plane: every scenario's record is merged
                    # exactly once in a clean run, whatever the fleet.
                    self.recorder.inc(
                        "remote.shard_records_merged", len(records)
                    )
                yield _Outcome(
                    link,
                    [(int(idx), decode_result(rec)) for idx, rec in records],
                    {"busy_s": float(msg.get("busy_s") or 0.0),
                     "snapshot": snapshot} if snapshot else None,
                    worker=link.id,
                )

    def _append_shard(self, link: _Link, records: list) -> None:
        if self.shard_base is None or not records:
            return
        fh = self.shards.get(link.id)
        if fh is None:
            path = Path(f"{self.shard_base}.shard-{link.id}.jsonl")
            path.parent.mkdir(parents=True, exist_ok=True)
            # "w": a fresh run owns its shards — stale shards from an
            # earlier run were already absorbed (or superseded).
            fh = self.shards[link.id] = path.open("w", encoding="utf-8")
        _append_records(fh, records)

    def cut(self, links: list) -> None:
        for link in links:
            link.close()
            link.inflight = None
            link.requeued += 1
            if self.recorder:
                self.recorder.vinc("remote.stragglers_cut")

    def info(self, stats: dict) -> list[dict]:
        return [
            link.info(*stats.get(link.id, (0, 0.0))) for link in self.links
        ]

    def close(self) -> None:
        for link in self.links:
            if not link.closed:
                try:
                    link.send({"type": "shutdown"})
                except (OSError, ValueError):
                    pass
                link.close()
        for endpoint in self.endpoints:
            endpoint.close()
        for fh in self.shards.values():
            try:
                fh.close()
            except OSError:
                pass


def execute_remote(
    specs: Iterable[ScenarioSpec],
    workers: str | Iterable[str | WorkerEndpoint],
    *,
    timeout: float | None = None,
    on_result: Callable[[ScenarioResult], Any] | None = None,
    backend: str = "batched",
    batch_memory: int | None = None,
    pack_widths: bool = False,
    plan=None,
    recorder=None,
    max_retries: int = 0,
    should_stop: Callable[[], bool] | None = None,
    shard_base: str | os.PathLike | None = None,
    chunksize: int | None = None,
    connect_timeout: float = CONNECT_TIMEOUT_S,
) -> list[ScenarioResult]:
    """Execute scenarios on a fleet of remote workers.

    The same :func:`~repro.engine.executor.dispatch` loop as
    :func:`~repro.engine.executor.execute_scenarios` (``on_result``
    journaling, ``max_retries`` with deterministic backoff and the one
    split rule, a pooled fleet deadline from ``timeout``,
    ``should_stop``), over worker links instead of a pool — but results
    reach ``on_result`` in *plan order* through a :class:`ShardMerger`,
    so the journal is byte-identical to a serial single-host run.
    ``shard_base`` (the journal path) enables coordinator-side
    per-worker shard files for crash-resume via :func:`absorb_shards`.
    Returns results in ``specs`` order.
    """
    checked_backend(backend)
    spec_list = list(specs)
    if not spec_list:
        return []
    endpoints = parse_workers(workers)
    if not endpoints:
        raise ValueError("execute_remote needs at least one worker endpoint")

    # A fresh run owns its shard namespace: anything a previous run left
    # behind was either absorbed on resume or is superseded.
    _remove_shards(shard_base)

    units = _plan_units(
        list(enumerate(spec_list)), backend, batch_memory, pack_widths,
        plan, chunksize, len(endpoints), recorder,
    )
    order = [idx for unit in units for idx, _spec in unit.items]
    merger = ShardMerger(order)
    delivered_ids: list[str] = []

    def deliver(pairs: list) -> None:
        for idx, result in pairs:
            for _idx, released in merger.add(idx, result):
                delivered_ids.append(released.scenario_id)
                if on_result is not None:
                    on_result(released)

    setup = {
        "type": "setup",
        "env": {k: os.environ[k] for k in SHIPPED_ENV if k in os.environ},
        "collect": bool(recorder),
    }
    fleet = _Fleet(endpoints, setup, connect_timeout, backend, shard_base,
                   recorder)
    with contextlib.closing(fleet):
        try:
            results = dispatch(
                units, fleet, backend=backend, timeout=timeout,
                max_retries=max(0, max_retries), should_stop=should_stop,
                recorder=recorder, deliver=deliver,
            )
        except ExecutionStopped:
            # Durability on interrupt: journal every completed result
            # the merger still holds (plan order among themselves; the
            # gaps re-run on resume).
            for _idx, result in merger.drain():
                if on_result is not None:
                    on_result(result)
            raise

    contracts = _get_contracts()
    if contracts and contracts.sample("shard_merge"):
        contracts.check_shard_merge(
            [spec_list[idx].scenario_id for idx in order],
            delivered_ids,
            context={"backend": backend, "fleet": fleet.size},
        )
    # Every sharded record is journal-durable once the run returns
    # normally — drop the redundant shards so only a crashed or
    # interrupted coordinator leaves any behind for absorb_shards.
    _remove_shards(shard_base)
    if recorder:
        recorder.vgauge_max("remote.fleet", fleet.size)
    return results


# ----------------------------------------------------------------------
# Crash-resume: fold orphaned worker shards back into the journal.
# ----------------------------------------------------------------------


def shard_paths(store_path: str | os.PathLike) -> list[Path]:
    """The per-worker shard files next to a journal path."""
    path = Path(store_path)
    return sorted(path.parent.glob(path.name + ".shard-*.jsonl"))


def _remove_shards(store_path: str | os.PathLike | None) -> None:
    for path in shard_paths(store_path) if store_path is not None else ():
        try:
            path.unlink()
        except OSError:
            pass


def absorb_shards(store, recorder=None) -> int:
    """Fold per-worker shard records into the store's main journal.

    A coordinator crash can leave results that workers completed (and
    sharded) but the coordinator never journaled.  Resuming a campaign
    absorbs those records first — a shard record is appended when the
    main journal has no terminal record for its scenario — then removes
    the shard files (their contents are now durable in the journal).
    Idempotent: re-absorbing already-journaled records is a no-op.
    Returns the number of records absorbed.
    """
    if store.path is None:
        return 0
    latest = store.load()
    absorbed = 0
    for shard in shard_paths(store.path):
        try:
            lines = shard.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                result = decode_result(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue  # torn shard tail — the scenario just re-runs
            prior = latest.get(result.scenario_id)
            if prior is not None and is_terminal(prior.status):
                continue
            if prior is not None and not is_terminal(result.status):
                continue
            store.append(result)
            latest[result.scenario_id] = result
            absorbed += 1
        try:
            shard.unlink()
        except OSError:
            pass
    if recorder and absorbed:
        recorder.vinc("remote.shard_records_absorbed", absorbed)
    return absorbed
