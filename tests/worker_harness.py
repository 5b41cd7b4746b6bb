"""Boot a fleet of real ``repro worker`` subprocesses for tests, with
guaranteed teardown.

Mirrors :mod:`daemon_harness`: each worker runs exactly as a user would
— ``python -m repro worker --listen 127.0.0.1:0 --port-file ...`` — the
harness polls the port files for the bound endpoints, yields them, and
always tears the subprocesses down (SIGTERM, bounded wait, SIGKILL
escalation), so a failing assertion can never leave a worker wedging
the suite.

Usage::

    from worker_harness import worker_fleet

    def test_something(tmp_path):
        with worker_fleet(tmp_path, count=2) as fleet:
            execute_remote(specs, fleet.endpoints, ...)

:func:`thread_workers` serves in-thread workers instead, so a test can
monkeypatch worker-side code (``repro.engine.remote._execute_unit``)
in its own process.

All tests using this module must carry the ``daemon`` marker (see
``pytest.ini``), which arms a per-test SIGALRM timeout so a hung worker
fails the test fast instead of hanging the run.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from daemon_harness import repro_env

STARTUP_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 30.0


class WorkerFleet:
    """The live worker subprocesses plus their dialable endpoints."""

    def __init__(
        self, procs: list[subprocess.Popen], endpoints: list[str]
    ) -> None:
        self.procs = procs
        self.endpoints = endpoints

    def kill(self, index: int) -> None:
        """Hard-kill one worker (crash simulation)."""
        proc = self.procs[index]
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    def stop(self, timeout: float = SHUTDOWN_TIMEOUT) -> list[int]:
        """SIGTERM every worker and wait; returns their exit codes."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        codes = []
        for proc in self.procs:
            try:
                proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate(timeout=10)
            codes.append(proc.returncode)
        return codes


@contextlib.contextmanager
def worker_fleet(
    tmp_path: Path,
    count: int = 2,
    env_extra: dict | None = None,
    startup_timeout: float = STARTUP_TIMEOUT,
):
    """Boot ``count`` listening workers on ephemeral ports; yield a
    :class:`WorkerFleet`; always tear the subprocesses down."""
    procs: list[subprocess.Popen] = []
    port_files: list[Path] = []
    try:
        for i in range(count):
            port_file = tmp_path / f"worker-{i}.port"
            port_files.append(port_file)
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--listen", "127.0.0.1:0",
                        "--port-file", str(port_file),
                    ],
                    env=repro_env(env_extra),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        endpoints: list[str] = []
        deadline = time.monotonic() + startup_timeout
        for i, port_file in enumerate(port_files):
            while True:
                if procs[i].poll() is not None:
                    raise RuntimeError(
                        f"worker {i} exited during startup "
                        f"(rc {procs[i].returncode})"
                    )
                if port_file.exists():
                    text = port_file.read_text().strip()
                    if text:
                        endpoints.append(text)
                        break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {i} wrote no port file within "
                        f"{startup_timeout:.0f}s"
                    )
                time.sleep(0.05)
        yield WorkerFleet(procs, endpoints)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.communicate(timeout=SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate(timeout=10)


@contextlib.contextmanager
def thread_workers(count: int = 1):
    """Serve ``count`` in-thread workers, one session each, through
    ``listen:127.0.0.1:0`` accept endpoints; yield the bound endpoints
    (pass them as ``workers``)."""
    from repro.engine import remote

    def serve(port: int) -> None:
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=STARTUP_TIMEOUT
            ) as sock:
                sock.settimeout(None)
                remote._serve_session(sock, None, None)
        except (OSError, ValueError):
            pass  # the coordinator hung up mid-session

    endpoints, threads = [], []
    for _ in range(count):
        endpoint = remote.WorkerEndpoint.parse("listen:127.0.0.1:0")
        endpoint.prepare()
        thread = threading.Thread(
            target=serve, args=(endpoint.port,), daemon=True
        )
        thread.start()
        endpoints.append(endpoint)
        threads.append(thread)
    try:
        yield endpoints
    finally:
        for endpoint in endpoints:
            endpoint.close()
        for thread in threads:
            thread.join(timeout=SHUTDOWN_TIMEOUT)
