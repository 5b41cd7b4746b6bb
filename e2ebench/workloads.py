"""The benchmark's three workloads, driven through the public API.

Each workload has ``setup()`` (what ``setup_s`` covers beyond the
``repro.cli`` import), ``unit(index, tag, recorder)`` (one timed unit of
closed-loop work) and ``teardown()`` (always called; stops every process
and thread the workload started).  Inputs are pure functions of the
benchmark seed and the unit index.

This module imports nothing from ``repro`` at import time, so the setup
probe can time that import on its own.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Paper ensemble per batched/fleet campaign: agreement_grid over these
#: axes with SEEDS_PER_CAMPAIGN seeds (432 scenarios) plus 80
#: HETERO-LAT-style stragglers (see campaign_specs): 512 in all.
GRID_NS = (6, 9, 12, 16)
GRID_KS = (2, 3, 4)
GRID_NOISES = (0.0, 0.15, 0.3)
SEEDS_PER_CAMPAIGN = 4
#: Scenario seeds of benchmark seed s start at s * SEED_STRIDE.
SEED_STRIDE = 100_000

#: served-mixed: 4 seeds x 3 sizes x 4 scenario kinds = 48 per submission.
SERVED_NS = (6, 9, 12)
SEEDS_PER_SUBMISSION = 4
WARMUP_SUBMISSIONS = 5
POLL_INTERVAL_S = 0.005
POOL_JOBS = 2
#: One fleet worker: with two, which worker takes which batch depends
#: on timing and both CPUs run at once, and the fleet's CPU time drifted
#: with the host by about 11% from run to run, more than the host speed
#: calibration follows.
FLEET_SIZE = 1
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def stragglers(n: int, ks, groups, seeds) -> list:
    """HETERO-LAT-style stragglers at size ``n``: with pruning off a lane
    runs the full ``6n + 20`` round budget, with a shrunk purge window it
    retires early, so lane compaction and refill do real work."""
    from repro import ScenarioGrid

    specs = []
    for knob in ({"prune_unreachable": False}, {"purge_window": n // 2}):
        specs += ScenarioGrid(
            n=n, k=ks, num_groups=groups, seed=seeds,
            noise=0.35, where=[lambda s: s["num_groups"] <= s["k"]], **knob,
        ).expand()
    return specs


def campaign_specs(seed: int, index: int) -> list:
    """The batched-serial / fleet-batched campaign number ``index``.

    Results are journaled one planned batch at a time (batches follow
    ``n`` in grid order), so per-scenario latencies cluster at batch
    completions.  72 stragglers at n = 6 and 8 at n = 16 put the
    n <= 9 and n <= 12 shares of the campaign at 56% and 77%: the p50
    and p90 latencies fall inside one cluster instead of on the edge
    between two, where they would flip from run to run.
    """
    from repro import agreement_grid

    base = seed * SEED_STRIDE + index * SEEDS_PER_CAMPAIGN
    seeds = range(base, base + SEEDS_PER_CAMPAIGN)
    return (
        agreement_grid(GRID_NS, GRID_KS, seeds, noises=GRID_NOISES).expand()
        + stragglers(6, GRID_KS, range(1, max(GRID_KS) + 1), seeds)
        + stragglers(16, (2,), (2,), seeds)
    )


def submission_specs(seed: int, index: int) -> list:
    """The served-mixed submission number ``index``: batch-compatible
    Algorithm-1 specs next to reference-only baselines."""
    from repro import ScenarioSpec

    base = seed * SEED_STRIDE + index * SEEDS_PER_SUBMISSION
    specs = []
    for s in range(base, base + SEEDS_PER_SUBMISSION):
        for n in SERVED_NS:
            specs += [
                ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=0.15),
                ScenarioSpec(n=n, k=3, num_groups=3, seed=s, noise=0.3),
                ScenarioSpec(
                    n=n, k=2, seed=s, algorithm="floodmin",
                    adversary="crash", options=(("f", 1),),
                ),
                ScenarioSpec(
                    n=n, k=2, seed=s, algorithm="local_min",
                    adversary="partition", options=(("k_env", 2),),
                ),
            ]
    return specs


def cpu_clock_id(pid: int) -> int:
    """Linux clock id of process ``pid``'s CPU time over all its threads
    (what ``clock_getcpuclockid(3)`` returns)."""
    return ((~pid) << 3) | 2


def child_pids() -> list[int]:
    """Live child processes of this one (service pool workers), from
    ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_bytes()
        except OSError:
            continue
        # The parent pid is the second field after the ")" of the name.
        if int(stat.rsplit(b")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


class ProgramCpu:
    """CPU seconds the program has spent so far: this process (every
    thread), the live child processes it is told to watch, and every
    reaped child.

    The benchmark times on this clock, not the wall clock.  On a shared
    virtual host the wall clock also counts the time the hypervisor
    gives the virtual CPUs to someone else (steal) and the time a
    runnable process waits for one of the few CPUs; both change from
    minute to minute with other tenants' load.  CPU time leaves both out.
    A watched child that exits is reaped into ``RUSAGE_CHILDREN``."""

    def __init__(self) -> None:
        self.clocks: list[int] = []

    def watch(self, pids) -> None:
        self.clocks = [cpu_clock_id(pid) for pid in pids]

    def __call__(self) -> float:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = time.process_time() + kids.ru_utime + kids.ru_stime
        for clock in self.clocks:
            try:
                total += time.clock_gettime(clock)
            except OSError:
                pass
        return total


def high_water_mb(pids) -> float:
    """Largest resident set so far of this process, the given live
    children and every reaped descendant, from the OS."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in ("self", *pids):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kb = max(kb, int(line.split()[1]))
    return kb / 1024.0


@dataclass
class Unit:
    """What one timed unit produced, kept for the gate and the metrics."""

    tag: str
    index: int
    journal: Path
    ok: int
    wall_s: float
    #: Program CPU seconds (:class:`ProgramCpu`) of the unit.
    cpu_s: float
    #: Program CPU seconds of batched/fleet: from run start to each
    #: scenario's journal append; served: of the one submit -> summary.
    latencies: list[float]
    #: Reference-host seconds per CPU second around the unit
    #: (``hostspeed.scale``); 1.0 when the loop takes no samples.
    scale: float = 1.0
    summary_path: Path | None = None
    recorder: Any = None
    job: dict = field(default_factory=dict)
    polls: int = 0
    #: served: client-side seconds of the submit and results calls.
    phases: dict = field(default_factory=dict)

    def summary(self) -> str:
        return self.summary_path.read_text(encoding="utf-8")


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmp)
    return env


def stop_processes(procs: list[subprocess.Popen]) -> None:
    """SIGTERM, bounded wait, SIGKILL: every process is reaped."""
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class BatchedSerial:
    """``Campaign.run(backend="batched", jobs=1)`` into an on-disk
    journal, then ``write_summary``."""

    name = "batched-serial"
    specs_for = staticmethod(campaign_specs)

    def __init__(self, root: Path, tmp: Path, seed: int) -> None:
        self.root, self.tmp, self.seed = root, tmp, seed
        self.endpoints: list[str] | None = None
        self.cpu = ProgramCpu()

    def pids(self) -> list[int]:
        """The program's live child processes."""
        return []

    def setup(self) -> dict:
        from repro import Campaign

        t0 = time.perf_counter()
        specs = campaign_specs(self.seed, 0)
        t1 = time.perf_counter()
        Campaign(specs, store=self.tmp / "setup.jsonl", backend="batched")
        t2 = time.perf_counter()
        return {"expand_s": t1 - t0, "campaign_open_s": t2 - t1}

    def unit(self, index: int, tag: str, recorder=None) -> Unit:
        from repro import Campaign

        specs = campaign_specs(self.seed, index)
        journal = self.tmp / f"{tag}-{index}.jsonl"
        summary = self.tmp / f"{tag}-{index}.summary.jsonl"
        campaign = Campaign(specs, store=journal, backend="batched")
        latencies: list[float] = []
        cpu = self.cpu
        t0, c0 = time.perf_counter(), cpu()
        report = campaign.run(
            jobs=1,
            recorder=recorder,
            workers=self.endpoints,
            on_result=lambda _result: latencies.append(cpu() - c0),
        )
        campaign.write_summary(summary)
        c1, t1 = cpu(), time.perf_counter()
        return Unit(
            tag, index, journal, report.ok, t1 - t0, c1 - c0, latencies,
            summary_path=summary, recorder=recorder,
        )

    def teardown(self) -> None:
        pass


class FleetBatched(BatchedSerial):
    """The batched-serial campaign shape through
    ``Campaign.run(workers=[...])`` on FLEET_SIZE localhost ``repro
    worker --listen`` processes."""

    name = "fleet-batched"

    def __init__(self, root: Path, tmp: Path, seed: int) -> None:
        super().__init__(root, tmp, seed)
        self.procs: list[subprocess.Popen] = []

    def setup(self) -> dict:
        phases = super().setup()
        t0 = time.perf_counter()
        env = child_env(self.root, self.tmp)
        port_files = []
        for i in range(FLEET_SIZE):
            port_file = self.tmp / f"worker-{i}.port"
            port_files.append(port_file)
            self.procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--listen", "127.0.0.1:0",
                        "--port-file", str(port_file),
                    ],
                    cwd=self.root, env=env,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        endpoints = []
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        for proc, port_file in zip(self.procs, port_files):
            while not (port_file.exists() and port_file.read_text().strip()):
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"fleet worker exited during boot (rc {proc.returncode})"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError("fleet worker wrote no port file")
                time.sleep(0.002)
            endpoints.append(port_file.read_text().strip())
        self.endpoints = endpoints
        self.cpu.watch(self.pids())
        phases["fleet_boot_s"] = time.perf_counter() - t0
        return phases

    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs]

    def teardown(self) -> None:
        stop_processes(self.procs)


class ServedMixed:
    """A closed loop of one ``ServiceClient`` against an in-process
    ``CampaignService(jobs=2, slots=1)`` whose ``ServiceServer`` runs on a
    thread: submit, poll every POLL_INTERVAL_S, fetch the summary."""

    name = "served-mixed"
    specs_for = staticmethod(submission_specs)

    def __init__(self, root: Path, tmp: Path, seed: int) -> None:
        self.root, self.tmp, self.seed = root, tmp, seed
        self.service = None
        self.httpd = None
        self.thread: threading.Thread | None = None
        self.client = None
        self.cpu = ProgramCpu()

    def pids(self) -> list[int]:
        """The pool workers (the service starts them on demand)."""
        return child_pids()

    def setup(self) -> dict:
        from repro.engine.service import (
            CampaignService,
            ServiceClient,
            ServiceServer,
        )

        t0 = time.perf_counter()
        self.service = CampaignService(jobs=POOL_JOBS, slots=1)
        self.service.start()
        self.httpd = ServiceServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, name="e2ebench-http",
            daemon=True,
        )
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}")
        t1 = time.perf_counter()
        for index in range(WARMUP_SUBMISSIONS):
            unit = self.unit(index, "warmup")
            if unit.job.get("state") != "done":
                raise RuntimeError(f"warm-up submission failed: {unit.job}")
        t2 = time.perf_counter()
        return {"service_start_s": t1 - t0, "warmup_s": t2 - t1}

    def unit(self, index: int, tag: str, recorder=None) -> Unit:
        specs = submission_specs(self.seed, index)
        journal = self.tmp / f"{tag}-{index}.jsonl"
        payload = {
            "specs": [spec.to_dict() for spec in specs],
            "backend": "auto",
            "store": str(journal),
        }
        client = self.client
        cpu = self.cpu
        cpu.watch(self.pids())
        clock = time.perf_counter
        c0, t0 = cpu(), clock()
        job_id = client.submit(payload)["id"]
        submitted = clock()
        polls = 0
        while True:
            doc = client.job(job_id)
            polls += 1
            if doc["state"] in ("done", "failed"):
                break
            time.sleep(POLL_INTERVAL_S)
        terminal = clock()
        text = client.results_text(job_id)
        done = clock()
        cpu_s = cpu() - c0
        # On disk, so the benchmark's own memory does not grow with the
        # number of submissions a run gets through.
        summary = self.tmp / f"{tag}-{index}.summary.jsonl"
        summary.write_text(text, encoding="utf-8")
        return Unit(
            tag, index, journal, (doc.get("report") or {}).get("ok", 0),
            done - t0, cpu_s, [cpu_s], summary_path=summary,
            recorder=self.service.job(job_id).recorder, job=doc, polls=polls,
            phases={"submit_s": submitted - t0, "results_s": done - terminal},
        )

    def teardown(self) -> None:
        if self.thread is not None and self.thread.is_alive():
            self.httpd.shutdown()
            self.thread.join(timeout=STOP_TIMEOUT_S)
        if self.httpd is not None:
            self.httpd.server_close()
        if self.service is not None:
            self.service.shutdown(drain=False)


WORKLOADS = {
    cls.name: cls for cls in (BatchedSerial, ServedMixed, FleetBatched)
}
