"""End-to-end campaign benchmark.

    python3 e2ebench/run.py --workload batched-serial --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (``batched-serial``, ``served-mixed`` or
``fleet-batched``; see README.md) from the root of a checkout, checks
every output with the always-on correctness gate, and prints as its last
stdout line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same units untraced and then traced, and reports the per-layer
ledger instead.  Scratch files live in ``.e2ebench_tmp/`` (removed at the
end) and a record of each run, with host metadata, is written to
``.e2ebench_out/``; both are untracked.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 3
#: Least host speed samples on each side of a set-up probe.
PROBE_SAMPLES = 4
PROBE_TIMEOUT_S = 90.0
#: Scenarios re-run on the reference simulator per run.
REFERENCE_SAMPLE = 6
#: served-mixed needs >= 100 timed submissions for a p90 with 10 beyond.
MIN_SUBMISSIONS = 100
#: Campaign workloads report the median rate of at least this many runs.
MIN_CAMPAIGNS = 3
#: A timed loop that runs this long is a hang, not a measurement.
LOOP_CAP_S = 120.0

#: Layer table rows: span-name prefix -> layer (module) name.
LAYERS = {
    "cli": "cli",
    "scenarios": "engine.scenarios",
    "scheduler": "engine.scheduler",
    "adversaries": "adversaries",
    "fastpath": "rounds.fastpath",
    "backends": "engine.backends",
    "store": "engine.store",
    "executor": "engine.executor",
    "remote": "engine.remote",
    "service": "engine.service",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev(root: Path) -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside a
    git work tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(ROOT),
    }


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def run_probe(workload: str, seed: int, tmp: Path) -> tuple[float, dict]:
    """Start one fresh interpreter and wait until it is ready; return
    the wall time from spawn to ready and the probe's phases (its
    ``cpu_s`` is ``setup_s``)."""
    from workloads import child_env, stop_processes

    tmp.mkdir(parents=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "probe.py"),
            "--workload", workload, "--seed", str(seed), "--tmp", str(tmp),
        ],
        cwd=ROOT, env=child_env(ROOT, tmp),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        line = b""
        deadline = time.monotonic() + PROBE_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                if time.monotonic() > deadline:
                    raise RuntimeError("set-up probe timed out")
                if sel.select(timeout=1.0):
                    chunk = os.read(proc.stdout.fileno(), 1)
                    if not chunk:
                        raise RuntimeError(
                            f"set-up probe exited (rc {proc.wait()})"
                        )
                    line += chunk
        ready = time.perf_counter()
        if not line.startswith(b"READY "):
            raise RuntimeError(f"set-up probe said {line!r}")
        proc.stdin.close()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0:
            raise RuntimeError(f"set-up probe failed (rc {proc.returncode})")
        return ready - start, json.loads(line[6:])
    finally:
        # EOF on stdin is the probe's cue to tear its workload down.
        proc.stdin.close()
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_processes([proc])
        proc.stdout.close()


# ----------------------------------------------------------------------
# Timed loops
# ----------------------------------------------------------------------
def timed_loop(workload, tag, start, seconds=None, count=None,
               min_units=1, recorder_factory=None, speeds=None):
    """Closed loop of units from index ``start``: for ``seconds`` (and at
    least ``min_units``), or exactly ``count`` units.  Also returns the
    program's resident high-water mark right after unit ``min_units``,
    a fixed amount of work however many units the time allows.  A
    ``hostspeed.Sampler`` passed as ``speeds`` samples the host between
    units and sets each unit's ``scale`` from the samples around it."""
    from hostspeed import scale
    from workloads import high_water_mb

    units = []
    index = start
    rss_mb = None
    t0 = time.perf_counter()
    before = speeds() if speeds is not None else None
    while True:
        elapsed = time.perf_counter() - t0
        if count is not None:
            if len(units) >= count:
                break
        elif elapsed >= seconds and len(units) >= min_units:
            break
        if elapsed > LOOP_CAP_S:
            raise RuntimeError(f"timed loop exceeded {LOOP_CAP_S:.0f} s")
        recorder = recorder_factory() if recorder_factory else None
        unit = workload.unit(index, tag, recorder)
        if speeds is not None:
            after = speeds()
            unit.scale = scale(before + after)
            before = after
        units.append(unit)
        index += 1
        if len(units) == min_units:
            rss_mb = high_water_mb(workload.pids())
    return units, time.perf_counter() - t0, rss_mb


def first_unit(workload) -> int:
    """Index of the first timed unit (served warm-ups take 0..4)."""
    from workloads import WARMUP_SUBMISSIONS

    return WARMUP_SUBMISSIONS if workload.name == "served-mixed" else 0


#: Index of the untimed campaign that fills lazy imports and caches
#: before a campaign workload is timed (disjoint from timed indices).
WARMUP_CAMPAIGN = 10_000


def e2e_metrics(workload, units, rss_mb, setup_times, gate):
    """End-to-end metrics of the timed units, plus sample counts for the
    run record.  Times are program CPU seconds (``ProgramCpu``) scaled to
    the reference host (``hostspeed``)."""
    from ledger import nearest_rank, tail_percentile

    rate = sum(u.ok for u in units) / sum(u.cpu_s * u.scale for u in units)
    samples = [x * u.scale for u in units for x in u.latencies]
    p50, _ = nearest_rank(samples, 50)
    p90, beyond = nearest_rank(samples, 90)
    if beyond < 10:
        raise RuntimeError(f"p90 has only {beyond} samples beyond it")
    tail_p, tail_value, tail_beyond = tail_percentile(samples)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "scenarios_per_s": (rate, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "ok_ratio": (1.0 - gate.tally.failed_ratio, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {
        "latency_samples": len(samples),
        "p90_beyond": beyond,
        "latency_tail": {"p": tail_p, "value_s": tail_value,
                         "beyond": tail_beyond},
        "units": len(units),
        "unit_scales": [u.scale for u in units],
        "unit_walls_s": [u.wall_s for u in units],
        "unit_cpus_s": [u.cpu_s for u in units],
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class PlanCells:
    """Padded vs wasted tensor cells of every plan the scheduler made."""

    def __init__(self) -> None:
        self.cells = 0
        self.wasted = 0

    def __call__(self, plan) -> None:
        for batch in plan.batches:
            for _idx, spec in batch.items:
                self.cells += batch.n * batch.n
                self.wasted += batch.n * batch.n - spec.n * spec.n


def instrument(tracer, plan_cells: PlanCells) -> None:
    """Wrap each layer's public entry points at the attribute the
    program calls them through."""
    import repro.adversaries as adversaries
    import repro.engine.backends as backends
    import repro.engine.campaign as campaign
    import repro.engine.remote as remote
    import repro.engine.scheduler as scheduler
    from repro.engine.scenarios import ScenarioGrid, ScenarioSpec
    from repro.engine.service import ServiceClient
    from repro.engine.store import ResultStore

    tracer.wrap(ScenarioGrid, "expand", "scenarios.expand")
    tracer.count_property(ScenarioSpec, "scenario_id", "scenarios.id_calls")
    tracer.wrap(scheduler, "plan_batches", "scheduler.plan",
                observe=plan_cells)
    tracer.wrap(ScenarioSpec, "build_adversary", "adversaries.build")
    seen = set()
    for name in adversaries.__all__:
        cls = getattr(adversaries, name)
        for klass in getattr(cls, "__mro__", ()):
            if "adjacency_stack" in vars(klass) and klass not in seen:
                seen.add(klass)
                tracer.wrap(klass, "adjacency_stack", "adversaries.schedule")
    tracer.wrap(backends, "simulate_fastpath_batch", "fastpath.kernel")
    tracer.wrap(scheduler, "execute_scenario_batch", "backends.batch")
    tracer.wrap(backends, "execute_scenario_batch", "backends.batch")
    tracer.wrap(ResultStore, "__init__", "store.open")
    tracer.wrap(ResultStore, "append", "store.append")
    tracer.wrap(ResultStore, "load", "store.load")
    tracer.wrap(ResultStore, "write_summary", "store.summary")
    tracer.wrap(ResultStore, "summary_lines", "store.summary")
    tracer.wrap(campaign, "execute_scenarios", "executor.execute")
    tracer.wrap(remote, "execute_remote", "remote.execute")
    tracer.wrap(ServiceClient, "submit", "service.submit")
    tracer.wrap(ServiceClient, "job", "service.poll")
    tracer.wrap(ServiceClient, "results_text", "service.results")


def snapshots(units) -> list[dict]:
    return [u.recorder.snapshot() for u in units if u.recorder is not None]


def count(snaps, name: str) -> int:
    """A recorder counter summed over snapshots (deterministic plane
    first, as ``Recorder.counter`` reads it)."""
    total = 0
    for snap in snaps:
        det = snap["deterministic"]["counters"]
        vol = snap["volatile"]["counters"]
        total += det[name] if name in det else vol.get(name, 0)
    return total


def duration(snaps, name: str) -> float:
    return sum(
        snap["volatile"]["durations"].get(name, {}).get("total_s", 0.0)
        for snap in snaps
    )


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, units, tracer, window, plan_cells,
                  probe_phases, untraced_wall, gate):
    """Per-layer metrics of the traced pass plus its layer table."""
    from ledger import exclusive_times
    from workloads import FLEET_SIZE, POOL_JOBS

    self_ns, unattributed_ns = exclusive_times(tracer.spans, window)
    wall_ns = window[1] - window[0]
    wall = wall_ns / 1e9

    def own(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    table = []
    for prefix, layer in LAYERS.items():
        ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == prefix)
        table.append((layer, ns))
    table.append(("unattributed", unattributed_ns))
    if sum(ns for _, ns in table) != wall_ns:
        raise RuntimeError("layer table does not sum to the traced wall")

    snaps = snapshots(units)
    scenarios = sum(len(workload.specs_for(workload.seed, u.index))
                    for u in units)
    served = [u for u in units if u.job]
    remote_snaps = [s for s in snaps
                    if count([s], "remote.batches_dispatched")]
    workers = {"served-mixed": POOL_JOBS,
               "fleet-batched": FLEET_SIZE}.get(workload.name, 1)
    kernel_self = own("fastpath.kernel")
    lane_rounds = count(snaps, "kernel.lane_rounds")
    hits = count(snaps, "backends.skeleton_cache_hits")
    lookups = hits + count(snaps, "backends.skeleton_cache_misses")
    appends = count(snaps, "store.appends")
    busy = duration(snaps, "executor.worker_busy_s")

    def job_span(doc, a, b):
        return doc[b] - doc[a]

    def unexplained(u):
        # Latency outside the server's submitted -> finished interval and
        # the results fetch: submit/poll HTTP overhead and poll lag.
        return u.wall_s - u.phases["results_s"] - job_span(
            u.job, "submitted_at", "finished_at")

    metrics = {
        "cli.import_s": (median_or_zero(
            p["cli.import_s"] for p in probe_phases), "s"),
        "scenarios.expand_s": (own("scenarios.expand"), "s"),
        "scenarios.id_calls_per_scenario": (ratio(
            tracer.counts.get("scenarios.id_calls", 0), scenarios), "count"),
        "scheduler.plan_s": (own("scheduler.plan"), "s"),
        "scheduler.batches": (count(snaps, "scheduler.batches_planned"),
                              "count"),
        "scheduler.lanes_per_batch": (ratio(
            count(snaps, "scheduler.batched_lanes"),
            count(snaps, "scheduler.batches_planned")), "count"),
        "scheduler.pad_waste_ratio": (ratio(
            plan_cells.wasted, plan_cells.cells), "ratio"),
        "adversaries.build_s": (own("adversaries.build"), "s"),
        "adversaries.schedule_s": (own("adversaries.schedule"), "s"),
        "adversaries.rounds_drawn": (
            count(snaps, "kernel.rng_rounds_fetched"), "count"),
        "fastpath.kernel_self_s": (kernel_self, "s"),
        "fastpath.lane_rounds": (lane_rounds, "count"),
        "fastpath.us_per_lane_round": (
            ratio(kernel_self * 1e6, lane_rounds), "us"),
        "fastpath.closure_calls": (count(snaps, "kernel.closure_calls"),
                                   "count"),
        "fastpath.compactions": (count(snaps, "kernel.compactions"),
                                 "count"),
        "backends.result_build_s": (own("backends.batch"), "s"),
        "backends.skeleton_cache_hit_ratio": (ratio(hits, lookups),
                                              "ratio"),
        "backends.skeleton_cache_lookups": (lookups, "count"),
        "store.open_s": (own("store.open"), "s"),
        "store.append_s": (own("store.append"), "s"),
        "store.appends": (appends, "count"),
        "store.bytes_per_record": (ratio(count(snaps, "store.bytes"),
                                         appends), "B"),
        "store.load_s": (own("store.load"), "s"),
        "store.summary_s": (own("store.summary"), "s"),
        "executor.execute_s": (own("executor.execute"), "s"),
        "executor.worker_busy_ratio": (ratio(busy, workers * wall), "ratio"),
        "executor.dispatch_overhead_s": (
            duration(snaps, "executor.unit_wall_s") - busy, "s"),
        "executor.units_dispatched": (
            count(snaps, "executor.units_dispatched"), "count"),
        "executor.unit_retries": (count(snaps, "executor.unit_retries"),
                                  "count"),
        "remote.run_s": (own("remote.execute"), "s"),
        "remote.worker_utilization_pct": (median_or_zero(
            s["volatile"]["gauges"]["remote.worker_utilization_pct"]
            for s in remote_snaps
            if "remote.worker_utilization_pct" in s["volatile"]["gauges"]
        ), "%"),
        "remote.queue_wait_s": (duration(remote_snaps,
                                         "executor.queue_wait_s"), "s"),
        "remote.batches_dispatched": (
            count(snaps, "remote.batches_dispatched"), "count"),
        "remote.batches_requeued": (
            count(snaps, "remote.batches_requeued"), "count"),
        "remote.shard_records_merged": (
            count(snaps, "remote.shard_records_merged"), "count"),
        "service.submit_s": (median_or_zero(
            u.phases["submit_s"] for u in served), "s"),
        "service.queue_wait_s": (median_or_zero(
            job_span(u.job, "submitted_at", "started_at")
            for u in served), "s"),
        "service.job_run_s": (median_or_zero(
            job_span(u.job, "started_at", "finished_at")
            for u in served), "s"),
        "service.results_s": (median_or_zero(
            u.phases["results_s"] for u in served), "s"),
        "service.polls_per_submission": (ratio(
            sum(u.polls for u in served), len(served)), "count"),
        "service.unattributed_s": (median_or_zero(
            unexplained(u) for u in served), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed_ns / 1e9, "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        "failed_ratio": (gate.tally.failed_ratio, "ratio"),
    }
    return metrics, table


def format_table(table, wall_ns: int) -> str:
    lines = [f"{'layer':<18}{'self_s':>10}{'share':>9}"]
    for layer, ns in table:
        lines.append(f"{layer:<18}{ns / 1e9:>10.4f}{100 * ns / wall_ns:>8.1f}%")
    lines.append(f"{'total (traced wall)':<18}{wall_ns / 1e9:>10.4f}"
                 f"{100.0:>8.1f}%")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def check_units(gate, workload, units) -> None:
    for unit in units:
        gate.check_campaign(
            f"{unit.tag}-{unit.index}",
            workload.specs_for(workload.seed, unit.index),
            unit.journal,
            unit.summary(),
        )


def measure(args, tmp: Path) -> tuple[dict, dict]:
    from gate import Gate
    from hostspeed import Sampler, scale
    from ledger import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}"
        )
    setups, setup_walls, probe_phases = [], [], []
    speeds = Sampler()

    def probe(count: int) -> None:
        for _ in range(count):
            before = speeds(PROBE_SAMPLES)
            wall_s, phases = run_probe(
                args.workload, args.seed, tmp / f"probe-{len(setups)}")
            after = speeds(PROBE_SAMPLES)
            setups.append(phases["cpu_s"] * scale(before + after))
            setup_walls.append(wall_s)
            probe_phases.append(phases)

    # Half the probes before the measurement and half after, so the
    # median spans the machine's state over the whole run.
    probe(SETUP_PROBES // 2)
    import repro.cli  # noqa: F401 — same entry point the probes time
    from repro.engine.telemetry import Recorder

    workload = WORKLOADS[args.workload](ROOT, tmp / "run", args.seed)
    (tmp / "run").mkdir()
    gate = Gate(args.seed, REFERENCE_SAMPLE)
    record = {"setup_s": setups, "setup_wall_s": setup_walls,
              "probe_phases": probe_phases}
    start = first_unit(workload)
    served = workload.name == "served-mixed"
    try:
        workload.setup()
        if not served:
            workload.unit(WARMUP_CAMPAIGN, "warmup")
        if not args.trace:
            units, _, rss_mb = timed_loop(
                workload, "timed", start, seconds=args.seconds,
                min_units=MIN_SUBMISSIONS if served else MIN_CAMPAIGNS,
                speeds=speeds,
            )
        else:
            units, loop_wall, _ = timed_loop(
                workload, "untraced", start, seconds=args.seconds / 2,
                min_units=1 if served else MIN_CAMPAIGNS,
            )
            tracer, plan_cells = Tracer(), PlanCells()
            instrument(tracer, plan_cells)
            try:
                t0 = time.perf_counter_ns()
                traced, _, _ = timed_loop(
                    workload, "traced", start, count=len(units),
                    recorder_factory=None if served else Recorder,
                )
                t1 = time.perf_counter_ns()
            finally:
                tracer.close()
    finally:
        workload.teardown()
    probe(SETUP_PROBES - len(setups))

    check_units(gate, workload, units)
    if args.trace:
        check_units(gate, workload, traced)
    record["reference_reruns"] = gate.check_reference_sample()
    record["failures"] = gate.tally.examples()
    if not args.trace:
        metrics, extra = e2e_metrics(workload, units, rss_mb, setups, gate)
        record["calibration_s"] = speeds.samples
        record.update(extra)
    else:
        metrics, table = layer_metrics(
            workload, traced, tracer, (t0, t1), plan_cells, probe_phases,
            loop_wall, gate,
        )
        record["layer_table"] = [[layer, ns / 1e9] for layer, ns in table]
        record["spans"] = len(tracer.spans)
        print(f"# layer table, {workload.name} seed {args.seed}, "
              f"{len(traced)} traced units")
        print(format_table(table, t1 - t0))
        write_spans(args, tracer.spans, t0)
    record["gate"] = {"attempted": gate.tally.attempted,
                      "failed": gate.tally.failed}
    return metrics, record


def out_path(args, suffix: str) -> Path:
    out = ROOT / ".e2ebench_out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def write_spans(args, spans, t0: int) -> None:
    with gzip.open(out_path(args, "-spans.jsonl.gz"), "wt") as fh:
        for start, _seq, end, name, tid in spans:
            fh.write(json.dumps([name, start - t0, end - t0, tid]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = ROOT / ".e2ebench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        metrics, record = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    host = host_info()
    attempted = record["gate"]["attempted"]
    failed = record["gate"]["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record.update(host=host, args=vars(args), result=result)
    out_path(args, ".json").write_text(json.dumps(record, indent=1) + "\n")
    for line in record["failures"]:
        print(f"# gate failure: {line}")
    print("# host " + json.dumps(host))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
