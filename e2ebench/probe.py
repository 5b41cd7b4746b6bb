"""One fresh-interpreter set-up probe (started by ``run.py``).

Imports the ``repro.cli`` entry point, runs the workload's ``setup()``,
prints ``READY <json phases>`` on stdout, then waits for stdin to close
and tears the workload down.  ``setup_s`` is the phase ``cpu_s``: the
CPU seconds this interpreter and the processes it started have spent
from spawn to ready.

    python3 e2ebench/probe.py --workload NAME --seed N --tmp DIR
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()
    # SIGTERM unwinds through the finally below, so workers get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401 — the entry point a user starts

    phases = {"cli.import_s": time.perf_counter() - t0}
    from workloads import WORKLOADS, ProgramCpu

    workload = WORKLOADS[args.workload](ROOT, Path(args.tmp), args.seed)
    try:
        phases.update(workload.setup())
        cpu = ProgramCpu()
        cpu.watch(workload.pids())
        phases["cpu_s"] = cpu()
        print("READY " + json.dumps(phases), flush=True)
        sys.stdin.read()
    finally:
        workload.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
