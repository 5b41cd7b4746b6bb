"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 e2ebench/spread.py --workload served-mixed --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, one after another, and prints
for each metric its median, quartile distance as a share of the median
(what a bound in BENCHMARK.json is compared against) and that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import iqr_share  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout.splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: gate failed: {out}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<18}{'median':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        spread = iqr_share(vals) if len(vals) > 1 else float("nan")
        print(f"{name:<18}{statistics.median(vals):>12.5g}"
              f"{spread:>9.3f}{bounds.get(name, float('nan')):>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
