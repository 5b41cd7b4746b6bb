"""Benchmark-harness helpers.

Every benchmark prints the experiment's result table (the rows the paper
would report) through :func:`emit`, which echoes to stdout (visible
with ``pytest -s`` / captured in CI logs) and, on a record run
(``REPRO_BENCH_RECORD=1``), persists to ``benchmarks/results.txt`` so
EXPERIMENTS.md can be regenerated from one file.

Sections in results.txt are keyed by their banner line (``TAG — desc``):
re-emitting a table replaces the previous copy in place, so any record
run — not just the canonical ``REPRO_BENCH_RECORD=1 pytest benchmarks
-q --benchmark-only`` — leaves exactly one copy of each table instead
of appending duplicates.

:func:`record_fastpath` additionally maintains a *machine-readable* perf
trajectory in ``benchmarks/BENCH_FASTPATH.json`` (per-workload wall-clock
for the reference vs batched execution backend, plus host metadata),
so future PRs can track backend speedups without parsing tables.  It
is written on record runs only; other sessions update an in-memory
copy, which the floor guard reads through the :func:`bench_fastpath`
fixture.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import statistics

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"
BENCH_FASTPATH_PATH = pathlib.Path(__file__).parent / "BENCH_FASTPATH.json"

#: The tracked files above are written only on an explicit record run
#: (``REPRO_BENCH_RECORD=1``); every other session — tier-1 included —
#: still runs every gate and bound but leaves them untouched.
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"

# Banner convention for every emitted table.  Bodies may contain blank
# lines (FIG1's panels), so sections are delimited by banner lines, not
# paragraph breaks.
_BANNER = re.compile(r"^[A-Z][A-Za-z0-9()-]* — ")


def _split_sections(text: str) -> list[tuple[str, list[str]]]:
    """Parse results.txt into ordered ``(banner, lines)`` sections."""
    sections: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for line in text.splitlines():
        if _BANNER.match(line):
            current = [line]
            sections.append((line, current))
        elif current is not None:
            current.append(line)
    return sections


def _render(sections: list[tuple[str, list[str]]]) -> str:
    return "".join("\n".join(lines).rstrip() + "\n\n" for _, lines in sections)


def pytest_configure(config):
    # Canonical full record runs start from a fresh file so renamed or
    # retired benchmarks don't leave stale sections behind.  Only
    # whole-directory sessions truncate: a selective `pytest
    # benchmarks/test_x.py --benchmark-only` must not wipe the other
    # sections (the upsert in emit() keeps them duplicate-free either way).
    if not RECORD or not config.getoption("--benchmark-only", default=False):
        return
    bench_dir = RESULTS_PATH.parent.resolve()
    targets = [
        pathlib.Path(arg.split("::", 1)[0]).resolve()
        for arg in (config.args or ["."])
    ]
    if all(t in (bench_dir, bench_dir.parent) for t in targets):
        RESULTS_PATH.write_text("")


_fastpath: dict | None = None


def _fastpath_data() -> dict:
    """This session's view of BENCH_FASTPATH.json: the committed file
    plus every upsert made so far (written back only on a record run)."""
    global _fastpath
    if _fastpath is None:
        try:
            data = json.loads(BENCH_FASTPATH_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            data = {}
        _fastpath = data if isinstance(data, dict) else {}
    return _fastpath


def _upsert(key: str, entry: dict) -> None:
    """Set one top-level section of BENCH_FASTPATH.json."""
    data = _fastpath_data()
    data[key] = entry
    _save()


def _save() -> None:
    if RECORD:
        BENCH_FASTPATH_PATH.write_text(
            json.dumps(_fastpath_data(), indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture
def bench_fastpath() -> dict:
    """BENCH_FASTPATH.json as this session has updated it."""
    return _fastpath_data()


@pytest.fixture
def record_fastpath():
    """Upsert one workload's backend comparison into BENCH_FASTPATH.json.

    Each entry records wall-clock for the reference and (when measured)
    mega-batched backends over the same scenario list, plus the host it
    was measured on (per entry, so partial re-runs on another machine
    stay correctly attributed).  File level:

    * ``median_speedup_batched`` — batched over reference, median
      across workloads (the trajectory number);
    * ``median_compaction_gain`` (schema 3) — the batch scheduler's
      lane-compaction gain over mask-only batching (the PR-4 kernel
      behavior), median across every group that records a
      ``compaction_gain`` (the heterogeneous-latency ensembles);
    * ``median_packing_gain`` (schema 4) — cross-``n`` lane packing
      over the per-``n`` grouping (the PR-5 scheduler behavior), median
      across every group recording a ``packing_gain`` (the mixed-width
      ensembles).
    """

    def _record(
        workload: str,
        reference_s: float,
        scenarios: int,
        batched_s: float | None = None,
        extra: dict | None = None,
    ) -> None:
        import numpy

        data = _fastpath_data()
        entry = {
            "scenarios": scenarios,
            "reference_s": round(reference_s, 4),
            # Host metadata lives *per workload* so a partial re-run on a
            # different machine cannot misattribute the untouched entries.
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "cpu_count": os.cpu_count(),
            },
        }
        if batched_s is not None:
            entry["batched_s"] = round(batched_s, 4)
            entry["speedup_batched"] = round(reference_s / batched_s, 2)
        if extra:
            entry.update(extra)
        workloads = data.setdefault("workloads", {})
        workloads[workload] = entry
        data.pop("host", None)  # legacy file-level host block
        data["schema"] = 5
        batched = [
            w["speedup_batched"]
            for w in workloads.values()
            if "speedup_batched" in w
        ]
        if batched:
            data["median_speedup_batched"] = round(
                statistics.median(batched), 2
            )
        for gain_key, file_key in (
            ("compaction_gain", "median_compaction_gain"),
            ("packing_gain", "median_packing_gain"),
        ):
            gains = [
                g[gain_key]
                for w in workloads.values()
                for g in w.get("groups", ())
                if gain_key in g
            ]
            if gains:
                data[file_key] = round(statistics.median(gains), 2)
        _save()

    return _record


@pytest.fixture
def record_telemetry():
    """Upsert the telemetry-overhead measurement into BENCH_FASTPATH.json
    under a top-level ``"telemetry"`` key; :func:`record_fastpath`
    preserves unknown top-level keys, so the recorders coexist."""
    return lambda entry: _upsert("telemetry", entry)


@pytest.fixture
def record_dist_scale():
    """Upsert the distributed-execution measurement into
    BENCH_FASTPATH.json under a top-level ``"dist_scale"`` key (a
    schema-5 field: the version is stamped even when no fastpath
    workload re-ran in this session)."""

    def _record(entry: dict) -> None:
        data = _fastpath_data()
        data["schema"] = max(5, int(data.get("schema", 0)))
        _upsert("dist_scale", entry)

    return _record


@pytest.fixture
def record_contracts():
    """Upsert the contracts-overhead measurement into BENCH_FASTPATH.json
    under a top-level ``"contracts"`` key (coexists with the others)."""
    return lambda entry: _upsert("contracts", entry)


@pytest.fixture
def emit(capsys):
    """Print an experiment table (and, on a record run, upsert it into
    results.txt)."""

    def _emit(text: str) -> None:
        lines = text.splitlines()
        banner = lines[0] if text.strip() else ""
        if not _BANNER.match(banner):
            raise ValueError(
                "emit() tables must open with a 'TAG — description' banner "
                f"line so results.txt stays re-run safe; got {banner!r}"
            )
        interior = [l for l in lines[1:] if _BANNER.match(l)]
        if interior:
            # An interior banner would be split into its own section on
            # the next read, breaking replace-in-place; emit such panels
            # as separate tables instead.
            raise ValueError(
                "emit() table body contains banner-like lines "
                f"{interior!r}; emit each as its own table"
            )
        with capsys.disabled():
            print("\n" + text)
        if not RECORD:
            return
        existing = RESULTS_PATH.read_text() if RESULTS_PATH.exists() else ""
        body = text.rstrip().splitlines()
        kept: list[tuple[str, list[str]]] = []
        replaced = False
        for header, section_lines in _split_sections(existing):
            if header == banner:
                # Replace the first copy; drop stale duplicates left
                # behind by the old append-only emit.
                if not replaced:
                    kept.append((banner, body))
                    replaced = True
            else:
                kept.append((header, section_lines))
        if not replaced:
            kept.append((banner, body))
        RESULTS_PATH.write_text(_render(kept))

    return _emit
