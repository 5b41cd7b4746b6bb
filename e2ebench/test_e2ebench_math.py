"""Tests of the end-to-end benchmark's own math: span self time, the
percentile rule, failed-scenario counting through the gate, and the
program CPU clock with its host speed scale."""

from __future__ import annotations

import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import Gate, paper_violations  # noqa: E402
from hostspeed import REFERENCE_S, calibrate, scale  # noqa: E402
from ledger import (  # noqa: E402
    FailureTally,
    Tracer,
    exclusive_times,
    nearest_rank,
    tail_percentile,
)
from workloads import ProgramCpu, high_water_mb  # noqa: E402

#: A child that burns 0.2 CPU seconds per line read, answering each.
BURNER = """
import sys, time
for _ in sys.stdin:
    t = time.process_time()
    while time.process_time() - t < 0.2:
        pass
    print(flush=True)
"""


def span(start, end, name, seq, tid=1):
    return (start, seq, end, name, tid)


class TestExclusiveTimes:
    def test_nested_children_are_subtracted(self):
        spans = [
            span(30, 40, "grandchild", 2),
            span(20, 50, "child", 1),
            span(0, 100, "parent", 0),
        ]
        own, rest = exclusive_times(spans, (0, 120))
        assert own == {"parent": 70, "child": 20, "grandchild": 10}
        assert rest == 20
        assert sum(own.values()) + rest == 120

    def test_overlapping_children_count_once(self):
        # Two children of one parent overlap on [40, 60) (concurrent
        # threads): the parent loses the union of their cover, 70, and
        # the overlap goes to the later-started child only.
        spans = [
            span(0, 100, "parent", 0),
            span(10, 60, "a", 1, tid=2),
            span(40, 80, "b", 2, tid=3),
        ]
        own, rest = exclusive_times(spans, (0, 100))
        assert own["parent"] == 100 - 70
        assert own["a"] == 30
        assert own["b"] == 40
        assert rest == 0

    def test_same_name_spans_merge(self):
        spans = [span(0, 10, "x", 0), span(5, 20, "x", 1), span(30, 35, "y", 2)]
        own, rest = exclusive_times(spans, (0, 40))
        assert own == {"x": 20, "y": 5}
        assert rest == 15

    def test_same_start_inner_span_wins(self):
        spans = [span(0, 5, "inner", 1), span(0, 10, "outer", 0)]
        own, _ = exclusive_times(spans, (0, 10))
        assert own == {"inner": 5, "outer": 5}

    def test_spans_are_clipped_to_the_window(self):
        spans = [span(-50, 30, "early", 0), span(90, 200, "late", 1)]
        own, rest = exclusive_times(spans, (0, 100))
        assert own == {"early": 30, "late": 10}
        assert rest == 60

    def test_empty_window_is_all_unattributed(self):
        assert exclusive_times([], (5, 25)) == ({}, 20)


class TestTracer:
    def test_wrap_records_nested_spans_and_restores(self):
        class Store:
            def save(self, value):
                return helpers.encode(value) + "!"

        helpers = types.SimpleNamespace(encode=lambda value: f"<{value}>")
        original_encode = helpers.encode
        original_save = Store.save
        tracer = Tracer()
        tracer.wrap(Store, "save", "store.save")
        tracer.wrap(helpers, "encode", "codec.encode")
        assert Store().save(3) == "<3>!"
        tracer.close()
        assert Store.save is original_save
        assert helpers.encode is original_encode
        names = [s[3] for s in tracer.spans]
        assert names == ["codec.encode", "store.save"]
        (inner, outer) = tracer.spans
        assert outer[0] <= inner[0] <= inner[2] <= outer[2]
        assert outer[1] < inner[1]  # entered first

    def test_wrap_inherited_method_is_removed_on_close(self):
        class Base:
            def run(self):
                return 1

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.wrap(Child, "run", "run")
        assert Child().run() == 1
        tracer.close()
        assert "run" not in vars(Child)
        assert len(tracer.spans) == 1

    def test_observe_sees_return_values(self):
        seen = []
        mod = types.SimpleNamespace(plan=lambda x: x * 2)
        tracer = Tracer()
        tracer.wrap(mod, "plan", "plan", observe=seen.append)
        mod.plan(4)
        tracer.close()
        assert seen == [8]

    def test_count_property(self):
        class Spec:
            @property
            def ident(self):
                return "id"

        tracer = Tracer()
        tracer.count_property(Spec, "ident", "ids")
        spec = Spec()
        assert [spec.ident, spec.ident] == ["id", "id"]
        tracer.close()
        spec.ident
        assert tracer.counts["ids"] == 2


class TestPercentiles:
    def test_p90_of_one_hundred_has_ten_beyond(self):
        samples = list(range(100, 0, -1))  # unsorted 1..100
        assert nearest_rank(samples, 90) == (90, 10)
        assert nearest_rank(samples, 50) == (50, 50)

    def test_tail_rule_drops_to_p50_below_one_hundred(self):
        samples = list(range(1, 100))  # 99 samples: p90 has 9 beyond
        assert nearest_rank(samples, 90) == (90, 9)
        assert tail_percentile(samples) == (50, 50, 49)

    def test_tail_rule_climbs_with_more_samples(self):
        assert tail_percentile(list(range(1, 1001))) == (99, 990, 10)
        assert tail_percentile(list(range(1, 10001))) == (99.9, 9990, 10)

    def test_too_few_samples_have_no_tail(self):
        assert tail_percentile(list(range(10))) is None

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)


class TestProgramCpu:
    def test_watched_child_counts_alive_and_after_reaping(self):
        child = subprocess.Popen(
            [sys.executable, "-c", BURNER], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            cpu = ProgramCpu()
            cpu.watch([child.pid])
            c0 = cpu()
            child.stdin.write("go\n")
            child.stdin.flush()
            child.stdout.readline()
            c1 = cpu()
            assert c1 - c0 >= 0.2
            assert high_water_mb([child.pid]) > 0
        finally:
            child.stdin.close()
            child.wait()
        # The exited child's clock is gone; its CPU is in RUSAGE_CHILDREN.
        assert cpu() >= c1 - 0.02

    def test_unwatched_child_is_not_counted_while_alive(self):
        child = subprocess.Popen(
            [sys.executable, "-c", BURNER], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            cpu = ProgramCpu()
            c0 = cpu()
            child.stdin.write("go\n")
            child.stdin.flush()
            child.stdout.readline()
            assert cpu() - c0 < 0.1
        finally:
            child.stdin.close()
            child.wait()


class TestHostSpeed:
    def test_scale_uses_the_mean_sample(self):
        assert scale([REFERENCE_S / 4, REFERENCE_S / 4 * 3]) == pytest.approx(2.0)

    def test_calibration_takes_cpu_time(self):
        assert calibrate() > 0


class TestFailedRatio:
    def test_one_key_counts_once(self):
        tally = FailureTally()
        tally.attempt(4)
        tally.fail("a", "first check")
        tally.fail("a", "second check")
        tally.fail("b", "first check")
        assert tally.failed == 2
        assert tally.failed_ratio == 0.5

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            FailureTally().failed_ratio


def _journal(tmp_path, results):
    from repro.engine.store import ResultStore, canonical_line

    path = tmp_path / "journal.jsonl"
    store = ResultStore(path)
    for result in results:
        store.append(result)
    return path, "".join(canonical_line(r) + "\n" for r in results)


@pytest.fixture(scope="module")
def paper_results():
    from repro.engine.executor import execute_scenario
    from repro.engine.scenarios import ScenarioSpec

    specs = [
        ScenarioSpec(n=5, k=2, num_groups=2, seed=s, noise=0.1)
        for s in range(4)
    ]
    results = [execute_scenario(spec) for spec in specs]
    assert all(r.ok and r.psrcs_holds for r in results)
    return results


class TestGate:
    def test_clean_journal_passes(self, tmp_path, paper_results):
        gate = Gate(seed=1, sample_size=2)
        path, summary = _journal(tmp_path, paper_results)
        gate.check_campaign("c", [r.spec for r in paper_results], path, summary)
        assert gate.check_reference_sample() == 2
        assert (gate.tally.attempted, gate.tally.failed) == (4, 0)
        assert gate.tally.failed_ratio == 0.0

    def test_corrupted_property_is_one_failure(self, tmp_path, paper_results):
        corrupt = replace(paper_results[1], k_agreement_holds=False)
        results = [paper_results[0], corrupt, *paper_results[2:]]
        path, summary = _journal(tmp_path, results)
        gate = Gate(seed=1, sample_size=4)
        gate.check_campaign("c", [r.spec for r in results], path, summary)
        assert gate.tally.failed == 1
        assert gate.tally.failed_ratio == 0.25
        # The reference re-run also disagrees with the corrupted line,
        # yet the scenario still counts once.
        gate.check_reference_sample()
        assert gate.tally.failed == 1
        (key,) = gate.tally.reasons
        assert key == ("c", corrupt.scenario_id)
        assert len(gate.tally.reasons[key]) == 2

    def test_reference_rerun_catches_a_non_paper_field(
        self, tmp_path, paper_results
    ):
        corrupt = replace(paper_results[2], num_rounds=999)
        results = [*paper_results[:2], corrupt, paper_results[3]]
        path, summary = _journal(tmp_path, results)
        gate = Gate(seed=1, sample_size=4)
        gate.check_campaign("c", [r.spec for r in results], path, summary)
        assert gate.tally.failed == 0
        gate.check_reference_sample()
        assert gate.tally.failed == 1

    def test_summary_mismatch_and_missing_record(self, tmp_path, paper_results):
        path, summary = _journal(tmp_path, paper_results[:3])
        lines = summary.splitlines()
        lines[0] = lines[0].replace('"ok"', '"OK"')
        specs = [r.spec for r in paper_results]
        gate = Gate(seed=1, sample_size=0)
        gate.check_campaign("c", specs, path, "\n".join(lines) + "\n")
        assert gate.tally.failed == 2  # edited line + never journaled
        assert gate.tally.failed_ratio == 0.5

    def test_paper_config_only(self, paper_results):
        knob = paper_results[0].spec.with_options(purge_window=2)
        off_paper = replace(paper_results[0], spec=knob, within_bound=False)
        assert paper_violations(off_paper) == []
        on_paper = replace(paper_results[0], within_bound=False)
        assert paper_violations(on_paper) == [
            "within_bound is False under Psrcs(2)"
        ]
