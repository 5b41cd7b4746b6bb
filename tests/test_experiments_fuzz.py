"""The registered differential fuzz family: deterministic grids, clean
seeded budgets, and shrinking repros for intentionally-broken kernels."""

import json
from dataclasses import replace

import pytest

import repro.experiments.fuzz as fuzz_module
from repro.engine.registry import get_family, run_family
from repro.engine.scenarios import ScenarioSpec
from repro.experiments.fuzz import (
    _base_spec,
    _case_dict,
    _shrink,
    run_fuzz_case,
)


def test_grid_is_deterministic_and_salted():
    family = get_family("fuzz")
    a = family.grid({"seeds": 8})
    b = family.grid({"seeds": 8})
    assert a == b
    assert [s.scenario_id for s in a] == [s.scenario_id for s in b]
    salted = family.grid({"seeds": 8, "salt": 1})
    assert a != salted
    # Cases are prefixes: a bigger budget extends, never reshuffles.
    assert family.grid({"seeds": 4}) == a[:4]


def test_grid_cases_are_tagged_and_varied():
    family = get_family("fuzz")
    grid = family.grid({"seeds": 30})
    assert all(s.opt("family") == "fuzz" for s in grid)
    assert [s.opt("case") for s in grid] == list(range(30))
    # The draw actually explores the scenario space.
    assert len({s.adversary for s in grid}) >= 3
    assert len({s.n for s in grid}) >= 3


def test_base_spec_strips_fuzz_bookkeeping():
    family = get_family("fuzz")
    spec = family.grid({"seeds": 1})[0]
    base = _base_spec(spec)
    assert base.opt("family") is None
    assert base.opt("case") is None
    assert base.opt("siblings") is None
    assert base.n == spec.n and base.seed == spec.seed


def test_seeded_budget_runs_clean():
    results = run_family("fuzz", {"seeds": 6})
    assert len(results) == 6
    assert all(r.ok for r in results)
    assert all(r.extra("engines") >= 2 for r in results)
    family = get_family("fuzz")
    text, code = family.render(results)
    assert code == 0
    assert "6 differential cases" in text
    assert "0 diverge" in text


def test_forced_fast_backend_rejected():
    family = get_family("fuzz")
    assert not family.supports_backend("batched")
    assert family.supports_backend("reference")


def test_broken_kernel_caught_and_shrunk(monkeypatch):
    """An intentionally-broken batch path must be flagged as a
    differential mismatch and shrunk to a minimal printed repro."""
    real = fuzz_module.execute_scenario_batch

    def broken(specs, width=None, compact=True, recorder=None):
        results = real(specs, width=width, compact=compact,
                       recorder=recorder)
        # Corrupt the first lane's round count: a subtle off-by-one of
        # the kind a real kernel bug would produce.
        first = results[0]
        if first.ok:
            results[0] = replace(first, num_rounds=first.num_rounds + 1)
        return results

    monkeypatch.setattr(fuzz_module, "execute_scenario_batch", broken)
    spec = get_family("fuzz").grid({"seeds": 1})[0]
    result = run_fuzz_case(spec)
    assert result.status == "error"
    assert "differential mismatch" in result.error
    assert "batched" in result.error
    # The minimal repro is machine-readable JSON...
    payload = result.error.split("minimal repro: ", 1)[1]
    minimal = json.loads(payload)
    # ...still failing...
    assert fuzz_module._case_fails(minimal)
    # ...and actually minimized: the kernel is broken for every case,
    # so the shrinker must reach the floor of each greedy pass.
    assert minimal["siblings"] == 0
    assert minimal["width"] is None
    assert minimal["compact"] is True
    assert minimal["noise"] in (0, 0.3)
    assert minimal["n"] <= spec.n


def test_shrink_respects_evaluation_budget(monkeypatch):
    calls = {"n": 0}

    def always_fails(case):
        calls["n"] += 1
        return True

    monkeypatch.setattr(fuzz_module, "_case_fails", always_fails)
    spec = get_family("fuzz").grid({"seeds": 1})[0]
    case = _case_dict(_base_spec(spec), 2, 3, False)
    _shrink(case)
    assert calls["n"] <= fuzz_module._SHRINK_BUDGET


def test_healthy_shrinker_finds_nothing():
    # On a healthy engine no case fails, so _case_fails is False and a
    # hypothetical shrink would be a no-op (guards the polarity).
    spec = get_family("fuzz").grid({"seeds": 1})[0]
    case = _case_dict(_base_spec(spec), 0, None, True)
    assert not fuzz_module._case_fails(case)


def test_fuzz_campaign_via_cli(tmp_path, capsys):
    from repro.cli import main

    store = tmp_path / "fuzz.jsonl"
    code = main(
        ["campaign", "run", "--family", "fuzz", "--seeds", "3",
         "--store", str(store), "--no-progress", "--contracts"]
    )
    try:
        assert code == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "state: ok" in out
    finally:
        from repro.engine import contracts

        contracts.deactivate()


def test_fuzz_subcommand_renders_verdict(capsys):
    from repro.cli import main

    code = main(["fuzz", "--seeds", "2", "--no-progress"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FUZZ: 2 differential cases" in out
    assert "all engines byte-identical" in out
