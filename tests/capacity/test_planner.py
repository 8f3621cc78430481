"""Planner end-to-end: determinism, pruning safety, faults, cache wiring."""

from __future__ import annotations

import json
import os

import pytest

from repro.capacity import (
    CandidateGrid,
    FaultModel,
    ForecastSpec,
    plan_capacity,
    render_report,
    report_to_json,
)
from repro.errors import ConfigError
from repro.perf.cache import schedule_cache

TENANTS = "acme=alexnet:3/nin:1@2,beta=nin"

GRID = CandidateGrid(
    geometries=("16-16",),
    chip_counts=(1, 2),
    strategies=("replicated", "pipeline"),
    groups=(2,),
    max_batches=(8,),
)

FORECAST = ForecastSpec.parse(
    TENANTS, rate=150.0, duration_s=2.5, slo_ms=150.0, seed=3
)

FAULTS = FaultModel(seed=2, crashes=1)


def _plan(**kwargs):
    kwargs.setdefault("grid", GRID)
    kwargs.setdefault("forecast", FORECAST)
    kwargs.setdefault("slo_target", 0.9)
    return plan_capacity(**kwargs)


class TestDeterminism:
    def test_ranked_json_byte_identical_across_jobs_and_reruns(self):
        a = report_to_json(_plan(fault_model=FAULTS, jobs=1))
        b = report_to_json(_plan(fault_model=FAULTS, jobs=2))
        c = report_to_json(_plan(fault_model=FAULTS, jobs=2))
        assert a == b  # fan-out must not leak into the ranking
        assert b == c  # a warm plan cache must not either

    def test_progress_callback_observes_without_perturbing(self):
        seen = []
        with_cb = _plan(
            jobs=1, progress=lambda done, total: seen.append((done, total))
        )
        without = _plan(jobs=1)
        assert report_to_json(with_cb) == report_to_json(without)
        total = with_cb["search"]["simulated"]
        assert seen == [(k, total) for k in range(1, total + 1)]


class TestPruningSafety:
    def test_bound_dominates_simulated_attainment(self):
        report = _plan(prune=False)
        for name, entry in report["deployments"].items():
            assert (
                entry["bound"]["attainment"] + 1e-6
                >= entry["healthy"]["attainment"]
            ), name

    def test_pruning_preserves_the_exhaustive_winner(self):
        forecast = ForecastSpec.parse(
            TENANTS, rate=250.0, duration_s=2.5, slo_ms=150.0, seed=3
        )
        pruned = _plan(forecast=forecast)
        full = _plan(forecast=forecast, prune=False)
        assert pruned["search"]["pruned"] > 0  # the test must actually prune
        assert pruned["winner"] == full["winner"]
        # every feasible candidate survived pruning, in the same order
        n_feasible = full["search"]["feasible"]
        assert pruned["search"]["feasible"] == n_feasible
        assert pruned["ranking"][:n_feasible] == full["ranking"][:n_feasible]

    def test_rescue_pass_restores_exhaustive_ranking(self):
        # a forecast nothing in the grid can satisfy: everything is pruned,
        # so the rescue pass must simulate it all and match exhaustive
        forecast = ForecastSpec.parse(
            TENANTS, rate=4000.0, duration_s=1.0, slo_ms=50.0, seed=3
        )
        grid = CandidateGrid(
            geometries=("16-16",), chip_counts=(1, 2), max_batches=(8,)
        )
        rescued = _plan(grid=grid, forecast=forecast, slo_target=0.99)
        full = _plan(
            grid=grid, forecast=forecast, slo_target=0.99, prune=False
        )
        assert rescued["search"]["rescued"] is True
        assert rescued["search"]["simulated"] == len(grid.enumerate())
        assert rescued["ranking"] == full["ranking"]
        assert rescued["winner"] == full["winner"]


class TestFaultsAndAbft:
    def test_fault_model_rewards_redundancy(self):
        grid = CandidateGrid(
            geometries=("16-16",), chip_counts=(1, 4), max_batches=(8,)
        )
        report = _plan(grid=grid, fault_model=FAULTS)
        lone = report["deployments"]["16-16 x1 replicated b8"]["degraded"]
        quad = report["deployments"]["16-16 x4 replicated b8"]["degraded"]
        # losing 1 of 4 chips must hurt less than losing your only chip
        assert quad["attainment"] > lone["attainment"]

    def test_sdc_escapes_only_without_abft(self):
        grid = CandidateGrid(
            geometries=("16-16",), chip_counts=(1,), max_batches=(8,)
        )
        sdc = FaultModel(seed=2, crashes=0, sdc_windows=2)
        unguarded = _plan(grid=grid, fault_model=sdc)
        guarded = _plan(grid=grid, fault_model=sdc, abft=True)
        name = "16-16 x1 replicated b8"
        loose = unguarded["deployments"][name]["degraded"]
        tight = guarded["deployments"][name]["degraded"]
        assert loose["escaped_requests"] > 0
        assert loose["verified_attainment"] < loose["attainment"]
        assert tight["escaped_requests"] == 0

    def test_crashes_clamp_to_fleet_size(self):
        grid = CandidateGrid(
            geometries=("16-16",), chip_counts=(1,), max_batches=(8,)
        )
        report = _plan(
            grid=grid, fault_model=FaultModel(seed=2, crashes=3)
        )
        entry = report["deployments"]["16-16 x1 replicated b8"]
        assert entry["degraded"]["attainment"] < entry["healthy"]["attainment"]


class TestCacheWiring:
    def test_leaves_cwd_and_cache_configuration_untouched(self, tmp_path, monkeypatch):
        def configuration():
            counters = ("hits", "misses", "evictions")
            return {
                k: v
                for k, v in vars(schedule_cache).items()
                if not k.startswith("_") and k not in counters
            }

        monkeypatch.chdir(tmp_path)
        schedule_cache.clear()  # cold: every schedule is a miss and a store
        before = configuration()
        grid = CandidateGrid(
            geometries=("16-16",), chip_counts=(1,), max_batches=(4,)
        )
        forecast = ForecastSpec.parse(
            "t=nin", rate=30.0, duration_s=1.0, slo_ms=200.0, seed=1
        )
        plan_capacity(grid, forecast, slo_target=0.5, jobs=1)
        assert os.listdir(tmp_path) == []
        assert configuration() == before

    def test_stats_surface_in_text_report_but_not_in_json(self):
        report = _plan(jobs=1)
        text = render_report(report)
        assert "plan cache:" in text
        assert "in workers" in text
        payload = json.loads(report_to_json(report))
        assert "cache" not in payload
        assert "winner" in payload


class TestValidation:
    def test_slo_target_range(self):
        with pytest.raises(ConfigError, match="slo_target"):
            _plan(slo_target=0.0)

    def test_fault_model_validation(self):
        with pytest.raises(ConfigError, match="crashes"):
            FaultModel(crashes=-1)
