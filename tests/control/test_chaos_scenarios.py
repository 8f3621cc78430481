"""Chaos-under-autoscaling scenario catalogue and `repro chaos --control`."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.resilience.faults import FaultSchedule, LinkFault, PEMask
from repro.control.chaos_scenarios import (
    CONTROL_INVARIANT_NAMES,
    CONTROL_SCENARIO_NAMES,
    ControlChaosScenario,
    build_control_scenario,
    run_control_scenario,
)
from repro.serve.metrics import MetricsCollector, to_json
from repro.serve.verified import SDCFault

BENCH = Path(__file__).resolve().parents[2] / "BENCH_chaos_control.json"


class TestCatalogue:
    def test_names_sorted_and_complete(self):
        assert list(CONTROL_SCENARIO_NAMES) == sorted(CONTROL_SCENARIO_NAMES)
        assert "composite-storm" in CONTROL_SCENARIO_NAMES
        assert len(CONTROL_SCENARIO_NAMES) >= 6

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown control scenario"):
            build_control_scenario("meteor-strike")

    def test_every_scenario_declares_known_invariants(self):
        for name in CONTROL_SCENARIO_NAMES:
            scenario = build_control_scenario(name)
            assert scenario.invariants, name
            for inv in scenario.invariants:
                assert inv in CONTROL_INVARIANT_NAMES

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ConfigError, match="unknown invariant"):
            dataclasses.replace(
                build_control_scenario("crash-replace"),
                invariants=("zero-silent-drops", "always-sunny"),
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rate_rps", math.nan, "rate_rps must be positive and finite, got nan"),
            ("rate_rps", math.inf, "rate_rps must be positive and finite, got inf"),
            ("duration_s", math.nan, "duration_s must be positive and finite, got nan"),
            ("duration_s", math.inf, "duration_s must be positive and finite, got inf"),
            (
                "mttr_deadline_s",
                math.nan,
                "mttr_deadline_s must be positive and finite, got nan",
            ),
            ("flash", (16.0, math.nan, 2.2), r"flash crowd \(16.0, nan, 2.2\)"),
            ("flash", (16.0, 14.0, math.inf), r"flash crowd \(16.0, 14.0, inf\)"),
            ("replicas", True, "replicas must be a positive int, got True"),
            ("replicas", 3.0, "replicas must be a positive int, got 3.0"),
            (
                "data_faults",
                FaultSchedule(sdc_faults=(SDCFault(0, 0.1, 1.0),)),
                "cannot arm sdc_faults;",
            ),
            (
                "data_faults",
                FaultSchedule(pe_mask=PEMask(4, 0)),
                "cannot arm pe_mask;",
            ),
        ],
    )
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(
                build_control_scenario("crash-replace"), **{field: value}
            )

    def test_link_faults_rejected(self):
        with pytest.raises(ConfigError, match="price link faults"):
            dataclasses.replace(
                build_control_scenario("crash-replace"),
                data_faults=FaultSchedule(
                    link_faults=(
                        LinkFault(time_s=1.0, factor=4.0, duration_s=0.5),
                    )
                ),
            )


class TestRunner:
    @pytest.fixture(scope="class")
    def rollup(self):
        return run_control_scenario(build_control_scenario("crash-replace"))

    def test_four_arms_share_the_offered_load(self, rollup):
        arms = rollup["arms"]
        assert set(arms) == {
            "frozen-healthy",
            "frozen-faulted",
            "nonhealing",
            "healing",
        }
        offered = {arm["offered"] for arm in arms.values()}
        assert len(offered) == 1  # identical seeded requests per arm

    def test_attainment_deltas_consistent(self, rollup):
        att = rollup["attainment"]
        assert att["delta_vs_frozen"] == pytest.approx(
            att["healing"] - att["frozen_faulted"]
        )
        assert att["delta_vs_nonhealing"] == pytest.approx(
            att["healing"] - att["nonhealing"]
        )
        assert att["healing"] > att["frozen_faulted"]

    def test_invariants_match_declaration_and_hold(self, rollup):
        scenario = build_control_scenario("crash-replace")
        assert list(rollup["invariants"]) == list(scenario.invariants)
        assert all(rollup["invariants"].values())

    def test_recovery_section(self, rollup):
        recovery = rollup["recovery"]
        assert recovery["recovered"] is True
        assert recovery["mttr_ms"] is not None
        assert recovery["mttr_ms"] <= 10_000.0  # the declared deadline

    def test_rollup_byte_stable(self, rollup):
        again = run_control_scenario(build_control_scenario("crash-replace"))
        assert to_json(rollup) == to_json(again)

    def test_matches_committed_bench_row(self, rollup):
        committed = json.loads(BENCH.read_text())
        (row,) = [
            r for r in committed["scenarios"] if r["scenario"] == "crash-replace"
        ]
        att = rollup["attainment"]
        recovery = rollup["recovery"]
        assert {
            "attainment_healing": att["healing"],
            "attainment_nonhealing": att["nonhealing"],
            "attainment_frozen_faulted": att["frozen_faulted"],
            "attainment_frozen_healthy": att["frozen_healthy"],
            "delta_vs_frozen": att["delta_vs_frozen"],
            "delta_vs_nonhealing": att["delta_vs_nonhealing"],
            "mttr_ms": recovery["mttr_ms"],
            "recovered": recovery["recovered"],
            "invariants": rollup["invariants"],
        } == {
            key: row[key]
            for key in (
                "attainment_healing",
                "attainment_nonhealing",
                "attainment_frozen_faulted",
                "attainment_frozen_healthy",
                "delta_vs_frozen",
                "delta_vs_nonhealing",
                "mttr_ms",
                "recovered",
                "invariants",
            )
        }

    def test_lost_request_raises_naming_scenario_arm_and_counts(
        self, monkeypatch
    ):
        offered = []
        real_summary = MetricsCollector.summary

        def one_completion_short(self, *args, **kwargs):
            summary = real_summary(self, *args, **kwargs)
            offered.append(summary["offered"])
            summary["completed"] -= 1
            return summary

        monkeypatch.setattr(MetricsCollector, "summary", one_completion_short)
        with pytest.raises(RuntimeError) as excinfo:
            run_control_scenario(build_control_scenario("crash-replace"))
        (n,) = offered  # the first arm raised
        assert str(excinfo.value).startswith(
            f"crash-replace/frozen-healthy: {n} requests offered but only "
            f"{n - 1} terminated"
        )

    def test_missed_deadline_fails_bounded_mttr(self):
        tight = dataclasses.replace(
            build_control_scenario("crash-replace"), mttr_deadline_s=0.001
        )
        rollup = run_control_scenario(tight)
        assert rollup["invariants"]["bounded-mttr"] is False


class TestCli:
    def test_list_names_all_scenarios(self, capsys):
        assert main(["chaos", "--control", "--list"]) == 0
        out = capsys.readouterr().out
        for name in CONTROL_SCENARIO_NAMES:
            assert name in out

    def test_single_scenario_table(self, capsys):
        assert main(["chaos", "--control", "crash-replace"]) == 0
        out = capsys.readouterr().out
        assert "healing" in out and "nonheal" in out and "mttr ms" in out
        assert "INVARIANT VIOLATED" not in out

    def test_json_stdout_byte_stable(self, capsys):
        assert main(["chaos", "--control", "crash-replace", "--json", "-"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["scenario"]["name"] == "crash-replace"
        assert all(payload["invariants"].values())
        assert main(["chaos", "--control", "crash-replace", "--json", "-"]) == 0
        assert capsys.readouterr().out == first

    def test_multi_scenario_json_wraps(self, capsys):
        assert main(
            ["chaos", "--control", "crash-replace", "mask-replan",
             "--json", "-"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["scenarios"]) == {"crash-replace", "mask-replan"}

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError, match="unknown control scenario"):
            main(["chaos", "--control", "meteor-strike"])

    def test_violation_exits_nonzero(self, capsys, monkeypatch):
        import repro.control.chaos_scenarios as mod

        def broken(name, seed=1):
            return dataclasses.replace(
                mod._BUILDERS[name](seed), mttr_deadline_s=0.001
            )

        monkeypatch.setattr(mod, "build_control_scenario", broken)
        assert main(["chaos", "--control", "crash-replace"]) == 1
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATED: crash-replace: bounded-mttr" in out
