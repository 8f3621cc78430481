"""Chaos-under-autoscaling scenario catalogue and `repro chaos --control`."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.resilience.faults import FaultSchedule, LinkFault
from repro.control.chaos_scenarios import (
    CONTROL_INVARIANT_NAMES,
    CONTROL_SCENARIO_NAMES,
    ControlChaosScenario,
    build_control_scenario,
    run_control_scenario,
)
from repro.serve.metrics import to_json


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
