"""Chaos scenario runner: determinism, invariants, MTTR, rollup shape."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16
from repro.cluster.link import LinkSpec
from repro.errors import ConfigError
from repro.resilience.faults import FaultSchedule, LinkFault, MaskFault, PEMask
from repro.resilience.scenarios import (
    INVARIANT_NAMES,
    SCENARIO_NAMES,
    ChaosScenario,
    build_scenario,
    run_scenario,
)
from repro.serve.batcher import BatchCoster
from repro.serve.metrics import MetricsCollector, to_json

#: one shared coster so the expensive plans derive once per test session
_COSTER = BatchCoster(CONFIG_16_16)


def run(name, seed=1):
    return run_scenario(build_scenario(name, seed=seed), coster=_COSTER)


@pytest.fixture(scope="module")
def single_crash():
    return run("single-crash")


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert SCENARIO_NAMES == tuple(sorted(SCENARIO_NAMES))
        for expected in ("single-crash", "fail-slow", "pe-mask", "cascade"):
            assert expected in SCENARIO_NAMES

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            build_scenario("meteor-strike")

    def test_builders_embed_seed(self):
        scenario = build_scenario("single-crash", seed=42)
        assert scenario.seed == 42
        assert scenario.schedule.seed == 42


class TestValidation:
    def test_link_faults_require_chips(self):
        with pytest.raises(ConfigError, match="link faults"):
            ChaosScenario(
                name="x",
                description="",
                schedule=FaultSchedule(
                    link_faults=(LinkFault(1.0, 2.0, 0.5),)
                ),
                chips=1,
            )

    def test_mask_faults_are_refused(self):
        # the failover tier has no timed PE mask to arm (the control
        # tier's catalogue arms mask faults)
        with pytest.raises(ConfigError, match="mask_faults"):
            ChaosScenario(
                name="x",
                description="d",
                schedule=FaultSchedule(
                    mask_faults=(MaskFault(1.0, 0, PEMask(4, 0)),)
                ),
                replicas=2,
            )

    def test_fault_replica_out_of_range(self):
        from repro.resilience.faults import ReplicaFault

        with pytest.raises(ConfigError, match="replica 5"):
            ChaosScenario(
                name="x",
                description="",
                schedule=FaultSchedule(
                    replica_faults=(ReplicaFault("crash", 5, 1.0),)
                ),
                replicas=2,
            )


class TestRecordCheck:
    @pytest.mark.parametrize("replicas", [True, 2.0, 0])
    def test_replicas_must_be_a_positive_int(self, replicas):
        with pytest.raises(ConfigError, match="replicas must be a positive int"):
            ChaosScenario(
                name="x",
                description="",
                schedule=FaultSchedule(),
                replicas=replicas,
            )

    def test_undeclared_integrity_invariants_still_evaluate(self):
        # no verification and no SDC window: nothing to escape or drain
        scenario = ChaosScenario(
            name="plain",
            description="",
            schedule=FaultSchedule(),
            invariants=("zero-escaped", "sdc-drained"),
        )
        rollup = run_scenario(scenario, coster=_COSTER)
        assert rollup["integrity"] is None
        assert rollup["invariants"] == {"zero-escaped": True, "sdc-drained": True}


class TestLostRequest:
    def test_arm_loop_raises_naming_scenario_arm_and_counts(self, monkeypatch):
        offered = []
        real_summary = MetricsCollector.summary

        def one_completion_short(self, *args, **kwargs):
            summary = real_summary(self, *args, **kwargs)
            offered.append(summary["offered"])
            summary["completed"] -= 1
            return summary

        monkeypatch.setattr(MetricsCollector, "summary", one_completion_short)
        with pytest.raises(RuntimeError) as excinfo:
            run("single-crash")
        (n,) = offered  # the first arm raised
        assert str(excinfo.value).startswith(
            f"single-crash/healthy: {n} requests offered but only {n - 1} "
            "terminated"
        )


class TestDeterminism:
    def test_byte_identical_reruns(self, single_crash):
        assert to_json(single_crash) == to_json(run("single-crash"))

    def test_seed_changes_rollup(self, single_crash):
        assert to_json(single_crash) != to_json(
            run("single-crash", seed=2)
        )


class TestInvariants:
    def test_every_request_terminates(self, single_crash):
        for side in ("healthy", "faulted"):
            digest = single_crash[side]
            assert (
                digest["completed"] + digest["shed"] + digest["failed"]
                == digest["offered"]
            )

    def test_healthy_and_faulted_see_same_offered_load(self, single_crash):
        assert single_crash["healthy"]["offered"] == single_crash["faulted"]["offered"]

    def test_availability_matches_digest(self, single_crash):
        f = single_crash["faulted"]
        assert single_crash["availability"] == pytest.approx(
            f["completed"] / f["offered"], abs=1e-6
        )


class TestRecovery:
    def test_single_crash_recovers_to_survivor_fraction(self, single_crash):
        rec = single_crash["recovery"]
        assert rec["crashed_replicas"] == 1
        assert rec["survivor_fraction"] == pytest.approx(2 / 3)
        assert rec["recovered"] is True
        assert rec["mttr_ms"] is not None and rec["mttr_ms"] > 0
        # the acceptance bar: goodput under fault >= (N-1)/N of healthy
        assert single_crash["goodput_ratio"] >= rec["survivor_fraction"]

    def test_goodput_series_starts_at_crash(self, single_crash):
        rec = single_crash["recovery"]
        assert rec["goodput_series"][0]["t_ms"] == rec["first_crash_ms"]

    def test_no_crash_no_mttr(self):
        rollup = run("pe-mask")
        rec = rollup["recovery"]
        assert rec["first_crash_ms"] is None
        assert rec["mttr_ms"] is None
        assert rec["recovered"] is False


class TestDegradeSection:
    def test_pe_mask_reports_flip_and_slowdown(self):
        rollup = run("pe-mask")
        degrade = rollup["degrade"]["alexnet"]
        assert degrade["degraded_pe"] == [3, 16]
        assert any(f["layer"] == "conv1" for f in degrade["scheme_flips"])
        assert degrade["slowdown"] > 1.5
        # the tier actually serves at the degraded geometry
        assert rollup["latency_ratio"]["p95"] > 1.5

    def test_crash_scenarios_have_no_degrade_section(self, single_crash):
        assert single_crash["degrade"] is None


class TestRepairSection:
    def test_chip_loss_reports_rebalance(self):
        rollup = run("chip-loss")
        repair = rollup["repair"]
        assert repair["lost_chips"] == [1]
        assert repair["healthy_chips"] == 3
        assert 0.0 < repair["throughput_ratio"] <= 1.0
        assert repair["rebalance_bytes"] > 0


class TestSDCScenarios:
    @pytest.fixture(scope="class")
    def storm(self):
        return run("sdc-storm")

    def test_registered(self):
        assert "sdc-storm" in SCENARIO_NAMES
        assert "sdc-silent" in SCENARIO_NAMES

    def test_storm_detects_corrects_and_drains(self, storm):
        integrity = storm["integrity"]
        assert integrity["corrupted_batches"] > 0
        assert integrity["detected"] == integrity["corrupted_batches"]
        assert integrity["corrected"] == integrity["detected"]
        assert integrity["escaped_batches"] == 0
        assert integrity["drained_replicas"] == [1]

    def test_storm_invariants_hold(self, storm):
        assert storm["invariants"] == {
            "zero-silent-drops": True,
            "zero-escaped": True,
            "sdc-drained": True,
        }
        assert storm["invariants_declared"] == list(INVARIANT_NAMES)

    def test_storm_quotes_verified_latency_tax(self, storm):
        ratio = storm["integrity"]["verified_latency_ratio"]
        assert ratio["p50"] >= 1.0
        assert ratio["p95"] >= 1.0

    def test_silent_tier_escapes_every_corruption(self):
        rollup = run("sdc-silent")
        integrity = rollup["integrity"]
        assert integrity["detected"] == 0
        assert integrity["escaped_batches"] == integrity["corrupted_batches"] > 0
        # every catalogue scenario declares the universal accounting invariant
        assert rollup["invariants"] == {"zero-silent-drops": True}
        assert rollup["invariants_declared"] == ["zero-silent-drops"]

    def test_storm_meta_names_verification_and_invariants(self, storm):
        meta = storm["scenario"]
        assert "verification(" in meta["verification"]
        assert meta["invariants"] == list(INVARIANT_NAMES)

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ConfigError, match="invariant"):
            ChaosScenario(
                name="x",
                description="",
                schedule=FaultSchedule(),
                invariants=("always-sunny",),
            )

    def test_byte_identical_reruns(self):
        assert to_json(run("sdc-storm")) == to_json(run("sdc-storm"))

    def test_violated_invariant_reports_false(self):
        from repro.serve.verified import SDCFault

        # declare zero-escaped on an unguarded tier: it must evaluate False
        scenario = ChaosScenario(
            name="sdc-unguarded",
            description="corruption with no verification",
            schedule=FaultSchedule(
                sdc_faults=(SDCFault(replica=1, time_s=0.8, duration_s=1.2),),
                seed=1,
            ),
            invariants=("zero-escaped",),
        )
        rollup = run_scenario(scenario, coster=_COSTER)
        assert rollup["invariants"] == {"zero-escaped": False}


class TestLinkWindows:
    def test_flap_windows_surface_in_failover_section(self):
        scenario = build_scenario("link-flap", seed=1)
        rollup = run_scenario(scenario, coster=_COSTER)
        # three flaps -> latency under fault strictly worse than healthy
        assert rollup["latency_ratio"]["p99"] > 1.0
        assert len(scenario.schedule.link_faults) == 3

    def test_degraded_link_validation_flows_through(self):
        with pytest.raises(ConfigError, match="factor"):
            LinkSpec().degraded(0.5)
