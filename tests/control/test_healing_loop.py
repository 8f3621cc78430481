"""Self-healing control loop: repair, restart, and determinism."""

from __future__ import annotations

import math

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.resilience.faults import FaultSchedule, MaskFault, PEMask
from repro.serve.batcher import BatchCoster
from repro.serve.failover import ReplicaFault
from repro.serve.workload import parse_mix, poisson_arrivals
from repro.control.policy import AutoscalePolicy
from repro.control.chaos import (
    ActuationFault,
    ControlFaultSchedule,
    LoopCrash,
    SafeModePolicy,
    TelemetryFault,
)
from repro.control.healing import HealingPolicy, SelfHealingControlLoop

_COSTER = BatchCoster(CONFIG_16_16)
_TENANTS = parse_mix("alexnet", slo_ms=250.0)
_POLICY = AutoscalePolicy(epoch_s=2.0, min_replicas=2, max_replicas=6)
_DURATION = 20.0


def requests(rate=150.0, seed=3):
    return poisson_arrivals(rate, _DURATION, _TENANTS, seed=seed)


def loop(healing=HealingPolicy(), control_faults=ControlFaultSchedule(),
         safe_mode=SafeModePolicy(enabled=False), replicas=3):
    return SelfHealingControlLoop(
        CONFIG_16_16,
        _TENANTS,
        autoscale=_POLICY,
        healing=healing,
        safe_mode=safe_mode,
        control_faults=control_faults,
        replicas=replicas,
        coster=_COSTER,
    )


def action_kinds(report):
    return report.summary["control"]["actions_by_kind"]


class TestRepairs:
    def test_crashed_replica_replaced(self):
        faults = FaultSchedule(
            replica_faults=(ReplicaFault("crash", 1, 5.0),)
        )
        run = loop()
        report = run.run(requests(), _DURATION, data_faults=faults)
        replaces = [
            act
            for rec in report.epochs
            for act in rec.get("actions", ())
            if act["kind"] == "replace"
        ]
        assert replaces and replaces[0]["replica"] == 1
        assert replaces[0]["added"]  # a fresh rid was provisioned
        assert report.epochs[-1]["probe"]["crashed_unreplaced"] == []
        # the non-healing loop leaves the hole open to the end of the run
        dead = loop(healing=HealingPolicy.disabled())
        dead_report = dead.run(requests(), _DURATION, data_faults=faults)
        assert "replace" not in action_kinds(dead_report)
        assert dead_report.epochs[-1]["probe"]["crashed_unreplaced"] == [1]

    def test_degraded_replica_replanned(self):
        faults = FaultSchedule(
            mask_faults=(MaskFault(5.0, 0, PEMask(masked_cols=4)),)
        )
        report = loop().run(requests(), _DURATION, data_faults=faults)
        assert action_kinds(report).get("replan", 0) >= 1
        replans = [
            act
            for rec in report.epochs
            for act in rec.get("actions", ())
            if act["kind"] == "replan"
        ]
        assert replans[0]["replica"] == 0

    def test_failed_actuation_retried(self):
        # lose the opening scale-up command of a demand spike; verification
        # must notice and the planner must re-issue
        run = loop(
            control_faults=ControlFaultSchedule(
                actuation=(ActuationFault(0, "fail"),)
            ),
            replicas=2,
        )
        report = run.run(requests(rate=600.0), _DURATION)
        retries = [
            act
            for rec in report.epochs
            for act in rec.get("actions", ())
            if act["reason"].startswith("retry after failed verification")
        ]
        assert report.summary["healing"]["actuation_injected"] == [
            {"epoch": 0, "mode": "fail"}
        ]
        assert retries
        assert report.summary["control"]["verdicts_by_status"].get("failed", 0) >= 1


class TestTelemetryGuard:
    def test_stale_window_flagged_as_identity_mismatch(self):
        run = loop(
            control_faults=ControlFaultSchedule(
                telemetry=(TelemetryFault("stale", 3),)
            )
        )
        report = run.run(requests(), _DURATION)
        flags = report.epochs[3]["telemetry_faults"]
        assert [f["kind"] for f in flags] == ["identity-mismatch"]
        assert report.summary["healing"]["telemetry_flags"] == 1
        assert report.epochs[3]["window"] is None  # refuses to plan on it

    def test_lossy_window_flagged_as_counter_mismatch(self):
        run = loop(
            control_faults=ControlFaultSchedule(
                telemetry=(TelemetryFault("loss", 3, 0.5),)
            )
        )
        report = run.run(requests(), _DURATION)
        flags = report.epochs[3]["telemetry_faults"]
        assert [f["kind"] for f in flags] == ["counter-mismatch"]
        assert flags[0]["claimed_arrivals"] < flags[0]["ingress_arrivals"]

    def test_duplicate_delivery_keeps_the_genuine_window(self):
        run = loop(
            control_faults=ControlFaultSchedule(
                telemetry=(TelemetryFault("duplicate", 3),)
            )
        )
        report = run.run(requests(), _DURATION)
        rec = report.epochs[3]
        assert rec["delivered_epochs"] == [2, 3]
        assert [f["kind"] for f in rec["telemetry_faults"]] == [
            "identity-mismatch"
        ]
        assert rec["window"] is not None and rec["window"]["epoch"] == 3

    def test_unguarded_loop_swallows_tampered_windows(self):
        run = loop(
            healing=HealingPolicy.disabled(),
            control_faults=ControlFaultSchedule(
                telemetry=(TelemetryFault("stale", 3),)
            ),
        )
        report = run.run(requests(), _DURATION)
        rec = report.epochs[3]
        assert rec["telemetry_faults"] == []
        assert rec["window"]["epoch"] == 2  # trusts the replayed window


class TestCrashRestart:
    FAULTS = ControlFaultSchedule(crashes=(LoopCrash(3, 2),))

    def test_outage_epochs_then_journal_restart(self):
        run = loop(control_faults=self.FAULTS)
        report = run.run(requests(), _DURATION)
        outages = [rec["epoch"] for rec in report.epochs if rec.get("outage")]
        assert outages == [3, 4]
        healing = report.summary["healing"]
        assert healing["crash_events"][0]["epoch"] == 3
        assert healing["restarts"] == [
            {
                "epoch": 5,
                "journal_epochs": 5,
                "expectations_lost": 0,
                "frozen_until": -1,
            }
        ]

    def test_non_restarting_loop_stays_dead(self):
        run = loop(
            healing=HealingPolicy.disabled(), control_faults=self.FAULTS
        )
        report = run.run(requests(), _DURATION)
        outages = [rec["epoch"] for rec in report.epochs if rec.get("outage")]
        assert outages == list(range(3, 10))  # dead to the end of the run
        assert report.summary["healing"]["restarts"] == []

    def test_restart_preserves_byte_determinism(self):
        first = loop(control_faults=self.FAULTS).run(requests(), _DURATION)
        second = loop(control_faults=self.FAULTS).run(requests(), _DURATION)
        assert first.to_json() == second.to_json()


class TestLoopValidation:
    def test_replicas_outside_autoscale_bounds(self):
        with pytest.raises(ConfigError, match="outside the autoscale bounds"):
            loop(replicas=7)

    def test_no_tenants(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            SelfHealingControlLoop(CONFIG_16_16, [], coster=_COSTER)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError, match="duration"):
            loop().run(requests(), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_rejects_non_finite_duration(self, bad):
        with pytest.raises(ConfigError, match=f"finite, got {bad!r}"):
            loop().run(requests(), bad)


class TestDeterminism:
    def test_clean_run_byte_identical(self):
        first = loop().run(requests(), _DURATION)
        second = loop().run(requests(), _DURATION)
        assert first.to_json() == second.to_json()

    def test_stormy_run_byte_identical(self):
        faults = FaultSchedule(
            replica_faults=(ReplicaFault("crash", 1, 5.0),),
            mask_faults=(MaskFault(9.0, 0, PEMask(masked_cols=4)),),
        )
        control = ControlFaultSchedule(
            telemetry=(TelemetryFault("loss", 6, 0.5),),
            crashes=(LoopCrash(4, 1),),
        )

        def run_once():
            return loop(control_faults=control).run(
                requests(), _DURATION, data_faults=faults
            )

        assert run_once().to_json() == run_once().to_json()
