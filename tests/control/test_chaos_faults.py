"""Control-plane fault model: validation, tampering, safe mode."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.resilience.faults import FaultSchedule, LinkFault, MaskFault, PEMask
from repro.serve.batcher import BatchCoster
from repro.serve.engine import AdaptiveServingEngine
from repro.serve.failover import ReplicaFault
from repro.serve.verified import SDCFault
from repro.serve.workload import parse_mix, poisson_arrivals
from repro.control.actuator import Actuator
from repro.control.chaos import (
    ActuationFault,
    ControlFaultSchedule,
    FlakyActuator,
    LoopCrash,
    SafeModeController,
    SafeModePolicy,
    TelemetryChannel,
    TelemetryFault,
    apply_fault_schedule,
    naive_mask_factor,
)
from repro.control.policy import Action
from repro.control.telemetry import Detector

_COSTER = BatchCoster(CONFIG_16_16)
_TENANTS = parse_mix("alexnet", slo_ms=250.0)


def engine(replicas=2):
    return AdaptiveServingEngine(
        CONFIG_16_16, replicas=replicas, coster=_COSTER
    )


class TestFaultValidation:
    def test_unknown_telemetry_kind(self):
        with pytest.raises(ConfigError, match="telemetry fault kind"):
            TelemetryFault("garbled", 1)

    def test_stale_needs_a_previous_window(self):
        with pytest.raises(ConfigError, match="must be a positive int, got 0"):
            TelemetryFault("stale", 0)
        with pytest.raises(ConfigError, match="must be a positive int, got 0"):
            TelemetryFault("duplicate", 0)
        assert TelemetryFault("loss", 0).epoch == 0

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5, 1.5])
    def test_bad_drop_frac(self, frac):
        with pytest.raises(ConfigError, match="drop_frac"):
            TelemetryFault("loss", 1, frac)

    def test_unknown_actuation_mode(self):
        with pytest.raises(ConfigError, match="actuation fault mode"):
            ActuationFault(1, "maybe")

    def test_crash_at_epoch_zero_rejected(self):
        with pytest.raises(ConfigError, match="must be a positive int, got 0"):
            LoopCrash(0)

    def test_duplicate_epoch_rejected_naming_entries(self):
        with pytest.raises(
            ConfigError, match=r"actuation: duplicate.*entries 0 and 1"
        ):
            ControlFaultSchedule(
                actuation=(ActuationFault(3), ActuationFault(3, "partial"))
            )

    def test_sorted_and_serializable(self):
        schedule = ControlFaultSchedule(
            telemetry=(TelemetryFault("stale", 5), TelemetryFault("loss", 2)),
            crashes=(LoopCrash(4, 2),),
        )
        assert [f.epoch for f in schedule.telemetry] == [2, 5]
        assert schedule.to_dict()["crashes"] == [
            {"epoch": 4, "down_epochs": 2}
        ]
        assert not schedule.is_empty
        assert ControlFaultSchedule().is_empty


class TestTelemetryChannel:
    def run_channel(self, faults, epochs=3, rate=50.0):
        eng = engine()
        detector = Detector(eng, _TENANTS)
        channel = TelemetryChannel(detector, faults)
        eng.ingest(poisson_arrivals(rate, 2.0 * epochs, _TENANTS, seed=0))
        out = []
        for k in range(epochs):
            eng.advance_to(2.0 * (k + 1))
            out.append(channel.deliver(2.0 * (k + 1)))
        return out

    def test_clean_delivery_is_identity(self):
        deliveries = self.run_channel(())
        assert [len(d) for d in deliveries] == [1, 1, 1]
        assert [d[0].epoch for d in deliveries] == [0, 1, 2]

    def test_loss_undercounts_but_keeps_identity(self):
        clean = self.run_channel(())
        lossy = self.run_channel((TelemetryFault("loss", 1, 0.5),))
        tampered = lossy[1][0]
        assert tampered.epoch == 1 and tampered.end_s == 4.0
        assert tampered.arrivals < clean[1][0].arrivals
        assert tampered.arrival_rate_rps < clean[1][0].arrival_rate_rps

    def test_stale_replays_previous_window(self):
        deliveries = self.run_channel((TelemetryFault("stale", 2),))
        assert [s.epoch for s in deliveries[2]] == [1]

    def test_duplicate_delivers_both(self):
        deliveries = self.run_channel((TelemetryFault("duplicate", 2),))
        assert [s.epoch for s in deliveries[2]] == [1, 2]

    def test_injected_log_records_exercised_faults(self):
        eng = engine()
        channel = TelemetryChannel(
            Detector(eng, _TENANTS), (TelemetryFault("loss", 0, 0.5),)
        )
        eng.ingest(poisson_arrivals(50.0, 2.0, _TENANTS, seed=0))
        eng.advance_to(2.0)
        channel.deliver(2.0)
        assert channel.injected == [{"epoch": 0, "kind": "loss"}]

    def test_detector_ground_truth_untouched(self):
        # the channel tampers the delivery, not the detector's cursors:
        # the next window must be exact, not offset by the lost records
        clean = self.run_channel(())
        lossy = self.run_channel((TelemetryFault("loss", 1, 0.5),))
        assert lossy[2][0] == clean[2][0]


class TestFlakyActuator:
    def apply(self, faults, actions, epoch, replicas=2):
        eng = engine(replicas)
        flaky = FlakyActuator(Actuator(eng), faults)
        return eng, flaky.apply(actions, epoch=epoch)

    def scale_up(self, target):
        return Action(
            kind="scale-up", epoch=1, time_s=2.0, target=target, reason=""
        )

    def test_clean_epoch_passes_through(self):
        eng, applied = self.apply((), [self.scale_up(3)], epoch=1)
        assert eng.n_active() == 3
        assert applied[0].added == [2]

    def test_fail_mode_loses_the_command(self):
        eng, applied = self.apply(
            (ActuationFault(1, "fail"),), [self.scale_up(3)], epoch=1
        )
        assert eng.n_active() == 2  # nothing reached the engine
        assert applied[0].note == "actuation-fault: command lost"
        assert applied[0].action.target == 3  # verifier sees the intent

    def test_partial_mode_halves_a_scale_up(self):
        eng, applied = self.apply(
            (ActuationFault(1, "partial"),), [self.scale_up(6)], epoch=1
        )
        assert eng.n_active() == 4  # need 4, landed 2
        # the record still claims the original target: verification catches it
        assert applied[0].action.target == 6
        assert applied[0].note == "actuation-fault: partial"

    def test_partial_mode_single_add_is_atomic(self):
        eng, applied = self.apply(
            (ActuationFault(1, "partial"),), [self.scale_up(3)], epoch=1
        )
        assert eng.n_active() == 3

    def test_fault_on_empty_epoch_not_exercised(self):
        eng = engine()
        flaky = FlakyActuator(Actuator(eng), (ActuationFault(1, "fail"),))
        assert flaky.apply([], epoch=1) == []
        assert flaky.injected == []


class TestSafeMode:
    def test_trips_at_threshold_and_releases_after_clean_run(self):
        safe = SafeModeController(
            SafeModePolicy(fault_threshold=3, window_epochs=4, clean_epochs=2)
        )
        assert not safe.update(0, 1)
        assert not safe.update(1, 1)
        assert safe.update(2, 1)  # 3 faults in window -> safe mode
        assert safe.update(3, 0)  # one clean epoch: not enough
        assert not safe.update(4, 0)  # two clean epochs: released
        assert safe.intervals == [
            {"entered_epoch": 2, "exited_epoch": 4, "window_faults": 3}
        ]

    def test_faults_age_out_of_the_window(self):
        safe = SafeModeController(
            SafeModePolicy(fault_threshold=2, window_epochs=2, clean_epochs=1)
        )
        assert not safe.update(0, 1)
        assert not safe.update(5, 1)  # first fault long gone

    def test_fault_during_cooldown_resets_clean_count(self):
        safe = SafeModeController(
            SafeModePolicy(fault_threshold=1, window_epochs=2, clean_epochs=2)
        )
        assert safe.update(0, 1)
        assert safe.update(1, 0)
        assert safe.update(2, 1)  # reset
        assert safe.update(3, 0)
        assert not safe.update(4, 0)

    def test_disabled_never_trips(self):
        safe = SafeModeController(SafeModePolicy(enabled=False))
        assert not safe.update(0, 99)

    def test_replay_reconstructs_state(self):
        policy = SafeModePolicy(fault_threshold=2, window_epochs=3, clean_epochs=2)
        live = SafeModeController(policy)
        records = [(0, 1), (1, 1), (2, 0), (3, 0)]
        for epoch, count in records:
            live.update(epoch, count)
        replayed = SafeModeController(policy)
        replayed.replay(records)
        assert replayed.active == live.active
        assert replayed.intervals == live.intervals


class TestApplyFaultSchedule:
    def test_crash_and_mask_armed(self):
        eng = engine(replicas=3)
        schedule = FaultSchedule(
            replica_faults=(ReplicaFault("crash", 2, 1.0),),
            mask_faults=(MaskFault(0.5, 0, PEMask(masked_cols=4)),),
        )
        apply_fault_schedule(eng, schedule, CONFIG_16_16)
        eng.ingest(poisson_arrivals(60.0, 4.0, _TENANTS, seed=0))
        eng.advance_to(4.0)
        crashed = next(r for r in eng.replicas if r.rid == 2)
        assert not crashed.active
        masked = next(r for r in eng.replicas if r.rid == 0)
        assert masked.degraded and masked.degraded["masked_cols"] == 4

    def test_mask_factor_matches_lane_loss(self):
        factor = naive_mask_factor(CONFIG_16_16, 4, 0)
        assert factor == pytest.approx((16 * 16) / (12 * 16))

    @pytest.mark.parametrize(
        "schedule, message",
        [
            pytest.param(
                FaultSchedule(
                    link_faults=(LinkFault(time_s=1.0, factor=4.0, duration_s=0.5),)
                ),
                "cannot arm link_faults;",
                id="link_faults",
            ),
            pytest.param(
                FaultSchedule(sdc_faults=(SDCFault(0, 0.1, 1.0),)),
                "cannot arm sdc_faults;",
                id="sdc_faults",
            ),
            pytest.param(
                FaultSchedule(pe_mask=PEMask(4, 0)),
                "cannot arm pe_mask;",
                id="pe_mask",
            ),
            pytest.param(
                FaultSchedule(
                    sdc_faults=(SDCFault(0, 0.1, 1.0),), pe_mask=PEMask(4, 0)
                ),
                "cannot arm sdc_faults or pe_mask;",
                id="sdc_faults+pe_mask",
            ),
        ],
    )
    def test_unarmable_faults_rejected(self, schedule, message):
        with pytest.raises(ConfigError, match=message):
            apply_fault_schedule(engine(), schedule, CONFIG_16_16)
