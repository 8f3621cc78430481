"""Planner decisions, actuator application, verifier feedback."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster
from repro.serve.engine import AdaptiveServingEngine
from repro.control.actuator import Actuator, AppliedAction
from repro.control.policy import (
    ACTION_KINDS,
    MIN_HEALTH_BATCHES,
    SLOW_EPOCHS,
    Action,
    AutoscalePolicy,
    Planner,
    PlannerFeedback,
)
from repro.control.telemetry import WindowStats
from repro.control.verifier import Verifier

_COSTER = BatchCoster(CONFIG_16_16)

SLO = {"vgg": 600.0}


def window(**kwargs):
    base = dict(
        epoch=0,
        start_s=0.0,
        end_s=2.0,
        arrivals=0,
        completed=0,
        shed=0,
        deadline_met=0,
        queue_depth=0,
        active_replicas=2,
        p50_ms=50.0,
        p95_ms=80.0,
        p99_ms=90.0,
        slo_p95_frac=0.2,
        shed_rate=0.0,
        utilization=0.3,
        arrival_rate_rps=5.0,
        network_mix={"vgg": 1.0},
        replica_service_ratio={},
        replica_batches={},
    )
    base.update(kwargs)
    return WindowStats(**base)


def planner(**kwargs):
    return Planner(AutoscalePolicy(**kwargs), _COSTER, SLO)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epoch_s": 0},
            {"min_replicas": 0},
            {"max_replicas": 0},
            {"low_band": 0.9, "high_band": 0.8},
            {"headroom": -0.5},
            {"cooldown_epochs": -1},
        ],
    )
    def test_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            AutoscalePolicy(**kwargs)

    def test_unknown_action_kind(self):
        with pytest.raises(ConfigError, match="unknown action kind"):
            Action(kind="reboot", epoch=0, time_s=0.0, reason="")

    def test_planner_needs_slos(self):
        with pytest.raises(ConfigError, match="tenant SLO"):
            Planner(AutoscalePolicy(), _COSTER, {})


class TestScaling:
    def test_dead_zone_produces_no_action(self):
        p = planner(retune=False)
        assert p.plan(window(slo_p95_frac=0.5, utilization=0.7)) == []

    def test_breach_scales_up_to_demand(self):
        p = planner(retune=False, max_replicas=10)
        # vgg at batch 16 serves ~12 req/s per replica; 50 rps needs 6 chips
        acts = p.plan(window(slo_p95_frac=0.95, arrival_rate_rps=50.0))
        assert [a.kind for a in acts] == ["scale-up"]
        assert acts[0].target == p.demand_target(
            window(arrival_rate_rps=50.0), 16
        )
        assert acts[0].target > 3  # jumped, not crept

    def test_shed_alone_is_a_breach(self):
        p = planner(retune=False)
        acts = p.plan(window(shed_rate=0.1, shed=5))
        assert [a.kind for a in acts] == ["scale-up"]

    def test_backlog_alone_is_a_breach(self):
        p = planner(retune=False)
        acts = p.plan(window(queue_depth=100, active_replicas=2))
        assert [a.kind for a in acts] == ["scale-up"]

    def test_scale_up_capped_at_max_replicas(self):
        p = planner(retune=False, max_replicas=3)
        acts = p.plan(window(slo_p95_frac=0.95, arrival_rate_rps=500.0))
        assert acts[0].target == 3

    def test_calm_scales_down_toward_demand(self):
        p = planner(retune=False)
        # 2 rps against ~12 rps/replica capacity: demand is one replica,
        # and the shrink goes there in one decision (cooldown rate-limits)
        acts = p.plan(
            window(active_replicas=4, slo_p95_frac=0.1, utilization=0.2,
                   arrival_rate_rps=2.0)
        )
        assert [a.kind for a in acts] == ["scale-down"]
        assert acts[0].target == 1

    def test_scale_down_never_undershoots_demand(self):
        p = planner(retune=False, max_replicas=10)
        # demand ~3 replicas at 30 rps: shrink from 5 stops at demand
        acts = p.plan(
            window(active_replicas=5, slo_p95_frac=0.1, utilization=0.2,
                   arrival_rate_rps=30.0)
        )
        assert acts and acts[0].target == p.demand_target(
            window(arrival_rate_rps=30.0), 16
        )

    def test_no_scale_down_below_min(self):
        p = planner(retune=False, min_replicas=2)
        acts = p.plan(
            window(active_replicas=2, slo_p95_frac=0.1, utilization=0.1,
                   arrival_rate_rps=0.5)
        )
        assert acts == []

    def test_cooldown_blocks_consecutive_scale_downs(self):
        p = planner(retune=False, cooldown_epochs=3)
        calm = dict(slo_p95_frac=0.1, utilization=0.1, arrival_rate_rps=0.5)
        first = p.plan(window(epoch=0, active_replicas=5, **calm))
        assert first and first[0].kind == "scale-down"
        assert p.plan(window(epoch=1, active_replicas=4, **calm)) == []
        assert p.plan(window(epoch=2, active_replicas=4, **calm)) == []
        later = p.plan(window(epoch=4, active_replicas=4, **calm))
        assert later and later[0].kind == "scale-down"

    def test_cooldown_still_allows_raising_the_target(self):
        p = planner(retune=False, max_replicas=10, cooldown_epochs=4)
        p.plan(window(epoch=0, slo_p95_frac=0.95, arrival_rate_rps=30.0))
        # pressure rose during cooldown: the planner may still raise
        acts = p.plan(
            window(epoch=1, active_replicas=4, slo_p95_frac=0.95,
                   arrival_rate_rps=90.0)
        )
        assert acts and acts[0].kind == "scale-up" and acts[0].target > 4

    def test_freeze_blocks_all_scaling(self):
        p = planner(retune=False)
        fb = PlannerFeedback(frozen_until_epoch=5)
        assert (
            p.plan(window(epoch=3, slo_p95_frac=0.95, arrival_rate_rps=50.0), fb)
            == []
        )
        acts = p.plan(
            window(epoch=6, slo_p95_frac=0.95, arrival_rate_rps=50.0), fb
        )
        assert acts and acts[0].kind == "scale-up"


class TestDrainRepair:
    def test_slow_streak_triggers_one_drain(self):
        p = planner(retune=False)
        sick = dict(
            utilization=0.6,  # dead zone: no scale action rides along
            replica_service_ratio={0: 2.5, 1: 1.0},
            replica_batches={0: 3, 1: 3},
        )
        assert p.plan(window(epoch=0, **sick)) == []  # streak 1
        acts = p.plan(window(epoch=1, **sick))  # streak 2 -> drain
        assert [a.kind for a in acts] == ["drain"]
        assert acts[0].replica == 0
        # never re-drains the same rid
        assert p.plan(window(epoch=2, **sick)) == []

    def test_recovery_resets_the_streak(self):
        p = planner(retune=False)
        p.plan(window(epoch=0, utilization=0.6, replica_service_ratio={0: 2.0},
                      replica_batches={0: 2}))
        p.plan(window(epoch=1, utilization=0.6, replica_service_ratio={0: 1.0},
                      replica_batches={0: 2}))
        acts = p.plan(window(epoch=2, utilization=0.6,
                             replica_service_ratio={0: 2.0},
                             replica_batches={0: 2}))
        assert acts == []  # streak restarted

    def test_too_few_batches_is_not_a_verdict(self):
        p = planner(retune=False)
        for epoch in range(SLOW_EPOCHS):
            acts = p.plan(window(epoch=epoch, utilization=0.6,
                                 replica_service_ratio={0: 3.0},
                                 replica_batches={0: MIN_HEALTH_BATCHES - 1}))
            assert acts == []


class TestRetune:
    def test_picks_largest_batch_fitting_the_budget(self):
        p = planner(cooldown_epochs=0)
        p.notify_batcher(16, 10.0)
        # vgg batch-16 service ~1.29s >> 0.5 * 600ms; batch 2 fits
        acts = p.plan(window(completed=50, arrival_rate_rps=20.0))
        retunes = [a for a in acts if a.kind == "retune"]
        assert len(retunes) == 1
        assert retunes[0].max_batch in (1, 2)
        assert retunes[0].max_wait_ms <= 10.0

    def test_retune_cooldown(self):
        p = planner()
        p.notify_batcher(16, 10.0)
        acts = p.plan(window(epoch=0, completed=50, arrival_rate_rps=20.0))
        assert any(a.kind == "retune" for a in acts)
        p.notify_batcher(16, 10.0)  # pretend the loop reverted it
        acts = p.plan(window(epoch=1, completed=50, arrival_rate_rps=20.0))
        assert not any(a.kind == "retune" for a in acts)

    def test_no_retune_when_disabled(self):
        p = planner(retune=False)
        acts = p.plan(window(completed=50, arrival_rate_rps=20.0))
        assert not any(a.kind == "retune" for a in acts)


class TestActuator:
    def make(self, replicas=2):
        eng = AdaptiveServingEngine(CONFIG_16_16, replicas=replicas, coster=_COSTER)
        return eng, Actuator(eng)

    def act(self, kind, **kwargs):
        return Action(kind=kind, epoch=0, time_s=0.0, reason="t", **kwargs)

    def test_scale_up_adds_to_target(self):
        eng, act = self.make(2)
        (applied,) = act.apply([self.act("scale-up", target=5)])
        assert eng.n_active() == 5
        assert applied.added == [2, 3, 4] and not applied.clipped

    def test_scale_up_already_there_is_clipped(self):
        eng, act = self.make(3)
        (applied,) = act.apply([self.act("scale-up", target=3)])
        assert applied.clipped and applied.added == []

    def test_scale_down_drains_highest_rids_first(self):
        eng, act = self.make(4)
        (applied,) = act.apply([self.act("scale-down", target=2)])
        assert applied.drained == [3, 2]
        assert [r.rid for r in eng.active_replicas()] == [0, 1]

    def test_scale_down_never_strands_the_queue(self):
        eng, act = self.make(2)
        (applied,) = act.apply([self.act("scale-down", target=0)])
        assert eng.n_active() == 1 and applied.clipped

    def test_drain_repair_swaps_one_for_one(self):
        eng, act = self.make(2)
        (applied,) = act.apply([self.act("drain", replica=0)])
        assert applied.drained == [0] and applied.added == [2]
        assert eng.n_active() == 2  # capacity held through the repair

    def test_drain_of_gone_replica_is_clipped(self):
        eng, act = self.make(3)
        eng.drain_replica(2)
        (applied,) = act.apply([self.act("drain", replica=2)])
        assert applied.clipped and "already gone" in applied.note

    def test_retune_swaps_the_live_policy(self):
        eng, act = self.make(1)
        act.apply([self.act("retune", max_batch=4, max_wait_ms=2.0)])
        assert eng.batch_policy.max_batch == 4
        assert eng.batch_policy.max_wait_ms == 2.0

    @pytest.mark.parametrize(
        "kind,kwargs",
        [("scale-up", {}), ("scale-down", {}), ("drain", {}), ("retune", {})],
    )
    def test_incomplete_actions_rejected(self, kind, kwargs):
        _, act = self.make(2)
        with pytest.raises(ConfigError):
            act.apply([self.act(kind, **kwargs)])


class TestVerifier:
    def make(self, replicas=2):
        eng = AdaptiveServingEngine(CONFIG_16_16, replicas=replicas, coster=_COSTER)
        return eng, Actuator(eng), Verifier()

    def act(self, kind, **kwargs):
        return Action(kind=kind, epoch=0, time_s=0.0, reason="t", **kwargs)

    def test_applied_action_confirms(self):
        eng, actuator, ver = self.make(2)
        applied = actuator.apply([self.act("scale-up", target=4)])
        ver.register(applied, epoch=0)
        fb = ver.check(eng, epoch=1)
        assert fb.failed_kinds == []
        assert [v["status"] for v in ver.verdicts] == ["confirmed"]

    def test_unmet_expectation_fails_after_deadline(self):
        eng, actuator, ver = self.make(2)
        # register an expectation by hand that the engine never satisfies
        ver.register(
            [AppliedAction(self.act("scale-up", target=9), added=[])], epoch=0
        )
        assert ver.check(eng, epoch=1).failed_kinds == []  # still pending
        fb = ver.check(eng, epoch=2)
        assert fb.failed_kinds == ["scale-up"]
        assert [v["status"] for v in ver.verdicts] == ["failed"]

    def test_oscillation_trips_the_freeze(self):
        eng, actuator, ver = self.make(2)
        kinds = ["scale-up", "scale-down", "scale-up", "scale-down"]
        for k, kind in enumerate(kinds):
            target = eng.n_active() + (1 if kind == "scale-up" else -1)
            applied = actuator.apply([self.act(kind, target=target)])
            ver.register(applied, epoch=k)
        fb = ver.check(eng, epoch=4)
        assert fb.frozen_until_epoch == 10
        assert ver.freezes and ver.freezes[0]["flips"] == 3

    def test_steady_scaling_never_freezes(self):
        eng, actuator, ver = self.make(1)
        for k in range(4):
            applied = actuator.apply(
                [self.act("scale-up", target=eng.n_active() + 1)]
            )
            ver.register(applied, epoch=k)
        fb = ver.check(eng, epoch=4)
        assert fb.frozen_until_epoch == -1 and not ver.freezes
