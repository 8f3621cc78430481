"""Boundary behavior of the hysteresis bands and the oscillation guard."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16
from repro.serve.batcher import BatchCoster
from repro.serve.engine import AdaptiveServingEngine
from repro.control.actuator import AppliedAction
from repro.control.policy import Action, AutoscalePolicy, Planner
from repro.control.telemetry import WindowStats
from repro.control import verifier as verifier_module
from repro.control.verifier import FREEZE_EPOCHS, Verifier

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


def scale(kind, epoch):
    """A direction entry for the guard; clipped, so no expectation pends."""
    action = Action(kind=kind, epoch=epoch, time_s=2.0 * epoch, target=2,
                    reason="")
    return AppliedAction(action, clipped=True)


def engine():
    return AdaptiveServingEngine(CONFIG_16_16, replicas=2, coster=_COSTER)


class TestHysteresisBandEdges:
    """The bands are strict inequalities: sitting exactly ON a band edge
    must not trigger, one representable step past it must."""

    def test_p95_exactly_at_high_band_is_not_a_breach(self):
        assert planner().plan(window(slo_p95_frac=0.8)) == []

    def test_p95_just_above_high_band_scales_up(self):
        acts = planner().plan(
            window(slo_p95_frac=0.8000001, arrival_rate_rps=50.0)
        )
        assert [a.kind for a in acts] == ["scale-up"]
        assert acts[0].target > 2

    def test_p95_exactly_at_low_band_is_not_calm(self):
        acts = planner().plan(window(epoch=5, slo_p95_frac=0.35))
        assert acts == []

    def test_p95_just_below_low_band_scales_down(self):
        acts = planner().plan(window(epoch=5, slo_p95_frac=0.3499999))
        assert [a.kind for a in acts] == ["scale-down"]

    def test_utilization_exactly_at_low_util_blocks_scale_down(self):
        assert planner().plan(
            window(epoch=5, slo_p95_frac=0.2, utilization=0.5)
        ) == []

    def test_queue_exactly_at_backlog_threshold_is_not_a_breach(self):
        # QUEUE_HI=32 per active replica; 64 queued on 2 replicas is the edge
        assert planner().plan(window(queue_depth=64)) == []
        acts = planner().plan(window(queue_depth=65, arrival_rate_rps=50.0))
        assert [a.kind for a in acts] == ["scale-up"]


class TestOscillationWindowEdge:
    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        monkeypatch.setattr(verifier_module, "MAX_FLIPS", 1)
        monkeypatch.setattr(verifier_module, "OSCILLATION_WINDOW", 4)

    def flip_pair(self):
        verifier = Verifier()
        verifier.register([scale("scale-up", 0)], 0)
        verifier.register([scale("scale-down", 1)], 1)
        return verifier

    def test_flip_inside_window_trips_the_guard(self):
        verifier = self.flip_pair()
        feedback = verifier.check(engine(), 3)
        assert verifier.freezes == [
            {"epoch": 3, "until_epoch": 3 + FREEZE_EPOCHS, "flips": 1}
        ]
        assert feedback.frozen_until_epoch == 3 + FREEZE_EPOCHS

    def test_flip_exactly_at_window_edge_is_excluded(self):
        # window_start = epoch - oscillation_window = 0: the scale-up at
        # epoch 0 sits exactly on the edge and must NOT count (strict >)
        verifier = self.flip_pair()
        feedback = verifier.check(engine(), 4)
        assert verifier.freezes == []
        assert feedback.frozen_until_epoch == -1

    def test_repairs_never_feed_the_guard(self):
        verifier = Verifier()
        verifier.register([scale("replace", 0)], 0)
        verifier.register([scale("rollback", 1)], 1)
        assert verifier.check(engine(), 3).frozen_until_epoch == -1


class TestGuardRelease:
    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        monkeypatch.setattr(verifier_module, "MAX_FLIPS", 1)
        monkeypatch.setattr(verifier_module, "OSCILLATION_WINDOW", 10)
        monkeypatch.setattr(verifier_module, "FREEZE_EPOCHS", 2)

    def test_no_refreeze_inside_the_freeze_window(self):
        verifier = Verifier()
        verifier.register([scale("scale-up", 0)], 0)
        verifier.register([scale("scale-down", 1)], 1)
        assert verifier.check(engine(), 2).frozen_until_epoch == 4
        # flips persist, but the guard only re-arms once epoch > frozen_until
        assert verifier.check(engine(), 3).frozen_until_epoch == 4
        assert verifier.check(engine(), 4).frozen_until_epoch == 4
        assert len(verifier.freezes) == 1

    def test_rearms_after_the_freeze_window_expires(self):
        verifier = Verifier()
        verifier.register([scale("scale-up", 0)], 0)
        verifier.register([scale("scale-down", 1)], 1)
        verifier.check(engine(), 2)
        feedback = verifier.check(engine(), 5)  # 5 > 4: guard re-armed
        assert feedback.frozen_until_epoch == 7
        assert [f["epoch"] for f in verifier.freezes] == [2, 5]

    def test_planner_resumes_after_release(self):
        verifier = Verifier()
        verifier.register([scale("scale-up", 0)], 0)
        verifier.register([scale("scale-down", 1)], 1)
        feedback = verifier.check(engine(), 2)
        breach = dict(slo_p95_frac=0.95, arrival_rate_rps=50.0)
        p = planner()
        assert p.plan(window(epoch=4, **breach), feedback) == []  # frozen
        acts = p.plan(window(epoch=5, **breach), feedback)  # 5 > 4: released
        assert [a.kind for a in acts] == ["scale-up"]
