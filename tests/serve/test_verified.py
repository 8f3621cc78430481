"""Verified inference: SDC windows, detection accounting, replica draining."""

from __future__ import annotations

import math

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster
from repro.serve.engine import ServingEngine
from repro.serve.failover import FailoverPolicy
from repro.serve.verified import SDCFault, VerificationPolicy, VerifiedReplica
from repro.serve.workload import TenantSpec, poisson_arrivals

ALEX = [TenantSpec("alexnet", "alexnet")]

_COSTER = BatchCoster(CONFIG_16_16)


def engine(**kwargs):
    kwargs.setdefault("coster", _COSTER)
    kwargs.setdefault("failover_policy", FailoverPolicy())
    return ServingEngine(CONFIG_16_16, **kwargs)


def requests(rate=100, duration=3, seed=0):
    return poisson_arrivals(rate, duration, ALEX, seed=seed)


#: an SDC window covering the middle of a 3 s run on replica 1
STORM = SDCFault(replica=1, time_s=0.5, duration_s=2.0, per_batch=1.0, seed=0)


class TestSDCFault:
    def test_window(self):
        fault = SDCFault(replica=0, time_s=1.0, duration_s=0.5)
        assert fault.end_s == 1.5
        assert fault.active_at(1.0)
        assert fault.active_at(1.49)
        assert not fault.active_at(1.5)
        assert not fault.active_at(0.99)

    @pytest.mark.parametrize("bad", [-1, True, 1.5])
    def test_bad_replica(self, bad):
        with pytest.raises(ConfigError, match="replica"):
            SDCFault(replica=bad, time_s=0.0, duration_s=1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_duration(self, bad):
        with pytest.raises(ConfigError, match="duration"):
            SDCFault(replica=0, time_s=0.0, duration_s=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.1, math.nan])
    def test_bad_per_batch(self, bad):
        with pytest.raises(ConfigError, match="per-batch"):
            SDCFault(replica=0, time_s=0.0, duration_s=1.0, per_batch=bad)

    def test_to_dict_uses_ms(self):
        d = SDCFault(replica=2, time_s=1.5, duration_s=0.25, seed=9).to_dict()
        assert d == {
            "replica": 2,
            "time_ms": 1500.0,
            "duration_ms": 250.0,
            "per_batch": 1.0,
            "seed": 9,
        }


class TestVerificationPolicy:
    def test_defaults_valid(self):
        policy = VerificationPolicy()
        assert policy.enabled
        assert "overhead=1.08x" in policy.describe()

    def test_disabled_describe(self):
        assert VerificationPolicy(enabled=False).describe() == "verification(off)"


class TestVerifiedReplica:
    def test_drained_state(self):
        rep = VerifiedReplica(rid=1)
        assert not rep.drained
        rep.drained_at = 1.25
        assert rep.drained
        assert rep.detail()["drained_ms"] == 1250.0

    def test_detail_keys(self):
        detail = VerifiedReplica(rid=0).detail()
        assert detail["checked_batches"] == 0
        assert detail["drained_ms"] is None


class TestEngineIntegration:
    def test_sdc_replica_out_of_range(self):
        with pytest.raises(ConfigError, match="replica 3"):
            engine(replicas=3, sdc_faults=[SDCFault(replica=3, time_s=0, duration_s=1)])

    def test_no_integrity_section_without_sdc_or_policy(self):
        summary = engine(replicas=2).run(requests(), 3.0).summary
        assert "integrity" not in summary

    def test_detection_drains_the_corrupting_replica(self):
        summary = engine(
            replicas=3,
            sdc_faults=[STORM],
            verification=VerificationPolicy(),
        ).run(requests(), 3.0).summary
        integrity = summary["integrity"]
        assert integrity["corrupted_batches"] > 0
        assert integrity["detected"] == integrity["corrupted_batches"]
        assert integrity["corrected"] == integrity["detected"]
        assert integrity["escaped_batches"] == 0
        assert integrity["drained_replicas"] == [1]
        assert integrity["detection_rate"] == 1.0

    def test_unverified_tier_escapes_everything(self):
        summary = engine(replicas=3, sdc_faults=[STORM]).run(requests(), 3.0).summary
        integrity = summary["integrity"]
        assert integrity["detected"] == 0
        assert integrity["escaped_batches"] == integrity["corrupted_batches"] > 0
        assert integrity["escaped_requests"] >= integrity["escaped_batches"]
        assert integrity["drained_replicas"] == []

    def test_verification_off_policy_also_escapes(self):
        summary = engine(
            replicas=3,
            sdc_faults=[STORM],
            verification=VerificationPolicy(enabled=False),
        ).run(requests(), 3.0).summary
        integrity = summary["integrity"]
        assert integrity["detected"] == 0
        assert integrity["escaped_batches"] > 0

    def test_checking_inflates_service_times(self):
        plain = engine(replicas=2).run(requests(), 3.0).summary
        checked = engine(
            replicas=2, verification=VerificationPolicy()
        ).run(requests(), 3.0).summary
        assert checked["latency_ms"]["mean"] > plain["latency_ms"]["mean"]
        assert checked["integrity"]["checked_batches"] > 0
        assert checked["integrity"]["corrupted_batches"] == 0

    def test_deterministic_reruns(self):
        def run():
            return engine(
                replicas=3, sdc_faults=[STORM], verification=VerificationPolicy()
            ).run(requests(), 3.0).to_json()

        assert run() == run()

    def test_per_replica_details_cover_all_replicas(self):
        summary = engine(
            replicas=3, sdc_faults=[STORM], verification=VerificationPolicy()
        ).run(requests(), 3.0).summary
        per = summary["integrity"]["per_replica"]
        assert [d["rid"] for d in per] == [0, 1, 2]
        assert per[0]["corrupted_batches"] == 0
        assert per[1]["corrupted_batches"] > 0
