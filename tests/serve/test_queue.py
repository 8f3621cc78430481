"""Admission queue: bounds, ordering disciplines, shedding semantics."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.serve.queue import (
    SHED_EXPIRED,
    SHED_MAX_AGE,
    SHED_QUEUE_FULL,
    AdmissionQueue,
    QueuePolicy,
)
from repro.serve.workload import Request


def req(rid, arrival=0.0, slo=0.25, network="alexnet", tenant="t"):
    return Request(
        rid=rid,
        tenant=tenant,
        network=network,
        arrival_s=arrival,
        deadline_s=arrival + slo,
    )


class TestPolicyValidation:
    def test_bad_depth(self):
        for bad in (0, True, 2.5):
            with pytest.raises(ConfigError, match=f"max_depth .* got {bad!r}"):
                QueuePolicy(max_depth=bad)

    def test_bad_order(self):
        with pytest.raises(ConfigError, match="queue order"):
            QueuePolicy(order="lifo")

    def test_bad_age(self):
        for bad in (-1, math.nan, math.inf, True):
            with pytest.raises(ConfigError, match=f"max_age_s .* got {bad!r}"):
                QueuePolicy(max_age_s=bad)
        assert QueuePolicy(max_age_s=None).max_age_s is None


class TestAdmission:
    def test_bounded_depth_sheds(self):
        q = AdmissionQueue(QueuePolicy(max_depth=2))
        assert q.offer(req(0), 0.0) is None
        assert q.offer(req(1), 0.0) is None
        shed = q.offer(req(2), 0.0)
        assert shed is not None and shed.reason == SHED_QUEUE_FULL
        assert len(q) == 2

    def test_depth_frees_after_pop(self):
        q = AdmissionQueue(QueuePolicy(max_depth=1))
        q.offer(req(0), 0.0)
        q.pop_batch("alexnet", 1, 0.0)
        assert q.offer(req(1), 0.0) is None

    def test_groups_by_network(self):
        q = AdmissionQueue()
        q.offer(req(0, network="alexnet"), 0.0)
        q.offer(req(1, network="vgg"), 0.0)
        q.offer(req(2, network="alexnet"), 0.0)
        assert q.networks() == ["alexnet", "vgg"]
        assert q.depth("alexnet") == 2
        assert q.depth("vgg") == 1
        assert q.depth() == 3


class TestOrdering:
    def test_fifo_serves_arrival_order(self):
        q = AdmissionQueue(QueuePolicy(order="fifo"))
        q.offer(req(0, arrival=0.2, slo=0.1), 0.2)
        q.offer(req(1, arrival=0.1, slo=9.0), 0.2)
        batch, _ = q.pop_batch("alexnet", 1, 0.2)
        assert batch[0].rid == 1  # earliest arrival, despite later deadline

    def test_edf_serves_most_urgent_first(self):
        q = AdmissionQueue(QueuePolicy(order="edf"))
        q.offer(req(0, arrival=0.0, slo=9.0), 0.0)
        q.offer(req(1, arrival=0.1, slo=0.05), 0.1)
        batch, _ = q.pop_batch("alexnet", 1, 0.1)
        assert batch[0].rid == 1  # later arrival but earlier deadline

    def test_oldest_arrival(self):
        q = AdmissionQueue()
        q.offer(req(0, arrival=0.3), 0.3)
        q.offer(req(1, arrival=0.1), 0.3)
        assert q.oldest_arrival("alexnet") == 0.1


class TestShedding:
    def test_max_age_sheds_stale_head(self):
        q = AdmissionQueue(QueuePolicy(max_age_s=0.1))
        q.offer(req(0, arrival=0.0), 0.0)
        q.offer(req(1, arrival=0.45), 0.45)
        batch, shed = q.pop_batch("alexnet", 4, 0.5)
        assert [e.request.rid for e in shed] == [0]
        assert shed[0].reason == SHED_MAX_AGE
        assert [r.rid for r in batch] == [1]
        assert len(q) == 0

    def test_expired_shed_when_enabled(self):
        q = AdmissionQueue(QueuePolicy(shed_expired=True))
        q.offer(req(0, arrival=0.0, slo=0.1), 0.0)
        batch, shed = q.pop_batch("alexnet", 4, 0.5)
        assert batch == []
        assert shed[0].reason == SHED_EXPIRED

    def test_expired_served_by_default(self):
        q = AdmissionQueue(QueuePolicy())
        q.offer(req(0, arrival=0.0, slo=0.1), 0.0)
        batch, shed = q.pop_batch("alexnet", 4, 0.5)
        assert [r.rid for r in batch] == [0]
        assert shed == []

    def test_stale_head_does_not_starve_fresh_tail(self):
        q = AdmissionQueue(QueuePolicy(max_age_s=0.1))
        for rid in range(3):
            q.offer(req(rid, arrival=0.0), 0.0)
        q.offer(req(3, arrival=0.95), 0.95)
        batch, shed = q.pop_batch("alexnet", 2, 1.0)
        assert [r.rid for r in batch] == [3]
        assert len(shed) == 3


class TestPopBatch:
    def test_respects_max_batch(self):
        q = AdmissionQueue()
        for rid in range(5):
            q.offer(req(rid), 0.0)
        batch, _ = q.pop_batch("alexnet", 3, 0.0)
        assert [r.rid for r in batch] == [0, 1, 2]
        assert q.depth("alexnet") == 2

    def test_empty_group(self):
        q = AdmissionQueue()
        batch, shed = q.pop_batch("alexnet", 4, 0.0)
        assert batch == [] and shed == []


class TestHeapOrder:
    def test_edf_oldest_arrival_after_oldest_popped_first(self):
        q = AdmissionQueue(QueuePolicy(order="edf"))
        q.offer(req(0, arrival=0.0, slo=0.05), 0.0)  # oldest and most urgent
        q.offer(req(1, arrival=0.1, slo=0.5), 0.1)
        q.offer(req(2, arrival=0.2, slo=0.3), 0.2)
        batch, _ = q.pop_batch("alexnet", 1, 0.2)
        assert [r.rid for r in batch] == [0]
        assert q.oldest_arrival("alexnet") == 0.1
        batch, _ = q.pop_batch("alexnet", 1, 0.2)
        assert [r.rid for r in batch] == [2]  # deadline 0.5 beats 0.6
        assert q.oldest_arrival("alexnet") == 0.1

    def test_reoffered_request_keeps_its_arrival(self):
        q = AdmissionQueue()
        q.offer(req(0, arrival=0.1), 0.1)
        q.offer(req(1, arrival=0.2), 0.2)
        (first,), _ = q.pop_batch("alexnet", 1, 0.3)
        assert q.oldest_arrival("alexnet") == 0.2
        assert q.offer(first, 0.5) is None  # a retry, offered late
        assert q.oldest_arrival("alexnet") == 0.1
        batch, _ = q.pop_batch("alexnet", 2, 0.5)
        assert [r.rid for r in batch] == [0, 1]

    def test_identical_arrival_and_deadline_pop_in_rid_order(self):
        for order in ("fifo", "edf"):
            q = AdmissionQueue(QueuePolicy(order=order))
            q.offer(req(7, arrival=0.1), 0.1)
            q.offer(req(3, arrival=0.1), 0.1)
            batch, _ = q.pop_batch("alexnet", 1, 0.1)
            assert [r.rid for r in batch] == [3], order
            batch, _ = q.pop_batch("alexnet", 1, 0.1)
            assert [r.rid for r in batch] == [7], order

    def test_edf_arrival_heap_stays_bounded(self):
        q = AdmissionQueue(QueuePolicy(order="edf"))
        q.offer(req(0, arrival=0.0, slo=100.0), 0.0)  # queued throughout
        for rid in range(1, 100):
            t = rid * 0.01
            q.offer(req(rid, arrival=t, slo=0.01), t)
            batch, _ = q.pop_batch("alexnet", 1, t)
            assert [r.rid for r in batch] == [rid]
            assert q.oldest_arrival("alexnet") == 0.0
            # popped entries are compacted away, not kept behind the head
            assert len(q._arrivals["alexnet"]) <= 2 * q.depth("alexnet")
