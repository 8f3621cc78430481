"""Percentile math, summary reduction, and byte-stable JSON export."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.metrics import (
    MetricsCollector,
    RequestRecord,
    _sum,
    percentile,
    to_json,
)
from repro.serve.workload import Arrivals, Request


def rec(rid, arrival, start, finish, deadline, tenant="t", network="alexnet", batch=1):
    return RequestRecord(
        rid=rid,
        tenant=tenant,
        network=network,
        arrival_s=arrival,
        start_s=start,
        finish_s=finish,
        deadline_s=deadline,
        batch_size=batch,
        replica=0,
    )


def _row(m, request):
    """Append ``request`` to ``m``'s stream, as an engine ingests it; its row."""
    m.stream = m.stream.concat(Arrivals.from_requests([request]))
    return len(m.stream) - 1


def serve(m, rid, arrival, start, finish, deadline, tenant="t", network="alexnet"):
    """Log one request as its own batch, run on replica 0."""
    row = _row(m, Request(rid, tenant, network, arrival, deadline))
    m.record_served([row], start, finish, replica=0, network=network)


def shed(m, tenant, reason):
    """Log one request of ``tenant`` shed for ``reason``."""
    m.record_shed(_row(m, Request(-1, tenant, "alexnet", 0.0, 0.0)), reason)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_single(self):
        assert percentile([7.0], 99) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_order_independent(self):
        assert percentile([3, 1, 2], 50) == percentile([1, 2, 3], 50)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRequestRecord:
    def test_derived_times(self):
        r = rec(0, arrival=1.0, start=1.2, finish=1.5, deadline=1.6)
        assert r.queue_wait_s == pytest.approx(0.2)
        assert r.service_s == pytest.approx(0.3)
        assert r.latency_s == pytest.approx(0.5)
        assert r.met_deadline

    def test_missed_deadline(self):
        r = rec(0, arrival=1.0, start=1.2, finish=1.7, deadline=1.6)
        assert not r.met_deadline


class TestSummary:
    def _collector(self):
        m = MetricsCollector()
        # two tenants, one missed deadline, one shed
        serve(m, 0, 0.0, 0.1, 0.2, 0.5, tenant="a")
        serve(m, 1, 0.0, 0.3, 0.9, 0.5, tenant="a")
        serve(m, 2, 0.5, 0.5, 0.6, 1.0, tenant="b", network="nin")
        shed(m, "a", "queue_full")
        return m

    def test_counts_and_rates(self):
        s = self._collector().summary(duration_s=1.0, replicas=1, busy_s=0.7)
        assert s["offered"] == 4
        assert s["completed"] == 3
        assert s["shed"] == 1
        assert s["shed_rate"] == pytest.approx(0.25)
        assert s["deadline_met"] == 2
        assert s["goodput_rps"] == pytest.approx(2.0)
        assert s["throughput_rps"] == pytest.approx(3.0)
        assert s["shed_by_reason"] == {"queue_full": 1}

    def test_per_tenant_split(self):
        s = self._collector().summary(duration_s=1.0, replicas=1, busy_s=0.7)
        assert set(s["per_tenant"]) == {"a", "b"}
        assert s["per_tenant"]["a"]["offered"] == 3
        assert s["per_tenant"]["a"]["shed"] == 1
        assert s["per_tenant"]["b"]["completed"] == 1
        assert set(s["per_network"]) == {"alexnet", "nin"}

    def test_utilization_uses_makespan(self):
        s = self._collector().summary(duration_s=0.5, replicas=2, busy_s=0.9)
        # makespan = last finish (0.9) > duration (0.5)
        assert s["makespan_s"] == pytest.approx(0.9)
        assert s["utilization"] == pytest.approx(0.9 / (2 * 0.9))

    def test_queue_wait_fraction(self):
        s = self._collector().summary(duration_s=1.0, replicas=1, busy_s=0.7)
        wait = 0.1 + 0.3 + 0.0
        service = 0.1 + 0.6 + 0.1
        assert s["queue_wait_fraction"] == pytest.approx(
            wait / (wait + service), abs=1e-6
        )

    def test_empty_collector(self):
        s = MetricsCollector().summary(duration_s=1.0, replicas=1, busy_s=0.0)
        assert s["offered"] == 0
        assert s["latency_ms"]["p95"] == 0.0
        assert s["utilization"] == 0.0


class TestJson:
    def test_round_trips(self):
        m = MetricsCollector()
        serve(m, 0, 0.0, 0.1, 0.2, 0.5)
        text = to_json(m.summary(1.0, 1, 0.1))
        assert text.endswith("\n")
        assert json.loads(text)["completed"] == 1

    def test_byte_stable(self):
        def build():
            m = MetricsCollector()
            serve(m, 0, 0.0, 0.1, 0.2, 0.5)
            shed(m, "t", "max_age")
            return to_json(m.summary(1.0, 1, 0.1))

        assert build() == build()


MAGNITUDES = st.floats(min_value=1e-3, max_value=1e3)


class TestSum:
    """The summary's sums add in completion order, left to right from
    0.0, as Python 3.11's builtin ``sum`` does (3.12's compensates)."""

    @settings(max_examples=60, deadline=None)
    @given(
        head=st.lists(
            st.one_of(
                MAGNITUDES, MAGNITUDES.map(lambda x: -x), st.sampled_from((0.0, -0.0))
            ),
            max_size=24,
        ),
        tail=st.sampled_from((0, 1, 2, 65_535, 65_536, 65_537, 150_001)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(head=[], tail=0, seed=0)
    @example(head=[-0.0], tail=0, seed=0)  # 0.0 + -0.0 is 0.0
    @example(head=[-0.0, -0.0], tail=0, seed=0)
    @example(head=[2.5], tail=0, seed=0)
    def test_adds_left_to_right(self, head, tail, seed):
        rng = np.random.default_rng(seed)
        spread = rng.choice((-1.0, 1.0), tail) * 10.0 ** rng.uniform(-3, 3, tail)
        values = np.concatenate([np.array(head, dtype=np.float64), spread])
        want = 0.0
        for value in values.tolist():
            want += value
        got = _sum(values)
        assert type(got) is float
        assert got.hex() == want.hex()

