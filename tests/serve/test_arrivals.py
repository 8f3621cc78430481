"""The columnar request stream: rows, codes, ids and its Request views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import CONFIG_16_16
from repro.serve.engine import AdaptiveServingEngine
from repro.serve.workload import (
    Arrivals,
    Request,
    TenantSpec,
    mixed_arrivals,
    parse_tenant_mix,
    poisson_arrivals,
)

MIXED = [
    TenantSpec("heavy", "alexnet", weight=3.0, slo_ms=100.0),
    TenantSpec("light", "nin", weight=1.0, slo_ms=400.0),
]


def stream(rate=200.0, duration=2.0, seed=0):
    return poisson_arrivals(rate, duration, MIXED, seed=seed)


class TestColumns:
    def test_eighteen_bytes_a_row(self):
        s = stream()
        columns = (s.arrival, s.deadline, s.tenant, s.network)
        assert sum(c.itemsize for c in columns) == 18
        assert [c.dtype for c in columns] == [np.float64, np.float64, np.int8, np.int8]

    def test_codes_index_the_name_tuples(self):
        s = stream()
        assert s.tenants == ("heavy", "light")
        assert s.networks == ("alexnet", "nin")
        pinned = {"heavy": "alexnet", "light": "nin"}
        assert all(request.network == pinned[request.tenant] for request in s)

    def test_generated_row_is_rid(self):
        s = stream()
        assert s.rid is None
        assert [r.rid for r in s] == list(range(len(s)))
        assert s.rids().tolist() == list(range(len(s)))

    def test_mixed_networks_in_first_seen_order(self):
        tenants = parse_tenant_mix("a=vgg:1/alexnet:2,b=alexnet/nin")
        s = mixed_arrivals(100.0, 2.0, tenants, seed=1)
        assert s.networks == ("vgg", "alexnet", "nin")
        assert {r.network for r in s if r.tenant == "b"} <= {"alexnet", "nin"}


class TestViews:
    def test_index_and_negative_index(self):
        s = stream()
        records = list(s)
        assert s[0] == records[0]
        assert s[-1] == records[-1]
        assert isinstance(s[3], Request)
        with pytest.raises(IndexError):
            s[len(s)]

    def test_slice_keeps_ids(self):
        s = stream()
        part = s[5:9]
        assert isinstance(part, Arrivals)
        assert list(part) == list(s)[5:9]
        assert [r.rid for r in part] == [5, 6, 7, 8]
        assert s[:3].rid is None  # a prefix is still row == rid

    def test_iteration_spans_chunks(self):
        s = poisson_arrivals(3000.0, 3.0, MIXED, seed=2)
        assert len(s) > 8192
        assert list(s) == [s[k] for k in range(len(s))]

    def test_equality(self):
        assert stream(seed=3) == stream(seed=3)
        assert stream(seed=3) == list(stream(seed=3))
        assert stream(seed=3) != stream(seed=4)
        assert stream(seed=3) != list(stream(seed=3))[:-1]


class TestFromRequests:
    def test_sorts_by_arrival_then_rid_and_keeps_ids(self):
        requests = [
            Request(7, "a", "alexnet", 0.2, 0.3),
            Request(9, "b", "nin", 0.1, 0.5),
            Request(3, "a", "alexnet", 0.2, 0.4),
        ]
        s = Arrivals.from_requests(requests)
        assert [r.rid for r in s] == [9, 3, 7]
        assert list(s) == sorted(requests, key=lambda r: (r.arrival_s, r.rid))

    def test_in_order_stream_is_shared(self):
        s = stream()
        assert Arrivals.from_requests(s) is s
        engine = AdaptiveServingEngine(CONFIG_16_16)
        engine.ingest(s)
        assert engine.metrics.stream is s

    def test_out_of_order_stream_is_sorted(self):
        s = stream()
        backwards = s.take(np.arange(len(s))[::-1])
        assert Arrivals.from_requests(backwards) == s

    def test_empty(self):
        s = Arrivals.from_requests([])
        assert len(s) == 0 and list(s) == [] and s == []


class TestConcat:
    def test_unifies_names_and_keeps_ids(self):
        first = Arrivals.from_requests([Request(4, "a", "nin", 0.0, 1.0)])
        second = Arrivals.from_requests(
            [Request(2, "b", "alexnet", 1.0, 2.0), Request(8, "a", "vgg", 1.5, 2.0)]
        )
        both = first.concat(second)
        assert both.tenants == ("a", "b")
        assert both.networks == ("nin", "alexnet", "vgg")
        assert list(both) == list(first) + list(second)

    def test_generated_streams_get_their_own_ids(self):
        s = stream()
        twice = s.concat(s)
        assert [r.rid for r in twice] == list(range(len(s))) * 2
