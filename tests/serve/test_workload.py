"""Workload generators: determinism, rates, validation, trace replay."""

from __future__ import annotations

import math
from bisect import bisect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve.workload import (
    TenantSpec,
    _cuts,
    _walk,
    bursty_arrivals,
    diurnal_arrivals,
    diurnal_rate,
    parse_mix,
    poisson_arrivals,
    trace_arrivals,
)

ALEX = [TenantSpec("alexnet", "alexnet")]
MIXED = [
    TenantSpec("heavy", "alexnet", weight=3.0, slo_ms=100.0),
    TenantSpec("light", "nin", weight=1.0, slo_ms=400.0),
]


class TestPoisson:
    def test_same_seed_same_requests(self):
        a = poisson_arrivals(50, 5, MIXED, seed=7)
        b = poisson_arrivals(50, 5, MIXED, seed=7)
        assert a == b

    def test_different_seed_differs(self):
        a = poisson_arrivals(50, 5, ALEX, seed=1)
        b = poisson_arrivals(50, 5, ALEX, seed=2)
        assert a != b

    def test_mean_rate_approximate(self):
        reqs = poisson_arrivals(200, 20, ALEX, seed=0)
        assert 0.85 * 200 * 20 < len(reqs) < 1.15 * 200 * 20

    def test_sorted_and_within_duration(self):
        reqs = poisson_arrivals(100, 3, MIXED, seed=0)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert all(0 <= t < 3 for t in times)
        assert [r.rid for r in reqs] == list(range(len(reqs)))

    def test_weights_steer_the_mix(self):
        reqs = poisson_arrivals(300, 10, MIXED, seed=0)
        heavy = sum(1 for r in reqs if r.tenant == "heavy")
        light = len(reqs) - heavy
        assert heavy > 2 * light  # 3:1 weights

    def test_deadline_is_arrival_plus_slo(self):
        reqs = poisson_arrivals(50, 2, MIXED, seed=0)
        for r in reqs:
            slo = 100.0 if r.tenant == "heavy" else 400.0
            assert r.deadline_s == pytest.approx(r.arrival_s + slo / 1e3)

    @pytest.mark.parametrize("rate,duration", [(0, 5), (-1, 5), (10, 0), (10, -2)])
    def test_invalid_rate_duration(self, rate, duration):
        with pytest.raises(ConfigError):
            poisson_arrivals(rate, duration, ALEX, seed=0)

    def test_unknown_network_rejected(self):
        with pytest.raises(ConfigError, match="unknown network"):
            poisson_arrivals(10, 1, [TenantSpec("t", "resnet152")], seed=0)

    def test_empty_tenants_rejected(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            poisson_arrivals(10, 1, [], seed=0)

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            poisson_arrivals(10, 1, [ALEX[0], ALEX[0]], seed=0)


class TestBursty:
    def test_same_seed_same_requests(self):
        a = bursty_arrivals(80, 5, ALEX, seed=3)
        b = bursty_arrivals(80, 5, ALEX, seed=3)
        assert a == b

    def test_mean_rate_preserved(self):
        reqs = bursty_arrivals(100, 30, ALEX, seed=0)
        assert 0.85 * 100 * 30 < len(reqs) < 1.15 * 100 * 30

    def test_traffic_concentrates_in_bursts(self):
        reqs = bursty_arrivals(
            100, 20, ALEX, seed=0, burst_factor=4, burst_fraction=0.2, period_s=1.0
        )
        in_burst = sum(1 for r in reqs if (r.arrival_s % 1.0) < 0.2)
        # a uniform process would put ~20% here; 4x burst puts ~80%
        assert in_burst > 0.6 * len(reqs)

    def test_overfull_burst_rejected(self):
        with pytest.raises(ConfigError, match="burst_factor \\* burst_fraction"):
            bursty_arrivals(10, 1, ALEX, seed=0, burst_factor=10, burst_fraction=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burst_factor": 0.5},
            {"burst_fraction": 0.0},
            {"burst_fraction": 1.0},
            {"period_s": 0},
        ],
    )
    def test_invalid_shape_params(self, kwargs):
        with pytest.raises(ConfigError):
            bursty_arrivals(10, 1, ALEX, seed=0, **kwargs)


class TestDiurnal:
    def test_same_seed_same_requests(self):
        a = diurnal_arrivals(5, 40, 2, MIXED, seed=9, day_s=50.0, churn=0.3)
        b = diurnal_arrivals(5, 40, 2, MIXED, seed=9, day_s=50.0, churn=0.3)
        assert a == b

    def test_different_seed_differs(self):
        a = diurnal_arrivals(5, 40, 1, ALEX, seed=1, day_s=50.0)
        b = diurnal_arrivals(5, 40, 1, ALEX, seed=2, day_s=50.0)
        assert a != b

    def test_sorted_within_duration_and_rids_sequential(self):
        reqs = diurnal_arrivals(10, 30, 2, MIXED, seed=0, day_s=40.0)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert all(0 <= t < 80.0 for t in times)
        assert [r.rid for r in reqs] == list(range(len(reqs)))

    def test_mean_rate_tracks_the_sinusoid(self):
        # over whole days the sinusoid averages (base + peak) / 2
        base, peak, days, day_s = 20.0, 60.0, 4, 50.0
        reqs = diurnal_arrivals(base, peak, days, ALEX, seed=0, day_s=day_s)
        expected = 0.5 * (base + peak) * days * day_s
        assert 0.85 * expected < len(reqs) < 1.15 * expected

    def test_day_peaks_over_night_troughs(self):
        day_s = 60.0
        reqs = diurnal_arrivals(5, 50, 3, ALEX, seed=0, day_s=day_s)
        # mid-day quarter vs the midnight quarter of each cycle
        noon = sum(1 for r in reqs if 0.375 < (r.arrival_s / day_s) % 1.0 < 0.625)
        night = sum(
            1
            for r in reqs
            if (r.arrival_s / day_s) % 1.0 < 0.125
            or (r.arrival_s / day_s) % 1.0 > 0.875
        )
        assert noon > 3 * night

    def test_flash_crowd_concentrates_traffic(self):
        window = (20.0, 5.0, 4.0)
        with_flash = diurnal_arrivals(
            10, 10, 1, ALEX, seed=0, day_s=100.0, flash_crowds=[window]
        )
        inside = sum(1 for r in with_flash if 20.0 <= r.arrival_s < 25.0)
        # flat 10 rps day, so the 4x window should hold ~200/1150 arrivals
        assert inside > 2.5 * len(with_flash) * (5.0 / 100.0)

    def test_seeded_flash_count_is_deterministic(self):
        a = diurnal_arrivals(
            5, 20, 2, ALEX, seed=4, day_s=50.0, flash_per_day=2.0, flash_factor=3.0
        )
        b = diurnal_arrivals(
            5, 20, 2, ALEX, seed=4, day_s=50.0, flash_per_day=2.0, flash_factor=3.0
        )
        assert a == b

    def test_churn_rotates_the_mix(self):
        day_s = 80.0
        reqs = diurnal_arrivals(
            40, 40, 2, MIXED, seed=0, day_s=day_s, churn=0.9
        )
        # per-quarter-day heavy share should move when churn is strong
        shares = []
        for q in range(8):
            lo, hi = q * day_s / 4, (q + 1) * day_s / 4
            qs = [r for r in reqs if lo <= r.arrival_s < hi]
            if qs:
                shares.append(
                    sum(1 for r in qs if r.tenant == "heavy") / len(qs)
                )
        assert max(shares) - min(shares) > 0.1

    def test_rate_function_shape(self):
        assert diurnal_rate(0.0, 2.0, 10.0, 40.0) == pytest.approx(2.0)
        assert diurnal_rate(20.0, 2.0, 10.0, 40.0) == pytest.approx(10.0)
        assert diurnal_rate(
            5.0, 2.0, 10.0, 40.0, [(4.0, 2.0, 3.0), (4.5, 2.0, 2.0)]
        ) == pytest.approx(3.0 * diurnal_rate(5.0, 2.0, 10.0, 40.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0},
            {"peak_rate": 1.0},  # below base
            {"days": 0},
            {"day_s": 0},
            {"flash_per_day": -1},
            {"flash_factor": 0.5},
            {"churn": 1.0},
            {"churn": -0.1},
            {"flash_crowds": [(-1.0, 5.0, 2.0)]},
            {"flash_crowds": [(0.0, 0.0, 2.0)]},
            {"flash_crowds": [(0.0, 5.0, 0.5)]},
        ],
    )
    def test_invalid_params(self, kwargs):
        base = dict(base_rate=5, peak_rate=20, days=1, tenants=ALEX, seed=0)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            diurnal_arrivals(**base)


class TestTrace:
    def _write(self, tmp_path, text):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        return str(path)

    def test_replay_with_tenants(self, tmp_path):
        path = self._write(
            tmp_path, "# demo trace\n0.1,heavy\n0.5,light\n\n0.9,heavy\n"
        )
        reqs = trace_arrivals(path, MIXED, seed=0)
        assert [r.arrival_s for r in reqs] == [0.1, 0.5, 0.9]
        assert [r.tenant for r in reqs] == ["heavy", "light", "heavy"]

    def test_missing_tenant_assigned_deterministically(self, tmp_path):
        path = self._write(tmp_path, "0.1\n0.2\n0.3\n")
        a = trace_arrivals(path, MIXED, seed=5)
        b = trace_arrivals(path, MIXED, seed=5)
        assert a == b
        assert all(r.tenant in ("heavy", "light") for r in a)

    def test_duration_truncates(self, tmp_path):
        path = self._write(tmp_path, "0.1\n0.5\n2.5\n")
        reqs = trace_arrivals(path, ALEX, seed=0, duration_s=1.0)
        assert len(reqs) == 2

    def test_bad_time_rejected(self, tmp_path):
        path = self._write(tmp_path, "abc\n")
        with pytest.raises(ConfigError, match="bad arrival time"):
            trace_arrivals(path, ALEX, seed=0)

    def test_negative_time_rejected(self, tmp_path):
        path = self._write(tmp_path, "-0.5\n")
        with pytest.raises(ConfigError, match="negative arrival"):
            trace_arrivals(path, ALEX, seed=0)

    def test_unknown_tenant_rejected(self, tmp_path):
        path = self._write(tmp_path, "0.1,nobody\n")
        with pytest.raises(ConfigError, match="unknown tenant"):
            trace_arrivals(path, MIXED, seed=0)

    def test_decreasing_time_rejected_naming_entry(self, tmp_path):
        path = self._write(tmp_path, "0.1\n0.5\n0.3\n")
        with pytest.raises(
            ConfigError, match=r"decreasing arrival time 0\.3 after 0\.5 \(entry 2\)"
        ):
            trace_arrivals(path, ALEX, seed=0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, bad):
        path = self._write(tmp_path, f"0.1\n{bad}\n")
        with pytest.raises(ConfigError, match="non-finite arrival time"):
            trace_arrivals(path, ALEX, seed=0)

    def test_equal_timestamps_are_fine(self, tmp_path):
        path = self._write(tmp_path, "0.2\n0.2\n0.2\n")
        assert len(trace_arrivals(path, ALEX, seed=0)) == 3

    def test_error_names_the_line_number(self, tmp_path):
        path = self._write(tmp_path, "# header\n0.4\n\n0.1\n")
        with pytest.raises(ConfigError, match=r"trace\.txt:4"):
            trace_arrivals(path, ALEX, seed=0)


class TestMixParsing:
    def test_basic(self):
        tenants = parse_mix("alexnet:2,googlenet:1", slo_ms=50)
        assert [(t.name, t.weight, t.slo_ms) for t in tenants] == [
            ("alexnet", 2.0, 50),
            ("googlenet", 1.0, 50),
        ]

    def test_default_weight(self):
        (tenant,) = parse_mix("vgg")
        assert tenant.weight == 1.0

    def test_bad_weight(self):
        with pytest.raises(ConfigError, match="bad weight"):
            parse_mix("alexnet:heavy")

    def test_unknown_network(self):
        with pytest.raises(ConfigError, match="unknown network"):
            parse_mix("lenet")

    def test_invalid_tenant_params(self):
        with pytest.raises(ConfigError, match="weight must be positive"):
            TenantSpec("t", "alexnet", weight=0)
        with pytest.raises(ConfigError, match="slo_ms must be positive"):
            TenantSpec("t", "alexnet", slo_ms=0)


#: positive weights across the double range, and ordinary traffic shares
WEIGHT = st.one_of(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=1e-300, max_value=1e300),
)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(WEIGHT, min_size=1, max_size=6),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example(weights=[1.1098654996442376, 1.8117601157885834, 1.0], u=0.5)
def test_bisecting_the_cuts_is_the_walk(weights, u):
    """The generators draw a tenant by bisecting the walk's cuts: for
    every draw, at and one ulp either side of every cut, the index is the
    walk's, rounding of the in-turn subtractions included."""
    cuts = _cuts(weights)
    assert cuts == sorted(cuts) and len(cuts) == len(weights) - 1
    xs = [u * sum(weights), 2.921625615432821]
    for cut in cuts:
        xs += [cut, math.nextafter(cut, 0.0), math.nextafter(cut, math.inf)]
    for x in xs:
        assert bisect(cuts, x) == _walk(x, weights), x
