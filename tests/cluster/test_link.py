"""Inter-chip link model tests."""

import math

import pytest

from repro.cluster.link import LinkSpec, activation_bytes
from repro.errors import ConfigError
from repro.nn.layers import TensorShape


class TestTransfer:
    def test_bandwidth_plus_latency(self):
        link = LinkSpec(bandwidth_gbs=10.0, latency_s=1e-6)
        # 10 GB/s = 1e10 B/s -> 1e7 bytes take 1 ms, plus the 1 us hop
        assert link.transfer_seconds(10_000_000) == pytest.approx(1e-3 + 1e-6)

    def test_zero_bytes_is_free(self):
        link = LinkSpec(bandwidth_gbs=10.0, latency_s=5e-6)
        assert link.transfer_seconds(0) == 0.0

    def test_infinite_bandwidth_costs_latency_only(self):
        link = LinkSpec(bandwidth_gbs=math.inf, latency_s=2e-6)
        assert link.transfer_seconds(10**12) == 2e-6

    def test_free_link_costs_nothing(self):
        link = LinkSpec(bandwidth_gbs=math.inf, latency_s=0.0)
        assert link.transfer_seconds(10**12) == 0.0

    def test_latency_dominates_small_messages(self):
        link = LinkSpec(bandwidth_gbs=25.0, latency_s=1e-6)
        small = link.transfer_seconds(100)
        assert small == pytest.approx(1e-6, rel=1e-2)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigError, match="transfer size"):
            LinkSpec().transfer_seconds(-1)


class TestValidation:
    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            LinkSpec(bandwidth_gbs=0.0)
        with pytest.raises(ConfigError, match="bandwidth"):
            LinkSpec(bandwidth_gbs=-1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError, match="latency"):
            LinkSpec(latency_s=-1e-9)

    def test_describe_names_both_knobs(self):
        assert LinkSpec(25.0, 1e-6).describe() == "link(25 GB/s, 1 us)"
        assert "inf" in LinkSpec(math.inf, 0.0).describe()


class TestActivationBytes:
    def test_counts_elements_times_word(self):
        shape = TensorShape(16, 8, 8)
        assert activation_bytes(shape, 2) == 16 * 8 * 8 * 2

    def test_rejects_bad_word_width(self):
        with pytest.raises(ConfigError, match="word_bytes"):
            activation_bytes(TensorShape(1, 1, 1), 0)


class TestNaNRejection:
    def test_nan_bandwidth_rejected(self):
        with pytest.raises(
            ConfigError, match="link bandwidth must be positive, got nan"
        ):
            LinkSpec(bandwidth_gbs=math.nan)

    def test_nan_latency_rejected(self):
        with pytest.raises(ConfigError, match="latency"):
            LinkSpec(latency_s=math.nan)

    def test_infinite_latency_rejected(self):
        with pytest.raises(ConfigError, match="latency"):
            LinkSpec(latency_s=math.inf)


class TestDegraded:
    def test_divides_bandwidth_and_multiplies_latency(self):
        link = LinkSpec(bandwidth_gbs=20.0, latency_s=2e-6)
        worse = link.degraded(4.0)
        assert worse.bandwidth_gbs == pytest.approx(5.0)
        assert worse.latency_s == pytest.approx(8e-6)

    def test_factor_one_is_equivalent(self):
        link = LinkSpec(bandwidth_gbs=10.0, latency_s=1e-6)
        assert link.degraded(1.0) == link

    def test_infinite_bandwidth_stays_infinite(self):
        worse = LinkSpec(bandwidth_gbs=math.inf, latency_s=1e-6).degraded(4.0)
        assert math.isinf(worse.bandwidth_gbs)
        assert worse.latency_s == pytest.approx(4e-6)

    def test_transfers_cost_strictly_more(self):
        link = LinkSpec(bandwidth_gbs=10.0, latency_s=1e-6)
        assert link.degraded(2.0).transfer_seconds(10**6) > link.transfer_seconds(10**6)

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan, math.inf])
    def test_bad_factor_rejected(self, bad):
        with pytest.raises(ConfigError, match="factor"):
            LinkSpec().degraded(bad)
