"""Batched-inference extension tests."""

import pytest

from repro.adaptive.batch import batch_layer, plan_batch
from repro.adaptive.planner import plan_network
from repro.errors import ConfigError


class TestBatchLayer:
    def test_batch1_is_identity(self, alexnet, cfg16):
        single = plan_network(alexnet, cfg16, "adaptive-2").layers[0]
        assert batch_layer(single, 1) is single

    def test_compute_scales_linearly(self, alexnet, cfg16):
        single = plan_network(alexnet, cfg16, "adaptive-2").layers[0]
        b4 = batch_layer(single, 4)
        assert b4.operations == 4 * single.operations
        assert b4.useful_macs == 4 * single.useful_macs

    def test_weight_dma_amortized(self, alexnet, cfg16):
        single = plan_network(alexnet, cfg16, "adaptive-2").layers[1]
        b8 = batch_layer(single, 8)
        assert b8.accesses["weight"].stores == single.accesses["weight"].stores
        assert b8.accesses["weight"].loads == 8 * single.accesses["weight"].loads
        saved = 7 * single.accesses["weight"].stores
        assert b8.dram_words == 8 * single.dram_words - saved

    def test_invalid_batch(self, alexnet, cfg16):
        single = plan_network(alexnet, cfg16, "adaptive-2").layers[0]
        with pytest.raises(ConfigError):
            batch_layer(single, 0)

    @pytest.mark.parametrize("bad", [True, False, 4.0, 2.5, "8", None])
    def test_non_int_batch_rejected(self, alexnet, cfg16, bad):
        single = plan_network(alexnet, cfg16, "adaptive-2").layers[0]
        with pytest.raises(ConfigError, match="must be a positive int"):
            batch_layer(single, bad)

    def test_error_names_the_offending_value(self, alexnet, cfg16):
        single = plan_network(alexnet, cfg16, "adaptive-2").layers[0]
        with pytest.raises(
            ConfigError, match=r"batch size must be a positive int, got 4\.0"
        ):
            batch_layer(single, 4.0)
        with pytest.raises(ConfigError, match="-3"):
            batch_layer(single, -3)


class TestPlanBatch:
    def test_batch1_matches_plan_network(self, alexnet, cfg16):
        single = plan_network(alexnet, cfg16, "adaptive-2", include_non_conv=True)
        batched = plan_batch(alexnet, cfg16, "adaptive-2", batch_size=1)
        assert batched.total_cycles == pytest.approx(single.total_cycles)

    def test_fc_amortization_improves_throughput(self, alexnet, cfg16):
        """Batch-1 AlexNet is FC-DMA-bound; batching must raise images/s."""
        b1 = plan_batch(alexnet, cfg16, batch_size=1)
        b16 = plan_batch(alexnet, cfg16, batch_size=16)
        assert b16.images_per_second() > 2.0 * b1.images_per_second()

    def test_throughput_saturates(self, alexnet, cfg16):
        """Once the weight streams are hidden, more batch buys ~nothing."""
        b64 = plan_batch(alexnet, cfg16, batch_size=64)
        b256 = plan_batch(alexnet, cfg16, batch_size=256)
        gain = b256.images_per_second() / b64.images_per_second()
        assert 1.0 <= gain < 1.15

    def test_conv_only_network_insensitive(self, nin, cfg16):
        """NiN has no FC layers: batching cannot help much."""
        b1 = plan_batch(nin, cfg16, batch_size=1)
        b16 = plan_batch(nin, cfg16, batch_size=16)
        gain = b16.images_per_second() / b1.images_per_second()
        assert gain < 1.4

    def test_latency_grows_with_batch(self, alexnet, cfg16):
        b1 = plan_batch(alexnet, cfg16, batch_size=1)
        b16 = plan_batch(alexnet, cfg16, batch_size=16)
        assert b16.latency_ms() > b1.latency_ms()

    @pytest.mark.parametrize("bad", [True, 16.0, "16", None, 2.5])
    def test_plan_batch_rejects_non_int(self, alexnet, cfg16, bad):
        with pytest.raises(ConfigError, match="must be a positive int"):
            plan_batch(alexnet, cfg16, batch_size=bad)

    def test_cycles_per_image_decreases(self, alexnet, cfg16):
        b1 = plan_batch(alexnet, cfg16, batch_size=1)
        b16 = plan_batch(alexnet, cfg16, batch_size=16)
        assert b16.cycles_per_image < b1.cycles_per_image

    def test_policy_tag(self, alexnet, cfg16):
        batched = plan_batch(alexnet, cfg16, "adaptive-2", batch_size=4)
        assert batched.run.policy == "adaptive-2@batch4"
