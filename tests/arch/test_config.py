"""Accelerator configuration tests (the paper's Table 3)."""

import math

import pytest

from repro.arch.config import (
    CONFIG_16_16,
    CONFIG_32_32,
    AcceleratorConfig,
    named_config,
)
from repro.errors import ConfigError


class TestTable3Defaults:
    def test_pe_widths(self):
        assert CONFIG_16_16.tin == 16 and CONFIG_16_16.tout == 16
        assert CONFIG_32_32.tin == 32 and CONFIG_32_32.tout == 32

    def test_multiplier_counts(self):
        """'16-16 ... thus the number of multipliers is 256'."""
        assert CONFIG_16_16.multipliers == 256
        assert CONFIG_32_32.multipliers == 1024

    def test_buffer_sizes(self):
        assert CONFIG_16_16.input_buffer_bytes == 2 * 1024 * 1024
        assert CONFIG_16_16.output_buffer_bytes == 2 * 1024 * 1024
        assert CONFIG_16_16.weight_buffer_bytes == 1 * 1024 * 1024
        assert CONFIG_16_16.bias_buffer_bytes == 4 * 1024

    def test_16bit_datapath(self):
        assert CONFIG_16_16.word_bytes == 2

    def test_buffer_words(self):
        assert CONFIG_16_16.input_buffer_words == 1024 * 1024
        assert CONFIG_16_16.weight_buffer_words == 512 * 1024

    def test_default_clock_1ghz(self):
        assert CONFIG_16_16.frequency_hz == 1e9


class TestDerivedHelpers:
    def test_name(self):
        assert CONFIG_16_16.name == "16-16"
        assert AcceleratorConfig(tin=16, tout=28).name == "16-28"

    def test_cycles_to_ms(self):
        assert CONFIG_16_16.cycles_to_ms(1e6) == pytest.approx(1.0)

    def test_with_pe_copies(self):
        cfg = CONFIG_16_16.with_pe(16, 24)
        assert cfg.tout == 24
        assert cfg.input_buffer_bytes == CONFIG_16_16.input_buffer_bytes
        assert CONFIG_16_16.tout == 16  # original untouched

    def test_with_frequency(self):
        cfg = CONFIG_16_16.with_frequency(100e6)
        assert cfg.cycles_to_ms(1e6) == pytest.approx(10.0)


class TestNamedConfig:
    def test_parse(self):
        cfg = named_config("16-28")
        assert (cfg.tin, cfg.tout) == (16, 28)

    @pytest.mark.parametrize("bad", ["16", "16-28-1", "a-b", ""])
    def test_bad_names(self, bad):
        with pytest.raises(ConfigError):
            named_config(bad)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tin=0),
            dict(tout=-1),
            dict(input_buffer_bytes=0),
            dict(word_bytes=0),
            dict(frequency_hz=0),
            dict(dram_words_per_cycle=0),
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ConfigError):
            AcceleratorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(tin=0), "tin must be positive, got 0"),
            (dict(tin=-4), "tin must be positive, got -4"),
            (dict(tout=-1), "tout must be positive, got -1"),
            (dict(frequency_hz=0), "frequency_hz must be positive, got 0"),
            (
                dict(frequency_hz=-1e9),
                "frequency_hz must be positive, got -1000000000.0",
            ),
            (
                dict(weight_buffer_bytes=-2),
                "weight_buffer_bytes must be positive, got -2",
            ),
            (dict(frequency_hz=math.nan), "frequency_hz must be a finite number, got nan"),
            (dict(frequency_hz=math.inf), "frequency_hz must be a finite number, got inf"),
            (
                dict(dram_words_per_cycle=math.nan),
                "dram_words_per_cycle must be a finite number, got nan",
            ),
            (dict(tin=True), "tin must be a finite number, got True"),
        ],
    )
    def test_message_names_the_bad_value(self, kwargs, fragment):
        """A rejected knob must say which knob and which value."""
        with pytest.raises(ConfigError) as excinfo:
            AcceleratorConfig(**kwargs)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "attr", ["input_buffer_bytes", "output_buffer_bytes", "weight_buffer_bytes"]
    )
    def test_data_buffer_holds_a_word(self, attr):
        """A buffer smaller than one word has zero words, and every fit
        divided by it (a ZeroDivisionError while planning)."""
        with pytest.raises(ConfigError) as excinfo:
            AcceleratorConfig(**{attr: 1})
        assert f"{attr} must hold at least one 2-byte word, got 1" in str(excinfo.value)
        with pytest.raises(ConfigError, match=f"{attr} .* got 3"):
            AcceleratorConfig(**{attr: 3, "word_bytes": 4})
        assert AcceleratorConfig(**{attr: 4, "word_bytes": 4}).word_bytes == 4

    def test_one_byte_bias_buffer_still_plans(self):
        from repro.adaptive.planner import plan_network
        from repro.nn.zoo import build

        run = plan_network(
            build("alexnet"), AcceleratorConfig(bias_buffer_bytes=1), "adaptive-2"
        )
        assert run.total_cycles > 0


class TestSerialization:
    def test_roundtrip(self):
        data = CONFIG_16_16.to_dict()
        assert AcceleratorConfig.from_dict(data) == CONFIG_16_16

    def test_dict_is_json_friendly(self):
        import json

        json.dumps(CONFIG_16_16.to_dict())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig.from_dict({"tin": 16, "cache_kb": 64})

    def test_unknown_key_named_in_error(self):
        """A typoed knob must be called out, never silently defaulted."""
        with pytest.raises(ConfigError, match="'cache_kb'"):
            AcceleratorConfig.from_dict({"tin": 16, "cache_kb": 64})

    def test_multiple_unknown_keys_all_named(self):
        with pytest.raises(ConfigError) as excinfo:
            AcceleratorConfig.from_dict({"bogus": 1, "also_bogus": 2})
        message = str(excinfo.value)
        assert "'also_bogus'" in message and "'bogus'" in message
        assert "valid keys" in message

    def test_from_dict_bad_value_names_it(self):
        with pytest.raises(ConfigError, match="tin must be positive, got -8"):
            AcceleratorConfig.from_dict({"tin": -8})
        with pytest.raises(
            ConfigError, match="frequency_hz must be positive, got 0"
        ):
            AcceleratorConfig.from_dict({"frequency_hz": 0})

    def test_partial_dict_uses_defaults(self):
        cfg = AcceleratorConfig.from_dict({"tin": 8, "tout": 8})
        assert cfg.multipliers == 64
        assert cfg.input_buffer_bytes == CONFIG_16_16.input_buffer_bytes
