"""Buffer model tests: capacities and access accounting."""

import pytest

from repro.arch.buffers import AccessCounter, Buffer, BufferSet
from repro.arch.config import CONFIG_16_16
from repro.errors import CapacityError, ConfigError


class TestAccessCounter:
    def test_total(self):
        c = AccessCounter(loads=3, stores=2)
        assert c.total == 5


class TestBuffer:
    def test_fits(self):
        b = Buffer("b", capacity_words=100)
        assert b.fits(100)
        assert not b.fits(101)

    def test_require_raises(self):
        b = Buffer("b", capacity_words=10)
        b.require(10)
        with pytest.raises(CapacityError):
            b.require(11)

    def test_load_store_counting(self):
        b = Buffer("b", capacity_words=10)
        b.load(5)
        before = b.counter
        b.store(3)
        b.load(2)
        assert b.counter.loads == 7
        assert b.counter.stores == 3
        # counting replaces the counter; a counter already handed out stays
        assert before == AccessCounter(5, 0)

    def test_negative_rejected(self):
        b = Buffer("b", capacity_words=10)
        with pytest.raises(ConfigError):
            b.load(-1)
        with pytest.raises(ConfigError):
            b.store(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Buffer("b", capacity_words=0)


class TestBufferSet:
    def test_from_config(self):
        bs = BufferSet.from_config(CONFIG_16_16)
        assert bs.input.capacity_words == 1024 * 1024
        assert bs.output.capacity_words == 1024 * 1024
        assert bs.weight.capacity_words == 512 * 1024
        assert bs.bias.capacity_words == 2 * 1024

    def test_totals_keys(self):
        bs = BufferSet.from_config(CONFIG_16_16)
        assert set(bs.totals()) == {"input", "output", "weight", "bias"}

    def test_total_accesses(self):
        bs = BufferSet.from_config(CONFIG_16_16)
        bs.input.load(10)
        bs.output.store(5)
        bs.weight.load(1)
        assert bs.total_accesses == 16

    def test_reset(self):
        bs = BufferSet.from_config(CONFIG_16_16)
        bs.input.load(10)
        bs.reset()
        assert bs.total_accesses == 0
        assert bs.input.capacity_words == 1024 * 1024
