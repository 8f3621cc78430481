"""Sweep utility tests."""

import pytest

from repro.analysis.sweeps import pe_shapes_for_budget, sweep_pe_shapes
from repro.errors import ConfigError


class TestPeShapes:
    def test_exact_budget(self):
        shapes = pe_shapes_for_budget(256, tolerance=0.0)
        assert set(shapes) == {(4, 64), (8, 32), (16, 16), (32, 8), (64, 4)}

    def test_tolerance_widens(self):
        strict = pe_shapes_for_budget(256, tolerance=0.0)
        loose = pe_shapes_for_budget(256, tolerance=1.0)
        assert len(loose) > len(strict)

    def test_invalid_budget(self):
        with pytest.raises(ConfigError):
            pe_shapes_for_budget(0)

    def test_no_match_raises(self):
        with pytest.raises(ConfigError):
            pe_shapes_for_budget(7, tolerance=0.0)

    def test_sweep_pe_shapes(self, alexnet, cfg16):
        results = sweep_pe_shapes(alexnet, cfg16, 256)
        assert "16-16" in results
        # narrow-Tin shapes beat wide-Tin shapes on AlexNet (shallow conv1)
        assert results["8-32"].total_cycles <= results["64-4"].total_cycles
        for point in results.values():
            assert 0 < point.utilization <= 1.0

    def test_milliseconds_helper(self, alexnet, cfg16):
        point = sweep_pe_shapes(alexnet, cfg16, 256)["16-16"]
        assert point.milliseconds(1e9) == pytest.approx(
            point.total_cycles / 1e6
        )
