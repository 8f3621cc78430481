"""The injection sweep: headline claims and byte-stable rollups."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.integrity import SWEEP_LAYERS, run_sweep
from repro.resilience.faults import BITFLIP_SITES
from repro.serve.metrics import to_json


@pytest.fixture(scope="module")
def smoke():
    return run_sweep(seed=0, smoke=True)


class TestHeadline:
    def test_full_detection_on_smoke_grid(self, smoke):
        head = smoke["headline"]
        assert head["detection_rate"] == 1.0
        assert head["escaped"] == 0

    def test_zero_false_positives(self, smoke):
        head = smoke["headline"]
        assert head["false_positives"] == 0
        assert head["false_positive_rate"] == 0.0
        assert head["clean_runs"] > 0

    def test_recovery_bit_identical(self, smoke):
        assert smoke["headline"]["recovery_bit_identical"]
        assert smoke["headline"]["corrected_fraction"] == 1.0

    def test_overhead_modelled_and_modest(self, smoke):
        ratio = smoke["headline"]["mean_latency_ratio"]
        assert 1.0 < ratio < 1.5


class TestStructure:
    def test_every_site_and_layer_present(self, smoke):
        assert set(smoke["sites"]) == set(BITFLIP_SITES)
        assert len(smoke["layers"]) == 3  # smoke subset
        assert smoke["smoke"] is True

    def test_full_sweep_covers_all_layers(self):
        names = [spec[0] for spec in SWEEP_LAYERS]
        assert len(names) == len(set(names)) == 5

    def test_tallies_are_conserved(self, smoke):
        for tally in smoke["sites"].values():
            assert tally["fired"] + tally["skipped"] == tally["injections"]
            assert tally["corrupted"] + tally["masked"] == tally["fired"]
            assert tally["detected"] + tally["escaped"] == tally["corrupted"]

    @pytest.mark.parametrize("flips", [0, -1, True, 2.0])
    def test_a_sweep_must_inject(self, flips):
        # zero flips would score a 100% detection rate without one fault
        with pytest.raises(ConfigError, match=f"flips per site .*{flips!r}"):
            run_sweep(seed=0, flips_per_site=flips, smoke=True)


class TestDeterminism:
    def test_byte_identical_reruns(self, smoke):
        again = run_sweep(seed=0, smoke=True)
        assert to_json(smoke) == to_json(again)

    def test_seed_changes_rollup(self, smoke):
        other = run_sweep(seed=1, smoke=True)
        assert to_json(smoke) != to_json(other)

    def test_json_ends_with_newline(self, smoke):
        assert to_json(smoke).endswith("\n")
