"""`python -m repro chaos` CLI tests."""

import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError


class TestChaosCommand:
    def test_list_names_all_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("single-crash", "fail-slow", "link-flap", "cascade",
                     "pe-mask", "chip-loss", "sdc-storm", "sdc-silent"):
            assert name in out

    def test_single_scenario_table(self, capsys):
        assert main(["chaos", "single-crash"]) == 0
        out = capsys.readouterr().out
        assert "avail" in out
        assert "mttr ms" in out
        assert "single-crash" in out

    def test_json_stdout_single(self, capsys):
        assert main(["chaos", "single-crash", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "single-crash"
        assert payload["availability"] >= 0.0
        assert "recovery" in payload

    def test_json_stdout_multi_wraps_scenarios(self, capsys):
        assert main(
            ["chaos", "single-crash", "pe-mask", "--json", "-"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 1
        assert set(payload["scenarios"]) == {"single-crash", "pe-mask"}

    def test_repeated_name_runs_once(self, capsys):
        assert main(["chaos", "single-crash", "single-crash"]) == 0
        twice = capsys.readouterr().out
        assert main(["chaos", "single-crash"]) == 0
        assert twice == capsys.readouterr().out
        assert main(["chaos", "single-crash", "single-crash", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "single-crash"

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "chaos.json"
        assert main(["chaos", "single-crash", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["scenario"]["name"] == "single-crash"
        assert "written to" in capsys.readouterr().out

    def test_pe_mask_prints_degrade_digest(self, capsys):
        assert main(["chaos", "pe-mask"]) == 0
        out = capsys.readouterr().out
        assert "degraded 16x16 -> 3x16" in out
        assert "conv1 partition->inter-improved" in out

    def test_chip_loss_prints_repair_digest(self, capsys):
        assert main(["chaos", "chip-loss"]) == 0
        out = capsys.readouterr().out
        assert "lost chip(s) [1]" in out
        assert "throughput" in out

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            main(["chaos", "meteor-strike"])

    def test_sdc_storm_prints_integrity_digest_and_passes(self, capsys):
        assert main(["chaos", "sdc-storm"]) == 0
        out = capsys.readouterr().out
        assert "corrupted batches" in out
        assert "drained [1]" in out
        assert "INVARIANT VIOLATED" not in out

    def test_sdc_silent_has_no_invariants_to_violate(self, capsys):
        assert main(["chaos", "sdc-silent"]) == 0
        out = capsys.readouterr().out
        assert "escaped" in out

    def test_sdc_storm_json_carries_invariants(self, capsys):
        assert main(["chaos", "sdc-storm", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariants_declared"] == [
            "zero-silent-drops",
            "zero-escaped",
            "sdc-drained",
        ]
        assert payload["invariants"] == {
            "zero-silent-drops": True,
            "zero-escaped": True,
            "sdc-drained": True,
        }
        assert payload["integrity"]["escaped_batches"] == 0

    def test_seed_flag_changes_output(self, capsys):
        assert main(["chaos", "single-crash", "--json", "-", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["chaos", "single-crash", "--json", "-", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second
