"""CLI (`python -m repro`) tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


class TestCommands:
    def test_networks(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet", "googlenet", "vgg", "nin"):
            assert name in out
        assert "conv1=(3,11,4,96)" in out

    def test_select(self, capsys):
        assert main(["select", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "partition" in out
        assert "inter-improved" in out

    def test_plan_default(self, capsys):
        assert main(["plan", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "energy:" in out
        assert "conv1" in out

    def test_plan_custom_config_and_policy(self, capsys):
        assert main(["plan", "nin", "--config", "32-32", "--policy", "inter"]) == 0
        out = capsys.readouterr().out
        assert "policy 'inter'" in out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for artifact in ("Fig. 3", "Fig. 7", "Fig. 8", "Fig. 9",
                         "Table 4", "Table 5", "Fig. 10"):
            assert artifact in out

    def test_report_csv_dir_writes_every_artifact(self, tmp_path):
        from repro.analysis.manifest import ARTIFACTS

        assert main(["report", "--csv-dir", str(tmp_path)]) == 0
        stems = sorted(p.stem for p in tmp_path.iterdir())
        assert stems == sorted(a.name for a in ARTIFACTS)
        golden = Path(__file__).resolve().parents[2] / "benchmarks" / "golden"
        for name in ("fig7.csv", "fig8.csv"):
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "resnet"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "alexnet", "--policy", "magic"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_input_is_a_usage_error_not_a_traceback(self):
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--rate", "nan"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=300,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: arrival rate must be positive and finite, got nan\n"
        )


class TestAnalyze:
    def test_reuse_table(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "weight reuse" in out
        assert "partition" in out

    def test_with_quantization(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "nin", "--quantization"]) == 0
        out = capsys.readouterr().out
        assert "SQNR" in out


class TestSimulate:
    def test_executes_and_reports(self, capsys):
        from repro.__main__ import main

        assert main(["simulate", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "lint: 0 errors" in out
        assert "machine:" in out
        assert "energy:" in out

    def test_asm_dump(self, capsys, tmp_path):
        from repro.__main__ import main

        target = str(tmp_path / "net.s")
        assert main(["simulate", "nin", "--asm", target]) == 0
        text = open(target).read()
        assert "compute" in text and ".meta network nin" in text
