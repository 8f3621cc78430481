"""`python -m repro capacity` CLI tests."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError

_FAST = [
    "--tenants", "acme=alexnet:3/nin:1@2,beta=nin",
    "--rate", "120", "--duration", "2", "--seed", "3",
    "--slo-ms", "150", "--slo-target", "0.9",
    "--geometries", "16-16", "--chips", "1,2",
    "--strategies", "replicated,pipeline", "--groups", "2",
    "--max-batches", "8",
]


def test_table_output(capsys):
    assert main(["capacity"] + _FAST) == 0
    out = capsys.readouterr().out
    assert "capacity plan:" in out
    assert "winner:" in out
    assert "plan cache:" in out
    assert "cost/Mreq" in out


def test_json_stdout_is_ranked_and_stable(capsys):
    args = ["capacity"] + _FAST + ["--json", "-"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-stable across reruns and --jobs
    payload = json.loads(first)
    assert payload["winner"] == payload["ranking"][0]
    assert "cache" not in payload
    assert payload["search"]["candidates"] == len(payload["deployments"])


def test_json_to_file_with_faults(capsys, tmp_path):
    target = tmp_path / "capacity.json"
    assert (
        main(
            ["capacity"] + _FAST + ["--crashes", "1", "--json", str(target)]
        )
        == 0
    )
    payload = json.loads(target.read_text())
    assert payload["fault_model"]["crashes"] == 1
    winner = payload["deployments"][payload["winner"]]
    assert winner["degraded"] is not None


def test_progress_goes_to_stderr(capsys):
    assert main(["capacity"] + _FAST + ["--progress"]) == 0
    captured = capsys.readouterr()
    assert "simulated" in captured.err
    assert "candidates" in captured.err


def test_run_leaves_the_working_directory_empty(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = [
        "capacity", "--tenants", "t=nin", "--rate", "30", "--duration", "1",
        "--slo-target", "0.5", "--geometries", "16-16", "--chips", "1",
        "--max-batches", "4",
    ]
    assert main(args) == 0
    assert list(tmp_path.iterdir()) == []
    assert "plan cache:" in capsys.readouterr().out


def test_bad_tenant_mix_rejected():
    with pytest.raises(ConfigError, match="bad tenant-mix entry"):
        main(["capacity", "--tenants", "oops"])
