"""CLI (`python -m repro`) tests."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

ROOT = Path(__file__).resolve().parents[2]
#: a shell line running the CLI, after an optional prompt and env settings
CLI_LINE = re.compile(r"^\s*(?:\$\s+)?(?:\w+=\S+\s+)*python -m repro(\s.*)?$")


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

    def test_bad_input_is_a_usage_error_not_a_traceback(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"

        def run(*argv):
            result = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(src)),
                timeout=300,
            )
            assert result.returncode == 2, argv
            return result

        result = run("serve", "--rate", "nan")
        assert result.stdout == ""
        assert result.stderr == (
            "error: arrival rate must be positive and finite, got nan\n"
        )
        # a sweep that injects nothing would pass the guard vacuously
        for flips in ("0", "-1"):
            result = run("integrity", "--flips", flips)
            assert result.stdout == ""
            assert result.stderr == (
                f"error: flips per site must be a positive int, got {flips}\n"
            )
        # a path the command cannot open or write; --json and --csv-dir
        # fail after the human view is already on stdout
        regular = tmp_path / "regular"
        regular.write_text("")
        missing = tmp_path / "missing.csv"
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\xfa")  # not UTF-8 text
        for path, argv in (
            (missing, ("serve", "--arrival", "trace", "--trace", str(missing),
                       "--duration", "1")),
            (binary, ("serve", "--arrival", "trace", "--trace", str(binary),
                      "--duration", "1")),
            (regular / "x.json", ("serve", "--duration", "1", "--json",
                                  str(regular / "x.json"))),
            (regular / "sub", ("report", "--csv-dir", str(regular / "sub"))),
        ):
            stderr = run(*argv).stderr
            assert stderr.startswith("error: ") and str(path) in stderr, argv
            assert stderr.count("\n") == 1, stderr

    def test_report_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_capacity_refuses_zero_jobs_before_simulating(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "capacity", "--progress", "--jobs", "0"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=300,
        )
        assert result.returncode == 2
        # --progress would log each simulated candidate on stderr
        assert result.stdout == ""
        assert result.stderr == "error: jobs must be nonzero (use -1 for all CPUs)\n"


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


def option_table(parser):
    """Each subcommand's options, in the form ``cli_options.json`` holds."""
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: [
            {
                "flags": list(a.option_strings),
                "dest": a.dest,
                "default": a.default,
                "type": getattr(a.type, "__name__", None),
                "choices": list(a.choices) if a.choices is not None else None,
                "nargs": a.nargs,
                "required": a.required,
            }
            for a in p._actions
        ]
        for name, p in sub.choices.items()
    }


def doc_commands():
    """``(file, argv)`` of every ``python -m repro`` line in README.md and
    docs/*.md, with continuation lines joined and comments dropped."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        lines = path.read_text().splitlines()
        k = 0
        while k < len(lines):
            match = CLI_LINE.match(lines[k])
            if match:
                text = match.group(1) or ""
                while text.rstrip().endswith("\\"):
                    k += 1
                    text = text.rstrip()[:-1] + " " + lines[k]
                found.append((path.name, shlex.split(text, comments=True)))
            k += 1
    return found


DOC_COMMANDS = doc_commands()


class TestSurface:
    def test_options_equal_the_committed_table(self):
        committed = json.loads((Path(__file__).parent / "cli_options.json").read_text())
        table = option_table(build_parser())
        assert list(table) == list(committed)
        for name, options in committed.items():
            assert table[name] == options, name

    def test_docs_quote_the_cli(self):
        assert len(DOC_COMMANDS) >= 40

    @pytest.mark.parametrize(
        "argv",
        [argv for _, argv in DOC_COMMANDS],
        ids=[f"{name}:{'_'.join(argv)}" for name, argv in DOC_COMMANDS],
    )
    def test_doc_command_parses(self, argv):
        assert callable(build_parser().parse_args(argv).handler)
