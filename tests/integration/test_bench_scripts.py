"""The bench scripts must regenerate their committed ``BENCH_*.json``.

The committed BENCH files are the behaviour oracle for refactors.  The
seven fastest scripts run here in subprocesses (concurrently, to fit the
tier-1 budget) with the flags their committed file records, and each
written file must equal the committed one byte for byte, apart from the
host fields ``python`` and ``cpu_count``.  A throwaway bench checks the
harness's failure contract.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.serve.metrics import to_json

ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS = ROOT / "benchmarks"
HOST_FIELDS = ("python", "cpu_count")

#: bench -> the flags its committed BENCH file was generated with
COMMITTED = {
    "serving": [],
    "sharding": [],
    "resilience": [],
    "integrity": ["--smoke"],
    "control": [],
    "tenancy": [],
    "capacity": ["--smoke"],
}


#: a switch that changes what a bench records; the committed files were
#: made without it, so the caller's value must not reach the scripts
STRIPPED_ENV = ("REPRO_NO_PLAN_CACHE",)


def _env():
    path = os.pathsep.join([str(ROOT / "src"), str(BENCHMARKS)])
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    return dict(env, PYTHONPATH=path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    procs = {
        name: subprocess.Popen(
            [sys.executable, str(BENCHMARKS / f"bench_{name}.py"), *flags,
             "--output", str(out / f"BENCH_{name}.json")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
        )
        for name, flags in COMMITTED.items()
    }
    results = {}
    try:
        for name, proc in procs.items():
            _, stderr = proc.communicate(timeout=300)
            results[name] = (proc.returncode, stderr, out / f"BENCH_{name}.json")
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op for every process that already exited
    return results


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_regenerates_committed_file(runs, name):
    returncode, stderr, path = runs[name]
    assert returncode == 0, stderr
    written = path.read_text()
    committed = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    host = {field: json.loads(written)[field] for field in HOST_FIELDS}
    assert written == to_json({**committed, **host})


def test_failed_gate_exits_nonzero_and_still_writes(tmp_path):
    script = tmp_path / "bench_tiny.py"
    script.write_text(textwrap.dedent('''
        """Tiny bench: one passing gate, one failing rerun gate."""
        import itertools
        import sys

        from harness import main, stable

        def run(args):
            counter = itertools.count()
            first, same = stable(lambda: {"n": next(counter)})
            gates = [(True, "never printed"), (same, "reruns differ")]
            return {"first": first, "smoke": args.smoke}, ["tiny table"], gates

        if __name__ == "__main__":
            sys.exit(main("tiny", run, __doc__))
    '''))
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=tmp_path,
        timeout=300,
    )
    assert result.returncode == 1
    assert result.stderr == "FAIL: reruns differ\n"
    assert result.stdout == "tiny table\nwritten to BENCH_tiny.json\n"
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert record["benchmark"] == "tiny"
    assert record["generated_by"] == "benchmarks/bench_tiny.py"
    assert record["first"] == {"n": 0}
    assert record["smoke"] is False
