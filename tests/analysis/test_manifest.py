"""Every artifact of the reproduction manifest, checked in tier-1.

One test per claim, one per golden CSV and one per ``repro report`` block
that EXPERIMENTS.md quotes.  After an intentional model change, regenerate
the goldens with ``python -m repro report --csv-dir benchmarks/golden`` and
paste the same run's blocks into EXPERIMENTS.md.
"""

import csv
import io
import math
import os
import re
from pathlib import Path

import pytest

from repro.analysis.export import to_csv
from repro.analysis.manifest import ARTIFACTS

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "benchmarks" / "golden"
QUOTED = re.compile(r"<!-- artifact: (\S+) -->\n```[^\n]*\n(.*?)\n```", re.S)


@pytest.fixture(scope="module")
def measured():
    """``measured(artifact)``: its driver's rows, computed once per module."""
    rows = {}

    def get(artifact):
        if artifact.name not in rows:
            rows[artifact.name] = artifact.driver()
        return rows[artifact.name]

    return get


@pytest.mark.parametrize(
    "artifact, claim",
    [pytest.param(a, c, id=f"{a.name}:{c.id}") for a in ARTIFACTS for c in a.claims],
)
def test_claim(measured, artifact, claim):
    failing = claim.failures(artifact.view(measured(artifact)))
    assert not failing, (
        f"{artifact.name}:{claim.id} fails at {failing} "
        f"(paper {claim.paper}, band {claim.band})"
    )


def _same_cell(want: str, got: str) -> bool:
    """Equal text, or equal numbers up to float formatting."""
    try:
        return math.isclose(float(want), float(got), rel_tol=1e-9)
    except ValueError:
        return want == got


@pytest.mark.parametrize("artifact", [pytest.param(a, id=a.name) for a in ARTIFACTS])
def test_golden(measured, artifact):
    with open(GOLDEN / artifact.golden, newline="") as handle:
        golden = list(csv.reader(handle))
    current = list(csv.reader(io.StringIO(to_csv(measured(artifact)))))
    assert len(current) == len(golden), artifact.name
    for want, got in zip(golden, current):
        assert len(want) == len(got) and all(map(_same_cell, want, got)), (want, got)


def test_one_golden_per_artifact():
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(
        a.golden for a in ARTIFACTS
    )


@pytest.mark.parametrize(
    "artifact", [pytest.param(a, id=a.name) for a in ARTIFACTS if a.render]
)
def test_experiments_quotes_report_block(measured, artifact):
    quoted = QUOTED.findall((ROOT / "EXPERIMENTS.md").read_text())
    blocks = [block for name, block in quoted if name == artifact.name]
    assert blocks == [artifact.render(measured(artifact))], (
        f"EXPERIMENTS.md must quote the {artifact.name!r} block of "
        "`python -m repro report` verbatim, once"
    )
    printed = {a.name for a in ARTIFACTS if a.render}
    assert {name for name, _ in quoted} <= printed


def test_every_test_file_runs_in_tier1():
    """Tier-1 collects ``tests/``, and CI runs ``benchmarks/perf`` on its own;
    a test file anywhere else would never run."""
    stray = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        # hidden directories and installed packages are not the project's
        dirnames[:] = [d for d in dirnames if d[0] != "." and d != "site-packages"]
        where = Path(dirpath).relative_to(ROOT).parts
        if where[:1] == ("tests",) or where[:2] == ("benchmarks", "perf"):
            continue
        stray += [os.path.join(*where, f) for f in filenames if re.match(r"test_.*\.py$", f)]
    assert not stray, "never collected: " + ", ".join(sorted(stray))
