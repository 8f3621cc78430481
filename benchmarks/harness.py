"""The one harness behind every ``benchmarks/bench_*.py`` script.

A bench script is its scenario and its gates: a ``run(args)`` returning
``(payload, lines, gates)``, handed to :func:`main` under the script's
``__main__`` check.  The harness owns the rest: the ``--output``
(default ``BENCH_<name>.json``) and ``--smoke`` flags, plus ``--jobs``
where a script fans out; the header every BENCH file carries; the one
writer, :func:`repro.serve.metrics.to_json` (sorted keys, so reruns
compare byte for byte); printing the table ``lines``; and the exit code.
Each failed ``(ok, message)`` gate prints ``FAIL: <message>`` on stderr
and makes the script exit 1.  The JSON is written first, so a failing
run still leaves its numbers behind.

Scripts import it as ``from harness import ...``: running a script puts
its own directory on ``sys.path``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.serve.metrics import to_json

T = TypeVar("T")
Gate = Tuple[bool, str]
Result = Tuple[Dict[str, object], List[str], List[Gate]]


def stable(fn: Callable[[], T]) -> Tuple[T, bool]:
    """Run ``fn`` twice; return the first result and whether both results
    render to the same canonical JSON (the byte-stable rerun gate)."""
    first = fn()
    return first, to_json(first) == to_json(fn())


def main(
    name: str,
    run: Callable[[argparse.Namespace], Result],
    doc: str,
    jobs: Optional[int] = None,
) -> int:
    """Parse the shared flags, run the scenario, write and gate its JSON.

    ``jobs``, when given, adds a ``--jobs`` flag with that default.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--output", default=f"BENCH_{name}.json")
    parser.add_argument("--smoke", action="store_true", help="CI smoke configuration")
    if jobs is not None:
        parser.add_argument("--jobs", type=int, default=jobs, help="-1 = all CPUs")
    args = parser.parse_args()

    payload, lines, gates = run(args)
    header = {
        "benchmark": name,
        "generated_by": f"benchmarks/bench_{name}.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    with open(args.output, "w") as handle:
        handle.write(to_json({**header, **payload}))

    for line in lines:
        print(line)
    print(f"written to {args.output}")
    failed = [message for ok, message in gates if not ok]
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0
