"""Export experiment rows to CSV artifacts.

Research repositories need machine-readable outputs next to the pretty
tables; these helpers serialize any of the dataclass row lists produced by
:mod:`repro.analysis.experiments` (plus derived properties like the
unrolling ``factor`` or Table 4 speedups) without pulling in pandas.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from typing import Any, Dict, List, Sequence

from repro.errors import ConfigError

__all__ = ["rows_to_dicts", "to_csv", "write_csv"]

#: computed properties worth exporting, per row type name
_EXTRA_PROPERTIES = {
    "Fig3Row": ("factor",),
    "Table4Row": ("speedup16", "speedup32"),
}


def rows_to_dicts(rows: Sequence[Any]) -> List[Dict[str, Any]]:
    """Convert dataclass rows to plain dicts, including derived properties."""
    if not rows:
        return []
    out = []
    for row in rows:
        if not dataclasses.is_dataclass(row):
            raise ConfigError(f"not a dataclass row: {row!r}")
        record = dataclasses.asdict(row)
        for prop in _EXTRA_PROPERTIES.get(type(row).__name__, ()):
            record[prop] = getattr(row, prop)
        out.append(record)
    return out


def to_csv(rows: Sequence[Any]) -> str:
    """Serialize rows as CSV text (header from the first row's fields)."""
    records = rows_to_dicts(rows)
    if not records:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(records[0]))
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue()


def write_csv(rows: Sequence[Any], path: str) -> None:
    """Write rows to a CSV file."""
    with open(path, "w", newline="") as handle:
        handle.write(to_csv(rows))
