"""Text rendering of the experiment rows — the paper's figures as tables.

Every render function takes the rows produced by
:mod:`repro.analysis.experiments` and returns a printable string;
:mod:`repro.analysis.manifest` pairs each with its driver, and
``python -m repro report`` prints them as the whole evaluation section.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from repro.analysis.experiments import (
    Fig3Row,
    Table1Row,
    Fig7Row,
    Fig8Row,
    Fig9Row,
    Fig10Row,
    Table4Row,
    Table5Row,
)

__all__ = [
    "format_table",
    "render_table1",
    "render_energy_breakdown",
    "render_fig3",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_table4",
    "render_table5",
    "render_fig10",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _pivot(rows, row_key, col_key, value):
    """Group rows into a {row: {col: value}} table with ordered keys."""
    table: Dict[str, Dict[str, float]] = defaultdict(dict)
    col_order: List[str] = []
    row_order: List[str] = []
    for r in rows:
        rk, ck = row_key(r), col_key(r)
        if rk not in row_order:
            row_order.append(rk)
        if ck not in col_order:
            col_order.append(ck)
        table[rk][ck] = value(r)
    return table, row_order, col_order


def render_table1(rows: Sequence[Table1Row]) -> str:
    body = [
        [
            r.scheme,
            r.suited_layers,
            r.advantage,
            f"k={r.witness[0]} s={r.witness[1]} Din={r.witness[2]}",
        ]
        for r in rows
    ]
    return "Table 1 — parallelization scheme comparison\n" + format_table(
        ["scheme", "suited layer characteristic", "advantages", "witness"], body
    )


def render_fig3(rows: Sequence[Fig3Row]) -> str:
    body = [
        [
            r.network,
            r.layer,
            f"{r.raw_bits:.3e}",
            f"{r.unrolled_bits:.3e}",
            f"{r.factor:.1f}x",
        ]
        for r in rows
    ]
    return "Fig. 3 — data unrolling footprint (bits)\n" + format_table(
        ["network", "layer", "raw", "unrolled", "factor"], body
    )


def render_fig7(rows: Sequence[Fig7Row]) -> str:
    table, order, cols = _pivot(
        rows,
        lambda r: f"{r.config} {r.network}",
        lambda r: r.scheme,
        lambda r: r.cycles,
    )
    body = [
        [key] + [f"{table[key][c]:.3e}" for c in cols] for key in order
    ]
    return "Fig. 7 — Conv1 execution cycles\n" + format_table(
        ["config/network"] + list(cols), body
    )


def render_fig8(rows: Sequence[Fig8Row]) -> str:
    table, order, cols = _pivot(
        rows,
        lambda r: f"{r.config} {r.network}",
        lambda r: r.policy,
        lambda r: r.cycles,
    )
    body = [[key] + [f"{table[key][c]:.3e}" for c in cols] for key in order]
    return "Fig. 8 — whole-network cycles\n" + format_table(
        ["config/network"] + list(cols), body
    )


def render_fig9(rows: Sequence[Fig9Row]) -> str:
    body = [
        [r.design, f"{r.conv1_ms:.2f}", f"{r.whole_ms:.2f}"] for r in rows
    ]
    return "Fig. 9 — AlexNet vs Zhang FPGA'15 @100 MHz (ms)\n" + format_table(
        ["design", "conv1", "whole NN"], body
    )


def render_table4(rows: Sequence[Table4Row]) -> str:
    body = [
        [
            r.network,
            f"{r.cpu_ms:.2f}",
            f"{r.adap16_ms:.2f}",
            f"{r.speedup16:.2f}x",
            f"{r.adap32_ms:.2f}",
            f"{r.speedup32:.2f}x",
        ]
        for r in rows
    ]
    return "Table 4 — vs CPU (ms)\n" + format_table(
        ["network", "CPU", "adap-16-16", "speedup", "adap-32-32", "speedup"],
        body,
    )


def render_table5(rows: Sequence[Table5Row]) -> str:
    table, order, cols = _pivot(
        rows, lambda r: r.network, lambda r: r.scheme, lambda r: r.reduction_pct
    )
    body = [
        [key] + [f"{table[key][c]:+.2f}" for c in cols] for key in order
    ]
    return "Table 5 — PE energy reduction vs inter (%)\n" + format_table(
        ["network"] + list(cols), body
    )


def render_energy_breakdown(runs) -> str:
    """Component-level energy table for a set of runs (uJ).

    ``runs`` is an iterable of :class:`~repro.sim.trace.NetworkRun`; each
    becomes one row with PE / input / output / weight / DRAM columns —
    the stacked-bar view of where each policy spends its joules.
    """
    body = []
    for run in runs:
        e = run.energy()
        body.append(
            [
                f"{run.network_name}/{run.policy}",
                f"{e.pe_pj / 1e6:.2f}",
                f"{e.input_buffer_pj / 1e6:.2f}",
                f"{e.output_buffer_pj / 1e6:.2f}",
                f"{e.weight_buffer_pj / 1e6:.2f}",
                f"{e.dram_pj / 1e6:.2f}",
                f"{e.total_pj / 1e6:.2f}",
            ]
        )
    return "Energy breakdown (uJ)\n" + format_table(
        ["run", "PE", "in-buf", "out-buf", "w-buf", "DRAM", "total"], body
    )


def render_fig10(rows: Sequence[Fig10Row]) -> str:
    table, order, cols = _pivot(
        rows,
        lambda r: f"{r.config} {r.network}",
        lambda r: r.policy,
        lambda r: float(r.access_bits),
    )
    body = [[key] + [f"{table[key][c]:.3e}" for c in cols] for key in order]
    return "Fig. 10 — buffer access traffic (bits)\n" + format_table(
        ["config/network"] + list(cols), body
    )
