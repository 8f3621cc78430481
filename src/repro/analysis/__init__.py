"""Experiment drivers and report rendering for every table and figure."""

from repro.analysis.experiments import (
    BOTH_CONFIGS,
    table1_scheme_comparison,
    FIG8_POLICIES,
    fig3_unrolling,
    fig7_conv1,
    fig8_whole_network,
    fig9_zhang_comparison,
    fig10_buffer_traffic,
    table4_cpu_comparison,
    table5_pe_energy,
)
from repro.analysis.compare import (
    LayerDelta,
    compare_runs,
    render_comparison,
)
from repro.analysis.export import rows_to_dicts, to_csv, write_csv
from repro.analysis.headline import (
    HeadlineNumbers,
    headline_numbers,
    render_headline,
)
from repro.analysis.layerwise import (
    LayerReportRow,
    layerwise_rows,
    render_layerwise,
)
from repro.analysis.metrics import (
    arithmetic_mean,
    geomean,
    reduction_pct,
    speedup,
)
from repro.analysis.plots import grouped_log_chart, hbar_chart
from repro.analysis.quantization import (
    LayerSqnr,
    quantization_report,
    render_quantization,
)
from repro.analysis.reuse import (
    ReuseRow,
    render_reuse,
    reuse_for_layer,
    reuse_table,
)
from repro.analysis.sweeps import (
    SweepPoint,
    pe_shapes_for_budget,
    sweep_parameter,
    sweep_pe_shapes,
)
from repro.analysis.timeline import render_timeline
from repro.analysis.report import (
    format_table,
    render_table1,
    render_fig3,
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10,
    render_table4,
    render_table5,
)

__all__ = [
    "BOTH_CONFIGS",
    "table1_scheme_comparison",
    "render_table1",
    "FIG8_POLICIES",
    "fig3_unrolling",
    "fig7_conv1",
    "fig8_whole_network",
    "fig9_zhang_comparison",
    "fig10_buffer_traffic",
    "table4_cpu_comparison",
    "table5_pe_energy",
    "LayerDelta",
    "compare_runs",
    "render_comparison",
    "rows_to_dicts",
    "to_csv",
    "write_csv",
    "grouped_log_chart",
    "LayerSqnr",
    "quantization_report",
    "render_quantization",
    "ReuseRow",
    "render_reuse",
    "reuse_for_layer",
    "reuse_table",
    "SweepPoint",
    "pe_shapes_for_budget",
    "sweep_parameter",
    "sweep_pe_shapes",
    "hbar_chart",
    "HeadlineNumbers",
    "headline_numbers",
    "render_headline",
    "LayerReportRow",
    "layerwise_rows",
    "render_layerwise",
    "render_timeline",
    "arithmetic_mean",
    "geomean",
    "reduction_pct",
    "speedup",
    "format_table",
    "render_fig3",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_fig10",
    "render_table4",
    "render_table5",
]
