"""Differential test: cost tables against the per-scheme schedules they replaced.

The classes below are the six schemes, the non-conv schedules, Algorithm
2's selector, the oracle's ranking and the planner loop as they stood
before every scheme became a row of one
:class:`~repro.schemes.table.CostTable` per (layer geometry, config), kept
verbatim but for four edits: the planner and the oracle call these
classes instead of the schedule cache (so the reference is uncached), the
oracle policy ranks instead of reading a memoized winner, the planner
records no ``plan_network`` phase, and the non-conv ``supports_auxiliary``
probe is left out.  Their record type is the ``ScheduleResult`` of that
time, a frozen copy of every number, kept verbatim too; a table's record
is a view over its :class:`~repro.schemes.base.Costs` row, so records are
compared by what they report (:func:`record_view`), each value with its
type.

On generated conv geometries (kernel 1 to 11, stride 1 to 4, padding 0 to
2, up to 512 input maps, one or two groups, rectangular inputs) and
non-conv layers, under generated configs (Tin and Tout 1 to 64, buffers
from one byte up, word widths, DRAM rates, both overlap rules), every
scheme's record from the table — uncached, through a cache, and rebound
to a second layer of the same geometry — must equal the reference's in
every reported value, an illegal mapping must raise the same
``ScheduleError`` text, and the oracle must pick the same record under all
three objectives.  One generated layer is also priced through one shared
cache under a drawn order of configs that share its memory system or its
PE shape, under both overlap rules, so that no table, buffer fit or
oracle winner the cache holds for one config reaches another's records.
On the four zoo networks at generated configs, ``plan_network`` under all
seven policies, with and without the non-conv layers, cached and
uncached, must equal the reference plan.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from itertools import product
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adaptive.planner import POLICY_NAMES, _INPUT_LAYOUT
from repro.adaptive.planner import plan_network as table_plan_network
from repro.adaptive.search import (
    CANDIDATE_SCHEMES,
    OBJECTIVES,
    SearchOutcome,
    layer_energy_pj,
)
from repro.adaptive.search import best_scheme_for_layer as table_best_scheme
from repro.adaptive.search import best_scheme_name_for_layer
from repro.adaptive.selector import SchemeChoice
from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.arch.energy import EnergyModel
from repro.errors import ConfigError, ScheduleError
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    EltwiseAddLayer,
    FCLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    TensorShape,
)
from repro.nn.network import LayerContext, Network
from repro.nn.zoo import build
from repro.perf.cache import ScheduleCache, schedule_cache
from repro.schemes import CostTable, make_scheme
from repro.schemes.auxiliary import schedule_auxiliary as table_schedule_auxiliary
from repro.schemes.base import FrozenDict, group_geometry
from repro.schemes.base import ScheduleResult as TableRecord
from repro.sim.trace import NetworkRun
from repro.tiling.fit import FitReport, analyze_fit
from repro.tiling.layout import Layout, reorder_moves
from repro.tiling.partition import padded_input_extent, partition_geometry
from repro.tiling.unroll import unroll_stats

MB = 1024 * 1024

# ---------------------------------------------------------------------------
# the reference: the record type and the per-scheme schedules, verbatim
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleResult:
    """Activity record of one scheme on one layer.

    All counts are totals over the whole layer (all groups).  A value: the
    record is frozen and ``accesses``/``notes`` become :class:`FrozenDict`,
    so the schedule cache and every plan reading a record share one object.
    """

    scheme: str
    layer_name: str
    config: AcceleratorConfig
    #: PE-array compute cycles (one operation per cycle)
    operations: int
    #: multiplies that produced a real output (<= operations * Tin * Tout)
    useful_macs: int
    #: extra adder ops for add-and-store accumulation (improved inter, partition)
    extra_adds: int
    #: per-buffer word access counters ("input"/"output"/"weight"/"bias")
    accesses: Mapping[str, AccessCounter]
    #: off-chip words moved (compulsory + spill, including unroll inflation)
    dram_words: int
    #: cycles the DMA engines need for dram_words
    dma_cycles: float
    #: host-side data-reshape stream cycles (unrolling realization only)
    reshape_cycles: float = 0.0
    input_layout: Layout = Layout.INTRA
    output_layout: Layout = Layout.INTRA
    fit: FitReport = None  # type: ignore[assignment]
    notes: Mapping[str, object] = field(default_factory=FrozenDict)

    def __post_init__(self) -> None:
        if type(self.accesses) is not FrozenDict:
            object.__setattr__(self, "accesses", FrozenDict(self.accesses))
        if type(self.notes) is not FrozenDict:
            object.__setattr__(self, "notes", FrozenDict(self.notes))

    @property
    def compute_cycles(self) -> int:
        return self.operations

    @property
    def stream_cycles(self) -> float:
        """Cycles of the memory side: DMA and host reshape pipeline strip-wise."""
        return max(self.dma_cycles, self.reshape_cycles)

    @property
    def total_cycles(self) -> float:
        """Wall-clock cycles.

        With double buffering (the default) compute and the memory streams
        overlap; with ``config.overlap_streams = False`` they serialize —
        the hardware the paper's tiling is designed to avoid."""
        stream = max(self.dma_cycles, self.reshape_cycles)  # stream_cycles
        if self.config.overlap_streams:
            return max(float(self.operations), stream)
        return float(self.operations) + stream

    @property
    def utilization(self) -> float:
        """Fraction of multiplier-cycles doing useful MACs."""
        peak = self.operations * self.config.multipliers
        if peak == 0:
            return 0.0
        return self.useful_macs / peak

    @property
    def buffer_accesses(self) -> int:
        """Total on-chip buffer word accesses (the Fig. 10 metric, in words)."""
        return sum(c.total for c in self.accesses.values())

    @property
    def buffer_access_bits(self) -> int:
        """Fig. 10's y-axis: access times weighted to bits (16-bit words)."""
        return self.buffer_accesses * self.config.word_bytes * 8

    def milliseconds(self) -> float:
        """Wall-clock at this configuration's frequency."""
        return self.config.cycles_to_ms(self.total_cycles)


#: what a record reports: the reference record's fields, then its two totals
VIEW = tuple(f.name for f in dataclasses.fields(ScheduleResult)) + (
    "total_cycles", "buffer_accesses",
)


def record_view(record) -> list:
    """Every value ``record`` reports, each with its type; ``accesses`` and
    ``notes`` as ordered lists of typed items."""
    view = []
    for name in VIEW:
        value = getattr(record, name)
        if name in ("accesses", "notes"):
            view.append((name, type(value), [(k, type(v), v) for k, v in value.items()]))
        else:
            view.append((name, type(value), value))
    return view


class Scheme(abc.ABC):
    """A data-level parallelization scheme (Sec. 4)."""

    #: short identifier used in reports ("inter", "intra", "partition", ...)
    name: str = "base"

    @abc.abstractmethod
    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        """Map ``ctx`` onto the array; raise :class:`ScheduleError` if illegal."""

    def supports(self, ctx: LayerContext, config: AcceleratorConfig) -> bool:
        """Whether this scheme can legally schedule the layer."""
        try:
            self.schedule(ctx, config)
            return True
        except ScheduleError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<scheme {self.name}>"


class IdealScheme(Scheme):
    """100%-utilization bound used to normalize the other schemes."""

    name = "ideal"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        macs = geom.macs
        operations = math.ceil(macs / config.multipliers)

        weights = geom.groups * geom.k * geom.k * geom.d * geom.dout_g
        # each word crosses its buffer exactly once, fill + use
        accesses = {
            "input": AccessCounter(ctx.in_shape.elements, ctx.in_shape.elements),
            "output": AccessCounter(ctx.out_shape.elements, ctx.out_shape.elements),
            "weight": AccessCounter(weights, weights),
            "bias": AccessCounter(),
        }
        fit = analyze_fit(ctx, config)
        dram_words = fit.compulsory_words
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=macs,
            extra_adds=0,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=dram_words / config.dram_words_per_cycle,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
        )


class InterKernelScheme(Scheme):
    """Original inter-kernel scheme (the ``inter`` series of Figs. 7-10)."""

    name = "inter"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        din_chunks = math.ceil(geom.d / config.tin)
        dout_chunks = math.ceil(geom.dout_g / config.tout)

        # one op per (output pixel, kernel element, Din chunk, Dout chunk)
        ops_per_group = geom.out_pixels * geom.k * geom.k * din_chunks * dout_chunks
        operations = geom.groups * ops_per_group

        # data: the d useful words of each Din chunk are fetched per output
        # pixel and kernel element, and re-fetched for every Dout chunk
        input_loads = (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * geom.d
            * dout_chunks
        )
        # weights: no reuse — every lane's d useful weights are fetched on
        # every operation (per output pixel), the scheme's energy sin
        weight_loads = (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * geom.d
            * geom.dout_g
        )
        # accumulation completes inside the PE: one store per output pixel
        output_stores = ctx.out_shape.elements

        fit = analyze_fit(ctx, config)
        dram_words = fit.total_traffic_words
        # DMA-side: weight/input buffer fills and the output drain
        weight_words = fit.working_set.weight_words
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(loads=ctx.out_shape.elements, stores=output_stores),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=geom.macs,
            extra_adds=0,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=fit.dma_cycles,
            input_layout=Layout.INTER,
            output_layout=Layout.INTER,
            fit=fit,
        )


class ImprovedInterKernelScheme(Scheme):
    """Inter-kernel with weight-resident partial-sum accumulation."""

    name = "inter-improved"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        din_chunks = math.ceil(geom.d / config.tin)
        dout_chunks = math.ceil(geom.dout_g / config.tout)

        # identical compute cycles to the original inter-kernel scheme
        ops_per_group = geom.out_pixels * geom.k * geom.k * din_chunks * dout_chunks
        operations = geom.groups * ops_per_group

        # data loads: unchanged — each Din chunk's d words per output pixel
        # and kernel element, re-streamed per Dout chunk
        input_loads = (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * geom.d
            * dout_chunks
        )
        # weights: resident per (kernel element, Din chunk, Dout chunk) pass —
        # every weight is loaded exactly once
        weight_loads = geom.groups * geom.k * geom.k * geom.d * geom.dout_g

        # partial sums: one add-and-store per op result; every pass beyond the
        # first also reloads the running sum
        passes = geom.k * geom.k * din_chunks
        output_stores = ctx.out_shape.elements * passes
        output_loads = ctx.out_shape.elements * (passes - 1)
        extra_adds = output_loads  # the added accumulator group's work

        fit = analyze_fit(ctx, config)
        dram_words = fit.total_traffic_words
        # DMA-side: weight/input buffer fills and the output drain
        weight_words = fit.working_set.weight_words
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(
                loads=output_loads + ctx.out_shape.elements, stores=output_stores
            ),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=geom.macs,
            extra_adds=extra_adds,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=fit.dma_cycles,
            input_layout=Layout.INTER,
            output_layout=Layout.INTER,
            fit=fit,
            notes={"passes": passes},
        )


#: host reshape feed rate for the unrolling realization: a 32-bit host
#: interface moves two 16-bit words per accelerator cycle
DEFAULT_RESHAPE_WORDS_PER_CYCLE = 2.0


class IntraKernelScheme(Scheme):
    """Intra-kernel scheme: sliding window when ``k == s``, else unrolling."""

    name = "intra"

    def __init__(
        self, reshape_words_per_cycle: float = DEFAULT_RESHAPE_WORDS_PER_CYCLE
    ) -> None:
        if reshape_words_per_cycle <= 0:
            raise ValueError("reshape rate must be positive")
        self.reshape_words_per_cycle = reshape_words_per_cycle

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        field_len = geom.k * geom.k * geom.d  # one receptive field
        field_chunks = math.ceil(field_len / config.tin)
        dout_chunks = math.ceil(geom.dout_g / config.tout)

        ops_per_group = geom.out_pixels * field_chunks * dout_chunks
        operations = geom.groups * ops_per_group

        # data: each receptive field streamed once per Dout chunk
        input_loads = geom.groups * geom.out_pixels * field_len * dout_chunks
        # weights: resident per (field chunk, Dout chunk) pass — once each
        weight_loads = geom.groups * field_len * geom.dout_g
        # add-and-store: one partial sum per (pixel, field chunk) pass
        passes = field_chunks
        output_stores = ctx.out_shape.elements * passes
        output_loads = ctx.out_shape.elements * (passes - 1)
        extra_adds = output_loads

        sliding = geom.k == geom.s and ctx.layer.pad == 0
        fit = analyze_fit(ctx, config)
        if sliding:
            # no duplication, spatial strip tiling works: use the fit model
            stream_words = ctx.in_shape.elements
            reshape_cycles = 0.0
            dram_words = fit.total_traffic_words
            mode = "sliding"
        else:
            stats = unroll_stats(ctx.layer, ctx.in_shape)
            stream_words = stats.unrolled_elements
            # the host reshapes the raw input once, into DRAM
            reshape_cycles = stream_words / self.reshape_words_per_cycle
            # compulsory: unrolled input replaces the raw input
            dram_words = (
                fit.compulsory_words
                - fit.working_set.input_words
                + stream_words
            )
            # no strip tiling: whatever doesn't stay resident in the input
            # buffer is re-fetched on every subsequent output-chunk pass
            excess = max(0, stream_words - config.input_buffer_words)
            dram_words += (dout_chunks - 1) * excess
            # weight-buffer overflow still re-streams like everyone else
            dram_words += fit.spill_words
            mode = "unrolling"
        dma_cycles = dram_words / config.dram_words_per_cycle

        # DMA-side buffer accesses: fills into input/weight, output drain
        weight_words = geom.groups * field_len * geom.dout_g
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(
                loads=output_loads + ctx.out_shape.elements, stores=output_stores
            ),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=geom.macs,
            extra_adds=extra_adds,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=dma_cycles,
            reshape_cycles=reshape_cycles,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
            notes={"mode": mode, "stream_words": stream_words},
        )


class KernelPartitionScheme(Scheme):
    """The paper's kernel-partitioning hybrid (``partition`` series)."""

    name = "partition"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        if geom.s >= geom.k:
            raise ScheduleError(
                f"{ctx.name}: partitioning needs stride < kernel "
                f"(k={geom.k}, s={geom.s}); use intra-kernel instead"
            )
        pgeom = partition_geometry(geom.k, geom.s)
        window = pgeom.sub_window_elements  # ks * ks
        pieces = pgeom.pieces  # G = g * g

        if window <= config.tin:
            windows_per_op = config.tin // window
            ops_per_scan = math.ceil(geom.out_pixels / windows_per_op)
        else:
            windows_per_op = 1
            ops_per_scan = geom.out_pixels * math.ceil(window / config.tin)

        dout_chunks = math.ceil(geom.dout_g / config.tout)
        # one scan of the output map per (piece, input map, Dout chunk)
        scans = pieces * geom.d * dout_chunks
        operations = geom.groups * scans * ops_per_scan

        # data: every window's ks*ks words per scan (contiguous, unit stride)
        input_loads = geom.groups * scans * geom.out_pixels * window
        # weights: one sub-kernel resident per scan — each (padded) weight
        # loaded once per Dout lane
        weight_loads = geom.groups * pieces * window * geom.d * geom.dout_g
        # Algorithm 1 lines 7-8: add-and-store per output pixel per pass;
        # passes = pieces * d (piece loop outer, map loop riding the same
        # accumulate-in-buffer mechanism)
        passes = pieces * geom.d
        output_stores = ctx.out_shape.elements * passes
        output_loads = ctx.out_shape.elements * (passes - 1)
        extra_adds = output_loads

        fit = analyze_fit(ctx, config)
        # off-chip input grows only by the partition zero-padding margin
        _, ph = padded_input_extent(
            ctx.in_shape.height, geom.k, geom.s, ctx.layer.pad
        )
        _, pw = padded_input_extent(
            ctx.in_shape.width, geom.k, geom.s, ctx.layer.pad
        )
        padded_input_words = ctx.in_shape.depth * ph * pw
        padded_weight_words = (
            geom.groups * pieces * window * geom.d * geom.dout_g
        )
        dram_words = (
            fit.total_traffic_words
            - fit.working_set.input_words
            + padded_input_words
            - fit.working_set.weight_words
            + padded_weight_words
        )
        dma_cycles = dram_words / config.dram_words_per_cycle

        # DMA-side: weight/input buffer fills and the output drain
        input_fills = dram_words - padded_weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(
                loads=output_loads + ctx.out_shape.elements, stores=output_stores
            ),
            "weight": AccessCounter(loads=weight_loads, stores=padded_weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }

        # useful MACs exclude multiplies against partition zero padding
        useful = geom.macs
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=useful,
            extra_adds=extra_adds,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=dma_cycles,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
            notes={
                "pieces": pieces,
                "sub_kernel": pgeom.sub_kernel,
                "windows_per_op": windows_per_op,
                "pad_overhead": pgeom.pad_overhead,
            },
        )


class Pe2dScheme(Scheme):
    """ShiDianNao-style output-stationary 2D mesh."""

    name = "pe2d"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        px, py = config.tin, config.tout

        tiles = math.ceil(geom.ox / px) * math.ceil(geom.oy / py)
        # each PE serially accumulates its k*k*d receptive field, one MAC
        # per cycle, for each output map of the group
        compute_per_tile = geom.k * geom.k * geom.d * geom.dout_g
        operations = geom.groups * tiles * compute_per_tile

        # stride > 1 breaks neighbour propagation: the edge injectors must
        # supply s rows per window step and the array stalls on data supply
        supply_cycles = operations * max(1, geom.s)

        # traffic: inputs stream once per output-map pass (the mesh's big
        # win); weights are broadcast once per (kernel element, map) pass
        input_loads = ctx.in_shape.elements * geom.dout_g
        weight_loads = geom.groups * geom.k * geom.k * geom.d * geom.dout_g
        output_stores = ctx.out_shape.elements

        fit = analyze_fit(ctx, config)
        dram_words = fit.total_traffic_words
        weight_words = fit.working_set.weight_words
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(loads=ctx.out_shape.elements, stores=output_stores),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }

        # utilization: edge tiles idle the mesh fringe; report the true
        # useful-MAC fraction of the clocked array including supply stalls
        stalled_operations = int(supply_cycles)
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=stalled_operations,
            useful_macs=geom.macs,
            extra_adds=0,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=fit.dma_cycles,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
            notes={
                "tiles": tiles,
                "mesh": f"{px}x{py}",
                "stride_stall_factor": max(1, geom.s),
            },
        )

#: one reference instance per scheme name
REFERENCE = {
    scheme.name: scheme
    for scheme in (
        IdealScheme(),
        InterKernelScheme(),
        ImprovedInterKernelScheme(),
        IntraKernelScheme(),
        KernelPartitionScheme(),
        Pe2dScheme(),
    )
}


#: the counter of a buffer the layer never touches (a value, so shared)
_IDLE = AccessCounter()


def _result(ctx, config, name, operations, macs, accesses, dram_words,
            extra_adds=0) -> ScheduleResult:
    return ScheduleResult(
        scheme=name,
        layer_name=ctx.name,
        config=config,
        operations=operations,
        useful_macs=macs,
        extra_adds=extra_adds,
        accesses=accesses,
        dram_words=dram_words,
        dma_cycles=dram_words / config.dram_words_per_cycle,
        input_layout=Layout.INTRA,
        output_layout=Layout.INTRA,
        fit=None,
    )


def _schedule_pool(ctx: LayerContext, config: AcceleratorConfig) -> ScheduleResult:
    layer: PoolLayer = ctx.layer
    window = layer.kernel * layer.kernel
    out_pixels = ctx.out_shape.height * ctx.out_shape.width
    operations = (
        out_pixels
        * math.ceil(window / config.tin)
        * math.ceil(ctx.out_shape.depth / config.tout)
    )
    input_loads = out_pixels * window * ctx.out_shape.depth
    accesses = {
        "input": AccessCounter(input_loads, ctx.in_shape.elements),
        "output": AccessCounter(ctx.out_shape.elements, ctx.out_shape.elements),
        "weight": _IDLE,
        "bias": _IDLE,
    }
    dram = ctx.in_shape.elements + ctx.out_shape.elements
    # pooling performs reductions, not MACs
    return _result(ctx, config, "aux-pool", operations, 0, accesses, dram)


def _schedule_fc(ctx: LayerContext, config: AcceleratorConfig) -> ScheduleResult:
    layer: FCLayer = ctx.layer
    in_words = ctx.in_shape.elements
    out_words = layer.out_features
    operations = math.ceil(in_words / config.tin) * math.ceil(
        out_words / config.tout
    )
    macs = in_words * out_words
    weight_words = macs + (out_words if layer.bias else 0)
    accesses = {
        "input": AccessCounter(in_words * math.ceil(out_words / config.tout), in_words),
        "output": AccessCounter(out_words, out_words),
        "weight": AccessCounter(macs, weight_words),
        "bias": AccessCounter(out_words if layer.bias else 0),
    }
    dram = in_words + weight_words + out_words
    return _result(ctx, config, "aux-fc", operations, macs, accesses, dram)


def _schedule_elementwise(
    ctx: LayerContext, config: AcceleratorConfig, name: str, per_element: int
) -> ScheduleResult:
    elements = ctx.out_shape.elements
    operations = elements * per_element
    accesses = {
        "input": AccessCounter(loads=ctx.in_shape.elements if per_element else 0),
        "output": AccessCounter(stores=elements if per_element else 0),
        "weight": _IDLE,
        "bias": _IDLE,
    }
    return _result(ctx, config, name, operations, 0, accesses, 0)


def schedule_auxiliary(
    ctx: LayerContext, config: AcceleratorConfig
) -> ScheduleResult:
    """Cost a non-conv layer; raises :class:`ScheduleError` for conv layers."""
    layer = ctx.layer
    if isinstance(layer, PoolLayer):
        return _schedule_pool(ctx, config)
    if isinstance(layer, FCLayer):
        return _schedule_fc(ctx, config)
    if isinstance(layer, LRNLayer):
        # one element per cycle through the activation-function unit
        return _schedule_elementwise(ctx, config, "aux-lrn", 1)
    if isinstance(layer, ReLULayer):
        # fused into the preceding layer's store path
        return _schedule_elementwise(ctx, config, "aux-relu", 0)
    if isinstance(layer, ConcatLayer):
        # pure wiring: the planner's layout handoff makes it free
        return _schedule_elementwise(ctx, config, "aux-concat", 0)
    if isinstance(layer, EltwiseAddLayer):
        # one add per element on the accumulate adder group
        return _schedule_elementwise(ctx, config, "aux-add", 1)
    raise ScheduleError(
        f"{ctx.name}: auxiliary scheduler does not handle "
        f"{type(layer).__name__} (conv layers use the parallelization schemes)"
    )


def select_scheme(
    ctx: LayerContext,
    config: AcceleratorConfig,
    improved_inter: bool = True,
) -> SchemeChoice:
    """Apply Algorithm 2 to one conv layer.

    ``improved_inter`` distinguishes adap-2 (Sec 4.2.2 inter-kernel, the
    default) from adap-1 (original inter-kernel).
    """
    geom = group_geometry(ctx)
    inter_name = "inter-improved" if improved_inter else "inter"
    if geom.k == geom.s and geom.k != 1:
        return SchemeChoice(
            ctx.name,
            "intra",
            f"k == s == {geom.k}: sliding window aligns perfectly",
        )
    if geom.s < geom.k and geom.d < config.tin:
        return SchemeChoice(
            ctx.name,
            "partition",
            f"Din = {geom.d} < Tin = {config.tin}: inter-kernel would idle "
            f"{config.tin - geom.d}/{config.tin} of the array",
        )
    return SchemeChoice(
        ctx.name,
        inter_name,
        f"Din = {geom.d} >= Tin = {config.tin} (or 1x1 kernel): "
        "depth parallelism saturates the array",
    )


def best_scheme_for_layer(
    ctx: LayerContext,
    config: AcceleratorConfig,
    candidates: Sequence[str] = CANDIDATE_SCHEMES,
    objective: str = "cycles",
) -> SearchOutcome:
    """Evaluate every legal candidate on ``ctx``; return the winner.

    ``objective`` is one of ``"cycles"`` (fewest wall-clock cycles, buffer
    accesses break ties — the paper's notion of optimal), ``"energy"``
    (least total energy) or ``"edp"`` (energy-delay product).  Raises
    :class:`ScheduleError` only if *no* candidate is legal (cannot happen
    for conv layers since intra-kernel is always legal).
    """
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    evaluated: List[ScheduleResult] = []
    for name in candidates:
        try:
            evaluated.append(REFERENCE[name].schedule(ctx, config))
        except ScheduleError:
            continue
    if not evaluated:
        raise ScheduleError(f"{ctx.name}: no candidate scheme is legal")
    # every key ends on the scheme name so ties break identically no matter
    # how the candidate list was ordered (or which pool worker evaluated it)
    if objective == "cycles":
        key = lambda r: (r.total_cycles, r.buffer_accesses, r.scheme)
    else:
        model = EnergyModel(config)
        if objective == "energy":
            key = lambda r: (layer_energy_pj(r, model), r.total_cycles, r.scheme)
        else:
            key = lambda r: (
                layer_energy_pj(r, model) * r.total_cycles,
                r.total_cycles,
                r.scheme,
            )
    best = min(evaluated, key=key)
    return SearchOutcome(
        layer_name=ctx.name,
        scheme=best.scheme,
        result=best,
        alternatives=tuple(evaluated),
    )


def _fixed_chooser(scheme_name: str) -> Callable[[LayerContext, AcceleratorConfig], str]:
    def choose(ctx: LayerContext, config: AcceleratorConfig) -> str:
        if scheme_name == "partition":
            # degenerate layers (s >= k, e.g. 1x1 convs) cannot be
            # partitioned; the scheme falls back to plain intra-kernel
            geom_k = ctx.layer.kernel
            geom_s = ctx.layer.stride
            if geom_s >= geom_k:
                return "intra"
        return scheme_name

    return choose


def _adaptive_chooser(improved: bool) -> Callable[[LayerContext, AcceleratorConfig], str]:
    def choose(ctx: LayerContext, config: AcceleratorConfig) -> str:
        return select_scheme(ctx, config, improved_inter=improved).scheme

    return choose


def _oracle_chooser(ctx: LayerContext, config: AcceleratorConfig) -> str:
    return best_scheme_for_layer(ctx, config).scheme


def _chooser(policy: str) -> Callable[[LayerContext, AcceleratorConfig], str]:
    if policy in ("ideal", "inter", "intra", "partition"):
        return _fixed_chooser(policy)
    if policy == "adaptive-1":
        return _adaptive_chooser(improved=False)
    if policy == "adaptive-2":
        return _adaptive_chooser(improved=True)
    if policy == "oracle":
        return _oracle_chooser
    raise ConfigError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")


def plan_network(
    net: Network,
    config: AcceleratorConfig,
    policy: str,
    include_non_conv: bool = False,
) -> NetworkRun:
    """Schedule ``net`` under ``policy``.

    By default only the conv layers are planned (the paper's evaluation
    unit); ``include_non_conv=True`` also appends pooling/FC/LRN records
    from :mod:`repro.schemes.auxiliary` so the run covers the whole
    forward pass.  Returns a :class:`~repro.sim.trace.NetworkRun` with
    per-layer records and an input-reorder charge when the first layer's
    scheme streams a layout other than the planar order the image arrives
    in.
    """
    choose = _chooser(policy)
    run = NetworkRun(network_name=net.name, policy=policy, config=config)
    first_conv_ctx: Optional[LayerContext] = None
    first_conv_result = None
    for ctx in net.contexts():
        if isinstance(ctx.layer, ConvLayer):
            name = choose(ctx, config)
            try:
                result = REFERENCE[name].schedule(ctx, config)
            except ScheduleError:
                # a fixed policy hit a layer its scheme cannot map — fall
                # back to intra-kernel, which is always legal
                result = REFERENCE["intra"].schedule(ctx, config)
            if first_conv_ctx is None:
                first_conv_ctx = ctx
                first_conv_result = result
            run.append(result)
        elif include_non_conv:
            run.append(schedule_auxiliary(ctx, config))
    if first_conv_result is not None:
        run.input_reorder_words = reorder_moves(
            first_conv_ctx.in_shape, _INPUT_LAYOUT, first_conv_result.input_layout
        )
    return run


# ---------------------------------------------------------------------------
# generated layers and configs
# ---------------------------------------------------------------------------

ZOO = {name: build(name) for name in ("alexnet", "googlenet", "vgg", "nin")}

def _buffer(word_bytes: int) -> st.SearchStrategy:
    """Data-buffer sizes from one word (tiny tiles) to 8 MB; a config
    rejects anything smaller."""
    return st.one_of(st.integers(word_bytes, 4096), st.integers(4096, 8 * MB))


@st.composite
def configs(draw) -> AcceleratorConfig:
    word_bytes = draw(st.sampled_from([1, 2, 4]))
    return AcceleratorConfig(
        tin=draw(st.integers(1, 64)),
        tout=draw(st.integers(1, 64)),
        input_buffer_bytes=draw(_buffer(word_bytes)),
        output_buffer_bytes=draw(_buffer(word_bytes)),
        weight_buffer_bytes=draw(_buffer(word_bytes)),
        bias_buffer_bytes=draw(st.integers(1, 64 * 1024)),
        word_bytes=word_bytes,
        frequency_hz=draw(st.sampled_from([1e9, 1e8])),
        dram_words_per_cycle=draw(st.floats(0.25, 64.0)),
        overlap_streams=draw(st.booleans()),
    )


def _ctx(layer, in_shape: TensorShape) -> LayerContext:
    return LayerContext(layer, in_shape, layer.output_shape(in_shape))


@st.composite
def conv_contexts(draw) -> LayerContext:
    k = draw(st.integers(1, 11))
    pad = draw(st.integers(0, 2))
    groups = draw(st.sampled_from([1, 2]))
    din = groups * draw(st.integers(1, 512 // groups))
    dout = groups * draw(st.integers(1, 512 // groups))
    low = max(1, k - 2 * pad)
    layer = ConvLayer(
        "conv", in_maps=din, out_maps=dout, kernel=k,
        stride=draw(st.integers(1, 4)), pad=pad, groups=groups,
        bias=draw(st.booleans()),
    )
    shape = TensorShape(
        din, draw(st.integers(low, low + 40)), draw(st.integers(low, low + 40))
    )
    return _ctx(layer, shape)


@st.composite
def aux_contexts(draw) -> LayerContext:
    shape = TensorShape(
        draw(st.integers(1, 512)), draw(st.integers(1, 32)), draw(st.integers(1, 32))
    )
    kind = draw(st.sampled_from(["pool", "fc", "lrn", "relu", "concat", "add"]))
    if kind == "pool":
        kernel = draw(st.integers(1, min(shape.height, shape.width)))
        layer = PoolLayer("aux", kernel=kernel, stride=draw(st.integers(1, 3)))
    elif kind == "fc":
        layer = FCLayer(
            "aux", out_features=draw(st.integers(1, 4096)), bias=draw(st.booleans())
        )
    elif kind == "lrn":
        layer = LRNLayer("aux")
    elif kind == "relu":
        layer = ReLULayer("aux")
    elif kind == "concat":
        layer = ConcatLayer("aux", branch_depths=(shape.depth, shape.depth))
    else:
        layer = EltwiseAddLayer("aux")
    return _ctx(layer, shape)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _outcome(fn):
    """The call's value, or its exception as (type, text)."""
    try:
        return fn()
    except Exception as exc:  # the reference's own failures are compared too
        return (type(exc), str(exc))


def _same_record(new, ref, config) -> None:
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert type(new) is TableRecord and type(ref) is ScheduleResult, (new, ref)
    assert record_view(new) == record_view(ref)  # counters, fit and notes included
    assert type(new.accesses) is FrozenDict and type(new.notes) is FrozenDict
    assert new.config is config


def _same_outcome(new, ref) -> None:
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert (new.layer_name, new.scheme) == (ref.layer_name, ref.scheme)
    assert len(new.alternatives) == len(ref.alternatives)
    for a, b in zip((new.result, *new.alternatives), (ref.result, *ref.alternatives)):
        _same_record(a, b, ref.result.config)


def _flipped(config: AcceleratorConfig) -> AcceleratorConfig:
    """A config with the same key whose clock and overlap rule differ."""
    return dataclasses.replace(
        config,
        frequency_hz=config.frequency_hz * 2,
        overlap_streams=not config.overlap_streams,
    )


def _check_layer(ctx: LayerContext, config: AcceleratorConfig) -> None:
    cache = ScheduleCache()
    twin = LayerContext(dataclasses.replace(ctx.layer, name="twin"), ctx.in_shape, ctx.out_shape)
    for c, cfg in ((ctx, config), (twin, _flipped(config))):
        for name, reference in REFERENCE.items():
            ref = _outcome(lambda: reference.schedule(c, cfg))
            _same_record(_outcome(lambda: make_scheme(name).schedule(c, cfg)), ref, cfg)
            _same_record(_outcome(lambda: cache.get_or_schedule(name, c, cfg)), ref, cfg)
            if isinstance(ref, ScheduleResult) or ref[0] is ScheduleError:
                legal = CostTable(c, cfg).legal(name)
                assert legal == isinstance(ref, ScheduleResult), name
        for objective in OBJECTIVES:
            ref = _outcome(lambda: best_scheme_for_layer(c, cfg, objective=objective))
            new = _outcome(lambda: table_best_scheme(c, cfg, objective=objective))
            _same_outcome(new, ref)
            if objective == "cycles":
                winner = _outcome(lambda: best_scheme_name_for_layer(c, cfg))
                assert winner == (ref.scheme if isinstance(ref, SearchOutcome) else ref)
        if not isinstance(c.layer, ConvLayer):
            ref = _outcome(lambda: schedule_auxiliary(c, cfg))
            _same_record(_outcome(lambda: table_schedule_auxiliary(c, cfg)), ref, cfg)
            _same_record(_outcome(lambda: cache.table(c, cfg).auxiliary(c, cfg)), ref, cfg)
    assert cache.stats().misses == 1  # the twin shares the first layer's table


@pytest.fixture(autouse=True)
def _fresh_cache():
    schedule_cache.configure(enabled=True)
    schedule_cache.clear()
    yield
    schedule_cache.configure(enabled=True)
    schedule_cache.clear()


@settings(max_examples=150, deadline=None)
@given(ctx=st.one_of(conv_contexts(), aux_contexts()), config=configs())
@example(  # partition is illegal on a 1x1 conv: the same text for both layers
    ctx=_ctx(ConvLayer("conv", in_maps=8, out_maps=8, kernel=1), TensorShape(8, 7, 7)),
    config=AcceleratorConfig(),
)
@example(  # a one-word buffer: the smallest tile a config allows
    ctx=_ctx(ConvLayer("conv", in_maps=3, out_maps=8, kernel=3), TensorShape(3, 9, 9)),
    config=AcceleratorConfig(weight_buffer_bytes=2),
)
def test_every_record_matches_the_reference(ctx, config):
    _check_layer(ctx, config)


#: the config knobs the buffer fit reads: the data buffers' words (their
#: bytes over the word width) and the DRAM rate
MEMORY_KNOBS = (
    "input_buffer_bytes",
    "output_buffer_bytes",
    "weight_buffer_bytes",
    "word_bytes",
    "dram_words_per_cycle",
)


def _other_memory(
    draw, base: AcceleratorConfig, knob: str
) -> Optional[AcceleratorConfig]:
    """``base`` with ``knob`` drawn anew, or None if no other valid value exists."""
    value = getattr(base, knob)
    if knob == "word_bytes":
        smallest = min(getattr(base, k) for k in MEMORY_KNOBS[:3])
        widths = [w for w in (1, 2, 4) if w != value and w <= smallest]
        if not widths:
            return None
        new = draw(st.sampled_from(widths))
    elif knob == "dram_words_per_cycle":
        new = draw(st.floats(0.25, 64.0).filter(lambda rate: rate != value))
    else:
        new = draw(_buffer(base.word_bytes).filter(lambda size: size != value))
    return dataclasses.replace(base, **{knob: new})


@st.composite
def config_families(draw) -> List[AcceleratorConfig]:
    """Configs in a drawn order: a base, others with its memory system and
    another PE shape, others with its PE shape and one memory knob changed,
    and each of them under the opposite overlap rule too."""
    base = draw(configs())
    family = [base]
    for _ in range(draw(st.integers(1, 2))):
        family.append(
            dataclasses.replace(
                base, tin=draw(st.integers(1, 64)), tout=draw(st.integers(1, 64))
            )
        )
    knobs = st.lists(st.sampled_from(MEMORY_KNOBS), min_size=1, max_size=3, unique=True)
    for knob in draw(knobs):
        other = _other_memory(draw, base, knob)
        if other is not None:
            family.append(other)
    family += [_flipped(config) for config in family]
    return draw(st.permutations(family))


_CONV1 = _ctx(
    ConvLayer("conv", in_maps=3, out_maps=96, kernel=11, stride=4), TensorShape(3, 227, 227)
)
_OVERLAPPED = AcceleratorConfig(tin=4, tout=64)
_SERIAL = dataclasses.replace(_OVERLAPPED, overlap_streams=False)
_SMALL = AcceleratorConfig(
    tin=8, tout=8, input_buffer_bytes=4096, output_buffer_bytes=4096,
    weight_buffer_bytes=4096,
)


@settings(max_examples=40, deadline=None)
@given(ctx=conv_contexts(), family=config_families())
# the cycle oracle picks intra overlapped and partition serialized
@example(ctx=_CONV1, family=[_OVERLAPPED, _SERIAL])
@example(ctx=_CONV1, family=[_SERIAL, _OVERLAPPED])
@example(  # the same buffer bytes hold half the words of twice the width
    ctx=_ctx(ConvLayer("conv", in_maps=16, out_maps=32, kernel=3), TensorShape(16, 14, 14)),
    family=[_SMALL, dataclasses.replace(_SMALL, word_bytes=4), _SMALL.with_pe(16, 4)],
)
@example(  # a quarter of the DRAM rate: four times the DMA cycles
    ctx=_CONV1,
    family=[
        _SMALL, dataclasses.replace(_SMALL, dram_words_per_cycle=1.0), _SMALL.with_pe(4, 16)
    ],
)
def test_a_shared_cache_prices_each_config_as_its_own(ctx, family):
    """One layer through one cache under configs that share a PE shape or a
    memory system, and both overlap rules, in a drawn order: whatever the
    cache holds from earlier configs (tables, buffer fits, oracle winners),
    every record and oracle pick equals the reference's."""
    cache = ScheduleCache()
    for config in family:
        for name, reference in REFERENCE.items():
            ref = _outcome(lambda: reference.schedule(ctx, config))
            new = _outcome(lambda: cache.get_or_schedule(name, ctx, config))
            _same_record(new, ref, config)
        ref = best_scheme_for_layer(ctx, config)
        assert cache.table(ctx, config).winner(ctx, config) == ref.scheme
    assert cache.stats().misses == len({config.schedule_key for config in family})


def _same_plan(new, ref) -> None:
    if isinstance(ref, tuple):
        assert new == ref
        return
    # names, policy, config and reorder words, then every record
    assert dataclasses.replace(new, layers=[]) == dataclasses.replace(ref, layers=[])
    assert len(new.layers) == len(ref.layers)
    for a, b in zip(new.layers, ref.layers):
        _same_record(a, b, ref.config)
    assert new.total_cycles == ref.total_cycles


@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(net=st.sampled_from(sorted(ZOO)), config=configs())
@example(net="alexnet", config=AcceleratorConfig(tin=4, tout=64))
def test_every_plan_matches_the_reference(net, config):
    """Each plan is followed by one under the opposite overlap rule, which
    shares every table with it."""
    network = ZOO[net]
    for include_non_conv, policy, cfg in product(
        (False, True), POLICY_NAMES, (config, _flipped(config))
    ):
        ref = _outcome(lambda: plan_network(network, cfg, policy, include_non_conv))
        _same_plan(
            _outcome(lambda: table_plan_network(network, cfg, policy, include_non_conv)),
            ref,
        )
        schedule_cache.configure(enabled=False)
        try:
            uncached = _outcome(
                lambda: table_plan_network(network, cfg, policy, include_non_conv)
            )
        finally:
            schedule_cache.configure(enabled=True)
        _same_plan(uncached, ref)
