"""Cost tables: every scheme's costs on one (layer geometry, config) pair.

Algorithm 2, the oracle and the fixed policies choose among the same
schemes on the same layer, and every scheme starts from the same per-group
geometry and buffer fit.  A :class:`CostTable` derives those once, prices
the oracle's four candidates in one pass over them (the ideal bound and
the 2D-mesh extension on demand) as :class:`~repro.schemes.base.Costs`
rows of plain numbers, or the name-free text of why a scheme cannot map
the layer.  A :class:`~repro.schemes.base.ScheduleResult` is a row bound to
a caller's layer name and config, built only for a scheme a caller keeps,
memoized and rebound to each later caller.  Each scheme's model is its
module's docstring.  A non-conv layer's table holds one row, its
:func:`~repro.schemes.auxiliary.auxiliary_costs`.

Rows read the layer's geometry and the config knobs of
``AcceleratorConfig.schedule_key``, never the layer's name, the clock or
``overlap_streams``; what they read of the layer alone is derived once per
:class:`~repro.nn.network.LayerContext`, and the buffer fit, which reads
only the layer and ``AcceleratorConfig.fit_key``, once per geometry and
memory system by the schedule cache that hands it to each table it
builds.  The oracle's winner ranks wall-clock cycles, which do read
``overlap_streams``, so :meth:`CostTable.winner` ranks the priced
candidates under the overlap rule it is asked for, once per rule.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, ScheduleError
from repro.nn.layers import ConvLayer
from repro.nn.network import LayerContext, per_context
from repro.schemes.auxiliary import auxiliary_costs
from repro.schemes.base import Costs, FrozenDict, ScheduleResult, Scheme, group_geometry
from repro.schemes.ideal import IdealScheme
from repro.schemes.inter import InterKernelScheme
from repro.schemes.inter_improved import ImprovedInterKernelScheme
from repro.schemes.intra import DEFAULT_RESHAPE_WORDS_PER_CYCLE, IntraKernelScheme
from repro.schemes.partition import KernelPartitionScheme
from repro.schemes.pe2d import Pe2dScheme
from repro.tiling.fit import FitReport, analyze_fit
from repro.tiling.layout import Layout
from repro.tiling.partition import padded_input_extent, partition_geometry
from repro.tiling.unroll import unroll_stats

__all__ = ["CANDIDATES", "CostTable", "all_scheme_names", "make_scheme"]

_SCHEMES = {
    "ideal": IdealScheme,
    "inter": InterKernelScheme,
    "inter-improved": ImprovedInterKernelScheme,
    "intra": IntraKernelScheme,
    "partition": KernelPartitionScheme,
    # extension: analyzed in Sec 4.1.2 but not part of the paper's
    # evaluated policy set (see schemes/pe2d.py)
    "pe2d": Pe2dScheme,
}

#: the schemes the cycle oracle ranks (ideal is a bound, not a real mapping)
CANDIDATES = ("inter", "inter-improved", "intra", "partition")

#: the record key of a non-conv layer's one row
_AUX = "aux"

def make_scheme(name: str) -> Scheme:
    """Instantiate a scheme by its report name."""
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from None


def all_scheme_names() -> List[str]:
    """Names of every registered scheme."""
    return sorted(_SCHEMES)


def _new_record(fields: Dict[str, object]) -> ScheduleResult:
    """A record whose instance dict is ``fields`` (all of them, its row's
    counts checked and ``total_cycles`` under its config's overlap rule):
    built by hand, as the frozen ``__init__`` takes twice as long and a
    design-space sweep builds tens of thousands."""
    record = object.__new__(ScheduleResult)
    object.__setattr__(record, "__dict__", fields)
    return record


def _rebind(
    record: ScheduleResult, ctx: LayerContext, config: AcceleratorConfig
) -> ScheduleResult:
    """``record`` as the caller's: itself if it already is, else a shallow
    copy (its fields are values, so the copy shares them) whose cycles
    follow ``config``'s overlap rule."""
    if record.layer_name == ctx.name and record.config is config:
        return record
    fields = {**record.__dict__, "layer_name": ctx.name, "config": config}
    if config.overlap_streams != record.config.overlap_streams:
        fields["total_cycles"] = record.costs.total_cycles(config.overlap_streams)
    return _new_record(fields)


@per_context
def _unrolled_words(ctx: LayerContext) -> int:
    return unroll_stats(ctx.layer, ctx.in_shape).unrolled_elements


@per_context
def _padded_input_words(ctx: LayerContext) -> int:
    """Partition's input, zero-padded for every sub-kernel's scan."""
    layer, shape = ctx.layer, ctx.in_shape
    _, ph = padded_input_extent(shape.height, layer.kernel, layer.stride, layer.pad)
    _, pw = padded_input_extent(shape.width, layer.kernel, layer.stride, layer.pad)
    return shape.depth * ph * pw


class CostTable:
    """Every scheme's costs on one layer geometry and config.

    ``ctx`` and ``config`` are the first caller's; ``fit`` is the conv
    layer's buffer fit under ``config`` when the caller holds it, as the
    schedule cache does, and is otherwise derived when first read.
    Concurrent callers may price a row, rank the winner or build a record
    twice, never differently.
    """

    __slots__ = ("ctx", "config", "geom", "_fit", "_rows", "_records", "_winners")

    def __init__(
        self,
        ctx: LayerContext,
        config: AcceleratorConfig,
        fit: Optional[FitReport] = None,
    ) -> None:
        self.ctx = ctx
        self.config = config
        #: per-group geometry; None for a non-conv layer
        self.geom = group_geometry(ctx) if isinstance(ctx.layer, ConvLayer) else None
        self._fit = fit
        self._rows: Dict[str, Union[Costs, str]] = {}
        self._records: Dict[str, ScheduleResult] = {}
        #: overlap_streams -> the cycle oracle's winning scheme name
        self._winners: Dict[bool, str] = {}

    @property
    def fit(self) -> FitReport:
        """The conv layer's buffer fit, shared by every scheme's row."""
        if self._fit is None:
            self._fit = analyze_fit(self.ctx, self.config)
        return self._fit

    def row(self, name: str) -> Union[Costs, str]:
        """``name``'s costs, or the name-free text of why it cannot map the layer."""
        row = self._rows.get(name)
        if row is None:
            price = _PRICE.get(name)
            if price is None:
                make_scheme(name)  # raises ConfigError naming the choices
            if self.geom is None:
                row = self._rows[name] = "schemes schedule conv layers only"
            else:
                price(self)
                row = self._rows[name]
        return row

    def _price_candidates(self) -> None:
        """Price inter, improved inter, intra and partition in one pass
        (partition's row is its illegality text when ``s >= k``).

        Every one adds ``passes`` add-and-store partial sums per output
        word (one when the sum completes in the PE), each pass but the
        first reloading the running sum; fills the weight buffer with its
        weight words and the input buffer with the rest of its DRAM words
        but the output drain; and loads the bias once per output map.  Rows
        list :class:`Costs` fields in order: operations, useful MACs, extra
        adds, input, output and weight loads and stores, bias loads, DRAM
        words, DMA cycles.
        """
        geom, config, ctx, rows = self.geom, self.config, self.ctx, {}
        k, s, d, dout_g = geom.k, geom.s, geom.d, geom.dout_g
        fit = self.fit
        out, bias, macs = ctx.out_shape.elements, ctx.out_shape.depth, geom.macs
        pixels = geom.groups * geom.out_pixels  # output pixels of all groups
        dout_chunks = math.ceil(dout_g / config.tout)
        weights = fit.working_set.weight_words  # k * k * d * Dout
        traffic = fit.total_traffic_words
        fills = max(0, traffic - weights - out)

        # inter-kernel: one op per (output pixel, kernel element, Din chunk,
        # Dout chunk); each Din chunk's d words are fetched per pixel and
        # kernel element and again per Dout chunk; no weight reuse, and the
        # sum completes in the PE
        din_chunks = math.ceil(d / config.tin)
        reach = pixels * k * k
        ops = reach * din_chunks * dout_chunks
        data = reach * d * dout_chunks
        rows["inter"] = Costs(
            ops, macs, 0, data, fills, out, out, reach * d * dout_g, weights,
            bias, traffic, fit.dma_cycles, layout=Layout.INTER,
        )
        # improved inter-kernel: the same ops and data; each weight stays
        # resident for a (kernel element, Din chunk) pass, so loads once
        passes = k * k * din_chunks
        rows["inter-improved"] = Costs(
            ops, macs, out * (passes - 1), data, fills, out * passes,
            out * passes, weights, weights, bias, traffic, fit.dma_cycles,
            layout=Layout.INTER, notes=FrozenDict(passes=passes),
        )

        # intra-kernel: a receptive field of k*k*d words in Tin-word chunks,
        # each chunk's weights resident for one pass over the output map
        field = k * k * d
        passes = math.ceil(field / config.tin)
        if k == s and ctx.layer.pad == 0:
            # sliding window: no duplication, strip tiling as the fit models
            stream, reshape, dram, mode = ctx.in_shape.elements, 0.0, traffic, "sliding"
        else:
            # unrolling: the host reshapes the input once, into DRAM; the
            # unrolled input replaces the raw one, cannot be strip-tiled, so
            # what the input buffer cannot hold is re-fetched per Dout chunk,
            # and weight overflow re-streams like everyone else's
            stream = _unrolled_words(ctx)
            reshape = stream / DEFAULT_RESHAPE_WORDS_PER_CYCLE
            dram = fit.compulsory_words - fit.working_set.input_words + stream
            dram += (dout_chunks - 1) * max(0, stream - config.input_buffer_words)
            dram += fit.spill_words
            mode = "unrolling"
        rows["intra"] = Costs(
            pixels * passes * dout_chunks, macs, out * (passes - 1),
            pixels * field * dout_chunks, max(0, dram - weights - out),
            out * passes, out * passes, weights, weights, bias, dram,
            dram / config.dram_words_per_cycle, reshape,
            notes=FrozenDict(mode=mode, stream_words=stream),
        )

        if s < k:
            # kernel partitioning: G = g*g sub-kernels of ks*ks; one scan of the
            # output map per (piece, input map, Dout chunk), Tin // (ks*ks)
            # windows per op (or ceil(ks*ks / Tin) ops per window); pieces * d
            # accumulation passes (Algorithm 1 lines 7-8); the zero-padded
            # weights are loaded and multiplied, but are not useful MACs
            pgeom = partition_geometry(k, s)
            window, pieces = pgeom.sub_window_elements, pgeom.pieces
            if window <= config.tin:
                windows_per_op = config.tin // window
                ops_per_scan = math.ceil(geom.out_pixels / windows_per_op)
            else:
                windows_per_op = 1
                ops_per_scan = geom.out_pixels * math.ceil(window / config.tin)
            scans = geom.groups * pieces * d * dout_chunks
            padded = geom.groups * pieces * window * d * dout_g
            # off-chip input grows only by the partition zero-padding margin
            dram = (
                traffic - fit.working_set.input_words + _padded_input_words(ctx)
                - weights + padded
            )
            passes = pieces * d
            rows["partition"] = Costs(
                scans * ops_per_scan, macs, out * (passes - 1),
                scans * geom.out_pixels * window, max(0, dram - padded - out),
                out * passes, out * passes, padded, padded, bias, dram,
                dram / config.dram_words_per_cycle,
                notes=FrozenDict(
                    pieces=pieces,
                    sub_kernel=pgeom.sub_kernel,
                    windows_per_op=windows_per_op,
                    pad_overhead=pgeom.pad_overhead,
                ),
            )
        else:
            rows["partition"] = (
                f"partitioning needs stride < kernel (k={k}, s={s}); "
                "use intra-kernel instead"
            )
        # at once: winner() reads all four rows once intra's is there
        self._rows.update(rows)

    def _price_ideal(self) -> None:
        """Every multiplier busy, every word across each interface once."""
        geom, config, ctx = self.geom, self.config, self.ctx
        weights = geom.groups * geom.k * geom.k * geom.d * geom.dout_g
        dram = self.fit.compulsory_words
        inputs, outputs = ctx.in_shape.elements, ctx.out_shape.elements
        self._rows["ideal"] = Costs(
            math.ceil(geom.macs / config.multipliers), geom.macs, 0,
            inputs, inputs, outputs, outputs, weights, weights, 0,
            dram, dram / config.dram_words_per_cycle,
        )

    def _price_pe2d(self) -> None:
        """A Tin x Tout output-stationary mesh: output tiles of one pixel per
        PE, each accumulating its k*k*d field serially per output map, the
        array stalling s-fold on data supply; inputs stream once per output
        map, weights broadcast once per (kernel element, map) pass."""
        geom, config, ctx = self.geom, self.config, self.ctx
        fit = self.fit
        out = ctx.out_shape.elements
        tiles = math.ceil(geom.ox / config.tin) * math.ceil(geom.oy / config.tout)
        work = geom.groups * geom.k * geom.k * geom.d * geom.dout_g
        weights, traffic = fit.working_set.weight_words, fit.total_traffic_words
        self._rows["pe2d"] = Costs(
            int(tiles * work * max(1, geom.s)), geom.macs, 0,
            ctx.in_shape.elements * geom.dout_g, max(0, traffic - weights - out),
            out, out, work, weights, ctx.out_shape.depth, traffic, fit.dma_cycles,
            notes=FrozenDict(
                tiles=tiles,
                mesh=f"{config.tin}x{config.tout}",
                stride_stall_factor=max(1, geom.s),
            ),
        )

    def legal(self, name: str) -> bool:
        """Whether ``name`` can map the layer (the legality column)."""
        return not isinstance(self.row(name), str)

    def _record(
        self, name: str, row: Costs, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        row.check_counts()
        return _new_record({
            "scheme": name, "layer_name": ctx.name, "config": config, "costs": row,
            "fit": None if self.geom is None else self.fit,
            "total_cycles": row.total_cycles(config.overlap_streams),
        })

    def result(
        self, name: str, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        """``name``'s record for the caller's layer and config; raises
        :class:`ScheduleError` naming ``ctx`` if it cannot map the layer."""
        record = self._records.get(name)
        if record is None:
            row = self.row(name)
            if isinstance(row, str):
                raise ScheduleError(f"{ctx.name}: {row}")
            record = self._records[name] = self._record(name, row, ctx, config)
        return _rebind(record, ctx, config)

    def auxiliary(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        """The non-conv layer's record; raises :class:`ScheduleError` for conv."""
        record = self._records.get(_AUX)
        if record is None:
            try:
                name, row = auxiliary_costs(ctx, config)
            except ScheduleError as exc:
                raise ScheduleError(f"{ctx.name}: {exc}") from None
            record = self._records[_AUX] = self._record(name, row, ctx, config)
        return _rebind(record, ctx, config)

    def cycle_rank(self, name: str, overlap: bool):
        """The cycle oracle's sort key of a legal scheme: fewest wall-clock
        cycles, then fewest buffer accesses, then the name, so ties break the
        same whatever the candidate order."""
        row = self._rows[name]
        return (row.total_cycles(overlap), row.buffer_accesses, name)

    def winner(self, ctx: LayerContext, config: AcceleratorConfig) -> str:
        """The cycle oracle's pick among :data:`CANDIDATES` under ``config``'s
        overlap rule, ranked when that rule is first asked for."""
        overlap = config.overlap_streams
        winner = self._winners.get(overlap)
        if winner is None:
            if isinstance(self.row("intra"), str):  # not a conv layer
                raise ScheduleError(f"{ctx.name}: no candidate scheme is legal")
            rows = self._rows  # row() priced every candidate at once
            winner = self._winners[overlap] = min(
                self.cycle_rank(name, overlap)
                for name in CANDIDATES
                if not isinstance(rows[name], str)
            )[2]
        return winner


#: how a table prices each scheme's row (the oracle's candidates at once)
_PRICE = {
    "ideal": CostTable._price_ideal,
    "inter": CostTable._price_candidates,
    "inter-improved": CostTable._price_candidates,
    "intra": CostTable._price_candidates,
    "partition": CostTable._price_candidates,
    "pe2d": CostTable._price_pe2d,
}
