"""Scheme interface, the cost row and the schedule-result record.

A *scheme* maps one convolutional layer onto the PE array.  What that
costs — array compute cycles, buffer word accesses, off-chip traffic, and
the layout it streams — is a :class:`Costs` row of plain numbers in the
layer's :class:`~repro.schemes.table.CostTable`, which binds the row of
a scheme a caller keeps to the caller as a :class:`ScheduleResult` record.
Everything downstream (planners, energy model, benchmarks) works from
these records.

Timing model
------------
The array retires one operation per cycle (Table 3), so ``compute_cycles ==
operations``.  DMA and (for the unrolling realization) the host-side reshape
stream run concurrently with compute under double buffering, and the reshape
pipelines with the DMA strip-by-strip, so a layer's wall-clock is
``max(compute, dma, reshape)`` — a layer only slows down when it becomes
memory-bound, which is exactly the paper's VGG story.  Output *stores* are
"off the critical path" (Sec 4.2.2) and are charged to energy, not time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.layers import ConvLayer
from repro.nn.network import LayerContext, per_context
from repro.tiling.fit import FitReport
from repro.tiling.layout import Layout

__all__ = [
    "Costs",
    "FrozenDict",
    "ScheduleResult",
    "Scheme",
    "GroupGeometry",
    "group_geometry",
]


class FrozenDict(dict):
    """A ``dict`` that refuses every mutation but still pickles.

    :class:`types.MappingProxyType` is read-only too, but it cannot cross
    the ``--jobs`` process pools that carry schedule records.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


@dataclass(frozen=True)
class GroupGeometry:
    """Per-group convolution geometry shared by every scheme.

    ``d`` is the effective input depth seen by one kernel (``in_maps /
    groups`` — 48 for AlexNet's grouped conv2, which is the figure the paper
    quotes), ``dout_g`` the output maps per group.
    """

    groups: int
    d: int
    dout_g: int
    ox: int
    oy: int
    k: int
    s: int

    @property
    def out_pixels(self) -> int:
        return self.ox * self.oy

    @property
    def macs(self) -> int:
        """Useful MACs across all groups."""
        return self.groups * self.out_pixels * self.k * self.k * self.d * self.dout_g


@per_context
def group_geometry(ctx: LayerContext) -> GroupGeometry:
    """Extract the per-group geometry of a conv layer context."""
    layer = ctx.layer
    if not isinstance(layer, ConvLayer):
        raise ScheduleError(f"{ctx.name}: schemes schedule conv layers only")
    return GroupGeometry(
        groups=layer.groups,
        d=layer.in_maps // layer.groups,
        dout_g=layer.out_maps // layer.groups,
        ox=ctx.out_shape.width,
        oy=ctx.out_shape.height,
        k=layer.kernel,
        s=layer.stride,
    )


class Costs(NamedTuple):
    """One scheme's costs on one layer and config, as plain numbers: the row a
    :class:`ScheduleResult` views, its access counters spread over seven
    fields (no scheme stores into the bias buffer), one layout for both
    sides and the notes a :class:`FrozenDict` fixed when the row is priced."""

    operations: int
    useful_macs: int
    extra_adds: int
    input_loads: int
    input_stores: int
    output_loads: int
    output_stores: int
    weight_loads: int
    weight_stores: int
    bias_loads: int
    dram_words: int
    dma_cycles: float
    reshape_cycles: float = 0.0
    layout: Layout = Layout.INTRA
    notes: Mapping[str, object] = FrozenDict()  # a value, so shared

    @property
    def buffer_accesses(self) -> int:
        return sum(self[3:10])  # the seven access counts

    def check_counts(self) -> None:
        """Raise :class:`ScheduleError` unless the seven access counts are
        non-negative, as each :class:`AccessCounter` must be."""
        if min(self[3:10]) < 0:
            raise ScheduleError(f"access counts must be non-negative: {self!r}")

    def total_cycles(self, overlap: bool) -> float:
        """Wall-clock cycles: with double buffering (``overlap``, the default)
        compute and the memory streams overlap; without, they serialize —
        the hardware the paper's tiling is designed to avoid."""
        stream = max(self.dma_cycles, self.reshape_cycles)
        if overlap:
            return max(float(self.operations), stream)
        return float(self.operations) + stream


@dataclass(frozen=True)
class ScheduleResult:
    """Activity record of one scheme on one layer: its cost table's
    :class:`Costs` row bound to a caller's layer name and config.

    All counts are totals over the whole layer (all groups).  A value: the
    record and its row are frozen and ``accesses``/``notes`` are
    :class:`FrozenDict`, so the schedule cache and every plan reading a
    record share one object.
    """

    scheme: str
    layer_name: str
    config: AcceleratorConfig
    costs: Costs
    fit: Optional[FitReport] = None
    #: wall-clock cycles under ``config``'s overlap rule (:meth:`Costs.total_cycles`),
    #: fixed when the record is bound to ``config``
    total_cycles: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        self.costs.check_counts()
        cycles = self.costs.total_cycles(self.config.overlap_streams)
        object.__setattr__(self, "total_cycles", cycles)

    #: PE-array compute cycles (one operation per cycle)
    operations = compute_cycles = property(attrgetter("costs.operations"))
    #: multiplies that produced a real output (<= operations * Tin * Tout)
    useful_macs = property(attrgetter("costs.useful_macs"))
    #: extra adder ops for add-and-store accumulation (improved inter, partition)
    extra_adds = property(attrgetter("costs.extra_adds"))
    #: off-chip words moved (compulsory + spill, including unroll inflation)
    dram_words = property(attrgetter("costs.dram_words"))
    #: cycles the DMA engines need for dram_words
    dma_cycles = property(attrgetter("costs.dma_cycles"))
    #: host-side data-reshape stream cycles (unrolling realization only)
    reshape_cycles = property(attrgetter("costs.reshape_cycles"))
    input_layout = output_layout = property(attrgetter("costs.layout"))
    notes = property(attrgetter("costs.notes"))

    @cached_property
    def accesses(self) -> Mapping[str, AccessCounter]:
        """Per-buffer word access counters ("input"/"output"/"weight"/"bias"),
        built from the row on first read."""
        row = self.costs
        return FrozenDict(
            input=AccessCounter(row.input_loads, row.input_stores),
            output=AccessCounter(row.output_loads, row.output_stores),
            weight=AccessCounter(row.weight_loads, row.weight_stores),
            bias=AccessCounter(row.bias_loads),
        )

    @property
    def stream_cycles(self) -> float:
        """Cycles of the memory side: DMA and host reshape pipeline strip-wise."""
        return max(self.dma_cycles, self.reshape_cycles)

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
        return self.costs.buffer_accesses

    @property
    def buffer_access_bits(self) -> int:
        """Fig. 10's y-axis: access times weighted to bits (16-bit words)."""
        return self.buffer_accesses * self.config.word_bytes * 8

    def milliseconds(self) -> float:
        """Wall-clock at this configuration's frequency."""
        return self.config.cycles_to_ms(self.total_cycles)


class Scheme:
    """A data-level parallelization scheme (Sec. 4); its model is its
    module's docstring and its arithmetic a row of
    :class:`~repro.schemes.table.CostTable`."""

    #: short identifier used in reports ("inter", "intra", "partition", ...)
    name: str = "base"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        """Map ``ctx`` onto the array; raise :class:`ScheduleError` if illegal.
        Prices the scheme on a fresh (uncached) cost table."""
        from repro.schemes.table import CostTable  # the table imports every scheme

        return CostTable(ctx, config).result(self.name, ctx, config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<scheme {self.name}>"
