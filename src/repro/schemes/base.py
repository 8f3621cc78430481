"""Scheme interface, the cost row and the schedule-result record.

A *scheme* maps one convolutional layer onto the PE array.  What that
costs — array compute cycles, buffer word accesses, off-chip traffic, and
the layout it streams — is a :class:`Costs` row of plain numbers in the
layer's :class:`~repro.schemes.table.CostTable`, which builds a
:class:`ScheduleResult` record only for a scheme a caller keeps.
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
from typing import Mapping, NamedTuple, Optional

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.layers import ConvLayer
from repro.nn.network import LayerContext
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
    """One scheme's costs on one layer and config, as plain numbers: a
    :class:`ScheduleResult`'s, its access counters spread over seven fields
    (no scheme stores into the bias buffer), one layout for both sides."""

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
    notes: Optional[Mapping[str, object]] = None

    @property
    def buffer_accesses(self) -> int:
        return sum(self[3:10])  # the seven access counts

    def total_cycles(self, overlap: bool) -> float:
        """:attr:`ScheduleResult.total_cycles` under the overlap rule ``overlap``."""
        stream = max(self.dma_cycles, self.reshape_cycles)
        if overlap:
            return max(float(self.operations), stream)
        return float(self.operations) + stream


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
