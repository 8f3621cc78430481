"""Accelerator configuration (the paper's Table 3).

A configuration is named after its PE width, e.g. ``16-16`` means the
computation engine takes 16 inputs from input feature maps and 16 inputs
from weights, i.e. ``Tin * Tout = 256`` multipliers feeding ``Tout = 16``
adder trees.  Buffer sizes default to Table 3: 2 MB input/output buffers,
1 MB weight buffer, 4 KB bias buffer; every primitive operation
(multiplication, add, load, store) costs one cycle, i.e. the pipelined
array retires one operation per cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional

from repro.errors import ConfigError, check_count, check_counts, check_real

__all__ = ["AcceleratorConfig", "CONFIG_16_16", "CONFIG_32_32", "named_config"]

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class AcceleratorConfig:
    """Hardware parameters of the C-Brain-style accelerator.

    Attributes
    ----------
    tin:
        Data-side PE width: input-feature-map words consumed per cycle.
    tout:
        Output-side PE width: number of adder trees / partial sums per cycle.
    input_buffer_bytes / output_buffer_bytes / weight_buffer_bytes / bias_buffer_bytes:
        On-chip SRAM capacities (Table 3).
    word_bytes:
        Datapath word width; the paper uses 16-bit fixed point.
    frequency_hz:
        Clock used to convert cycles to time (1 GHz in Table 4,
        down-scaled to 100 MHz for the Fig. 9 comparison).
    dram_words_per_cycle:
        Sustained off-chip DMA bandwidth in words per accelerator cycle,
        used to charge off-chip spill traffic when a working set exceeds
        the on-chip buffers (the paper's VGG discussion).
    """

    tin: int = 16
    tout: int = 16
    input_buffer_bytes: int = 2 * MB
    output_buffer_bytes: int = 2 * MB
    weight_buffer_bytes: int = 1 * MB
    bias_buffer_bytes: int = 4 * KB
    word_bytes: int = 2
    frequency_hz: float = 1e9
    dram_words_per_cycle: float = 4.0
    #: double buffering: overlap compute with the DMA/reshape streams.
    #: Disabling it serializes the two (the ablation for the paper's
    #: "moves the data fetch operations off the critical path" claim).
    overlap_streams: bool = True

    def __post_init__(self) -> None:
        for attr in (
            "tin",
            "tout",
            "input_buffer_bytes",
            "output_buffer_bytes",
            "weight_buffer_bytes",
            "bias_buffer_bytes",
            "word_bytes",
            "dram_words_per_cycle",
            "frequency_hz",
        ):
            value = getattr(self, attr)
            # finiteness first, so a NaN reads "a finite number" and a zero
            # "positive": the messages this record has always given
            check_real(value, attr)
            check_real(value, attr, gt=0, finite=False)
        # PE widths, buffer sizes and the word width are whole counts
        check_counts(
            self,
            "tin",
            "tout",
            "input_buffer_bytes",
            "output_buffer_bytes",
            "weight_buffer_bytes",
            "bias_buffer_bytes",
            "word_bytes",
            minimum=1,
        )
        # the buffer fit divides by each data buffer's whole words (never
        # by the bias buffer's), so each must hold at least one word
        for attr in (
            "input_buffer_bytes",
            "output_buffer_bytes",
            "weight_buffer_bytes",
        ):
            value = getattr(self, attr)
            if value < self.word_bytes:
                raise ConfigError(
                    f"{attr} must hold at least one {self.word_bytes!r}-byte "
                    f"word, got {value!r}"
                )

    @cached_property
    def schedule_key(self) -> str:
        """The knobs that shape schedule arithmetic — not the clock or the
        overlap rule — computed once per config (the cost-table cache key).
        A ``str``, whose hash CPython computes once; the DRAM rate is made a
        ``float`` so that equal int and float rates give one key."""
        return repr((
            self.tin, self.tout, self.input_buffer_bytes, self.output_buffer_bytes,
            self.weight_buffer_bytes, self.bias_buffer_bytes, self.word_bytes,
            float(self.dram_words_per_cycle),
        ))

    @cached_property
    def fit_key(self) -> str:
        """What the buffer fit reads: the three data buffers' whole words and
        the DRAM rate, computed once per config (the fit memo's key)."""
        return repr((
            self.input_buffer_words, self.output_buffer_words,
            self.weight_buffer_words, float(self.dram_words_per_cycle),
        ))

    @property
    def multipliers(self) -> int:
        """Total multipliers in the PE array (``Tin * Tout``)."""
        return self.tin * self.tout

    @property
    def name(self) -> str:
        """The paper's naming convention, e.g. ``"16-16"``."""
        return f"{self.tin}-{self.tout}"

    @property
    def input_buffer_words(self) -> int:
        return self.input_buffer_bytes // self.word_bytes

    @property
    def output_buffer_words(self) -> int:
        return self.output_buffer_bytes // self.word_bytes

    @property
    def weight_buffer_words(self) -> int:
        return self.weight_buffer_bytes // self.word_bytes

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds at this clock."""
        return cycles / self.frequency_hz

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count to milliseconds at this clock."""
        return self.cycles_to_seconds(cycles) * 1e3

    def with_pe(self, tin: int, tout: int) -> "AcceleratorConfig":
        """Copy with a different PE width (used for design-space sweeps)."""
        return replace(self, tin=tin, tout=tout)

    def with_frequency(self, hz: float) -> "AcceleratorConfig":
        """Copy with a different clock (Fig. 9 down-scales to 100 MHz)."""
        return replace(self, frequency_hz=hz)

    def partition(
        self,
        tin: int,
        tout: int,
        buffer_fraction: Optional[float] = None,
        dram_fraction: Optional[float] = None,
    ) -> "AcceleratorConfig":
        """Derive the sub-accelerator config of one chip partition.

        Carving ``tin x tout`` multipliers plus a share of the SRAM and DMA
        budget out of this chip yields a first-class config: planning,
        caching, and serving treat it as just another geometry (the same
        trick :func:`repro.resilience.degrade.degraded_config` plays for PE
        masks).  Fractions default to the partition's share of the PE
        array, ``(tin * tout) / multipliers``; a full-chip partition
        (``tin == self.tin``, ``tout == self.tout``, fractions 1) derives a
        config *equal* to the parent, so degenerate partitions are
        bit-identical to whole-chip planning by construction.

        Clock and overlap semantics are inherited — partitions share the
        parent's clock domain.
        """
        tin = check_count(tin, "partition tin", 1)
        tout = check_count(tout, "partition tout", 1)
        if tin > self.tin:
            raise ConfigError(
                f"partition tin {tin} exceeds the parent chip's tin {self.tin}"
            )
        if tout > self.tout:
            raise ConfigError(
                f"partition tout {tout} exceeds the parent chip's tout {self.tout}"
            )
        area_fraction = (tin * tout) / self.multipliers
        if buffer_fraction is None:
            buffer_fraction = area_fraction
        if dram_fraction is None:
            dram_fraction = area_fraction
        for label, fraction in (
            ("buffer_fraction", buffer_fraction),
            ("dram_fraction", dram_fraction),
        ):
            check_real(fraction, f"partition {label}", gt=0, le=1)

        def share(total_bytes: int) -> int:
            scaled = int(total_bytes * buffer_fraction)
            aligned = (scaled // self.word_bytes) * self.word_bytes
            if aligned <= 0:
                raise ConfigError(
                    f"buffer_fraction {buffer_fraction!r} of {total_bytes} "
                    f"bytes leaves no whole-word buffer for the partition"
                )
            return aligned

        return replace(
            self,
            tin=tin,
            tout=tout,
            input_buffer_bytes=share(self.input_buffer_bytes),
            output_buffer_bytes=share(self.output_buffer_bytes),
            weight_buffer_bytes=share(self.weight_buffer_bytes),
            bias_buffer_bytes=share(self.bias_buffer_bytes),
            dram_words_per_cycle=self.dram_words_per_cycle * dram_fraction,
        )

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (JSON-friendly) for config files and exports."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "AcceleratorConfig":
        """Inverse of :meth:`to_dict`.

        Unknown keys are a hard error naming each unexpected key (a typoed
        knob silently falling back to its default would be far worse), and
        the constructor's validation rejects non-positive values with the
        offending value in the message.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            noun = "key" if len(unknown) == 1 else "keys"
            raise ConfigError(
                f"unknown config {noun} {', '.join(map(repr, unknown))}; "
                f"valid keys: {sorted(fields)}"
            )
        return cls(**data)


#: Table 3's two evaluated PE widths.
CONFIG_16_16 = AcceleratorConfig(tin=16, tout=16)
CONFIG_32_32 = AcceleratorConfig(tin=32, tout=32)


def named_config(name: str) -> AcceleratorConfig:
    """Parse a ``"Tin-Tout"`` string into a configuration."""
    try:
        tin_s, tout_s = name.split("-")
        return AcceleratorConfig(tin=int(tin_s), tout=int(tout_s))
    except (ValueError, TypeError):
        raise ConfigError(f"bad configuration name {name!r}; expected 'Tin-Tout'") from None
