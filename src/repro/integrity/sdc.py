"""Silent-data-corruption injection into the functional datapath.

:class:`SDCInjector` carries a set of :class:`~repro.resilience.faults.
BitFlipFault` descriptors and realises them at the hook sites the conv
paths in :mod:`repro.sim.functional` expose:

* ``activation`` / ``weight`` — one bit of one element of the raw operand
  tensor flips before the convolution reads it (a stuck SRAM cell in the
  input or kernel buffer);
* ``psum`` — one bit of the live partial-sum accumulator flips after a
  chosen accumulation step (the widest-propagating site: every later
  accumulation carries the error forward, cf. arXiv:2011.00850);
* ``output`` — one bit of the final output array flips after the last
  add (a writeback/requantization-stage upset).

Injection operates on integer *codes* (the fixed-point domain of
:mod:`repro.sim.datapath`); flips are two's-complement exact within the
word width, so a sign-bit flip wraps the way real hardware would.  Each
fault fires at most once and the injector records a :class:`FlipEvent`
per realised flip, so tests and the benchmark sweep can assert which
faults actually landed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import ConfigError, check_real
from repro.resilience.faults import BITFLIP_SITES, BitFlipFault

__all__ = ["FlipEvent", "SDCInjector", "flip_code"]

#: accumulator word width used for psum-site flips (wider than the 16-bit
#: datapath word, matching the wide MAC accumulators of Table 3 designs)
PSUM_BITS = 40


def flip_code(value: int, bit: int, width: int) -> int:
    """Flip ``bit`` of ``value`` within a ``width``-bit two's-complement word.

    The value is reduced to its low ``width`` bits, the bit is XORed, and
    the result is sign-extended back to a Python int — exactly what a
    single-event upset does to a stored word.
    """
    if not 0 <= bit < width:
        raise ConfigError(f"bit {bit} out of range for {width}-bit word")
    mask = (1 << width) - 1
    word = (int(value) & mask) ^ (1 << bit)
    if word >= 1 << (width - 1):  # sign bit set: two's-complement wrap
        word -= 1 << width
    return word


@dataclass(frozen=True)
class FlipEvent:
    """One realised bit flip: where it landed and what it changed."""

    site: str
    flat_index: int
    bit: int
    before: int
    after: int
    step: int = -1

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "flat_index": self.flat_index,
            "bit": self.bit,
            "before": self.before,
            "after": self.after,
            "step": self.step,
        }


class SDCInjector:
    """Realises :class:`BitFlipFault` descriptors at the conv hook sites.

    ``word_bits`` bounds activation/weight/output flips (stored words);
    psum flips use the wide :data:`PSUM_BITS` accumulator.  Fault indices
    and steps are taken modulo the live tensor size / step count, so one
    seeded fault family is valid for every layer geometry.
    """

    def __init__(self, faults: Iterable[BitFlipFault], word_bits: int = 16):
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, BitFlipFault):
                raise ConfigError(f"expected BitFlipFault, got {fault!r}")
        check_real(word_bits, "word_bits", ge=2, le=64)
        self.word_bits = word_bits
        self._pending: Dict[str, List[BitFlipFault]] = {
            site: [f for f in faults if f.site == site] for site in BITFLIP_SITES
        }
        self.events: List[FlipEvent] = []

    @property
    def fired(self) -> Tuple[FlipEvent, ...]:
        return tuple(self.events)

    @property
    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def _flip_into(
        self, array: np.ndarray, fault: BitFlipFault, width: int, step: int = -1
    ) -> None:
        if not np.issubdtype(array.dtype, np.integer):
            raise ConfigError(
                f"bit flips need an integer-code tensor, got dtype {array.dtype}"
            )
        flat = array.reshape(-1)
        idx = fault.index % flat.size
        bit = fault.bit % width
        before = int(flat[idx])
        after = flip_code(before, bit, width)
        flat[idx] = after
        self.events.append(
            FlipEvent(
                site=fault.site,
                flat_index=idx,
                bit=bit,
                before=before,
                after=after,
                step=step,
            )
        )

    def _consume(self, site: str) -> List[BitFlipFault]:
        taken = self._pending[site]
        self._pending[site] = []
        return taken

    def on_activation(self, data: np.ndarray) -> np.ndarray:
        faults = self._consume("activation")
        if not faults:
            return data
        data = data.copy()
        for fault in faults:
            self._flip_into(data, fault, self.word_bits)
        return data

    def on_weight(self, weights: np.ndarray) -> np.ndarray:
        faults = self._consume("weight")
        if not faults:
            return weights
        weights = weights.copy()
        for fault in faults:
            self._flip_into(weights, fault, self.word_bits)
        return weights

    def on_psum(self, acc: np.ndarray, step: int, steps_total: int) -> None:
        remaining = []
        for fault in self._pending["psum"]:
            if fault.step % steps_total == step:
                self._flip_into(acc, fault, PSUM_BITS, step=step)
            else:
                remaining.append(fault)
        self._pending["psum"] = remaining

    def on_output(self, out: np.ndarray) -> None:
        for fault in self._consume("output"):
            self._flip_into(out, fault, self.word_bits)
