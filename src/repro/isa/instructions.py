"""Macro instruction set of the accelerator's control unit.

The paper's toolchain has "a compiler, executed on host platform, that
automatically translates network specification ... into a code segment,
which can be mapped, scheduled and executed on the accelerator".  This is
that code segment: a linear stream of *macro* instructions, each describing
one bulk action (a DMA burst, a buffer transfer, a run of PE operations),
with word/operation counts as operands.

Macro granularity keeps programs compact (a few instructions per scheduling
pass instead of one per array cycle) while remaining fully executable: the
:mod:`repro.sim.machine` interpreter reproduces exactly the cycle and
access totals of the analytical schedules, and tests assert that agreement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import CompileError, check_real

__all__ = ["Opcode", "Instruction", "Program"]


class Opcode(enum.Enum):
    """Macro operations understood by the control unit."""

    #: DMA burst: external memory -> input buffer (words)
    DMA_LOAD_INPUT = "dma_load_input"
    #: DMA burst: external memory -> weight buffer (words)
    DMA_LOAD_WEIGHT = "dma_load_weight"
    #: DMA burst: external memory -> bias buffer (words)
    DMA_LOAD_BIAS = "dma_load_bias"
    #: DMA burst: output buffer -> external memory (words)
    DMA_STORE_OUTPUT = "dma_store_output"
    #: host-side reshape stream feeding the DMA (operand = host-stream
    #: cycles; unrolling realization and layout conversion only)
    HOST_RESHAPE = "host_reshape"
    #: stream words from the input buffer into the PE array
    BUF_READ_INPUT = "buf_read_input"
    #: stream words from the weight buffer into the PE array
    BUF_READ_WEIGHT = "buf_read_weight"
    #: read bias words
    BUF_READ_BIAS = "buf_read_bias"
    #: read partial sums back for accumulation
    BUF_READ_OUTPUT = "buf_read_output"
    #: write results / partial sums to the output buffer
    BUF_WRITE_OUTPUT = "buf_write_output"
    #: run the PE array for `operations` cycles performing `macs` useful MACs
    COMPUTE = "compute"
    #: add-and-store accumulation adder ops (Sec 4.2.2 adder group)
    ACCUMULATE = "accumulate"
    #: barrier: all in-flight activity completes (end of a layer)
    SYNC = "sync"


#: opcodes whose operand is a word count on a specific buffer
_BUFFER_OPS = {
    Opcode.BUF_READ_INPUT: ("input", "loads"),
    Opcode.BUF_READ_WEIGHT: ("weight", "loads"),
    Opcode.BUF_READ_BIAS: ("bias", "loads"),
    Opcode.BUF_READ_OUTPUT: ("output", "loads"),
    Opcode.BUF_WRITE_OUTPUT: ("output", "stores"),
}

#: DMA opcodes that also *fill* an on-chip buffer (buffer stores)
_DMA_FILL_OPS = {
    Opcode.DMA_LOAD_INPUT: "input",
    Opcode.DMA_LOAD_WEIGHT: "weight",
    Opcode.DMA_LOAD_BIAS: "bias",
}


@dataclass(frozen=True)
class Instruction:
    """One macro instruction.

    ``words`` is the word count for transfer opcodes; ``operations`` and
    ``macs`` apply to :attr:`Opcode.COMPUTE` (array cycles and useful MACs),
    and ``operations`` to :attr:`Opcode.ACCUMULATE` (adder ops).
    """

    opcode: Opcode
    words: int = 0
    operations: int = 0
    macs: int = 0
    comment: str = ""

    def __post_init__(self) -> None:
        for name in ("words", "operations", "macs"):
            check_real(getattr(self, name), name, ge=0, error=CompileError)
        if self.opcode is Opcode.COMPUTE and self.operations == 0 and self.macs:
            raise CompileError("COMPUTE with MACs but zero operations")

    @property
    def buffer_target(self) -> Optional[str]:
        """Buffer touched by a BUF_* opcode (None otherwise)."""
        entry = _BUFFER_OPS.get(self.opcode)
        return entry[0] if entry else None

    @property
    def buffer_kind(self) -> Optional[str]:
        """``"loads"`` / ``"stores"`` for BUF_* opcodes."""
        entry = _BUFFER_OPS.get(self.opcode)
        return entry[1] if entry else None

    @property
    def dma_fill_target(self) -> Optional[str]:
        """Buffer a DMA load fills (None for non-fill opcodes)."""
        return _DMA_FILL_OPS.get(self.opcode)

    @property
    def is_dma(self) -> bool:
        return self.opcode in (
            Opcode.DMA_LOAD_INPUT,
            Opcode.DMA_LOAD_WEIGHT,
            Opcode.DMA_LOAD_BIAS,
            Opcode.DMA_STORE_OUTPUT,
        )


@dataclass
class Program:
    """A compiled instruction stream for one layer (or a whole network)."""

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    #: free-form metadata (scheme name, layer name, config name ...)
    meta: Dict[str, str] = field(default_factory=dict)

    def emit(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def extend(self, other: "Program") -> None:
        """Append another program's instructions (network concatenation)."""
        self.instructions.extend(other.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def count(self, opcode: Opcode) -> int:
        """Number of instructions with the given opcode."""
        return sum(1 for i in self.instructions if i.opcode is opcode)

    def total_words(self, opcode: Opcode) -> int:
        """Sum of ``words`` across instructions of one opcode."""
        return sum(i.words for i in self.instructions if i.opcode is opcode)

    def listing(self, limit: int = 50) -> str:
        """Human-readable assembly-style listing (truncated)."""
        lines = [f"; program {self.name}  meta={self.meta}"]
        for idx, inst in enumerate(self.instructions[:limit]):
            operand = []
            if inst.words:
                operand.append(f"words={inst.words}")
            if inst.operations:
                operand.append(f"ops={inst.operations}")
            if inst.macs:
                operand.append(f"macs={inst.macs}")
            suffix = f"  ; {inst.comment}" if inst.comment else ""
            lines.append(
                f"{idx:6d}  {inst.opcode.value:<18s} {' '.join(operand)}{suffix}"
            )
        if len(self.instructions) > limit:
            lines.append(f"...    ({len(self.instructions) - limit} more)")
        return "\n".join(lines)
