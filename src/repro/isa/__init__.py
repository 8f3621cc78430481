"""Macro ISA and the host compiler (network -> instruction stream)."""

from repro.isa.assembly import assemble, disassemble
from repro.isa.compiler import compile_network
from repro.isa.validate import lint_program

__all__ = [
    "assemble",
    "disassemble",
    "compile_network",
    "lint_program",
]
