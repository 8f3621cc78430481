"""Compiler: network + schedule -> macro instruction stream.

Mirrors the paper's host-side compiler.  For each conv layer the chosen
scheme's :class:`~repro.schemes.base.ScheduleResult` fixes the activity
totals; the compiler lowers them into per-pass macro instructions — one
scheduling pass per output chunk (``ceil(Dout/Tout)``), which is the
granularity at which real control would sequence DMA, buffer streaming and
computation.  Counts are distributed across passes so the program's totals
equal the schedule's totals *exactly* (the machine/analytical cross-check
test depends on this).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.arch.config import AcceleratorConfig
from repro.errors import CompileError, check_count, check_real
from repro.isa.instructions import Instruction, Opcode, Program
from repro.nn.network import Network
from repro.schemes.base import ScheduleResult

__all__ = ["compile_layer", "compile_network", "compile_run", "split_evenly"]


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` non-negative integers summing exactly.

    The first ``total % parts`` parts get one extra unit.
    """
    check_count(parts, "parts", 1, CompileError)
    check_real(total, "total", ge=0, error=CompileError)
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _emit_pass(
    program: Program,
    opcode: Opcode,
    amounts: List[int],
    index: int,
    comment: str = "",
) -> None:
    amount = amounts[index]
    if amount:
        program.emit(Instruction(opcode, words=amount, comment=comment))


def compile_layer(
    result: ScheduleResult, config: AcceleratorConfig, passes: Optional[int] = None
) -> Program:
    """Lower one layer's schedule into a macro program.

    ``passes`` defaults to the number of output chunks the PE array needs
    for the layer (at least 1); every activity total is spread across the
    passes and a SYNC closes the layer.
    """
    if passes is None:
        # one pass per ~64k array operations, capped for program compactness
        passes = max(1, min(64, math.ceil(result.operations / 65536)))
    check_count(passes, "passes", 1, CompileError)

    program = Program(
        name=f"{result.layer_name}:{result.scheme}",
        meta={
            "layer": result.layer_name,
            "scheme": result.scheme,
            "config": config.name,
        },
    )

    acc = result.accesses
    # DMA decomposition: input fills and weight fills are recorded as buffer
    # stores by the schemes; whatever remains of the off-chip traffic is the
    # output drain
    out_drain = result.dram_words - acc["input"].stores - acc["weight"].stores

    ops_split = split_evenly(result.operations, passes)
    # MACs must respect each pass's peak (ops * Tin * Tout): fill greedily
    macs_split = []
    remaining = result.useful_macs
    for ops in ops_split:
        take = min(remaining, ops * config.multipliers)
        macs_split.append(take)
        remaining -= take
    if remaining:
        raise CompileError(
            f"{result.layer_name}: {remaining} MACs exceed the array peak "
            f"for {result.operations} operations"
        )
    in_fill_split = split_evenly(acc["input"].stores, passes)
    in_read_split = split_evenly(acc["input"].loads, passes)
    w_fill_split = split_evenly(acc["weight"].stores, passes)
    w_read_split = split_evenly(acc["weight"].loads, passes)
    bias_split = split_evenly(acc["bias"].loads, passes)
    # the output drain is executed as DMA_STORE_OUTPUT (which reads the
    # output buffer), so it is removed from the explicit BUF_READ_OUTPUT
    # stream to avoid double counting
    out_read_split = split_evenly(max(0, acc["output"].loads - max(0, out_drain)), passes)
    out_write_split = split_evenly(acc["output"].stores, passes)
    adds_split = split_evenly(result.extra_adds, passes)
    reshape_split = split_evenly(int(round(result.reshape_cycles)), passes)
    drain_split = split_evenly(max(0, out_drain), passes)

    for p in range(passes):
        tag = f"pass {p + 1}/{passes}"
        if reshape_split[p]:
            program.emit(
                Instruction(Opcode.HOST_RESHAPE, words=reshape_split[p], comment=tag)
            )
        _emit_pass(program, Opcode.DMA_LOAD_INPUT, in_fill_split, p, tag)
        _emit_pass(program, Opcode.DMA_LOAD_WEIGHT, w_fill_split, p, tag)
        _emit_pass(program, Opcode.BUF_READ_INPUT, in_read_split, p, tag)
        _emit_pass(program, Opcode.BUF_READ_WEIGHT, w_read_split, p, tag)
        _emit_pass(program, Opcode.BUF_READ_BIAS, bias_split, p, tag)
        if ops_split[p] or macs_split[p]:
            program.emit(
                Instruction(
                    Opcode.COMPUTE,
                    operations=ops_split[p],
                    macs=macs_split[p],
                    comment=tag,
                )
            )
        _emit_pass(program, Opcode.BUF_READ_OUTPUT, out_read_split, p, tag)
        if adds_split[p]:
            program.emit(
                Instruction(Opcode.ACCUMULATE, operations=adds_split[p], comment=tag)
            )
        _emit_pass(program, Opcode.BUF_WRITE_OUTPUT, out_write_split, p, tag)
        _emit_pass(program, Opcode.DMA_STORE_OUTPUT, drain_split, p, tag)
    program.emit(Instruction(Opcode.SYNC, comment=f"end {result.layer_name}"))
    return program


def compile_run(run, config: AcceleratorConfig) -> Program:
    """Lower an existing :class:`~repro.sim.trace.NetworkRun` to a program.

    Works for any run — plain, oracle-planned, or batched — so the machine
    can cross-check every planner variant.
    """
    program = Program(
        name=f"{run.network_name}:{run.policy}",
        meta={
            "network": run.network_name,
            "policy": run.policy,
            "config": config.name,
        },
    )
    if run.input_reorder_words:
        reorder_cycles = math.ceil(
            run.input_reorder_words / config.dram_words_per_cycle
        )
        program.emit(
            Instruction(
                Opcode.HOST_RESHAPE,
                words=reorder_cycles,
                comment="input layout conversion",
            )
        )
        program.emit(Instruction(Opcode.SYNC, comment="reorder barrier"))
    for result in run.layers:
        program.extend(compile_layer(result, config))
    return program


def compile_network(
    net: Network,
    config: AcceleratorConfig,
    policy: str = "adaptive-2",
) -> Program:
    """Plan the network under ``policy`` and lower every layer.

    Returns one concatenated program; its machine execution reproduces the
    planner's :class:`~repro.sim.trace.NetworkRun` totals.
    """
    # imported here: the planner imports sim.trace, whose package pulls in
    # the machine and this module — a cycle at import time
    from repro.adaptive.planner import plan_network

    return compile_run(plan_network(net, config, policy), config)
