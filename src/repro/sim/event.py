"""Event-driven pipeline simulation of a layer's pass structure.

The analytical timing model says a layer takes ``max(compute, stream)``
cycles — the steady state of a double-buffered pipeline.  This module
checks that assumption from below: it simulates the actual pipeline, pass
by pass, with explicit resource dependencies:

* the DMA engine is serial: pass ``p+1``'s input burst starts only after
  pass ``p``'s burst finished (and after the host reshape produced it);
* the PE array is serial: pass ``p``'s compute starts when its own data is
  on chip *and* the previous pass's compute has retired (double buffering
  depth 2 — one buffer filling while one drains);
* the output drain rides the DMA engine after each pass's compute.

The recurrences:

    fill_done[p]    = max(fill_done[p-1], reshape_done[p]) + fill[p]
    compute_done[p] = max(compute_done[p-1], fill_done[p]) + compute[p]

Wall-clock is the last compute plus any residual drain.  As the pass count
grows, the result converges to ``max(total_compute, total_stream)`` plus a
one-pass startup bubble — the tests assert exactly that sandwich:

    analytical_max <= event_sim <= analytical_max + first_pass_bubble
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import check_count
from repro.isa.compiler import split_evenly
from repro.schemes.base import ScheduleResult
from repro.sim.trace import NetworkRun

__all__ = ["PassTiming", "PipelineTimeline", "simulate_layer", "simulate_run"]


@dataclass(frozen=True)
class PassTiming:
    """Resolved start/end times of one pass on each engine."""

    index: int
    fill_start: float
    fill_done: float
    compute_start: float
    compute_done: float


@dataclass(frozen=True)
class PipelineTimeline:
    """Full event timeline of one layer."""

    layer_name: str
    passes: List[PassTiming]
    drain_cycles: float
    total_cycles: float


def simulate_layer(
    result: ScheduleResult, passes: int = 8
) -> PipelineTimeline:
    """Simulate one layer's double-buffered pass pipeline.

    The layer's stream work (input DMA + host reshape) and compute are
    split evenly across ``passes``; the output drain of the final pass is
    charged after its compute (earlier drains hide behind later fills).
    """
    check_count(passes, "passes", 1)
    config = result.config
    # stream side per pass: the input share of DMA plus the reshape,
    # pipelined against each other -> per-pass stream latency is their max
    out_drain = max(
        0,
        result.dram_words
        - result.accesses["input"].stores
        - result.accesses["weight"].stores,
    )
    inbound_words = result.dram_words - out_drain
    fill_cycles = [
        w / config.dram_words_per_cycle
        for w in split_evenly(inbound_words, passes)
    ]
    reshape_cycles = [
        c for c in split_evenly(int(round(result.reshape_cycles)), passes)
    ]
    compute_cycles = [float(c) for c in split_evenly(result.operations, passes)]

    timeline: List[PassTiming] = []
    fill_done_prev = 0.0
    compute_done_prev = 0.0
    reshape_done = 0.0
    for p in range(passes):
        # host reshape is itself a serial engine feeding the DMA
        reshape_done = reshape_done + reshape_cycles[p]
        fill_start = max(fill_done_prev, reshape_done - fill_cycles[p])
        fill_start = max(fill_start, fill_done_prev)
        fill_done = max(fill_start + fill_cycles[p], reshape_done)
        compute_start = max(compute_done_prev, fill_done)
        compute_done = compute_start + compute_cycles[p]
        timeline.append(
            PassTiming(
                index=p,
                fill_start=fill_start,
                fill_done=fill_done,
                compute_start=compute_start,
                compute_done=compute_done,
            )
        )
        fill_done_prev = fill_done
        compute_done_prev = compute_done

    drain = (out_drain / config.dram_words_per_cycle) / passes
    total = compute_done_prev + drain
    return PipelineTimeline(
        layer_name=result.layer_name,
        passes=timeline,
        drain_cycles=drain,
        total_cycles=total,
    )


def simulate_run(run: NetworkRun, passes: int = 8) -> float:
    """Event-simulated wall clock of a whole run (layers back to back)."""
    total = run.input_reorder_words / run.config.dram_words_per_cycle
    for result in run.layers:
        total += simulate_layer(result, passes=passes).total_cycles
    return total
