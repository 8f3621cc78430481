"""Layer-pipeline sharding: contiguous stages across N chips.

C-Brain's kernel partitioning splits one layer's work so every PE runs
aligned and busy; this module applies the same idea one level up — split a
*network's* layers across N accelerator instances so every chip runs close
to the pipeline's steady-state rate.  Per-layer latencies come from the
existing planner (and therefore from the PR-1 schedule cache); stage
boundaries are costed with the :class:`~repro.cluster.link.LinkSpec`
inter-chip link model on the exact activation bytes crossing the cut.

Two partitioners over the same stage-cost definition:

* ``even`` — the naive baseline: stages of (nearly) equal layer *count*;
* ``dp`` — an optimal dynamic-programming balancer that minimizes the
  bottleneck stage time *including* the outbound link transfer.  Because
  both strategies share one cost function, the DP result is never worse
  than the even split (asserted in the tests for every zoo network).

Steady-state model (store-and-forward, one image in flight per stage): a
stage's time is its compute plus the transfer of its boundary tensors to
the next chip; pipeline throughput is one image per bottleneck-stage time;
the first image's latency is the sum of all stage times (fill), and the
pipe empties in ``fill - bottleneck`` after the last image enters (drain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.arch.config import AcceleratorConfig
from repro.cluster.link import LinkSpec, activation_bytes
from repro.errors import ConfigError, check_choice, check_count
from repro.nn.network import Network
from repro.perf.instrument import phase

__all__ = [
    "StagePlan",
    "PipelinePlan",
    "partition_even",
    "partition_dp",
    "plan_pipeline",
    "PARTITION_STRATEGIES",
]

PARTITION_STRATEGIES = ("dp", "even")

_INPUT = "__input__"


@dataclass(frozen=True)
class StagePlan:
    """One chip's share of the pipeline."""

    chip: int
    #: half-open layer index range [start, stop) into the planned order
    start: int
    stop: int
    layer_names: Tuple[str, ...]
    #: compute seconds of the stage's layers on one chip
    compute_s: float
    #: activation bytes handed to the next stage (0 for the last stage)
    send_bytes: int
    #: link time for the handoff (0 for the last stage)
    send_s: float

    @property
    def stage_s(self) -> float:
        """Occupancy per image: compute, then ship the boundary tensors."""
        return self.compute_s + self.send_s


@dataclass(frozen=True)
class PipelinePlan:
    """A network partitioned into an N-chip layer pipeline."""

    network: str
    config: AcceleratorConfig
    link: LinkSpec
    strategy: str
    stages: Tuple[StagePlan, ...]

    @property
    def n_chips(self) -> int:
        return len(self.stages)

    @property
    def bottleneck_s(self) -> float:
        """Slowest stage time — the steady-state interval between images."""
        return max(s.stage_s for s in self.stages)

    @property
    def throughput_ips(self) -> float:
        return 1.0 / self.bottleneck_s

    @property
    def fill_latency_s(self) -> float:
        """First-image latency: it must traverse every stage and link."""
        return sum(s.stage_s for s in self.stages)

    @property
    def drain_latency_s(self) -> float:
        """Time to empty the pipe after the last image enters stage 0."""
        return self.fill_latency_s - self.bottleneck_s

    def utilization(self, chip: int) -> float:
        """Busy fraction of one chip at steady state (compute + send)."""
        return self.stages[chip].stage_s / self.bottleneck_s

    def link_occupancy(self, chip: int) -> float:
        """Fraction of the steady-state interval chip's outbound link is busy."""
        return self.stages[chip].send_s / self.bottleneck_s

    def batch_seconds(self, batch_size: int) -> float:
        """Wall-clock for ``batch_size`` images streamed through the pipe."""
        check_count(batch_size, "batch size", 1)
        return self.fill_latency_s + (batch_size - 1) * self.bottleneck_s


# -- cut analysis ----------------------------------------------------------


def _planned_ancestors(
    net: Network, name: str, planned: Set[str]
) -> Set[str]:
    """Planned layers whose output tensor layer ``name`` consumes.

    Walks through layers that were *not* planned (e.g. pooling in a
    conv-only plan) until it reaches a planned producer or the network
    input, so the cut stays well-defined in both full and conv-only modes.
    """
    out: Set[str] = set()
    stack = list(net.input_names(name))
    seen: Set[str] = set()
    while stack:
        src = stack.pop()
        if src == _INPUT or src in seen:
            continue
        seen.add(src)
        if src in planned:
            out.add(src)
        else:
            stack.extend(net.input_names(src))
    return out


def _boundary_bytes(
    net: Network, order: Sequence[str], word_bytes: int
) -> List[int]:
    """Activation bytes crossing each cut of the planned order.

    ``result[b]`` (for boundaries ``b`` in 1..L-1) sums the output bytes of
    every distinct producer before the cut with at least one consumer at or
    after it — a tensor feeding several downstream layers crosses the link
    once.  Index 0 and L are present (value 0) for convenient slicing.
    """
    position: Dict[str, int] = {name: i for i, name in enumerate(order)}
    planned = set(order)
    last_use: Dict[str, int] = {}
    for name in order:
        for src in sorted(_planned_ancestors(net, name, planned)):
            last_use[src] = max(last_use.get(src, -1), position[name])
    n = len(order)
    cuts = [0] * (n + 1)
    for b in range(1, n):
        total = 0
        for src, last in last_use.items():
            if position[src] < b <= last:
                total += activation_bytes(net.shape_of(src), word_bytes)
        cuts[b] = total
    return cuts


# -- partitioners ----------------------------------------------------------


def partition_even(n_layers: int, n_chips: int) -> List[int]:
    """Boundaries of the naive even-by-count split (len ``n_chips - 1``)."""
    _validate_chips(n_chips, n_layers)
    return [(i * n_layers) // n_chips for i in range(1, n_chips)]


def partition_dp(
    compute_s: Sequence[float], send_s: Sequence[float], n_chips: int
) -> List[int]:
    """Optimal contiguous partition minimizing the bottleneck stage time.

    ``compute_s[i]`` is layer ``i``'s seconds; ``send_s[b]`` is the link
    time of cut ``b`` (``send_s[0]`` and ``send_s[L]`` must be 0).  Stage
    ``[a, b)`` costs ``sum(compute_s[a:b]) + send_s[b]`` — the last stage
    has no outbound transfer.  Returns the ``n_chips - 1`` boundaries;
    ties resolve to the earliest boundary, so equal-work partitions are
    bit-deterministic across runs.
    """
    n = len(compute_s)
    _validate_chips(n_chips, n)
    prefix = [0.0]
    for c in compute_s:
        prefix.append(prefix[-1] + c)

    def seg(a: int, b: int) -> float:
        return prefix[b] - prefix[a] + send_s[b]

    # best[j][b]: minimal bottleneck splitting layers [0, b) into j stages,
    # counting each non-final stage's outbound send.  The final stage's
    # send_s[n] is 0 by contract, so best[n_chips][n] is the answer.
    inf = float("inf")
    best = [[inf] * (n + 1) for _ in range(n_chips + 1)]
    back = [[0] * (n + 1) for _ in range(n_chips + 1)]
    best[0][0] = 0.0
    for j in range(1, n_chips + 1):
        # every stage takes >= 1 layer, so stage j ends at b >= j and
        # leaves at least n_chips - j layers for the remaining stages
        for b in range(j, n - (n_chips - j) + 1):
            for a in range(j - 1, b):
                if best[j - 1][a] == inf:
                    continue
                cost = max(best[j - 1][a], seg(a, b))
                if cost < best[j][b]:
                    best[j][b] = cost
                    back[j][b] = a
    boundaries: List[int] = []
    b = n
    for j in range(n_chips, 1, -1):
        b = back[j][b]
        boundaries.append(b)
    boundaries.reverse()
    return boundaries


def _validate_chips(n_chips: int, n_layers: int) -> None:
    check_count(n_chips, "chip count", 1)
    if n_chips > n_layers:
        raise ConfigError(
            f"cannot pipeline {n_layers} layers across {n_chips} chips; "
            "each stage needs at least one layer"
        )


# -- the planner entry point ----------------------------------------------


def plan_pipeline(
    net: Network,
    config: AcceleratorConfig,
    n_chips: int,
    link: LinkSpec = LinkSpec(),
    policy: str = "adaptive-2",
    strategy: str = "dp",
    include_non_conv: bool = True,
) -> PipelinePlan:
    """Partition ``net`` into an ``n_chips``-stage pipeline.

    Per-layer latencies come from :func:`repro.adaptive.planner.plan_network`
    (through the schedule cache); the full forward pass is planned by
    default since a deployed pipeline ships whole layers, not just convs.
    """
    from repro.adaptive.planner import plan_network

    check_choice(strategy, "partition strategy", PARTITION_STRATEGIES)
    with phase("plan_pipeline"):
        run = plan_network(net, config, policy, include_non_conv=include_non_conv)
        order = [r.layer_name for r in run.layers]
        _validate_chips(n_chips, len(order))
        compute_s = [config.cycles_to_seconds(r.total_cycles) for r in run.layers]
        cut_bytes = _boundary_bytes(net, order, config.word_bytes)
        send_s = [link.transfer_seconds(c) for c in cut_bytes]
        if strategy == "dp":
            boundaries = partition_dp(compute_s, send_s, n_chips)
        else:
            boundaries = partition_even(len(order), n_chips)
        edges = [0] + boundaries + [len(order)]
        stages = []
        for chip in range(n_chips):
            start, stop = edges[chip], edges[chip + 1]
            is_last = chip == n_chips - 1
            stages.append(
                StagePlan(
                    chip=chip,
                    start=start,
                    stop=stop,
                    layer_names=tuple(order[start:stop]),
                    compute_s=sum(compute_s[start:stop]),
                    send_bytes=0 if is_last else cut_bytes[stop],
                    send_s=0.0 if is_last else send_s[stop],
                )
            )
        return PipelinePlan(
            network=net.name,
            config=config,
            link=link,
            strategy=strategy,
            stages=tuple(stages),
        )
