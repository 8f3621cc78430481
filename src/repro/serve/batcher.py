"""Dynamic batch formation and batch cost modelling.

Two pieces:

* :class:`BatchPolicy` — the classic *max-batch + max-wait* rule.  A
  network group is dispatchable the moment it holds ``max_batch`` requests;
  a partial group becomes dispatchable once its oldest request has waited
  ``max_wait_ms`` (so light traffic is not held hostage to batch filling).
  ``max_batch=1`` degenerates to batch-1 serving, the baseline the
  benchmark compares against.

* :class:`BatchCoster` — the latency model.  A formed batch of ``B``
  same-network requests costs exactly what :func:`repro.adaptive.batch.plan_batch`
  says a batch-``B`` forward pass costs on this accelerator config.  The
  underlying per-layer schedules go through the PR 1 schedule cache, and the
  coster memoizes the resulting :class:`~repro.adaptive.batch.BatchRun` and
  its seconds per ``(network, B)`` — steady-state serving costs no planning
  work at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.adaptive.batch import BatchRun, plan_batch
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError
from repro.nn.network import Network

__all__ = ["BatchPolicy", "BatchCoster"]


@dataclass(frozen=True)
class BatchPolicy:
    """Max-batch + max-wait dynamic batching knobs."""

    max_batch: int = 16
    max_wait_ms: float = 10.0

    def __post_init__(self) -> None:
        if isinstance(self.max_batch, bool) or not isinstance(self.max_batch, int):
            raise ConfigError(
                f"max_batch must be an int, got {self.max_batch!r} "
                f"({type(self.max_batch).__name__})"
            )
        if self.max_batch <= 0:
            raise ConfigError(f"max_batch must be positive, got {self.max_batch!r}")
        # a NaN or infinite timer never releases a partial batch
        if isinstance(self.max_wait_ms, bool) or not 0 <= self.max_wait_ms < math.inf:
            raise ConfigError(
                f"max_wait_ms must be >= 0 and finite, got {self.max_wait_ms!r}"
            )

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1e3

    def ready_time(self, oldest_arrival_s: float, depth: int) -> float:
        """Earliest time a group with this head/depth may dispatch.

        Full groups go immediately; partial groups wait out the timer.
        """
        if depth >= self.max_batch:
            return oldest_arrival_s
        return oldest_arrival_s + self.max_wait_s

    def describe(self) -> str:
        if self.max_batch == 1:
            return "batch-1"
        return f"dynamic(max_batch={self.max_batch}, max_wait={self.max_wait_ms:g}ms)"


class BatchCoster:
    """Memoized batch latency model on top of ``plan_batch``.

    Costs cover the *full* forward pass by default (conv + pooling + FC +
    LRN) — FC amortization is the whole point of batching a serving tier.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        policy: str = "adaptive-2",
        include_non_conv: bool = True,
    ) -> None:
        self.config = config
        self.policy = policy
        self.include_non_conv = include_non_conv
        self._networks: Dict[str, Network] = {}
        #: (network, B) -> (planned run, its seconds on one replica)
        self._runs: Dict[Tuple[str, int], Tuple[BatchRun, float]] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def _network(self, name: str) -> Network:
        net = self._networks.get(name)
        if net is None:
            from repro.nn.zoo import build

            net = self._networks[name] = build(name)
        return net

    def _memo(self, network: str, batch_size: int) -> Tuple[BatchRun, float]:
        key = (network, batch_size)
        memo = self._runs.get(key)
        if memo is not None:
            self.memo_hits += 1
            return memo
        self.memo_misses += 1
        run = plan_batch(
            self._network(network),
            self.config,
            self.policy,
            batch_size=batch_size,
            include_non_conv=self.include_non_conv,
        )
        memo = self._runs[key] = (run, self.config.cycles_to_seconds(run.total_cycles))
        return memo

    def batch_run(self, network: str, batch_size: int) -> BatchRun:
        """The planned batch-``batch_size`` run for ``network`` (memoized)."""
        return self._memo(network, batch_size)[0]

    def batch_seconds(self, network: str, batch_size: int) -> float:
        """Wall-clock seconds one batch occupies an accelerator replica (memoized)."""
        return self._memo(network, batch_size)[1]

    def image_seconds(self, network: str, batch_size: int) -> float:
        """Per-image service time at a given batch size."""
        return self.batch_seconds(network, batch_size) / batch_size

    def capacity_rps(self, network: str, batch_size: int) -> float:
        """Sustainable per-replica throughput at a fixed batch size."""
        return 1.0 / self.image_seconds(network, batch_size)
