"""Serving adapter: route batches onto a sharded deployment.

:class:`PipelinedReplica` presents an N-chip sharded deployment behind the
same coster interface :class:`~repro.serve.batcher.BatchCoster` gives a
single chip — ``batch_seconds(network, B)`` — so it plugs straight into
:class:`~repro.serve.engine.ServingEngine` via its ``coster`` argument.
The serving event loop then schedules work onto "replicas" that are in
fact whole clusters, so ``repro capacity`` can race 1×big-chip against
N×small-chip deployments through the same engine.

Latency semantics per strategy:

* ``pipeline`` — a dispatched batch streams image-by-image through the
  stage pipeline: ``fill + (B - 1) * bottleneck``.  The DP-balanced
  partition is batch-independent, planned once per network.
* ``data-parallel`` — the batch is sharded across the replicas:
  ``scatter + max shard compute + gather``, planned per (network, B).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.arch.config import AcceleratorConfig
from repro.cluster.dataparallel import DataParallelPlan, plan_data_parallel
from repro.cluster.link import LinkSpec
from repro.cluster.pipeline import PipelinePlan, plan_pipeline
from repro.errors import check_choice, check_count
from repro.nn.network import Network

__all__ = ["PipelinedReplica", "SHARD_STRATEGIES"]

SHARD_STRATEGIES = ("pipeline", "data-parallel")


class PipelinedReplica:
    """BatchCoster-compatible latency model of one sharded deployment."""

    def __init__(
        self,
        config: AcceleratorConfig,
        n_chips: int,
        link: LinkSpec = LinkSpec(),
        strategy: str = "pipeline",
        policy: str = "adaptive-2",
    ) -> None:
        check_choice(strategy, "sharding strategy", SHARD_STRATEGIES)
        n_chips = check_count(n_chips, "chip count", 1)
        self.config = config
        self.n_chips = n_chips
        self.link = link
        self.strategy = strategy
        self.policy = policy
        self._networks: Dict[str, Network] = {}
        self._pipelines: Dict[str, PipelinePlan] = {}
        self._dp_plans: Dict[Tuple[str, int], DataParallelPlan] = {}

    def _network(self, name: str) -> Network:
        net = self._networks.get(name)
        if net is None:
            from repro.nn.zoo import build

            net = self._networks[name] = build(name)
        return net

    def pipeline_plan(self, network: str) -> PipelinePlan:
        """The (memoized) stage partition for ``network``."""
        plan = self._pipelines.get(network)
        if plan is None:
            plan = self._pipelines[network] = plan_pipeline(
                self._network(network),
                self.config,
                self.n_chips,
                link=self.link,
                policy=self.policy,
            )
        return plan

    def data_parallel_plan(self, network: str, batch_size: int) -> DataParallelPlan:
        """The (memoized) shard plan for ``(network, batch_size)``."""
        key = (network, batch_size)
        plan = self._dp_plans.get(key)
        if plan is None:
            plan = self._dp_plans[key] = plan_data_parallel(
                self._network(network),
                self.config,
                self.n_chips,
                link=self.link,
                batch_size=batch_size,
                policy=self.policy,
            )
        return plan

    # -- the BatchCoster interface ----------------------------------------

    def batch_seconds(self, network: str, batch_size: int) -> float:
        """Wall-clock one batch occupies the whole sharded deployment."""
        if self.strategy == "pipeline":
            return self.pipeline_plan(network).batch_seconds(batch_size)
        return self.data_parallel_plan(network, batch_size).step_s

    def image_seconds(self, network: str, batch_size: int) -> float:
        """Per-image service time at a given batch size."""
        return self.batch_seconds(network, batch_size) / batch_size

    def capacity_rps(self, network: str, batch_size: int) -> float:
        """Sustainable deployment throughput at a fixed batch size."""
        return 1.0 / self.image_seconds(network, batch_size)

    def describe(self) -> str:
        return (
            f"{self.strategy} x{self.n_chips} {self.config.name} "
            f"[{self.link.describe()}]"
        )

