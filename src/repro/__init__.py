"""C-Brain reproduction: adaptive data-level parallelization for CNN accelerators.

Python reproduction of Song et al., "C-Brain: A Deep Learning Accelerator
that Tames the Diversity of CNNs through Adaptive Data-level
Parallelization" (DAC 2016).

Quick tour of the public API::

    from repro import build, CONFIG_16_16, plan_network, select_scheme

    net = build("alexnet")
    run = plan_network(net, CONFIG_16_16, "adaptive-2")
    print(run.total_cycles, run.milliseconds())

Sub-packages:

- :mod:`repro.nn` — layer/network model and the benchmark zoo
- :mod:`repro.arch` — accelerator configuration, buffers, PE array, energy
- :mod:`repro.tiling` — unrolling (Eq. 1), kernel partitioning (Eq. 2),
  layouts, buffer-fit analysis
- :mod:`repro.schemes` — inter / improved-inter / intra / partition / ideal
- :mod:`repro.adaptive` — Algorithm 2 selection, whole-network planning,
  oracle search
- :mod:`repro.isa` / :mod:`repro.sim` — macro ISA, compiler, machine,
  functional (numerical) execution
- :mod:`repro.baselines` — CPU (Table 4) and Zhang FPGA'15 (Fig. 9) models
- :mod:`repro.analysis` — one driver per table/figure of the paper
- :mod:`repro.perf` — schedule cache, the capacity planner's process
  pool, perf instrumentation (``docs/performance.md``)
- :mod:`repro.serve` — multi-tenant serving simulator: seeded workloads,
  admission queue, dynamic batching, replicas, SLO metrics
  (``docs/serving.md``)
- :mod:`repro.cluster` — multi-accelerator sharding: inter-chip link
  model, layer-pipeline partitioning (optimal DP balancer), batch-sharded
  data parallelism, serving adapter (``docs/sharding.md``)
- :mod:`repro.resilience` — seeded fault schedules, degraded-geometry
  replanning, chip-loss repair, chaos scenarios (``docs/resilience.md``)
- :mod:`repro.integrity` — ABFT-checksummed convolution, silent-data-
  corruption injection, verified inference (``docs/integrity.md``)
- :mod:`repro.control` — closed-loop autoscaling and the self-healing
  control plane (``docs/autoscaling.md``, ``docs/chaos_control.md``)
- :mod:`repro.tenancy` — chip partitioning into sub-accelerators,
  heterogeneous fleets and tenant placement (``docs/tenancy.md``)
- :mod:`repro.capacity` — fleet-scale what-if capacity planning over a
  traffic forecast and a fault model (``docs/capacity.md``)
"""

from repro.adaptive import plan_network, select_scheme
from repro.arch import CONFIG_16_16, named_config
from repro.errors import ReproError
from repro.nn import Network, TensorShape
from repro.nn.zoo import build
from repro.sim import Machine

__version__ = "1.0.0"

__all__ = [
    "plan_network",
    "select_scheme",
    "CONFIG_16_16",
    "named_config",
    "ReproError",
    "Network",
    "TensorShape",
    "build",
    "Machine",
    "__version__",
]
