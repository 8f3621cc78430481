"""Neural-network workload model: layers, networks, and the benchmark zoo."""

from repro.nn.layers import TensorShape
from repro.nn.network import Network

__all__ = [
    "TensorShape",
    "Network",
]
