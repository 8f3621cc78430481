"""Benchmark networks from the paper's Table 2 (AlexNet, GoogLeNet, VGG, NiN)."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.nn.network import Network
from repro.nn.zoo.alexnet import build_alexnet
from repro.nn.zoo.custom import sequential_cnn
from repro.nn.zoo.googlenet import build_googlenet
from repro.nn.zoo.nin import build_nin
from repro.nn.zoo.vgg import build_vgg

__all__ = [
    "sequential_cnn",
    "build",
    "benchmark_networks",
    "NETWORK_BUILDERS",
]

NETWORK_BUILDERS: Dict[str, Callable[[], Network]] = {
    "alexnet": build_alexnet,
    "googlenet": build_googlenet,
    "vgg": build_vgg,
    "nin": build_nin,
}


def build(name: str) -> Network:
    """Build a benchmark network by name (``alexnet``/``googlenet``/``vgg``/``nin``)."""
    try:
        builder = NETWORK_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown network {name!r}; choose from {sorted(NETWORK_BUILDERS)}"
        ) from None
    return builder()


def benchmark_networks() -> List[Network]:
    """All four benchmark networks in the paper's presentation order."""
    return [build(n) for n in ("alexnet", "googlenet", "vgg", "nin")]
