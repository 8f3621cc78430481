"""ResNet-style residual stacks (He et al., contemporaneous with the paper).

Not part of the paper's benchmark set, but the natural stress test for an
adaptive mapper published in 2016: residual networks mix the layer shapes
C-Brain's selector discriminates on — stride-2 3x3 convs at stage
boundaries, deep stride-1 3x3 bodies, and *strided 1x1 projection*
shortcuts, which are exactly the DMA-bound corner the fuzz tests document
(`tests/integration/test_robustness.py`).

``build_resnet_small`` follows the CIFAR-style recipe: a 3x3 stem, then
``blocks_per_stage`` basic blocks at widths 16/32/64, halving the spatial
extent at each stage entry, ending in global average pooling and a
classifier.
"""

from __future__ import annotations

from repro.errors import check_count
from repro.nn.layers import (
    ConvLayer,
    EltwiseAddLayer,
    FCLayer,
    PoolLayer,
    ReLULayer,
    TensorShape,
)
from repro.nn.network import Network

__all__ = ["build_resnet_small", "add_basic_block"]


def add_basic_block(
    net: Network,
    name: str,
    input_name: str,
    in_maps: int,
    out_maps: int,
    stride: int,
) -> str:
    """Append one basic residual block; returns its output layer name.

    ``conv(3x3, stride) -> relu -> conv(3x3) (+ shortcut) -> relu`` with a
    strided 1x1 projection shortcut when the shape changes.
    """
    net.add(
        ConvLayer(
            f"{name}/conv1",
            in_maps=in_maps,
            out_maps=out_maps,
            kernel=3,
            stride=stride,
            pad=1,
        ),
        inputs=[input_name],
    )
    net.add(ReLULayer(f"{name}/relu1"))
    net.add(
        ConvLayer(
            f"{name}/conv2",
            in_maps=out_maps,
            out_maps=out_maps,
            kernel=3,
            pad=1,
        )
    )
    if stride != 1 or in_maps != out_maps:
        net.add(
            ConvLayer(
                f"{name}/proj",
                in_maps=in_maps,
                out_maps=out_maps,
                kernel=1,
                stride=stride,
            ),
            inputs=[input_name],
        )
        shortcut = f"{name}/proj"
    else:
        shortcut = input_name
    net.add(
        EltwiseAddLayer(f"{name}/add"),
        inputs=[f"{name}/conv2", shortcut],
    )
    net.add(ReLULayer(f"{name}/relu2"), inputs=[f"{name}/add"])
    return f"{name}/relu2"


def build_resnet_small(
    blocks_per_stage: int = 2,
    input_hw: int = 32,
    num_classes: int = 10,
) -> Network:
    """CIFAR-style residual network (ResNet-14 at the default depth)."""
    check_count(blocks_per_stage, "blocks_per_stage", 1)
    net = Network(
        f"resnet-{6 * blocks_per_stage + 2}", TensorShape(3, input_hw, input_hw)
    )
    net.add(ConvLayer("stem", in_maps=3, out_maps=16, kernel=3, pad=1))
    net.add(ReLULayer("stem/relu"))
    current = "stem/relu"
    in_maps = 16
    for stage, width in enumerate((16, 32, 64), start=1):
        for block in range(blocks_per_stage):
            stride = 2 if (stage > 1 and block == 0) else 1
            current = add_basic_block(
                net,
                f"s{stage}b{block}",
                current,
                in_maps,
                width,
                stride,
            )
            in_maps = width
    final_hw = input_hw // 4
    net.add(
        PoolLayer("gap", kernel=final_hw, stride=1, mode="avg"),
        inputs=[current],
    )
    net.add(FCLayer("classifier", out_features=num_classes))
    return net
