"""Layer descriptors and shape inference for CNN inference workloads.

The unit the paper reasons about is a single *layer* with the parameters of
Fig. 1: input maps of size ``X x Y`` and depth ``Din``, convolved by ``Dout``
groups of ``Din x k x k`` kernels at stride ``s`` (with optional zero padding),
optionally subsampled by a ``p x p`` pooling window at stride ``sp``, and
finally flattened through fully-connected layers.

Layers are immutable dataclasses.  Shape inference is purely arithmetic; the
actual numerical execution lives in :mod:`repro.sim.functional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ShapeError, check_choice, check_count, check_counts

__all__ = [
    "TensorShape",
    "Layer",
    "ConvLayer",
    "PoolLayer",
    "FCLayer",
    "ReLULayer",
    "LRNLayer",
    "ConcatLayer",
    "EltwiseAddLayer",
    "conv_output_hw",
]


@dataclass(frozen=True)
class TensorShape:
    """Shape of an activation tensor: ``depth`` feature maps of ``height x width``.

    The paper's symbols map as ``depth = Din``, ``width = X``, ``height = Y``.
    """

    depth: int
    height: int
    width: int

    def __post_init__(self) -> None:
        check_counts(
            self, "depth", "height", "width", minimum=1, error=ShapeError,
            owner="tensor ",
        )

    @property
    def elements(self) -> int:
        """Total number of scalar elements in the tensor."""
        return self.depth * self.height * self.width

    def bytes(self, word_bytes: int = 2) -> int:
        """Footprint in bytes at the given word width (default 16-bit)."""
        return self.elements * word_bytes

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.depth, self.height, self.width)


def conv_output_hw(in_hw: int, kernel: int, stride: int, pad: int) -> int:
    """Output extent of a convolution/pooling along one spatial axis.

    Standard formula ``floor((in + 2*pad - kernel) / stride) + 1``; raises
    :class:`ShapeError` when the kernel does not fit in the padded input.
    """
    padded = in_hw + 2 * pad
    if kernel > padded:
        raise ShapeError(
            f"kernel {kernel} larger than padded input extent {padded}"
        )
    check_count(stride, "stride", 1, ShapeError)
    return (padded - kernel) // stride + 1


@dataclass(frozen=True)
class Layer:
    """Common base for all layer descriptors.

    ``name`` identifies the layer inside a :class:`~repro.nn.network.Network`
    (e.g. ``"conv1"`` or ``"inception3a/5x5"``).
    """

    name: str

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        """Infer the output tensor shape from the input tensor shape."""
        raise NotImplementedError

    def macs(self, in_shape: TensorShape) -> int:
        """Multiply-accumulate operations performed on one input tensor."""
        raise NotImplementedError

    def weight_count(self, in_shape: TensorShape) -> int:
        """Number of weight parameters (0 for weight-free layers)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConvLayer(Layer):
    """A convolutional layer: ``out_maps`` kernels of ``in_maps x k x k``.

    ``in_maps`` is redundant with the incoming tensor's depth but stored
    explicitly so a layer can be analyzed standalone (as the paper does for
    conv1), and validated against the network graph.
    """

    in_maps: int
    out_maps: int
    kernel: int
    stride: int = 1
    pad: int = 0
    bias: bool = True
    groups: int = 1

    def __post_init__(self) -> None:
        owner = f"{self.name}: "
        check_counts(
            self, "in_maps", "out_maps", "kernel", "stride", "groups",
            minimum=1, error=ShapeError, owner=owner,
        )
        check_counts(self, "pad", error=ShapeError, owner=owner)
        if self.in_maps % self.groups or self.out_maps % self.groups:
            raise ShapeError(
                f"{self.name}: groups={self.groups} must divide both "
                f"in_maps={self.in_maps} and out_maps={self.out_maps}"
            )

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        if in_shape.depth != self.in_maps:
            raise ShapeError(
                f"{self.name}: expected {self.in_maps} input maps, "
                f"got {in_shape.depth}"
            )
        oh = conv_output_hw(in_shape.height, self.kernel, self.stride, self.pad)
        ow = conv_output_hw(in_shape.width, self.kernel, self.stride, self.pad)
        return TensorShape(self.out_maps, oh, ow)

    def output_pixels(self, in_shape: TensorShape) -> int:
        """Spatial size of one output map (``ox * oy`` in the paper)."""
        out = self.output_shape(in_shape)
        return out.height * out.width

    def macs(self, in_shape: TensorShape) -> int:
        """MACs = ox*oy * k*k * (Din/groups) * Dout."""
        return (
            self.output_pixels(in_shape)
            * self.kernel
            * self.kernel
            * (self.in_maps // self.groups)
            * self.out_maps
        )

    def weight_count(self, in_shape: TensorShape) -> int:
        per_out = self.kernel * self.kernel * (self.in_maps // self.groups)
        count = per_out * self.out_maps
        if self.bias:
            count += self.out_maps
        return count


@dataclass(frozen=True)
class PoolLayer(Layer):
    """Subsampling by a ``p x p`` window at stride ``sp`` (max or average)."""

    kernel: int
    stride: int
    pad: int = 0
    mode: str = "max"
    #: round spatial extents up (Caffe-style ceil mode), used by GoogLeNet
    ceil_mode: bool = False

    def __post_init__(self) -> None:
        owner = f"{self.name}: "
        check_counts(
            self, "kernel", "stride", minimum=1, error=ShapeError, owner=owner
        )
        check_counts(self, "pad", error=ShapeError, owner=owner)
        check_choice(self.mode, f"{self.name} pooling mode", ("max", "avg"), ShapeError)

    def _out_hw(self, in_hw: int) -> int:
        if self.ceil_mode:
            padded = in_hw + 2 * self.pad
            if self.kernel > padded:
                raise ShapeError(
                    f"{self.name}: kernel {self.kernel} larger than padded "
                    f"input {padded}"
                )
            return math.ceil((padded - self.kernel) / self.stride) + 1
        return conv_output_hw(in_hw, self.kernel, self.stride, self.pad)

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return TensorShape(
            in_shape.depth,
            self._out_hw(in_shape.height),
            self._out_hw(in_shape.width),
        )

    def macs(self, in_shape: TensorShape) -> int:
        # Pooling performs comparisons/adds, not MACs; the paper attributes
        # ~90% of work to convolution and does not count pooling MACs.
        return 0

    def weight_count(self, in_shape: TensorShape) -> int:
        return 0


@dataclass(frozen=True)
class FCLayer(Layer):
    """Fully-connected layer: flattens the input and projects to ``out_features``."""

    out_features: int
    bias: bool = True

    def __post_init__(self) -> None:
        check_counts(
            self, "out_features", minimum=1, error=ShapeError,
            owner=f"{self.name}: ",
        )

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return TensorShape(self.out_features, 1, 1)

    def macs(self, in_shape: TensorShape) -> int:
        return in_shape.elements * self.out_features

    def weight_count(self, in_shape: TensorShape) -> int:
        count = in_shape.elements * self.out_features
        if self.bias:
            count += self.out_features
        return count


@dataclass(frozen=True)
class ReLULayer(Layer):
    """Elementwise activation; shape-preserving and weight-free."""

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return in_shape

    def macs(self, in_shape: TensorShape) -> int:
        return 0

    def weight_count(self, in_shape: TensorShape) -> int:
        return 0


@dataclass(frozen=True)
class LRNLayer(Layer):
    """Local response normalization (AlexNet/GoogLeNet); shape-preserving."""

    local_size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return in_shape

    def macs(self, in_shape: TensorShape) -> int:
        return 0

    def weight_count(self, in_shape: TensorShape) -> int:
        return 0


@dataclass(frozen=True)
class ConcatLayer(Layer):
    """Depth-wise concatenation joining parallel branches (inception modules).

    ``branch_depths`` records the expected depth of each incoming branch so
    the network validator can check the wiring.
    """

    branch_depths: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.branch_depths:
            raise ShapeError(f"{self.name}: concat needs at least one branch")
        depths = tuple(
            check_count(d, f"{self.name}: branch depth {k}", 1, ShapeError)
            for k, d in enumerate(self.branch_depths)
        )
        object.__setattr__(self, "branch_depths", depths)

    def output_depth(self) -> int:
        return sum(self.branch_depths)

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        # in_shape carries the spatial extent shared by all branches.
        return TensorShape(self.output_depth(), in_shape.height, in_shape.width)

    def macs(self, in_shape: TensorShape) -> int:
        return 0

    def weight_count(self, in_shape: TensorShape) -> int:
        return 0


@dataclass(frozen=True)
class EltwiseAddLayer(Layer):
    """Elementwise sum of two (or more) branches — residual connections.

    All inputs must share the same shape; the output keeps it.  Introduced
    for ResNet-style topologies (contemporaneous with the paper), which
    stress exactly the corner the fuzzer found: strided 1x1 projection
    convolutions on the shortcut path.
    """

    branch_count: int = 2

    def __post_init__(self) -> None:
        check_counts(
            self, "branch_count", minimum=2, error=ShapeError,
            owner=f"{self.name}: ",
        )

    def output_shape(self, in_shape: TensorShape) -> TensorShape:
        return in_shape

    def macs(self, in_shape: TensorShape) -> int:
        # additions, not MACs — consistent with pooling's treatment
        return 0

    def weight_count(self, in_shape: TensorShape) -> int:
        return 0
