"""Network container: a DAG of layers with shape propagation.

A :class:`Network` is built by appending layers; each layer names its input
layers (defaulting to the previously appended one, which makes plain
sequential networks trivial to express).  GoogLeNet's inception modules use
explicit fan-out (several branches reading the same input) and
:class:`~repro.nn.layers.ConcatLayer` fan-in.

Shapes are inferred eagerly at ``add`` time so wiring mistakes surface at the
point of construction, not at analysis time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ShapeError
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    EltwiseAddLayer,
    FCLayer,
    Layer,
    TensorShape,
)

__all__ = ["Network", "LayerContext", "NetworkStatsSummary", "per_context", "standalone_conv"]

_INPUT = "__input__"
T = TypeVar("T")


@dataclass(frozen=True)
class LayerContext:
    """A layer together with its resolved input/output tensor shapes.

    This is the unit consumed by schemes, planners and baselines: everything
    needed to cost a layer without re-walking the graph.
    """

    layer: Layer
    in_shape: TensorShape
    out_shape: TensorShape

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def macs(self) -> int:
        return self.layer.macs(self.in_shape)

    @property
    def weights(self) -> int:
        return self.layer.weight_count(self.in_shape)

    @cached_property
    def geometry_key(self) -> str:
        """Canonical geometry (name-independent), computed once per context.
        A ``str``, whose hash CPython computes once."""
        layer = self.layer
        return repr((
            type(layer).__name__,
            *(getattr(layer, f, 0) for f in ("kernel", "stride", "pad", "in_maps", "out_maps")),
            getattr(layer, "groups", 1),
            getattr(layer, "bias", False),
            self.in_shape.as_tuple(),
            self.out_shape.as_tuple(),
        ))


def per_context(derive: Callable[[LayerContext], T]) -> Callable[[LayerContext], T]:
    """``derive`` memoized on each context it reads: a quantity of the layer
    alone is derived once per context, as :attr:`LayerContext.geometry_key` is."""
    slot = f"{derive.__module__}.{derive.__qualname__}"

    @wraps(derive)
    def memoized(ctx: LayerContext) -> T:
        memo = ctx.__dict__  # as functools.cached_property keeps its values
        return memo[slot] if slot in memo else memo.setdefault(slot, derive(ctx))

    return memoized


def standalone_conv(
    in_maps: int, out_maps: int, kernel: int, stride: int, hw: int,
    pad: int = 0, groups: int = 1, name: str = "layer",
) -> LayerContext:
    """A conv layer on its own, fed an ``in_maps x hw x hw`` input."""
    layer = ConvLayer(
        name, in_maps=in_maps, out_maps=out_maps, kernel=kernel, stride=stride,
        pad=pad, groups=groups,
    )
    in_shape = TensorShape(in_maps, hw, hw)
    return LayerContext(layer, in_shape, layer.output_shape(in_shape))


@dataclass(frozen=True)
class NetworkStatsSummary:
    """Aggregate statistics used by Table 2-style reporting."""

    name: str
    conv_layers: int
    fc_layers: int
    total_layers: int
    kernel_sizes: Tuple[int, ...]
    total_macs: int
    total_weights: int
    conv1: Optional[ConvLayer]


class Network:
    """An inference network: named layers wired into a DAG.

    Parameters
    ----------
    name:
        Human-readable identifier (``"alexnet"``...).
    input_shape:
        Shape of the image tensor fed to the first layer.
    """

    def __init__(self, name: str, input_shape: TensorShape) -> None:
        self.name = name
        self.input_shape = input_shape
        self._layers: List[Layer] = []
        self._inputs: Dict[str, Tuple[str, ...]] = {}
        self._shapes: Dict[str, TensorShape] = {_INPUT: input_shape}
        self._order: List[str] = []
        #: contexts() since the last add, so their geometry keys persist
        self._contexts: Optional[List[LayerContext]] = None

    # -- construction -----------------------------------------------------

    def add(self, layer: Layer, inputs: Optional[Sequence[str]] = None) -> Layer:
        """Append ``layer``, reading from ``inputs`` (default: previous layer).

        Returns the layer for chaining convenience.  Raises
        :class:`ShapeError` on duplicate names, dangling inputs or
        inconsistent shapes.
        """
        if layer.name in self._shapes:
            raise ShapeError(f"duplicate layer name {layer.name!r}")
        if inputs is None:
            inputs = (self._order[-1],) if self._order else (_INPUT,)
        inputs = tuple(inputs)
        for src in inputs:
            if src != _INPUT and src not in self._shapes:
                raise ShapeError(
                    f"layer {layer.name!r} reads unknown input {src!r}"
                )
        self._shapes[layer.name] = self._infer_shape(layer, inputs)
        self._layers.append(layer)
        self._inputs[layer.name] = inputs
        self._order.append(layer.name)
        self._contexts = None
        return layer

    def _infer_shape(self, layer: Layer, inputs: Tuple[str, ...]) -> TensorShape:
        in_shapes = [self._shapes[src] for src in inputs]
        if isinstance(layer, ConcatLayer):
            hw = {(s.height, s.width) for s in in_shapes}
            if len(hw) != 1:
                raise ShapeError(
                    f"{layer.name}: concat branches disagree on spatial size: {hw}"
                )
            depths = tuple(s.depth for s in in_shapes)
            if depths != layer.branch_depths:
                raise ShapeError(
                    f"{layer.name}: declared branch depths {layer.branch_depths} "
                    f"!= wired depths {depths}"
                )
            return layer.output_shape(in_shapes[0])
        if isinstance(layer, EltwiseAddLayer):
            if len(in_shapes) != layer.branch_count:
                raise ShapeError(
                    f"{layer.name}: expected {layer.branch_count} branches, "
                    f"got {len(in_shapes)}"
                )
            if len({s.as_tuple() for s in in_shapes}) != 1:
                raise ShapeError(
                    f"{layer.name}: eltwise branches disagree on shape: "
                    f"{[s.as_tuple() for s in in_shapes]}"
                )
            return layer.output_shape(in_shapes[0])
        if len(in_shapes) != 1:
            raise ShapeError(
                f"{layer.name}: non-concat layer must have exactly one input, "
                f"got {len(in_shapes)}"
            )
        return layer.output_shape(in_shapes[0])

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self._layers)

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        for lyr in self._layers:
            if lyr.name == name:
                return lyr
        raise KeyError(name)

    def input_names(self, name: str) -> Tuple[str, ...]:
        """Names of the layers feeding ``name`` (``"__input__"`` for the image)."""
        return self._inputs[name]

    def shape_of(self, name: str) -> TensorShape:
        """Output shape of a layer (or the network input for ``"__input__"``)."""
        return self._shapes[name]

    def input_shape_of(self, name: str) -> TensorShape:
        """Shape of the (single) tensor entering layer ``name``.

        For concat layers this is the shared spatial shape of the first
        branch; concat layers are weight-free so this is only used for
        bookkeeping.
        """
        srcs = self._inputs[name]
        return self._shapes[srcs[0]]

    def contexts(self) -> List[LayerContext]:
        """All layers with resolved shapes, in construction (topological) order."""
        if self._contexts is None:
            self._contexts = [
                LayerContext(lyr, self.input_shape_of(lyr.name), self._shapes[lyr.name])
                for lyr in self._layers
            ]
        return list(self._contexts)

    def conv_contexts(self) -> List[LayerContext]:
        """Only the convolutional layers (the paper's unit of evaluation)."""
        return [c for c in self.contexts() if isinstance(c.layer, ConvLayer)]

    def conv1(self) -> LayerContext:
        """The first convolutional layer (Fig. 7's workload)."""
        for ctx in self.contexts():
            if isinstance(ctx.layer, ConvLayer):
                return ctx
        raise ShapeError(f"network {self.name!r} has no convolutional layer")

    # -- statistics ----------------------------------------------------------

    def summary(self) -> NetworkStatsSummary:
        """Aggregate characteristics matching the paper's Table 2 rows."""
        convs = self.conv_contexts()
        fcs = [c for c in self.contexts() if isinstance(c.layer, FCLayer)]
        kernels = tuple(
            sorted({c.layer.kernel for c in convs}, reverse=True)
        )
        total_macs = sum(c.macs for c in self.contexts())
        total_weights = sum(c.weights for c in self.contexts())
        first_conv = convs[0].layer if convs else None
        return NetworkStatsSummary(
            name=self.name,
            conv_layers=len(convs),
            fc_layers=len(fcs),
            total_layers=len(self._layers),
            kernel_sizes=kernels,
            total_macs=total_macs,
            total_weights=total_weights,
            conv1=first_conv,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, layers={len(self._layers)}, "
            f"input={self.input_shape.as_tuple()})"
        )
