"""Inter-chip link model: bandwidth plus a fixed per-transfer hop latency.

A sharded deployment moves activations between accelerator instances —
stage-to-stage handoffs in a layer pipeline, scatter/gather in batch-level
data parallelism.  The cost model is deliberately first-order, matching the
rest of the repository: a transfer of ``n`` bytes over a link of bandwidth
``B`` GB/s and hop latency ``L`` costs ``L + n / B`` seconds, and a
zero-byte transfer costs nothing (no message, no hop).

``bandwidth_gbs`` may be ``math.inf`` — the "free interconnect" limit the
scaling tests use to show N-way data parallelism approaching an N× speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import check_count, check_real
from repro.nn.layers import TensorShape

__all__ = ["LinkSpec", "activation_bytes"]


@dataclass(frozen=True)
class LinkSpec:
    """An inter-chip link: sustained bandwidth + fixed per-transfer latency.

    Attributes
    ----------
    bandwidth_gbs:
        Sustained payload bandwidth in GB/s (1 GB = 1e9 bytes).  ``math.inf``
        models an ideal interconnect.  Defaults to a PCIe-gen4-x16-class
        25 GB/s.
    latency_s:
        Fixed per-transfer hop latency in seconds (serialization setup,
        protocol overhead), charged once per transfer regardless of size.
    """

    bandwidth_gbs: float = 25.0
    latency_s: float = 1e-6

    def __post_init__(self) -> None:
        # inf bandwidth is an ideal link: transfers cost only the latency
        check_real(self.bandwidth_gbs, "link bandwidth", gt=0, finite=False)
        check_real(self.latency_s, "link latency", ge=0)

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbs * 1e9

    def transfer_seconds(self, n_bytes: int) -> float:
        """Seconds to move ``n_bytes`` across the link (0 bytes -> 0 s)."""
        check_real(n_bytes, "transfer size", ge=0)
        if n_bytes == 0:
            return 0.0
        if math.isinf(self.bandwidth_gbs):
            return self.latency_s
        return self.latency_s + n_bytes / self.bytes_per_second

    def degraded(self, factor: float) -> "LinkSpec":
        """A validated derived spec running ``factor``× worse.

        Bandwidth divides by ``factor`` and the hop latency multiplies by
        it — both ends of the transfer cost get worse, matching a link that
        has dropped to a lower speed grade or is retrying at the PHY layer.
        ``factor == 1`` returns an equivalent spec; an infinite-bandwidth
        link stays infinite (only its latency degrades).
        """
        check_real(factor, "degrade factor", ge=1)
        return LinkSpec(
            bandwidth_gbs=self.bandwidth_gbs / factor,
            latency_s=self.latency_s * factor,
        )

    def describe(self) -> str:
        bw = "inf" if math.isinf(self.bandwidth_gbs) else f"{self.bandwidth_gbs:g}"
        return f"link({bw} GB/s, {self.latency_s * 1e6:g} us)"


def activation_bytes(shape: TensorShape, word_bytes: int) -> int:
    """Bytes of one activation tensor at the datapath word width.

    The layout (inter vs intra order) decides the *order* words cross the
    link in, not how many there are, so handoff cost depends only on the
    element count.
    """
    check_count(word_bytes, "word_bytes", 1)
    return shape.elements * word_bytes
