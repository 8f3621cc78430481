"""Kernel-partitioning scheme (Sec 4.2.1, Fig. 5, Algorithm 1) — the hybrid.

The k x k kernel is split into ``G = g*g`` sub-kernels of ``ks = s`` per side
(Eq. 2, :mod:`repro.tiling.partition`).  Each sub-kernel scans the padded
input with stride = window size, so adjacent windows never overlap: window
data is contiguous in the buffer, giving intra-kernel's reuse without its
alignment problem.

Mapping (Sec 4.2.1 last paragraph): the basic unit is one ``ks x ks``
window.  When ``Tin >= ks*ks`` multiple windows are mapped per operation
(``wpo = Tin // (ks*ks)`` windows, i.e. ``wpo`` output pixels advance at
once); when the sub-window exceeds ``Tin`` it takes ``ceil(ks*ks / Tin)``
operations.  ``Tout`` lanes compute ``Tout`` output maps sharing the window
data.

Accumulation follows Algorithm 1: sub-kernel ``i``'s partial map is
add-and-stored onto sub-kernel ``i-1``'s running sum in the output buffer
(lines 7-8), and the input-map loop rides the same mechanism — so the
output buffer sees ``G * d`` accumulation passes.  Cheap for bottom layers
(``d`` small), expensive for top layers (the paper: "partition ... is not
suitable for the top layers"), which is exactly why the adaptive scheme
exists.

The zero-padding overhead ``(g*ks)^2 / k^2`` appears in the cycle count
(padded weights are multiplied like real ones) but those pad multiplies are
*not* useful MACs, so reported utilization reflects it.
"""

from __future__ import annotations

from repro.schemes.base import Scheme

__all__ = ["KernelPartitionScheme"]


class KernelPartitionScheme(Scheme):
    """The paper's kernel-partitioning hybrid (``partition`` series)."""

    name = "partition"
