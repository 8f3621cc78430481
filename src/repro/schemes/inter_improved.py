"""Improved inter-kernel parallelization (Sec 4.2.2) — adap-2's top-layer scheme.

Loop interchange over the original inter-kernel order: instead of finishing a
whole ``k*k*Din`` accumulation before moving on (which reloads both data and
weights on every multiply), fix one kernel element and one ``Din`` chunk,
keep those ``Tin*Tout`` weights *resident* in the array, and sweep across all
output pixels computing ``1/(k*k)`` partial sums.

Cost/benefit exactly as Fig. 6's discussion:

* stores grow by one partial-sum write per (output pixel, kernel element,
  Din chunk) — plus the partial-sum read-back for accumulation;
* weight loads collapse from once-per-output-pixel to exactly once, saving
  ``~X*Y*Dout*k*k*Din/Tin`` load operations — since ``Din >> Tin`` in top
  layers, buffer bandwidth occupancy drops dramatically;
* stores are off the critical path, so cycles equal the original inter-kernel
  scheme ("adpa-1 and adpa-2 are the same on performance").
"""

from __future__ import annotations

from repro.schemes.base import Scheme

__all__ = ["ImprovedInterKernelScheme"]


class ImprovedInterKernelScheme(Scheme):
    """Inter-kernel with weight-resident partial-sum accumulation."""

    name = "inter-improved"
