"""2D-PE (systolic-mesh) intra-kernel realization — Sec 4.1.2, approach 3.

The paper analyzes a third way to exploit intra-kernel parallelism: "a 2D
mesh PE similar to systolic array [11, 15]" (ShiDianNao-style).  A ``Px x
Py`` mesh maps one output pixel per PE; input pixels enter at the array
edge and *propagate between neighbouring PEs*, so each input word is read
from the buffer roughly once per output-map pass — "very high data
reusability ... very effective when dealing with specific network topology
in vision processing".

And its weakness, which this model reproduces and the ablation benchmark
quantifies: "this highly-effective 2D-PE design will encounter performance
degradation or underutilization issue when it encounters networks with
varied size of kernels and stride":

* **stride** — neighbour propagation supplies one new pixel row per step
  only at ``s = 1``; at stride ``s`` the window jumps ``s`` pixels, the
  inter-PE reuse chain breaks, and the edge must inject ``s`` rows per
  step.  Data supply becomes the bottleneck: the array stalls by a factor
  ``s`` on the streaming side.
* **spatial quantization** — output maps are processed in ``Px x Py``
  tiles; maps that do not divide the mesh leave PEs idle (e.g. 13x13
  AlexNet top layers on a 16x16 mesh use 66% of the PEs).
* **depth serialization** — the mesh parallelizes space, not depth, so
  ``Din``/``Dout`` are walked serially; deep 1x1 layers leave the
  propagation network useless.

The mesh is sized ``Px = Tin``, ``Py = Tout`` so every comparison uses the
same multiplier budget as the paper's linear array.

This scheme is an *extension* (the paper analyzes but does not evaluate
it); it is registered as ``"pe2d"`` but excluded from the paper-parity
experiment drivers.
"""

from __future__ import annotations

from repro.schemes.base import Scheme

__all__ = ["Pe2dScheme"]


class Pe2dScheme(Scheme):
    """ShiDianNao-style output-stationary 2D mesh."""

    name = "pe2d"
