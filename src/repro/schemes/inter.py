"""Inter-kernel parallelization (Sec 4.1.1) — the DianNao-style baseline [8].

Each operation transfers ``Tin`` pixels along the depth (``Din``) direction —
same kernel position, consecutive input maps — and broadcasts them to
``Tout`` lanes computing ``Tout`` different output maps.  The accumulation
over the ``k*k`` window and the ``Din`` chunks happens in the PE accumulator,
so one output pixel is stored once.

Weaknesses modelled exactly as the paper describes:

* parallelism is capped by ``Din``/``Dout`` — with ``Din = 3`` and
  ``Tin = 16``, 13 of 16 multiplier columns idle (conv1 disaster);
* no kernel sharing: the concurrent words belong to *different* maps, so
  every operation reloads both its data words and its ``Tin*Tout`` weights
  from the buffers — heavy traffic, high power.
"""

from __future__ import annotations

from repro.schemes.base import Scheme

__all__ = ["InterKernelScheme"]


class InterKernelScheme(Scheme):
    """Original inter-kernel scheme (the ``inter`` series of Figs. 7-10)."""

    name = "inter"
