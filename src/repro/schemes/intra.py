"""Intra-kernel parallelization (Sec 4.1.2).

Concurrent PE inputs come from the *same* input map, so one weight (set) is
shared across them — the scheme's energy advantage: "each operation just
needs to reload either data or weight, not both".

Realizations, following the paper's analysis:

* **sliding window** — only efficient when ``k == s`` (no overlap between
  adjacent windows, data for one window contiguous in the buffer).  Used
  automatically in that case.
* **data unrolling** — the general case (``k != s``); the input is expanded
  by Eq. 1's duplication factor T so every receptive field is contiguous.
  This is what the paper's ``intra`` series implements ("we implemented the
  unrolling scheme in this paper").  Costs, as the paper describes them:

  - off-chip footprint and DMA traffic inflate by T;
  - the raw->unrolled reshape is done by the host processor "at
    considerable overhead" — charged as a serial reshape stream at
    ``DEFAULT_RESHAPE_WORDS_PER_CYCLE`` (2: a 32-bit host interface
    feeding 16-bit words);
  - the unrolled stream has no spatial structure left, so it cannot be
    strip-tiled: when the unrolled tensor overflows the input buffer, the
    non-resident fraction is re-fetched from DRAM on every output-chunk
    pass — the "many redundant data due to the data alignment problem"
    that makes whole-net intra lose to adap-2 in Fig. 10 and go *negative*
    on VGG in Table 5.

Loop structure (Fig. 4b): one ``Tin``-slice of the receptive field — i.e.
``Tin`` weights shared by the whole map — stays *resident* while the array
sweeps all output pixels, accumulating 1/``field_chunks`` partial sums into
the output buffer (add-and-store), exactly the reuse pattern the improved
inter-kernel scheme borrows for the top layers.
"""

from __future__ import annotations

from repro.schemes.base import Scheme

__all__ = ["IntraKernelScheme"]

#: host reshape feed rate for the unrolling realization: a 32-bit host
#: interface moves two 16-bit words per accelerator cycle
DEFAULT_RESHAPE_WORDS_PER_CYCLE = 2.0


class IntraKernelScheme(Scheme):
    """Intra-kernel scheme: sliding window when ``k == s``, else unrolling."""

    name = "intra"
