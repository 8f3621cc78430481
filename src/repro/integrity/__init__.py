"""Numerical integrity guard: ABFT convolution, SDC injection, recovery.

PR 4's resilience layer handles *loud* faults — crashed chips, slow
replicas, flapping links — that health checks can see.  This package
handles the fault a health check cannot see: a single bit flip in an
activation buffer, weight buffer, partial-sum accumulator, or output
word, silently corrupting results while every liveness probe stays green.

- :mod:`repro.integrity.sdc` — seeded single-bit-flip injection at the
  four buffer sites, realised through hooks in the functional conv paths;
- :mod:`repro.integrity.abft` — Huang-Abraham row/column checksums
  adapted to convolution, exact in the fixed-point integer-code domain
  (zero false positives by construction), with localization and
  detect-and-recompute recovery per Algorithm 1's sub-kernel independence;
- :mod:`repro.integrity.sweep` — the benchmark sweep behind
  ``repro integrity`` and ``benchmarks/bench_integrity.py``: detection /
  false-positive / correction rates and the verified-vs-unverified
  overhead, as a byte-stable rollup.

The scheme-level cost of the guard lives in :mod:`repro.schemes.abft`;
the serving-tier integration (verified replicas, SDC chaos scenarios) in
:mod:`repro.serve.verified` and :mod:`repro.resilience.scenarios`.

See ``docs/integrity.md`` for the checksum math and the fault model.
"""

from repro.integrity.sweep import SWEEP_LAYERS, run_sweep

__all__ = [
    "SWEEP_LAYERS",
    "run_sweep",
]
