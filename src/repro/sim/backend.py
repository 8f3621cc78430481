"""Functional-simulator backend selection: ``loop`` oracle vs ``vector`` fast path.

The numerical conv paths in :mod:`repro.sim.functional` (and the ABFT
reductions in :mod:`repro.integrity.abft` and the unroller in
:mod:`repro.tiling.unroll`) each exist in two executions; the integer
datapath in :mod:`repro.sim.datapath` and ABFT recovery run the functional
paths, so they follow the same choice:

* ``loop`` — the original Python loop nests, kept verbatim.  They walk
  the paper's orders one output pixel / one accumulation step at a time
  and serve as the golden bit-exactness oracle.
* ``vector`` — batched NumPy im2col/GEMM: strided window views
  (:func:`numpy.lib.stride_tricks.sliding_window_view`) feed
  ``matmul``/``einsum`` so a whole output map is one matrix product.

In the int64 fixed-point code domain the two are **bit-identical**:
integer addition is associative (and wraps mod 2^64 consistently), so no
reordering of the partial-sum reductions can leak into the result.  The
cross-backend identity tests assert byte equality, not closeness.  On
float operands the vector backend is equivalent only up to summation
order (``allclose``), which is why the loop nests — not the float
semantics — are the oracle.

Selection, in priority order:

1. an explicit ``backend=`` argument on any functional-path call;
2. :func:`set_backend` / the :func:`use_backend` context manager
   (the CLI's ``--backend {loop,vector}`` flag calls :func:`set_backend`);
3. the ``REPRO_SIM_BACKEND`` environment variable;
4. the default, ``vector``.

The helpers at the bottom are the shared vectorization primitives: a
strided sliding-window view of a padded activation tensor and the
flattened GEMM operand it induces.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "conv_window_view",
    "window_columns",
]

#: the two functional-simulator executions
BACKENDS = ("loop", "vector")

#: used when neither an argument, set_backend, nor the env var chose one
DEFAULT_BACKEND = "vector"

#: environment override consulted once, on first use
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"

#: process-wide active backend; ``None`` means "not resolved yet"
_active: Optional[str] = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown simulator backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def get_backend() -> str:
    """The process-wide active backend (env var or default on first use)."""
    global _active
    if _active is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        _active = _validate(env) if env else DEFAULT_BACKEND
    return _active


def set_backend(name: str) -> str:
    """Set the process-wide backend; returns the previous one."""
    global _active
    previous = get_backend()
    _active = _validate(name)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch the process-wide backend (tests, oracle runs)."""
    previous = set_backend(name)
    try:
        yield _active  # type: ignore[misc]
    finally:
        set_backend(previous)


def resolve_backend(backend: Optional[str]) -> str:
    """An explicit per-call choice, or the process-wide active backend."""
    if backend is None:
        return get_backend()
    return _validate(backend)


# -- shared vectorization primitives --------------------------------------


def conv_window_view(
    padded: np.ndarray,
    kernel: int,
    stride: int,
    oh: int,
    ow: int,
    oy0: int = 0,
    ox0: int = 0,
) -> np.ndarray:
    """Read-only strided view of every conv window of a padded tensor.

    Returns shape ``(D, oh, ow, kernel, kernel)`` where entry
    ``[d, oy, ox]`` is the window at input offset
    ``(oy0 + oy*stride, ox0 + ox*stride)`` — no data is copied.
    """
    win = sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    return win[
        :,
        oy0 : oy0 + (oh - 1) * stride + 1 : stride,
        ox0 : ox0 + (ow - 1) * stride + 1 : stride,
    ]


def window_columns(windows: np.ndarray) -> np.ndarray:
    """Flatten a ``(D, oh, ow, k, k)`` window view into GEMM columns.

    Returns a contiguous ``(oh*ow, D*k*k)`` matrix whose row ``r`` is the
    receptive field of output pixel ``r`` in row-major output order — the
    exact byte layout of the loop-backend :func:`repro.tiling.unroll.im2col`.
    """
    d, oh, ow, k, _ = windows.shape
    return np.ascontiguousarray(windows.transpose(1, 2, 0, 3, 4)).reshape(
        oh * ow, d * k * k
    )
