"""Data tiling: unrolling (Eq. 1), kernel partitioning (Eq. 2), layouts, fit."""
