"""Accelerator hardware model: configuration, buffers, PE array, energy."""

from repro.arch.config import CONFIG_16_16, CONFIG_32_32, named_config

__all__ = [
    "CONFIG_16_16",
    "CONFIG_32_32",
    "named_config",
]
