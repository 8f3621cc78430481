"""Shared fixtures: accelerator configs, benchmark networks, layer helpers."""

from __future__ import annotations

import pytest

from repro.arch import CONFIG_16_16, CONFIG_32_32
from repro.nn.network import LayerContext, standalone_conv
from repro.nn.zoo import build


@pytest.fixture(scope="session")
def cfg16():
    return CONFIG_16_16


@pytest.fixture(scope="session")
def cfg32():
    return CONFIG_32_32


@pytest.fixture(scope="session")
def alexnet():
    return build("alexnet")


@pytest.fixture(scope="session")
def googlenet():
    return build("googlenet")


@pytest.fixture(scope="session")
def vgg():
    return build("vgg")


@pytest.fixture(scope="session")
def nin():
    return build("nin")


@pytest.fixture(scope="session")
def all_networks(alexnet, googlenet, vgg, nin):
    return [alexnet, googlenet, vgg, nin]


def make_ctx(
    in_maps=3, out_maps=8, kernel=3, stride=1, pad=0, groups=1, hw=16, name="layer"
) -> LayerContext:
    """Build a standalone conv LayerContext for unit tests."""
    return standalone_conv(in_maps, out_maps, kernel, stride, hw, pad, groups, name)


@pytest.fixture
def ctx_factory():
    return make_ctx


@pytest.fixture
def alexnet_conv1_ctx(alexnet):
    return alexnet.conv1()
