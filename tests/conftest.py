"""Shared fixtures: small protocol configurations and crypto materials."""

from __future__ import annotations

import pytest

from repro.core.config import DelugeParams, ImageConfig, LRSelugeParams, ProtocolTiming, SelugeParams
from repro.core.image import CodeImage
from repro.crypto.ecdsa import generate_keypair
from repro.crypto.puzzle import MessageSpecificPuzzle
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


@pytest.fixture(scope="session")
def keypair():
    return generate_keypair(42)


@pytest.fixture(scope="session")
def puzzle():
    # Low difficulty keeps the base station's solve step fast in tests.
    return MessageSpecificPuzzle(difficulty=6)


@pytest.fixture
def small_image_cfg():
    return ImageConfig(image_size=4096, version=3)


@pytest.fixture
def small_image(small_image_cfg):
    return CodeImage.synthetic(small_image_cfg.image_size,
                               version=small_image_cfg.version, seed=7)


@pytest.fixture
def lr_params(small_image_cfg):
    return LRSelugeParams(k=8, n=12, image=small_image_cfg)


@pytest.fixture
def seluge_params(small_image_cfg):
    return SelugeParams(k=8, image=small_image_cfg)


@pytest.fixture
def deluge_params(small_image_cfg):
    return DelugeParams(k=8, image=small_image_cfg)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rngs():
    return RngRegistry(1234)


@pytest.fixture
def trace():
    return TraceRecorder()
