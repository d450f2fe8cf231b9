"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.arch import (
    eyeriss_like,
    simba_like,
    toy_glb_architecture,
    toy_linear_architecture,
)
from repro.model import Evaluator
from repro.problem import ConvLayer, GemmLayer
from repro.problem.gemm import vector_workload
from repro.utils import batching


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def toy_arch():
    """The Fig. 4/5 toy: DRAM -> 1 KiB GLB -> 6 storage-less PEs."""
    return toy_glb_architecture(num_pes=6, glb_bytes=1024)


@pytest.fixture
def linear_arch9():
    """The Table I toy: DRAM -> 9 PEs with 1 KiB scratchpads."""
    return toy_linear_architecture(9)


@pytest.fixture
def eyeriss():
    return eyeriss_like()


@pytest.fixture
def simba():
    return simba_like()


@pytest.fixture
def vector100():
    """The 100-element distribution problem of Figs. 4 and 5."""
    return vector_workload("v100", 100)


@pytest.fixture
def small_conv():
    return ConvLayer("small_conv", c=8, m=16, p=6, q=6, r=3, s=3).workload()


@pytest.fixture
def small_gemm():
    return GemmLayer("small_gemm", m=12, n=10, k=8).workload()


@pytest.fixture
def toy_evaluator(toy_arch, vector100):
    return Evaluator(toy_arch, vector100)


@pytest.fixture
def set_batch_size(monkeypatch):
    """Set how many candidates every searcher packs per batch, for one
    test: ``set_batch_size(64)``."""

    def set_size(size):
        monkeypatch.setattr(batching, "DEFAULT_BATCH_SIZE", size)

    return set_size
