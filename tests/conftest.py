"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap

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


#: A script that runs ``run()`` and reports the WorkerError it raised
#: (``index``) and how many worker processes outlived it (``children``).
#: ``kill_self()`` SIGKILLs the calling process, as the OOM killer would.
CRASH_SCRIPT = """
import json, multiprocessing, os, signal
from repro.exceptions import WorkerError


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)

{body}

if __name__ == "__main__":
    index = None
    try:
        run()
    except WorkerError as error:
        index = error.index
    print(json.dumps(
        {{"index": index, "children": len(multiprocessing.active_children())}}
    ))
"""


@pytest.fixture
def crash_run(tmp_path):
    """Run ``body`` (which defines ``run()``) as a script file in a fresh
    interpreter and return its report; a run that hangs fails after 60 s.
    A script file, not ``-c``, so spawn workers can import its entries."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def run(body):
        script = tmp_path / "crash_script.py"
        script.write_text(CRASH_SCRIPT.format(body=textwrap.dedent(body)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run
