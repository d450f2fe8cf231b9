"""Import-time contracts: every entry point loads only the modules it uses.

Package ``__init__``s resolve their exports lazily (``repro._exports``),
so importing a search entry point must not drag in the campaign, service,
experiment or verification stacks, and the CLI's argument parser must not
load NumPy. Each check runs in a fresh interpreter, since the test
process itself has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules no search entry point may load at import.
NOT_ON_SEARCH_PATH = (
    "repro.search.campaign",
    "repro.service",
    "repro.experiments",
    "repro.verify",
    "repro.obs.server",
    "repro.io.serde",
    "repro.model.reference_sim",
    "http.server",
    "ssl",
)

PACKAGES = (
    "repro",
    "repro.arch",
    "repro.core",
    "repro.energy",
    "repro.experiments",
    "repro.io",
    "repro.mapping",
    "repro.mapspace",
    "repro.model",
    "repro.obs",
    "repro.problem",
    "repro.search",
    "repro.service",
    "repro.utils",
    "repro.verify",
    "repro.zoo",
)


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.search.exhaustive", "repro.search.branch_bound",
     "repro.core.mapper"],
)
def test_search_entry_points_skip_unused_stacks(module):
    loaded = run_fresh(f"""
        import json, sys
        import {module}
        print(json.dumps([m for m in {list(NOT_ON_SEARCH_PATH)!r} if m in sys.modules]))
    """)
    assert loaded == []


@pytest.mark.parametrize(
    "module", ["repro.search.campaign", "repro.experiments.fig10"]
)
def test_campaign_imports_no_worker_layer(module):
    # The worker layer loads when a campaign starts its first worker, so
    # a figure harness that runs inline compiles none of it.
    loaded = run_fresh(f"""
        import json, sys
        import {module}
        worker_layer = ("multiprocessing", "repro.search.worker_pool")
        print(json.dumps([m for m in worker_layer if m in sys.modules]))
    """)
    assert loaded == []


def test_inline_seeds_load_no_worker_layer():
    # A best-of-seeds job with one worker runs its seeds in this process:
    # the pool, and multiprocessing with it, never load. A one-worker
    # mapper search never loads the best-of-seeds body at all.
    loaded = run_fresh(textwrap.dedent(SEARCH_SETUP) + textwrap.dedent("""
        from repro import find_best_mapping
        result = find_best_mapping(
            arch, workload, max_evaluations=100, patience=None, seed=0,
            workers=1,
        )
        assert result.best is not None
        campaign = "repro.search.campaign" in sys.modules
        from repro.experiments.common import multi_seed_search
        multi_seed_search(
            arch, workload, "ruby-s", seeds=(1, 2), max_evaluations=100,
            patience=None,
        )
        worker_layer = ("multiprocessing", "repro.search.worker_pool")
        print(json.dumps(
            [campaign] + [m for m in worker_layer if m in sys.modules]
        ))
    """))
    assert loaded == [False]


@pytest.mark.parametrize(
    "argv",
    [["--help"],
     ["obs", "summarize", "missing-trace.jsonl"],
     ["campaign", "status", "--journal", "missing-journal.jsonl"],
     ["bench", "compare", "--ledger", "missing-ledger.jsonl"],
     ["bench", "record"]],
    ids=["help", "obs-summarize", "campaign-status", "bench-compare",
         "bench-record"],
)
def test_cli_without_a_search_skips_numpy(argv, tmp_path):
    # `bench record` runs a fake benchmark's command in subprocesses.
    from tests.fake_bench import steady_plan, write_benchmark

    write_benchmark(tmp_path, steady_plan())
    loaded = run_fresh(f"""
        import contextlib, io, json, os, runpy, sys
        os.chdir({str(tmp_path)!r})
        sys.argv = ["repro", *{argv!r}]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit:
                pass
        print(json.dumps([m for m in ("numpy", "repro.search.loop") if m in sys.modules]))
    """)
    assert loaded == []
    recorded = (tmp_path / "BENCH_HISTORY.jsonl").exists()
    assert recorded == (argv == ["bench", "record"])


SEARCH_SETUP = """
    import json, sys
    from repro.arch import toy_linear_architecture
    from repro.problem import GemmLayer
    arch = toy_linear_architecture(16)
    workload = GemmLayer("g", m=16, n=8, k=8).workload()
"""

BUILD_PFM = """
    from repro.mapspace.factory import pfm_mapspace
    from repro.model.evaluator import Evaluator
    mapspace = pfm_mapspace(arch, workload)
    evaluator = Evaluator(arch, workload)
"""


@pytest.mark.parametrize(
    "entry,setup,search",
    [("from repro import find_best_mapping", "",
      "find_best_mapping(arch, workload, max_evaluations=300, patience=None, seed=0)"),
     ("from repro.search.exhaustive import ExhaustiveSearch", BUILD_PFM,
      "ExhaustiveSearch(mapspace, evaluator).run()"),
     ("from repro.search.branch_bound import BranchBoundSearch", BUILD_PFM,
      "BranchBoundSearch(mapspace, evaluator, seed=0).run()")],
    ids=["random", "exhaustive", "branch-bound"],
)
def test_search_imports_nothing_after_its_entry_point(entry, setup, search):
    # A module the search runs must load with its entry point, not in
    # the first (timed) search.
    new = run_fresh(
        textwrap.dedent(SEARCH_SETUP) + entry + "\n" + textwrap.dedent(setup)
        + "before = set(sys.modules)\n"
        + f"result = {search}\n"
        + "assert result.best is not None\n"
        + "print(json.dumps(sorted(m for m in set(sys.modules) - before"
        + " if m.startswith('repro'))))\n"
    )
    assert new == []


def test_package_exports_resolve_to_their_submodule_objects():
    problems = run_fresh(f"""
        import importlib, json, pkgutil
        problems = []
        for name in {list(PACKAGES)!r}:
            package = importlib.import_module(name)
            own = set(vars(package))
            namespace = {{}}
            exec(f"from {{name}} import *", namespace)
            submodules = {{
                info.name.rsplit(".", 1)[1]: info.name
                for info in pkgutil.iter_modules(package.__path__, name + ".")
                if not info.name.endswith("__main__")
            }}
            for export in package.__all__:
                if export in submodules:
                    problems.append(f"{{name}}.{{export}} shadows a submodule")
                value = getattr(package, export)
                holders = [
                    module for module in submodules.values()
                    if getattr(importlib.import_module(module), export, None) is value
                ]
                if not holders and export not in own:
                    problems.append(f"{{name}}.{{export}} is in no submodule")
                if namespace.get(export) is not value:
                    problems.append(f"{{name}}: import * misses {{export}}")
                if export not in dir(package):
                    problems.append(f"{{name}}: dir() misses {{export}}")
            try:
                getattr(package, "no_such_export")
                problems.append(f"{{name}}: unknown attribute resolved")
            except AttributeError:
                pass
        print(json.dumps(problems))
    """)
    assert problems == []


def test_concurrent_first_access_resolves_one_object():
    # Service threads may race on a name's first access; every thread
    # must get the same object and no import may fail half-way.
    report = run_fresh(f"""
        import importlib, json, sys, threading
        sys.setswitchinterval(1e-6)
        packages = [importlib.import_module(name) for name in {list(PACKAGES)!r}]
        seen, errors = [], []
        barrier = threading.Barrier(8)

        def resolve_all():
            try:
                barrier.wait(timeout=30)
                seen.append([getattr(p, n) for p in packages for n in p.__all__])
            except Exception as error:
                errors.append(repr(error))

        threads = [threading.Thread(target=resolve_all) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        print(json.dumps({{
            "alive": sum(thread.is_alive() for thread in threads),
            "errors": errors,
            "resolved": len(seen),
            "same": all(all(a is b for a, b in zip(row, seen[0])) for row in seen),
        }}))
    """)
    assert report == {"alive": 0, "errors": [], "resolved": 8, "same": True}
