"""The benchmark in bench/ still finds every package name it hooks into, imports or calls."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = str(ROOT / "bench")


@pytest.fixture(scope="module", autouse=True)
def bench_on_path():
    sys.path.insert(0, BENCH)
    yield
    sys.path.remove(BENCH)


def test_traced_names_resolve():
    # Tracer.install replaces owner.__dict__[name] for each owner.
    tracing = importlib.import_module("tracing")
    missing = [f"{owner.__name__}.{name}" for name, _, _, owners in tracing.TRACED for owner in owners
               if name not in owner.__dict__]
    assert not missing


@pytest.mark.parametrize("module", ["checks", "workloads", "selftest"])
def test_bench_module_imports(module):
    importlib.import_module(module)


def test_self_test_rejects_every_corruption():
    # Runs the names selftest.py calls, so a signature change in the package fails here, not in the benchmark.
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--self-test"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "10 of 10 cases as expected" in proc.stdout
