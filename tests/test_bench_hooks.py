"""The benchmark in bench/ still finds every package name it hooks into or imports."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


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
