"""Guards on the package surface: every exported name resolves, and every
name the benchmark's tracer wraps still exists where it is looked up."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import hyperforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(hyperforge.__path__))
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hyperforge.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_all_resolves():
    assert [n for n in hyperforge.__all__ if not hasattr(hyperforge, n)] == []


def test_tracer_installs_and_unpatches():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCHMARKS))
    from hyperforge import autodiff, coarsening, denoiser

    owners = [importlib.import_module(f"hyperforge.{name}") for name in MODULES]
    owners += [autodiff.Tensor, autodiff.ParameterStore, denoiser.Denoiser, coarsening.CoarseningCache]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    t.install()
    try:
        assert [dict(vars(owner)) for owner in owners] != before
    finally:
        t.unpatch()
    assert [dict(vars(owner)) for owner in owners] == before
