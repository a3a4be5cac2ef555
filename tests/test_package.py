"""Guards on the package surface: every module's exported name resolves and
is used, importing the CLI loads no numerical module, and every name the
benchmark's tracer wraps still exists where it is looked up."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(hyperforge.__path__))
ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hyperforge.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _package_module(name: str | None, level: int, home: str | None) -> str | None:
    """The hyperforge module that an import from ``name`` at relative
    ``level`` names, from a file of module ``home`` (None outside the
    package); None for the package itself or a module outside it."""
    if level:
        return name if home is not None else None
    parts = (name or "").split(".")
    return parts[1] if parts[0] == "hyperforge" and len(parts) == 2 else None


def _bindings(tree: ast.Module, home: str | None) -> tuple[dict[str, str], dict[str, str]]:
    """What a file's imports bind, wherever they sit: names bound to a
    hyperforge module (``ad`` to ``autodiff``), and names bound to a name a
    module defines (``train`` to ``pipeline.train``)."""
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = _package_module(alias.name, 0, home)
                if module is not None and alias.asname:
                    modules[alias.asname] = module
        elif isinstance(node, ast.ImportFrom):
            source = _package_module(node.module, node.level, home)
            package = (node.level and node.module is None) or node.module == "hyperforge"
            for alias in node.names:
                bound = alias.asname or alias.name
                if package and alias.name in MODULES:
                    modules[bound] = alias.name
                elif source is not None:
                    names[bound] = f"{source}.{alias.name}"
    return modules, names


def _referenced_names() -> set[str]:
    """Every ``module.name`` that code under src/, benchmarks/ or demos/
    reads, outside the top-level definition of that same name.

    A read counts only through the module it resolves to: a bare name
    through the import that bound it or, in a package module, the module
    itself; an attribute only of a name bound to a hyperforge module
    (``ad.matmul``, ``pipeline.train``, ``hyperforge.pipeline.train``).  So
    ``np.matmul`` keeps no ``autodiff.matmul`` alive.  Imports, re-exports
    and ``__all__`` strings read nothing.
    """
    names: set[str] = set()
    for path in sorted(p for d in ("src", "benchmarks", "demos") for p in (ROOT / d).rglob("*.py")):
        home = path.stem if path.parent.name == "hyperforge" else None
        tree = ast.parse(path.read_text())
        modules, bound = _bindings(tree, home)
        for stmt in tree.body:
            owner = f"{home}.{getattr(stmt, 'name', None)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = bound.get(node.id, f"{home}.{node.id}")
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    base = node.value
                    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                        module = base.attr if base.value.id == "hyperforge" and base.attr in MODULES else None
                    else:
                        module = modules.get(base.id) if isinstance(base, ast.Name) else None
                    if module is None:
                        continue
                    name = f"{module}.{node.attr}"
                else:
                    continue
                if name != owner:
                    names.add(name)
    return names


def test_every_exported_name_is_used():
    """Public API that no code of the package, the benchmark or the demos
    runs is dead weight; tests alone do not keep a name alive, and neither
    does a name of another module that is spelled the same."""
    used = _referenced_names()
    unused = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(f"hyperforge.{name}"), "__all__", ())
        if f"{name}.{n}" not in used
    ]
    assert unused == []


def _modules_loaded_by(imports: str) -> list[str]:
    """Every module in ``sys.modules`` of a fresh interpreter after it runs
    ``imports``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{imports}\nprint(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _under(loaded: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [m for m in loaded if m in prefixes or m.startswith(tuple(p + "." for p in prefixes))]


def test_import_leaves_evaluation_modules_unloaded():
    """Importing the package or its CLI loads no other hyperforge module and
    none of numpy, scipy, networkx, multiprocessing or the process-pool
    executor: each command imports what it runs, so ``hyperforge --help``
    starts without them.  Importing every module of the package still
    leaves unloaded what only some functions need: scipy.stats and
    scipy.spatial serve only the evaluation metrics, networkx only the tree
    generator, scipy.sparse.linalg only eigensolves above the dense cutoff,
    multiprocessing only sample() of more than one graph and train() on two
    or more CPUs, which forks an optimizer helper, and the process-pool
    executor only sample() of more than one graph.  (scipy loads
    concurrent.futures itself, but not its process pool.)  Connectivity
    needs no scipy, so coarsening and dataset generation load none."""
    loaded = _modules_loaded_by("import hyperforge, hyperforge.cli")
    assert _under(loaded, ("numpy", "scipy", "networkx", "multiprocessing", "concurrent.futures.process")) == []
    assert [m for m in loaded if m.startswith("hyperforge.")] == ["hyperforge.cli"]

    loaded = _modules_loaded_by("\n".join(f"import hyperforge.{name}" for name in MODULES))
    assert [f"hyperforge.{name}" for name in MODULES if f"hyperforge.{name}" not in loaded] == []
    lazy = (
        "scipy.stats", "scipy.spatial", "networkx", "scipy.sparse.csgraph", "scipy.sparse.linalg",
        "multiprocessing", "concurrent.futures.process",
    )
    assert _under(loaded, lazy) == []

    assert _under(_modules_loaded_by("import hyperforge.coarsening, hyperforge.datasets"), ("scipy",)) == []


def _import_tracer():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_tracer_installs_and_unpatches():
    tracer = _import_tracer()
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


def test_traced_sampling_and_training_step():
    """The calls the benchmark makes still go through the tracer's wrappers,
    whose signatures (such as ``forward(den, inp)``) are fixed."""
    from hyperforge import autodiff as ad
    from hyperforge import pipeline
    from hyperforge.coarsening import CoarseningParams, sample_coarsening_sequence
    from hyperforge.datasets import gen_tree
    from hyperforge.denoiser import Denoiser, DenoiserConfig

    cfg = DenoiserConfig(hidden_dim=8, num_layers=1, mlp_hidden=8, spectral_k=2)
    den = Denoiser(cfg, rng=np.random.default_rng(0))
    den.extra_config = {"train": {"steps": 2}}
    rng = np.random.default_rng(1)
    seq = sample_coarsening_sequence(gen_tree(rng, num_nodes=8), CoarseningParams(), rng)
    t = _import_tracer().Tracer()
    t.install()
    try:
        _, diag = pipeline.sample_one(den, 6, np.random.default_rng(2))
        example = pipeline.build_training_example(seq, 0, rng, pipeline.TrainConfig())
        inp, targets = pipeline.prepare_step(example, rng, cfg.spectral_k)
        den.store.zero_grad()
        ad.backward(pipeline._step_loss_tensor(den, inp, targets))
        den.store.adam_step(1e-3)
    finally:
        t.unpatch()
    metrics = t.metrics()
    assert metrics["denoiser.forward.calls"] > 2 * diag["iterations"]
    # sampling encodes each level once per side; the training forward encodes on the tape
    assert metrics["denoiser.encode_spectral.calls"] == 2 * diag["iterations"] + 2
    assert metrics["autodiff.backward.calls"] == 1
    assert metrics["autodiff.adam_step.calls"] == 1


def _unread_parameters(path: Path) -> list[str]:
    """``function.parameter`` for every parameter of a function in ``path``
    that its body, nested functions included, never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [f"{node.name}.{p.arg}" for p in params if p.arg not in read and p.arg not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    """A parameter the body never reads is an argument every caller passes
    for nothing."""
    files = sorted((ROOT / "src" / "hyperforge").glob("*.py"))
    assert files
    assert [f"{p.stem}.{u}" for p in files for u in _unread_parameters(p)] == []
