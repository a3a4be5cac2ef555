"""Benchmark entry point: one workload, one seed, one process.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload sample-n16 --seed 1 --seconds 20 --trace 0

It pins BLAS to one thread before numpy loads, imports ``hyperforge`` from
``src/`` of this checkout, sets the workload up several times (``setup_s``
is the import time plus the median set-up), then runs operations in a
closed loop with one caller until ``--seconds`` have passed, and checks the
outputs outside the timed section.  Every timed phase runs under a
:class:`speed.SpeedProbe`, which scales it to a nominal host speed; the
raw timings are printed on a line of their own.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run is traced instead: the layers are wrapped, the same operations are
then replayed untraced, both outputs must agree exactly, and the metrics
are the per-layer ones plus the tracing overhead.  Spans are written to
``.bench_work/traces/`` when the run ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3


def _import_package() -> None:
    """Import numpy, scipy, networkx and hyperforge from this checkout's src/.

    Exits non-zero when the checkout holds no sources, so the benchmark
    never measures some other copy of the package.
    """
    src = ROOT / "src"
    if not (src / "hyperforge" / "__init__.py").is_file():
        print(f"no hyperforge sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import networkx  # noqa: F401
    import hyperforge

    if src.resolve() not in Path(hyperforge.__file__).resolve().parents:
        print(f"imported hyperforge from {hyperforge.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _git_info() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"sha": "unknown", "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (subprocess.SubprocessError, OSError):
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _blas_info() -> dict:
    import numpy as np

    info = {"threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        info.update(name="unknown", version="unknown")
    return info


def metadata(load_before: tuple) -> dict:
    import numpy
    import scipy

    return {
        "git": _git_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def run_ops(workload, seconds: float, tracer=None, count: int | None = None, speed: SpeedProbe | None = None):
    """Closed loop: run operations until ``seconds`` passed (at least one),
    or exactly ``count`` of them.  ``speed`` is sampled between operations.
    Returns results, failures and wall time."""
    results, failed = [], 0
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op_id = i
        if speed is not None and i:
            speed.sample()
        try:
            results.append(workload.op(i))
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            results.append(None)
            failed += 1
        i += 1
        if count is not None:
            if i >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return results, failed, time.perf_counter() - start


def untraced(workload, seconds: float, imports: SpeedProbe) -> dict:
    import numpy as np

    setups = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            workload.setup()
        setups.append(probe)
    with SpeedProbe() as timed:
        results, failed, _ = run_ops(workload, seconds)
    ok = [r for r in results if r is not None]
    violations = workload.check(ok)
    if hasattr(workload, "probe"):
        failures = workload.probe()
        print(json.dumps({"probe": workload.name, "arbitrary": workload.probe_size, "failed": len(failures),
                          "by_reason": workload.failures}))
    units = sum(r.units for r in ok)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = imports.normalised_s + float(np.median([p.normalised_s for p in setups]))
    print(json.dumps({"raw": {
        "ops_per_s": units / timed.busy_s,
        "setup_s": imports.busy_s + float(np.median([p.busy_s for p in setups])),
        "slowdown_timed": timed.slowdown,
        "slowdown_setup": [imports.slowdown] + [p.slowdown for p in setups],
    }}))
    return {
        "correct": violations == 0 and bool(ok),
        "attempted": len(results) * workload.units_per_op,
        "failed": failed * workload.units_per_op + violations,
        "metrics": {
            "ops_per_s": {"value": units / timed.normalised_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def traced(workload, seconds: float, seed: int, count: int | None = None) -> tuple[dict, dict]:
    """Traced pass, then an untraced replay of the same operations.

    The two passes must produce identical outputs; any difference counts
    as a failure.  The overhead is traced minus untraced time of the same
    operations at nominal host speed, as a percentage of the untraced time.
    """
    # Imported here, after src/ is on the path and the imports were timed.
    from tracer import Tracer, per_layer_metric_names
    from workloads import WORKLOAD_METRIC_NAMES

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        with SpeedProbe(timer=False) as traced_speed:
            results, failed, _ = run_ops(workload, seconds, tracer, count, traced_speed)
    finally:
        tracer.unpatch()
    with SpeedProbe(timer=False) as replay_speed:
        replay, _, _ = run_ops(workload, 0.0, count=len(results), speed=replay_speed)
    probe_traced = probe_replay = ()
    if hasattr(workload, "probe"):
        # traced by a tracer of its own, so the probe stays out of the layer table
        probe_tracer = Tracer()
        probe_tracer.install()
        try:
            probe_traced = workload.probe()
        finally:
            probe_tracer.unpatch()
        probe_replay = workload.probe()
    traced_s, replay_s = traced_speed.normalised_s, replay_speed.normalised_s
    mismatched = sum(
        1 for a, b in zip(results, replay) if (a is None) != (b is None) or (a is not None and a.signature != b.signature)
    )
    if probe_traced != probe_replay:
        mismatched += 1
    ok = [r for r in results if r is not None]
    violations = workload.check(ok)

    values = tracer.metrics()
    values.update(dict.fromkeys(WORKLOAD_METRIC_NAMES, 0.0))
    values.update(workload.layer_metrics())
    values["run.trace_overhead_pct"] = 100.0 * (traced_s - replay_s) / replay_s
    names = per_layer_metric_names() + list(WORKLOAD_METRIC_NAMES) + ["run.trace_overhead_pct"]
    result = {
        "correct": violations == 0 and mismatched == 0 and bool(ok),
        "attempted": len(results) * workload.units_per_op,
        "failed": failed * workload.units_per_op + violations + mismatched,
        "metrics": {n: {"value": float(values[n]), "unit": _unit(n)} for n in names},
    }
    table = tracer.span_table()
    trace_path = WORK_ROOT / "traces" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path, {"workload": workload.name, "seed": seed, "table": table,
                              "traced_s": traced_s, "untraced_s": replay_s})
    _print_table(table, traced_s, replay_s)
    return result, values


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", "expansion_fill")):
        return "ratio"
    if name.endswith("val_loss"):
        return "loss"
    return "count"


def _print_table(table: dict, traced_s: float, untraced_s: float) -> None:
    print(f"{'span':42s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} {'p50 ms':>9s} {'tail ms':>9s}  tail")
    for name, row in table.items():
        if row["calls"]:
            print(f"{name:42s} {row['calls']:8d} {row['ms']:11.1f} {row['self_ms']:11.1f} "
                  f"{row['p50_ms']:9.3f} {row['tail_ms']:9.3f}  p{row['tail_pct']:.0f}")
    print(f"traced {traced_s:.3f} s, untraced replay {untraced_s:.3f} s, at nominal host speed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    with SpeedProbe() as imports:
        _import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    work_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, work_dir)
        if args.trace:
            result, _ = traced(workload, args.seconds, args.seed)
        else:
            result = untraced(workload, args.seconds, imports)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"meta": metadata(load_before)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
