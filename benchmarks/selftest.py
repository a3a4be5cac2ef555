"""Self-test of the benchmark: every workload at a tiny size, traced.

Run from the repository root::

    python3 benchmarks/selftest.py

For each workload it runs one tiny operation traced, replays it untraced
and checks the outputs.  It exits 1 if the two passes disagree, if an
output check fails, if a layer the workload must exercise records no
calls, or if a layer it must bypass records any (for example
``autodiff.backward`` on ``sample-*``).  It then runs each workload
untraced and fails if either mode reports other metrics than
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

_TRAIN_ONLY = (
    "autodiff.backward.calls",
    "autodiff.adam_step.calls",
    "pipeline.build_training_example.calls",
    "pipeline.prepare_step.calls",
    "pipeline.couple_noise.calls",
    "pipeline.train_step.calls",
    "expansion.perturb_expand.calls",
    "coarsening.cache.take.calls",
    "coarsening.cache.takes_per_build",
)
_SAMPLE_ONLY = (
    "flow.integrate.calls",
    "flow.project_split_groups.calls",
    "pipeline.sample_one.calls",
    "pipeline.sample_one.iterations",
    "pipeline.apply_inpainting.calls",
    "pipeline.expansion_fill",
    "expansion.refine.calls",
)
_DENOISER = (
    "denoiser.forward.calls",
    "denoiser.forward.rows",
    "denoiser.encode_spectral.calls",
    "autodiff.tensors_per_forward",
    "flow.sample_prior.calls",
    "hypergraph.smallest_nonzero_eigs.calls",
    "hypergraph.normalized_laplacian.calls",
)
_COARSENING = (
    "coarsening.sample_coarsening_sequence.calls",
    "coarsening.clique_of_bipartite.calls",
    "coarsening.merge_left.calls",
    "coarsening.dedup_right.calls",
    "coarsening.levels",
)

# workload -> (metrics that must be non-zero, metrics that must be zero)
EXPECTED = {
    "train-tree16": (
        _TRAIN_ONLY + _DENOISER + _COARSENING + ("expansion.expand.calls", "datasets.generate.calls"),
        _SAMPLE_ONLY,
    ),
    "sample-n16": (
        _SAMPLE_ONLY + _DENOISER + ("expansion.expand.calls",),
        _TRAIN_ONLY + _COARSENING + ("datasets.generate.calls",),
    ),
    "sample-n256": (
        _SAMPLE_ONLY + _DENOISER + ("expansion.expand.calls",),
        _TRAIN_ONLY + _COARSENING + ("datasets.generate.calls",),
    ),
    "coarsen-ego": (
        _COARSENING + ("expansion.expand.calls", "datasets.generate.calls"),
        _TRAIN_ONLY + _SAMPLE_ONLY + _DENOISER,
    ),
}


def main() -> int:
    with run.SpeedProbe() as imports:
        run._import_package()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        print("FAIL workload names differ from BENCHMARK.json")
        return 1
    problems = []
    work_dir = run.WORK_ROOT / f"selftest-pid{os.getpid()}"
    try:
        for name in workloads.NAMES:
            workload = workloads.make(name, seed=0, work_dir=work_dir / name, tiny=True)
            (work_dir / name).mkdir(parents=True, exist_ok=True)
            result, values = run.traced(workload, seconds=0.0, seed=0, count=2)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: traced run not correct ({result['failed']} failed)")
            must_run, must_skip = EXPECTED[name]
            problems += [f"{name}: {m} is zero" for m in must_run if not values[m]]
            problems += [f"{name}: {m} is {values[m]}, expected zero" for m in must_skip if values[m]]
            if list(result["metrics"]) != per_layer:
                problems.append(f"{name}: traced metrics differ from BENCHMARK.json per_layer")
            plain = run.untraced(workloads.make(name, seed=0, work_dir=work_dir / name, tiny=True), 0.0, imports)
            if not plain["correct"] or plain["failed"]:
                problems.append(f"{name}: untraced run not correct ({plain['failed']} failed)")
            if list(plain["metrics"]) != end_to_end:
                problems.append(f"{name}: untraced metrics differ from BENCHMARK.json end_to_end")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
