"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``hyperforge`` modules from the
outside, so no file of the package changes.  A name is patched in every
module that looks it up: ``pipeline`` binds ``integrate``, ``expand`` and
friends at import time, so wrapping only ``hyperforge.flow.integrate`` would
record nothing.  Spans (name, start, end, parent span, operation id) are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Spans whose per-call median and tail time are reported as metrics; every
# traced span reports calls, total and self time.
PERCENTILE_SPANS = (
    "denoiser.forward",
    "pipeline.sample_one",
    "pipeline.train_step",
    "coarsening.sample_coarsening_sequence",
)

SPAN_NAMES = (
    "autodiff.backward",
    "autodiff.adam_step",
    "denoiser.forward",
    "denoiser.encode_spectral",
    "flow.integrate",
    "flow.project_split_groups",
    "flow.sample_prior",
    "pipeline.sample_one",
    "pipeline.apply_inpainting",
    "pipeline.build_training_example",
    "pipeline.prepare_step",
    "pipeline.couple_noise",
    "pipeline.train_step",
    "expansion.expand",
    "expansion.perturb_expand",
    "expansion.refine",
    "hypergraph.smallest_nonzero_eigs",
    "hypergraph.normalized_laplacian",
    "coarsening.sample_coarsening_sequence",
    "coarsening.clique_of_bipartite",
    "coarsening.merge_left",
    "coarsening.dedup_right",
    "coarsening.cache.take",
    "datasets.generate",
)

# Counters and ratios measured at the same boundaries as the spans.
COUNTER_NAMES = (
    "autodiff.tensors_per_forward",
    "denoiser.forward.rows",
    "pipeline.sample_one.iterations",
    "pipeline.expansion_fill",
    "hypergraph.smallest_nonzero_eigs.rows_max",
    "coarsening.levels",
    "coarsening.cache.takes_per_build",
)


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.ms", f"{span}.self_ms"]
        if span in PERCENTILE_SPANS:
            names += [f"{span}.p50_ms", f"{span}.tail_ms"]
    return names + list(COUNTER_NAMES)


def tail_percentile(count: int) -> float:
    """Highest whole percentile that leaves at least ten samples above it.

    Returns 0 when there are fewer than eleven samples; the tail then falls
    back to the maximum.
    """
    if count <= 10:
        return 0.0
    return float(math.floor(100.0 * (count - 10) / count))


class Tracer:
    """Records spans around patched callables; restores them on :meth:`unpatch`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.sums: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self._replace(owner, attr, lambda fn: self._wrap(name, fn, on_result))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced layer of ``hyperforge`` where it is looked up."""
        from hyperforge import autodiff, coarsening, datasets, denoiser, expansion, hypergraph, pipeline

        sums = self.sums

        # Tensor construction is counted, not spanned: there are hundreds per forward.
        def counting_init(init):
            def counted(tensor, *args, **kwargs):
                sums["tensors"] += 1
                init(tensor, *args, **kwargs)

            return counted

        def counting_forward(forward):
            def counted(den, inp):
                sums["forward.rows"] += inp.num_left + inp.num_right + inp.num_edges
                before = sums["tensors"]
                try:
                    return forward(den, inp)
                finally:
                    sums["forward.tensors"] += sums["tensors"] - before

            return counted

        self._replace(autodiff.Tensor, "__init__", counting_init)
        self._replace(denoiser.Denoiser, "forward", counting_forward)
        self.patch(denoiser.Denoiser, "forward", "denoiser.forward")
        self.patch(denoiser.Denoiser, "encode_spectral", "denoiser.encode_spectral")

        self.patch(autodiff, "backward", "autodiff.backward")
        self.patch(autodiff.ParameterStore, "adam_step", "autodiff.adam_step")

        self.patch(pipeline, "integrate", "flow.integrate")
        self.patch(pipeline, "project_split_groups", "flow.project_split_groups")
        self.patch(pipeline, "sample_prior", "flow.sample_prior")

        def sample_one_done(args, kwargs, result):
            sums["sample_one.iterations"] += result[1]["iterations"]

        inpaint_sig = inspect.signature(pipeline.apply_inpainting)

        def inpainting_done(args, kwargs, result):
            requested = int(inpaint_sig.bind(*args, **kwargs).arguments["n_plus"])
            if requested:
                sums["fill.requested"] += requested
                sums["fill.granted"] += int(np.sum(np.asarray(result[0].left) - 1))

        self.patch(pipeline, "sample_one", "pipeline.sample_one", sample_one_done)
        self.patch(pipeline, "apply_inpainting", "pipeline.apply_inpainting", inpainting_done)
        self.patch(pipeline, "build_training_example", "pipeline.build_training_example")
        self.patch(pipeline, "prepare_step", "pipeline.prepare_step")
        self.patch(pipeline, "couple_noise", "pipeline.couple_noise")

        for module in (expansion, pipeline, coarsening):
            self.patch(module, "expand", "expansion.expand")
        for module in (expansion, pipeline):
            self.patch(module, "perturb_expand", "expansion.perturb_expand")
            self.patch(module, "refine", "expansion.refine")

        def eigs_done(args, kwargs, result):
            rows = int(np.shape(args[0])[0])
            sums["eigs.rows_max"] = max(sums["eigs.rows_max"], rows)

        for module in (hypergraph, denoiser):
            self.patch(module, "smallest_nonzero_eigs", "hypergraph.smallest_nonzero_eigs", eigs_done)
            self.patch(module, "normalized_laplacian", "hypergraph.normalized_laplacian")

        def sequence_done(args, kwargs, result):
            sums["levels"] += result.num_levels

        for module in (coarsening, pipeline):
            self.patch(module, "sample_coarsening_sequence", "coarsening.sample_coarsening_sequence", sequence_done)
        for fn_name in ("clique_of_bipartite", "merge_left", "dedup_right"):
            self.patch(coarsening, fn_name, f"coarsening.{fn_name}")
        self.patch(coarsening.CoarseningCache, "take", "coarsening.cache.take")

        self.patch(datasets, "generate_dataset", "datasets.generate")
        self.patch(datasets, "gen_ego", "datasets.generate")

    # -- reporting -------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, total and self ms, median and tail per call."""
        durations: dict[str, list[float]] = defaultdict(list)
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            ms = (end - start) * 1e3
            durations[name].append(ms)
            if parent >= 0:
                child_ms[parent] += ms
        self_ms: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start) * 1e3 - child_ms[i]
        durations["pipeline.train_step"] = self._train_step_intervals()
        self_ms["pipeline.train_step"] = sum(durations["pipeline.train_step"])
        table = {}
        for name in SPAN_NAMES:
            values = durations.get(name, [])
            pct = tail_percentile(len(values))
            table[name] = {
                "calls": len(values),
                "ms": float(sum(values)),
                "self_ms": float(self_ms.get(name, 0.0)),
                "p50_ms": float(np.median(values)) if values else 0.0,
                "tail_pct": pct,
                "tail_ms": float(np.percentile(values, pct if pct else 100.0)) if values else 0.0,
            }
        return table

    def _train_step_intervals(self) -> list[float]:
        """Time from one optimizer update to the next within one operation."""
        last_end: dict[int, float] = {}
        out: list[float] = []
        for name, _, end, _, op in self.spans:
            if name != "autodiff.adam_step":
                continue
            if op in last_end:
                out.append((end - last_end[op]) * 1e3)
            last_end[op] = end
        return out

    def counters(self, table: dict[str, dict]) -> dict[str, float]:
        s = self.sums
        forwards = table["denoiser.forward"]["calls"]
        sequences = table["coarsening.sample_coarsening_sequence"]["calls"]
        builds_in_take = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "coarsening.sample_coarsening_sequence"
            and parent >= 0
            and self.spans[parent][0] == "coarsening.cache.take"
        )
        takes = table["coarsening.cache.take"]["calls"]
        graphs = table["pipeline.sample_one"]["calls"]
        return {
            "autodiff.tensors_per_forward": s["forward.tensors"] / forwards if forwards else 0.0,
            "denoiser.forward.rows": s["forward.rows"] / forwards if forwards else 0.0,
            "pipeline.sample_one.iterations": s["sample_one.iterations"] / graphs if graphs else 0.0,
            "pipeline.expansion_fill": s["fill.granted"] / s["fill.requested"] if s["fill.requested"] else 0.0,
            "hypergraph.smallest_nonzero_eigs.rows_max": s["eigs.rows_max"],
            "coarsening.levels": s["levels"] / sequences if sequences else 0.0,
            "coarsening.cache.takes_per_build": takes / builds_in_take if builds_in_take else 0.0,
        }

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics, keyed as in :func:`per_layer_metric_names`."""
        table = self.span_table()
        out: dict[str, float] = {}
        for span, row in table.items():
            out[f"{span}.calls"] = row["calls"]
            out[f"{span}.ms"] = row["ms"]
            out[f"{span}.self_ms"] = row["self_ms"]
            if span in PERCENTILE_SPANS:
                out[f"{span}.p50_ms"] = row["p50_ms"]
                out[f"{span}.tail_ms"] = row["tail_ms"]
        out.update(self.counters(table))
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
