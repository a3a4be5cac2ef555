"""End-to-end training, size-conditioned sampling, evaluation, and export.

Training draws coarsening levels from a per-graph cache, rebuilds the
expanded graph for one level, noises every head with optimal-transport
coupled priors, and regresses the denoiser onto clean endpoints.  Sampling
starts from the minimal one-node graph carrying the full budget and
alternates deterministic-size expansion with learned refinement until the
target node count is reached, enforcing the budget inpainting rules along
the way.  It expands the way the checkpoint's model was trained and, when
every training graph was connected, keeps every refined level connected.
Every level carries its node and hyperedge feature matrices, of width 0 for
graphs without features, so the widths of the feature heads are read off
the level.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields, asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .coarsening import CoarseningCache, CoarseningParams, CoarseningSequence, sample_coarsening_sequence
from .denoiser import _HEAD_STREAM, Denoiser, DenoiserConfig, DenoiserInput, spectral_rows
from .expansion import (
    ExpansionVectors,
    RefinementDecision,
    expand,
    kept_edges,
    perturb_expand,
    refine,
    sibling_pairs,
    split_budgets,
)
from .flow import integrate, interpolate, ot_couple, project_split_groups, sample_prior
from .hypergraph import (
    BipartiteGraph,
    Hypergraph,
    _as_int,
    _check_fields,
    _from_record,
    collapse_bipartite,
    is_connected,
    read_graphs_jsonl,
    write_graphs_jsonl,
)
from .datasets import load_dataset_split, read_manifest
from .metrics import (
    MetricReport,
    chamfer_nearest,
    degree_multiset,
    edge_size_multiset,
    node_num_diff,
    spectral_mmd,
    validity_fraction,
    wasserstein_1d,
)

__all__ = [
    "TrainConfig",
    "SampleRequest",
    "TrainingExample",
    "build_training_example",
    "train",
    "sample",
    "sample_one",
    "apply_inpainting",
    "least_expansion_count",
    "evaluate",
    "export",
    "write_dot",
]

RIGHT_THRESHOLD_LOW = 1.66
RIGHT_THRESHOLD_HIGH = 2.33
EDGE_KEEP_THRESHOLD = 0.5

# TrainConfig fields that name files.  Checkpoints leave them out, so that
# their bytes do not depend on where a run wrote; sampling reads none of them.
_PATH_FIELDS = ("data_dir", "checkpoint_dir", "log_path")

_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class TrainConfig:
    """Everything one training run needs; parsable from key=value lines.

    Each checkpoint records it, less the paths, and :func:`sample_one` reads
    that record back as the config it samples with.
    """

    data_dir: str = ""
    hidden_dim: int = DenoiserConfig.hidden_dim
    num_layers: int = DenoiserConfig.num_layers
    mlp_hidden: int = DenoiserConfig.mlp_hidden
    spectral_k: int = DenoiserConfig.spectral_k
    steps: int = 25
    lr: float = 1e-3
    max_steps: int = 2000
    seed: int = 0
    rho_min: float = CoarseningParams.rho_min
    rho_max: float = CoarseningParams.rho_max
    gate_lambda: float = CoarseningParams.gate_lambda
    preserve_k: int = CoarseningParams.preserve_k
    perturb_radius: int = 2
    perturb_prob: float = 0.5
    perturbation: bool = True
    checkpoint_dir: str = "runs/default"
    checkpoint_every: int = 500
    val_every: int = 250
    val_batches: int = 8
    log_path: str = ""

    def __post_init__(self):
        _check_fields(self)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (self.lr > 0 and np.isfinite(self.lr)):
            raise ValueError("lr must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.val_every < 0 or self.checkpoint_every < 0:
            raise ValueError("val_every and checkpoint_every must be >= 0 (0 turns them off)")
        if self.val_every and self.val_batches < 1:
            raise ValueError("val_batches must be >= 1 when val_every > 0")
        if self.perturb_radius < 0:
            raise ValueError("perturb_radius must be >= 0")
        if not 0.0 <= self.perturb_prob <= 1.0:
            raise ValueError("perturb_prob must lie in [0, 1]")
        self.coarsening_params()
        self.denoiser_config()

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainConfig":
        """Parse a plain-text config of key=value lines (# comments allowed, each key once)."""
        known = {f.name: f.type for f in fields(cls)}
        values: dict = {}
        line_of: dict[str, int] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in line_of:
                raise ValueError(f"{path}:{lineno}: config key {key!r} given twice (first on line {line_of[key]})")
            line_of[key] = lineno
            try:
                values[key] = _coerce(val, known[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: {exc}") from None
        return cls(**values)

    def coarsening_params(self) -> CoarseningParams:
        return CoarseningParams(
            rho_min=self.rho_min,
            rho_max=self.rho_max,
            gate_lambda=self.gate_lambda,
            preserve_k=self.preserve_k,
        )

    def denoiser_config(self, node_feature_dim: int = 0, edge_feature_dim: int = 0) -> DenoiserConfig:
        return DenoiserConfig(
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            mlp_hidden=self.mlp_hidden,
            spectral_k=self.spectral_k,
            node_feature_dim=node_feature_dim,
            edge_feature_dim=edge_feature_dim,
        )


def _coerce(val: str, typename: str):
    if "bool" in typename:
        low = val.lower()
        if low not in _BOOL_STRINGS:
            raise ValueError(f"cannot parse bool from {val!r}")
        return _BOOL_STRINGS[low]
    if "int" in typename:
        return int(val)
    if "float" in typename:
        return float(val)
    return val


@dataclass(frozen=True)
class SampleRequest:
    """One sampling job: how many graphs of which size from which checkpoint."""

    checkpoint: str
    n_nodes: int
    count: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class TrainingExample:
    """One assembled supervision instance at a sampled coarsening level."""

    expanded: BipartiteGraph
    parent: BipartiteGraph
    targets: dict[str, np.ndarray]
    rho_hat: float
    total_left: int


def _expand_as_trained(b: BipartiteGraph, v: ExpansionVectors, cfg: TrainConfig, rng) -> BipartiteGraph:
    """``b`` expanded by ``v`` as a model trained with ``cfg`` learned to
    refine it: perturbed with ``cfg``'s radius and probability when
    ``cfg.perturbation`` is on, else plain, drawing nothing from ``rng``.
    Training and sampling expand only here, so they expand alike."""
    if cfg.perturbation:
        return perturb_expand(b, v, cfg.perturb_radius, cfg.perturb_prob, rng)
    return expand(b, v)


def build_training_example(
    seq: CoarseningSequence, level_index: int, rng: np.random.Generator, cfg: TrainConfig
) -> TrainingExample:
    """Rebuild the expanded graph at one level and derive endpoint targets.

    The input graph is the next coarser level expanded as ``cfg`` trains
    (:func:`_expand_as_trained`); refinement targets come from the stored
    decision via edge membership in the finer level, and expansion targets
    come from the finer level's own stored expansion (all-ones at the finest
    level).  Feature targets are the finer level's features, zeros of the
    same width at the top level.
    """
    levels = seq.levels
    top = len(levels) - 1
    l = level_index
    if not 0 <= l <= top:
        raise ValueError("level index out of range")

    if l < top:
        parent = levels[l + 1].bipartite
        v_parent = levels[l + 1].expansion
        stored = levels[l + 1].refinement
        fine = levels[l].bipartite
        split_fracs = stored.budget_split
        left_feat_target = fine.left_features
        right_feat_target = fine.right_features
    else:
        parent = levels[top].bipartite
        v_parent = ExpansionVectors(
            np.ones(parent.num_left, dtype=np.int64), np.ones(parent.num_right, dtype=np.int64)
        )
        fine = parent
        split_fracs = np.ones(parent.num_left)
        left_feat_target = np.zeros_like(parent.left_features)
        right_feat_target = np.zeros_like(parent.right_features)

    expanded = _expand_as_trained(parent, v_parent, cfg, rng)
    if expanded.num_left != fine.num_left or expanded.num_right != fine.num_right:
        raise AssertionError("expanded level size drifted from the stored level")

    edge_target = (2.0 * kept_edges(expanded, fine) - 1.0).reshape(-1, 1)

    if l >= 1:
        v_next = levels[l].expansion
        left_v_target = (v_next.left.astype(np.float64) * 2.0 - 3.0).reshape(-1, 1)
        right_v_target = (v_next.right.astype(np.float64) - 2.0).reshape(-1, 1)
        rho_hat = 1.0 - levels[l].bipartite.num_left / levels[l - 1].bipartite.num_left
    else:
        left_v_target = np.full((fine.num_left, 1), -1.0)
        right_v_target = np.full((fine.num_right, 1), -1.0)
        rho_hat = 0.0

    targets = {
        "left_expansion": left_v_target,
        "left_split": (2.0 * np.asarray(split_fracs, dtype=np.float64) - 1.0).reshape(-1, 1),
        "left_features": left_feat_target,
        "right_expansion": right_v_target,
        "right_features": right_feat_target,
        "edge_keep": edge_target,
    }
    return TrainingExample(
        expanded=expanded,
        parent=parent,
        targets=targets,
        rho_hat=float(rho_hat),
        total_left=levels[0].bipartite.num_left,
    )


def _make_input(
    parent: BipartiteGraph,
    expanded: BipartiteGraph,
    state: dict[str, np.ndarray],
    t: float,
    rho_hat: float,
    total_left: float,
    spectral_k: int,
) -> DenoiserInput:
    """The denoiser input of one level at flow time ``t``: a stack of one.

    Each child gets its parent's spectral rows, gathered through the sibling
    maps of ``expanded``, and the parent features it inherited there.
    """
    lrows, rrows, lam = spectral_rows(parent, spectral_k)
    return DenoiserInput(
        edges=expanded.edges,
        left_spectral=lrows[expanded.cluster_of_left],
        right_spectral=rrows[expanded.cluster_of_right],
        eigenvalues=lam[None, :],
        left_budgets=expanded.left_budgets.astype(np.float64),
        left_parent_features=expanded.left_features,
        right_parent_features=expanded.right_features,
        state=state,
        t=t,
        rho_hat=np.array([rho_hat]),
        total_left=np.array([total_left]),
        blocks=tuple(np.array([0, rows]) for rows in (expanded.num_left, expanded.num_right, expanded.num_edges)),
    )


def _sample_noise(
    expanded: BipartiteGraph, left_pairs: np.ndarray, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Prior noise of every denoiser head, drawn in the order listed."""
    n, m, e = expanded.num_left, expanded.num_right, expanded.num_edges
    return {
        "left_expansion": sample_prior((n, 1), rng),
        "left_split": sample_prior((n,), rng, pairs=left_pairs).reshape(-1, 1),
        "left_features": sample_prior(expanded.left_features.shape, rng),
        "right_expansion": sample_prior((m, 1), rng),
        "right_features": sample_prior(expanded.right_features.shape, rng),
        "edge_keep": sample_prior((e, 1), rng),
    }


def couple_noise(
    noise: dict[str, np.ndarray],
    targets: dict[str, np.ndarray],
    example: TrainingExample,
) -> dict[str, np.ndarray]:
    """Optimal-transport coupling of prior noise within sibling pairs.

    Each side's node heads and ``edge_keep`` form one flat vector that
    :func:`ot_couple` couples over the joint rows of that side's sibling
    pairs, the left pairs first and then the right pairs.  A sibling's
    joint row is its node-head entries followed by the entries of its edges
    to the opposite endpoints it shares with its sibling, in endpoint
    order.  Sibling triples pass through unchanged, and the caller's arrays
    are not modified.
    """
    noise = dict(noise)
    expanded = example.expanded
    edges = expanded.edges
    for side, cluster_map in enumerate((expanded.cluster_of_left, expanded.cluster_of_right)):
        pairs = sibling_pairs(cluster_map)
        if not pairs.size:
            continue
        names = [h for h, stream in _HEAD_STREAM.items() if stream == side] + ["edge_keep"]
        sizes = [noise[h].size for h in names]
        starts = np.cumsum([0] + sizes[:-1])
        num_nodes = noise[names[0]].shape[0]
        # row i: the flat positions of node i's head entries, in head order
        node_entries = np.hstack([
            start + np.arange(size).reshape(num_nodes, -1)
            for start, size in zip(starts[:-1], sizes[:-1])
        ])
        own, other = edges[:, side], edges[:, 1 - side]
        # order[bounds[i]:bounds[i + 1]]: node i's edges, by opposite endpoint
        order = np.argsort(own, kind="stable")
        bounds = np.searchsorted(own[order], np.arange(num_nodes + 1))
        rows = []
        for i, j in pairs:
            ei, ej = order[bounds[i]:bounds[i + 1]], order[bounds[j]:bounds[j + 1]]
            _, a, b = np.intersect1d(other[ei], other[ej], assume_unique=True, return_indices=True)
            rows.append((
                np.concatenate([node_entries[i], starts[-1] + ei[a]]),
                np.concatenate([node_entries[j], starts[-1] + ej[b]]),
            ))
        coupled = ot_couple(
            np.concatenate([noise[h].ravel() for h in names]),
            np.concatenate([targets[h].ravel() for h in names]),
            rows,
        )
        for h, start, size in zip(names, starts, sizes):
            noise[h] = coupled[start:start + size].reshape(noise[h].shape)
    return noise


def prepare_step(
    example: TrainingExample,
    rng: np.random.Generator,
    spectral_k: int,
) -> tuple[DenoiserInput, dict[str, np.ndarray]]:
    """Noise the targets at a uniform time and build the network input."""
    noise = _sample_noise(example.expanded, sibling_pairs(example.expanded.cluster_of_left), rng)
    noise = couple_noise(noise, example.targets, example)
    t = float(rng.uniform())
    state = {k: interpolate(noise[k], example.targets[k], t) for k in noise}
    inp = _make_input(
        example.parent, example.expanded, state, t, example.rho_hat, float(example.total_left), spectral_k
    )
    return inp, example.targets


def _feature_widths(graphs: list[Hypergraph]) -> tuple[int, int]:
    """The (node, hyperedge) feature widths that all ``graphs`` share; 0 for none.

    Raises:
        ValueError: if the graphs differ in either width.
    """
    widths = {
        tuple(0 if f is None else f.shape[1] for f in (h.node_features, h.hyperedge_features))
        for h in graphs
    }
    if len(widths) > 1:
        raise ValueError(f"graphs mix (node, hyperedge) feature widths {sorted(widths)}")
    return widths.pop()


def _step_loss_tensor(denoiser: Denoiser, inp: DenoiserInput, targets: dict[str, np.ndarray]):
    out = denoiser.forward(inp)
    total = None
    for name in sorted(targets):
        if targets[name].size == 0:
            continue
        term = ad.mse_loss(out[name], targets[name])
        total = term if total is None else ad.add(total, term)
    return total


def _validation_batch(
    val_graphs: list[Hypergraph], cfg: TrainConfig
) -> list[tuple[DenoiserInput, dict[str, np.ndarray]]]:
    """The fixed, reproducible validation draw: inputs and targets."""
    vrng = np.random.default_rng([cfg.seed, 2])
    params = cfg.coarsening_params()
    batch = []
    for j in range(cfg.val_batches):
        g = val_graphs[j % len(val_graphs)]
        seq = sample_coarsening_sequence(g, params, vrng)
        level = int(vrng.integers(seq.num_levels))
        example = build_training_example(seq, level, vrng, cfg)
        batch.append(prepare_step(example, vrng, cfg.spectral_k))
    return batch


def _validation_loss(denoiser: Denoiser, batch: list[tuple[DenoiserInput, dict[str, np.ndarray]]]) -> float:
    """Mean flow-matching loss of the current parameters on the validation draw."""
    with ad.no_grad():
        losses = [float(_step_loss_tensor(denoiser, inp, targets).data) for inp, targets in batch]
    return float(np.mean(losses))


def train(cfg: TrainConfig) -> dict:
    """Run the training loop; returns a summary with checkpoint paths.

    Writes ``checkpoint.hfck`` (latest), ``best.hfck`` (best validation
    loss), and a CSV loss log.  Aborts with a state dump on non-finite loss.
    Each checkpoint records, next to the config, whether every training
    graph is connected; sampling then keeps every refined level connected.
    Train and val graphs without a hyperedge, or with a mix of feature
    widths (which set the denoiser's), are rejected before any step.
    A step's example (take, example, prepare) does not depend on the
    parameters, so each step prepares the next step's example between its
    backward and its Adam update; the draws keep their order, and none is
    made past ``max_steps``.  An error while preparing step k + 1's example
    surfaces once step k is updated, validated, logged and saved.  With two
    or more usable CPUs and ``os.fork``, while this process runs a single
    thread (as with ``OPENBLAS_NUM_THREADS=1``, which ``hyperforge train``
    sets unless the environment does), a forked helper process sweeps each
    update (:meth:`ParameterStore.split_updates`, which also says how the
    two share the CPUs): backward hands it each group of parameters as soon
    as their gradients are final (:meth:`ParameterStore.begin_update`), so
    the update runs during backward and the next example's preparation,
    and the result is that of the serial update bit for bit.  ``phase_s``
    in the summary holds the seconds spent over all steps in ``data`` (the
    next example's preparation, and the first step's own), ``forward``,
    ``backward`` and ``optimizer`` (the update, or the wait for the helper
    after the preparation); validation and checkpoint writes are outside
    all four.  ``wall_time_s`` and ``phase_s`` are both
    ``time.perf_counter`` intervals.
    """
    data_dir = Path(cfg.data_dir)
    if not (data_dir / "manifest.json").exists():
        raise FileNotFoundError(f"no dataset manifest under {data_dir}")
    manifest = read_manifest(data_dir)
    train_graphs = load_dataset_split(data_dir, "train")
    val_graphs = load_dataset_split(data_dir, "val")
    if not train_graphs:
        raise ValueError("empty training split")
    if cfg.val_every and not val_graphs:
        raise ValueError("empty val split: set val_every=0 to train without validation")
    for split, graphs in (("train", train_graphs), ("val", val_graphs)):
        bare = next((i for i, h in enumerate(graphs) if not h.num_hyperedges), None)
        if bare is not None:
            raise ValueError(f"{split} record {bare} has no hyperedges, and coarsening needs one")
    fm, fl = _feature_widths(train_graphs + val_graphs)

    denoiser = Denoiser(cfg.denoiser_config(fm, fl), rng=np.random.default_rng([cfg.seed, 1]))
    rng = np.random.default_rng([cfg.seed, 0])
    cache = CoarseningCache(train_graphs, cfg.coarsening_params())

    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    log_path = Path(cfg.log_path) if cfg.log_path else ckpt_dir / "loss_log.csv"
    latest_path = ckpt_dir / "checkpoint.hfck"
    best_path = ckpt_dir / "best.hfck"
    extra = {
        "train": {k: v for k, v in asdict(cfg).items() if k not in _PATH_FIELDS},
        "dataset_kind": manifest.get("kind"),
        "train_graphs_connected": all(is_connected(h) for h in train_graphs),
    }

    # built once: the draw depends on the seed only, the loss on the parameters
    val_batch = _validation_batch(val_graphs, cfg) if 0 < cfg.val_every <= cfg.max_steps else []
    best_val = np.inf
    phase_s = dict.fromkeys(("data", "forward", "backward", "optimizer"), 0.0)

    def draw() -> tuple:
        graph_id = int(rng.integers(len(train_graphs)))
        seq, level_index = cache.take(graph_id, rng)
        example = build_training_example(seq, level_index, rng, cfg)
        return (graph_id, level_index, example, *prepare_step(example, rng, cfg.spectral_k))

    start = time.perf_counter()
    # Beside a second thread, such as a BLAS pool that spins between calls,
    # the pinned helper made training several times slower, not faster.
    split = hasattr(os, "fork") and _usable_cpus() >= 2 and _native_threads() == 1
    with denoiser.store.split_updates() if split else nullcontext(), log_path.open("w") as log:
        log.write("step,train_loss,val_loss\n")
        t0 = time.perf_counter()
        drawn = draw()
        phase_s["data"] += time.perf_counter() - t0
        for step in range(1, cfg.max_steps + 1):
            graph_id, level_index, example, inp, targets = drawn
            t1 = time.perf_counter()
            denoiser.store.zero_grad()
            loss = _step_loss_tensor(denoiser, inp, targets)
            loss_val = float(loss.data)
            t2 = time.perf_counter()
            if not np.isfinite(loss_val):
                dump = ckpt_dir / "abort_state.json"
                dump.write_text(json.dumps({
                    "step": step,
                    "graph_id": graph_id,
                    "level_index": level_index,
                    "t": inp.t,
                    "rho_hat": example.rho_hat,
                    "loss": loss_val,
                }, indent=2))
                raise RuntimeError(f"non-finite loss at step {step}; state dumped to {dump}")
            with denoiser.store.begin_update(cfg.lr) as ready:
                ad.backward(loss, ready)
            t3 = time.perf_counter()
            try:
                if step < cfg.max_steps:
                    drawn = draw()
            finally:  # step k is done before an error of step k + 1's draw surfaces
                t4 = time.perf_counter()
                denoiser.store.adam_step(cfg.lr)
                t5 = time.perf_counter()
                phase_s["forward"] += t2 - t1
                phase_s["backward"] += t3 - t2
                phase_s["data"] += t4 - t3
                phase_s["optimizer"] += t5 - t4

                val_str = ""
                if cfg.val_every and step % cfg.val_every == 0:
                    val = _validation_loss(denoiser, val_batch)
                    val_str = f"{val:.8f}"
                    if val < best_val:
                        best_val = val
                        denoiser.save(best_path, extra_config=extra)
                log.write(f"{step},{loss_val:.8f},{val_str}\n")
                log.flush()
                if cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
                    denoiser.save(latest_path, extra_config=extra)
    denoiser.save(latest_path, extra_config=extra)
    return {
        "checkpoint": str(latest_path),
        "best_checkpoint": str(best_path) if best_path.exists() else None,
        "best_val_loss": None if np.isinf(best_val) else float(best_val),
        "loss_log": str(log_path),
        "steps": cfg.max_steps,
        "wall_time_s": time.perf_counter() - start,
        "phase_s": phase_s,
    }


def least_expansion_count(n: int, rho: float) -> int:
    """Smallest n⁺ with n⁺ = ceil(rho · (n + n⁺)), found by fixed iteration.

    Raises:
        ValueError: unless 0 <= rho < 1; for rho >= 1 no such n⁺ exists.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"need 0 <= rho < 1, got {rho}")
    x = 0
    while True:
        nx = int(np.ceil(rho * (n + x)))
        if nx <= x:
            return x
        x = nx


def apply_inpainting(
    predictions: dict[str, np.ndarray],
    expanded: BipartiteGraph,
    n_plus: int,
    keep_connected: bool = False,
) -> tuple[ExpansionVectors, RefinementDecision]:
    """Turn integrated endpoints into hard expansion and refinement choices.

    Applies the budget constraints: splits are 1 on only children, (0.5,
    0.5) on budget-2 pairs, clusters whose post-split budget is 1 cannot be
    expanded (n⁺ shrinks to the expandable count), and unexpanded children
    keep their parent's features on both sides.  The sibling blocks and the
    parent features come from ``expanded``: its sibling maps and the feature
    rows its children inherited.  Edges are kept where their endpoint
    exceeds ``EDGE_KEEP_THRESHOLD``; with ``keep_connected`` that choice is
    repaired by :func:`_connected_support`.
    """
    cluster_of_left = expanded.cluster_of_left
    budgets = expanded.left_budgets
    siblings = np.bincount(cluster_of_left)[cluster_of_left]
    fractions = (predictions["left_split"].ravel() + 1.0) / 2.0
    fractions[siblings == 1] = 1.0
    fractions[(siblings == 2) & (budgets == 2)] = 0.5
    child_budgets = split_budgets(budgets, fractions, cluster_of_left)

    scores = predictions["left_expansion"].ravel()
    expandable = np.flatnonzero(child_budgets >= 2)
    n_sel = min(n_plus, expandable.size)
    v_left = np.ones(expanded.num_left, dtype=np.int64)
    if n_sel > 0:
        order = expandable[np.lexsort((expandable, -scores[expandable]))]
        v_left[order[:n_sel]] = 2

    right_scaled = predictions["right_expansion"].ravel() + 2.0
    v_right = np.where(
        right_scaled < RIGHT_THRESHOLD_LOW,
        1,
        np.where(right_scaled < RIGHT_THRESHOLD_HIGH, 2, 3),
    ).astype(np.int64)

    edge_scores = predictions["edge_keep"].ravel()
    edge_keep = (edge_scores > EDGE_KEEP_THRESHOLD).astype(np.int8)
    if keep_connected:
        edge_keep = _connected_support(expanded, edge_scores, edge_keep)

    decision = RefinementDecision(
        edge_keep=edge_keep,
        budget_split=fractions,
        left_features=_inherit_on_only_children(
            predictions["left_features"], expanded.left_features, expanded.cluster_of_left
        ),
        right_features=_inherit_on_only_children(
            predictions["right_features"], expanded.right_features, expanded.cluster_of_right
        ),
    )
    return ExpansionVectors(v_left, v_right), decision


def _inherit_on_only_children(
    predicted: np.ndarray, inherited: np.ndarray, cluster_of: np.ndarray
) -> np.ndarray:
    """Predicted features with the row of every only child set to the row it
    inherited from its parent."""
    only = np.bincount(cluster_of)[cluster_of] == 1
    return np.where(only[:, None], inherited, predicted)


def _connected_support(expanded: BipartiteGraph, scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Repair per-edge keep decisions so that refinement cannot disconnect.

    Coarsening only contracts adjacent nodes, so in a set of connected
    training graphs no refinement step ever splits a level or isolates a
    node.  The kept edges get the maximum-score spanning forest of the
    expanded incidence graph added.  Then each such forced edge whose right
    end has no other kept edge is removed again, lowest score first, as
    long as its left end keeps another edge.  The result is a superset of
    ``keep``: no left node with an expanded edge ends isolated and no
    component of the expanded graph splits.  A right node that the model
    emptied, and that no other forced edge needs as a bridge, stays empty.
    """
    n = expanded.num_left
    edges = expanded.edges
    parent = list(range(n + expanded.num_right))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forced = []
    # Kruskal in descending score order; thresholded edges come first
    for idx in np.lexsort((np.arange(scores.size), -scores)):
        ra, rb = find(int(edges[idx, 0])), find(n + int(edges[idx, 1]))
        if ra != rb:
            parent[ra] = rb
            if not keep[idx]:
                forced.append(idx)
    keep = keep.copy()
    keep[forced] = 1
    kept = edges[keep.astype(bool)]
    left_deg = np.bincount(kept[:, 0], minlength=n)
    right_deg = np.bincount(kept[:, 1], minlength=expanded.num_right)
    for idx in reversed(forced):
        a, b = edges[idx]
        if right_deg[b] == 1 and left_deg[a] > 1:
            keep[idx] = 0
            left_deg[a] -= 1
            right_deg[b] -= 1
    return keep


def _drop_empty_right(b: BipartiteGraph) -> tuple[BipartiteGraph, np.ndarray]:
    """Remove zero-degree right nodes of a refined level (one without
    sibling maps), reindexing edges; returns kept indices."""
    deg = b.right_degrees()
    keep = np.flatnonzero(deg > 0)
    if keep.size == b.num_right:
        return b, keep
    right_map = -np.ones(b.num_right, dtype=np.int64)
    right_map[keep] = np.arange(keep.size)
    edges = np.stack([b.edges[:, 0], right_map[b.edges[:, 1]]], axis=1)
    reduced = BipartiteGraph._derived(
        b.num_left, int(keep.size), edges, b.left_budgets, b.left_features, b.right_features[keep]
    )
    return reduced, keep


def _recorded_config(denoiser: Denoiser) -> TrainConfig:
    """The :class:`TrainConfig` recorded in ``denoiser``'s checkpoint, read
    and checked as :func:`sample_one` describes."""
    connected = denoiser.extra_config.get("train_graphs_connected", False)
    if not isinstance(connected, bool):
        raise ValueError(f"train_graphs_connected {connected!r} is not a bool")
    return _from_record(TrainConfig, denoiser.extra_config.get("train", {}), "train", perturbation=False)


@dataclass
class _Level:
    """One graph's level, ready to integrate: the denoiser input at t = 0,
    whose ``state`` is the prior noise of every head, and the left sibling
    pairs."""

    inp: DenoiserInput
    pairs: np.ndarray


def _draw_levels(denoiser: Denoiser, cfg: TrainConfig, N: int, rng: np.random.Generator):
    """One graph's sampler, as a generator that stops once per level.

    Each level it expands the graph as training did
    (:func:`_expand_as_trained`), draws ρ and the prior noise from ``rng``
    and yields the :class:`_Level`; the caller integrates it and sends back
    the endpoints.  The level is then finished here:
    inpainting (repaired to stay connected when the checkpoint says so),
    refinement, the budget check and the drop of empty right nodes.  Returns
    the graph with exactly ``N`` nodes and its diagnostics.  A level of
    n < N nodes adds one: N budget units over n children give some child 2
    or more, and ρ >= ``rho_min`` > 0 asks for n⁺ >= 1.  So N levels suffice.
    """
    c = denoiser.config
    keep_connected = denoiser.extra_config.get("train_graphs_connected", False)
    b = BipartiteGraph(
        num_left=1,
        num_right=1,
        edges=np.array([[0, 0]], dtype=np.int64),
        left_budgets=np.array([N], dtype=np.int64),
        left_features=np.zeros((1, c.node_feature_dim)),
        right_features=np.zeros((1, c.edge_feature_dim)),
    )
    v = ExpansionVectors([1], [1])
    dropped = 0
    budget_sums: list[int] = []

    for iterations in range(1, N + 1):
        expanded = _expand_as_trained(b, v, cfg, rng)
        n = expanded.num_left
        if n < N:
            rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            n_plus = min(least_expansion_count(n, rho), N - n)
            rho_hat = 1.0 - n / (n + n_plus)
        else:
            n_plus = 0
            rho_hat = 0.0

        pairs = sibling_pairs(expanded.cluster_of_left)
        x0 = _sample_noise(expanded, pairs, rng)
        final = yield _Level(_make_input(b, expanded, x0, 0.0, rho_hat, float(N), c.spectral_k), pairs)
        v, decision = apply_inpainting(final, expanded, n_plus, keep_connected)
        b = refine(expanded, decision)
        total_budget = int(b.left_budgets.sum())
        budget_sums.append(total_budget)
        if total_budget != N:
            raise AssertionError(f"budget sum drifted to {total_budget}, expected {N}")
        # every intermediate level must stay a valid hypergraph picture:
        # a right node whose edges were all dropped would otherwise be
        # cloned again next round and snowball
        pruned, kept = _drop_empty_right(b)
        if kept.size != b.num_right:
            dropped += int(b.num_right - kept.size)
            b = pruned
            v = ExpansionVectors(v.left, np.asarray(v.right)[kept])
        if b.num_left == N:
            break
    else:
        raise AssertionError(f"sampling took {N} levels and reached {b.num_left}/{N} nodes")

    isolated = int(np.sum(b.left_degrees() == 0))
    h = collapse_bipartite(b)
    diag = {
        "iterations": iterations,
        "empty_hyperedges_dropped": dropped,
        "isolated_nodes": isolated,
        "valid_structure": isolated == 0,
        "budget_sums": budget_sums,
    }
    return h, diag


def _integrate_union(denoiser: Denoiser, levels: list[_Level], steps: int) -> list[dict[str, np.ndarray]]:
    """The integrated endpoints of every level, with one forward per Euler
    step over the disjoint union of the levels; each prediction's split
    head is projected onto the levels' sibling pairs."""
    union = DenoiserInput.union([level.inp for level in levels])
    with ad.no_grad():
        union.level = denoiser.encode_level(union)
    pairs = np.concatenate([level.pairs + lo for level, lo in zip(levels, union.blocks[0])])

    def endpoint_fn(state, t):
        preds = denoiser.predict(replace(union, t=t, state=state))
        preds["left_split"] = project_split_groups(preds["left_split"], pairs).reshape(-1, 1)
        return preds

    return union.split(integrate(endpoint_fn, union.state, steps))


def _integrate_levels(denoiser: Denoiser, levels: list[_Level], steps: int) -> list:
    """:func:`_integrate_union` of ``levels``, with the error in place of the
    endpoints of a level whose integration fails.

    A union fails as a whole, so its levels are then integrated one by one.
    Each comes out exactly as its rows of the union did, so the others keep
    their endpoints and the failing one gets the error it raises alone.
    """
    if not levels:
        return []
    try:
        return _integrate_union(denoiser, levels, steps)
    except Exception as exc:
        if len(levels) == 1:
            return [exc]
    return [_integrate_levels(denoiser, [level], steps)[0] for level in levels]


def _lockstep(
    denoiser: Denoiser,
    cfg: TrainConfig,
    n_nodes: int,
    rngs: dict[int, np.random.Generator],
    limit=None,
) -> dict[int, tuple[Hypergraph, dict] | Exception]:
    """Graph ``i`` of ``n_nodes`` nodes drawn from ``rngs[i]``, for every
    ``i``, all graphs advanced together.

    Each round, every running graph expands one level
    (:func:`_draw_levels`), one forward per Euler step covers the disjoint
    union of those levels, and each graph finishes its own level; a graph
    leaves when it reaches ``n_nodes``.  Every graph draws from its own
    generator in the order it would alone, and the union computes each
    level's rows bit for bit as the level's own forward, so graph ``i`` is
    what it would be if drawn by itself.

    The outcome of graph ``i`` is its (graph, diagnostics) or the exception
    it raised.  Once graph ``i`` fails, every graph after ``i`` is dropped
    at its next level boundary: whoever raises the error of the lowest
    failing index needs none of them.  ``limit``, a
    ``multiprocessing.Value`` shared with the other processes of
    :func:`sample`, carries the lowest failing index between them.
    """
    N = _as_int(n_nodes, "n_nodes")
    draws = {i: _draw_levels(denoiser, cfg, N, rng) for i, rng in rngs.items()}
    outcomes: dict = {}
    bound = max(rngs, default=0)  # the graphs after the lowest failure known here are dropped

    def fail(i: int, exc: Exception) -> None:
        nonlocal bound
        outcomes[i] = exc
        bound = min(bound, i)
        _lower_limit(limit, i)

    sends = dict.fromkeys(draws)  # what each running graph gets next: None to start, then its endpoints
    while sends:
        levels = {}
        for i, endpoints in sends.items():
            if limit is not None:
                bound = min(bound, limit.value)
            if i > bound:
                continue
            try:
                levels[i] = draws[i].send(endpoints)
            except StopIteration as done:
                outcomes[i] = done.value
            except Exception as exc:
                fail(i, exc)
        sends = {}
        for i, endpoints in zip(levels, _integrate_levels(denoiser, list(levels.values()), cfg.steps)):
            if isinstance(endpoints, Exception):
                fail(i, endpoints)
            else:
                sends[i] = endpoints
    return outcomes


def _lower_limit(limit, i: int) -> None:
    """Record failing index ``i`` in the shared ``limit``, if any."""
    if limit is not None:
        with limit.get_lock():
            limit.value = min(limit.value, i)


def sample_one(denoiser: Denoiser, n_nodes: int, rng: np.random.Generator) -> tuple[Hypergraph, dict]:
    """Generate one hypergraph with exactly ``n_nodes`` nodes.

    Every setting comes from the checkpoint's ``extra_config``: its
    ``train`` record, read as the :class:`TrainConfig` that wrote it (a key
    that is no field of it is ignored), gives the Euler ``steps`` per level,
    the ρ range and the perturbation that a model trained on perturbed
    expansions learned to undo; a true ``train_graphs_connected`` turns on
    the repair that keeps each level connected (:func:`_connected_support`).
    An unrecorded field takes :class:`TrainConfig`'s default, but an
    unrecorded ``perturbation`` or ``train_graphs_connected`` is off: a model
    built in memory records neither, so its levels expand plainly and go
    unrepaired.  This is the lockstep driver of :func:`sample` on one graph.

    Raises:
        ValueError: before any work, for a ``train`` record that is not a
            JSON object or that :class:`TrainConfig` rejects (``steps`` 2.5,
            ``perturbation`` "false", a ρ range outside 0 < rho_min <=
            rho_max < 1), or a non-bool ``train_graphs_connected``.
    """
    (outcome,) = _lockstep(denoiser, _recorded_config(denoiser), n_nodes, {0: rng}).values()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _native_threads() -> int:
    """Threads this process runs as the OS lists them, a BLAS pool's
    included; 0 where the OS does not list them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _sample_workers(count: int) -> int:
    """Processes :func:`sample` spreads ``count`` graphs over: one per
    usable CPU, at most one per graph, and only this one without ``fork``."""
    return min(count, _usable_cpus()) if hasattr(os, "fork") else 1


def sample(req: SampleRequest) -> tuple[list[Hypergraph], list[dict]]:
    """Generate ``count`` hypergraphs of ``n_nodes`` nodes from a checkpoint.

    Graph ``i`` is drawn from ``default_rng([seed, i])`` alone, exactly as
    :func:`sample_one` draws it, so the output does not depend on how many
    processes draw the graphs.  With ``W = min(count, usable CPUs)``
    processes, share ``k`` is every graph ``i`` with ``i % W == k``: this
    process draws share 0, and each of ``W - 1`` forked children, which
    inherit the loaded denoiser, draws one other share as one task.  A
    process advances its share in lockstep (:func:`_lockstep`), with one
    forward per Euler step over the levels of all its running graphs.

    A failure is raised as a one-by-one loop would raise it: the error of
    the lowest failing index, with its type and message.  Every process
    learns the lowest failing index through a value it inherits at fork,
    and drops its graphs after it at their next level boundary; no child
    outlives the call.

    Raises:
        RuntimeError: when a child dies before it returns a graph that
            comes before every failing one; the message names the graphs
            of its share.
    """
    denoiser = Denoiser.from_checkpoint(req.checkpoint)
    cfg = _recorded_config(denoiser)
    workers = _sample_workers(req.count)
    if workers == 1:
        outcomes = _draw_share(denoiser, cfg, req, 0, 1)
    else:
        outcomes = _sample_forked(denoiser, cfg, req, workers)
    graphs, diags = [], []
    for i in range(req.count):  # every graph before the first failure is there
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
        h, diag = outcomes[i]
        diag["index"] = i
        graphs.append(h)
        diags.append(diag)
    return graphs, diags


def _draw_share(
    denoiser: Denoiser, cfg: TrainConfig, req: SampleRequest, start: int, step: int, limit=None
) -> dict[int, tuple[Hypergraph, dict] | Exception]:
    """The :func:`_lockstep` outcomes of graphs ``start, start + step, ...``
    of ``req``."""
    indices = range(start, req.count, step)
    if len(indices) > 1:
        return _lockstep(
            denoiser, cfg, req.n_nodes, {i: np.random.default_rng([req.seed, i]) for i in indices}, limit
        )
    # A share of one graph goes through sample_one itself: the benchmark's
    # tracer counts graphs by its calls, and benchmarks/selftest.py requires
    # them when it samples a single graph.
    try:
        return {start: sample_one(denoiser, req.n_nodes, np.random.default_rng([req.seed, start]))}
    except Exception as exc:
        _lower_limit(limit, start)
        return {start: exc}


_CHILD_ARGS: list = []  # (denoiser, cfg, req, workers, limit) in a worker forked by _sample_forked


def _draw_share_in_child(start: int) -> dict[int, tuple[Hypergraph, dict] | Exception]:
    denoiser, cfg, req, workers, limit = _CHILD_ARGS
    return _draw_share(denoiser, cfg, req, start, workers, limit)


def _sample_forked(
    denoiser: Denoiser, cfg: TrainConfig, req: SampleRequest, workers: int
) -> dict[int, tuple[Hypergraph, dict] | Exception]:
    """The outcomes of :func:`sample`'s graphs up to the first failure:
    share 0 drawn by this process, share ``k`` by one of ``workers - 1``
    forked children."""
    import multiprocessing  # imported here: only a sample() of several graphs forks
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # fork, not spawn: a child starts with the loaded denoiser instead of importing and loading it again
    context = multiprocessing.get_context("fork")
    limit = context.Value("q", req.count)  # the lowest failing index, in memory every child shares
    pool = ProcessPoolExecutor(
        workers - 1, context,
        initializer=_CHILD_ARGS.extend, initargs=((denoiser, cfg, req, workers, limit),),
    )
    try:
        futures = {k: pool.submit(_draw_share_in_child, k) for k in range(1, workers)}
        outcomes = _draw_share(denoiser, cfg, req, 0, workers, limit)
        for k, future in futures.items():  # share k starts at graph k; a child's own error is among its outcomes
            if k > limit.value:
                break
            try:
                outcomes.update(future.result())
            except BrokenProcessPool:
                lost = [i for j, f in futures.items() if isinstance(f.exception(), BrokenProcessPool)
                        for i in range(j, req.count, workers)]
                raise RuntimeError(f"a sampling worker died before returning graphs {lost}") from None
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the children, which drop what follows a failure
    return outcomes


def _read_graph_source(path: str | Path) -> list[Hypergraph]:
    path = Path(path)
    if path.is_file():
        return read_graphs_jsonl(path)
    if path.is_dir():
        test = path / "test.jsonl"
        if test.exists():
            return read_graphs_jsonl(test)
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise FileNotFoundError(f"no JSONL files under {path}")
        out: list[Hypergraph] = []
        for f in files:
            out.extend(read_graphs_jsonl(f))
        return out
    raise FileNotFoundError(str(path))


def evaluate(gen_path: str | Path, ref_path: str | Path, kind: str) -> MetricReport:
    """Metric report of a generated set against a reference set.

    Degree and hyperedge-size distributions are pooled across each set
    before the Wasserstein comparison; node counts are compared against
    cyclically paired reference sizes.

    Raises:
        ValueError: for a ``kind`` other than sbm, ego, tree, mesh or
            mesh-dir, before any graph is read, and for an empty set.
    """
    if kind not in ("sbm", "ego", "tree", "mesh", "mesh-dir"):
        raise ValueError(f"unknown dataset kind {kind!r}")
    gen = _read_graph_source(gen_path)
    ref = _read_graph_source(ref_path)
    if not gen or not ref:
        raise ValueError("evaluate needs nonempty generated and reference sets")
    gen_deg = np.concatenate([degree_multiset(h) for h in gen])
    ref_deg = np.concatenate([degree_multiset(h) for h in ref])
    gen_sizes = np.concatenate([edge_size_multiset(h) for h in gen])
    ref_sizes = np.concatenate([edge_size_multiset(h) for h in ref])
    if gen_sizes.size == 0 or ref_sizes.size == 0:
        edge_w = 0.0 if gen_sizes.size == ref_sizes.size else float("inf")
    else:
        edge_w = wasserstein_1d(gen_sizes, ref_sizes)
    valid = None
    if kind in ("sbm", "ego", "tree"):
        valid = validity_fraction(kind, gen)
    chamfer = None
    if kind in ("mesh", "mesh-dir"):
        vals = [chamfer_nearest(g, ref) for g in gen]
        chamfer = float(np.mean(vals))
    return MetricReport(
        node_num_diff=node_num_diff(gen, ref),
        degree_wasserstein=wasserstein_1d(gen_deg, ref_deg),
        edge_size_wasserstein=edge_w,
        spectral_mmd=spectral_mmd(gen, ref),
        validity_fraction=valid,
        chamfer_nearest=chamfer,
    )


def write_dot(h: Hypergraph, path: str | Path) -> None:
    """Write the incidence topology as an undirected DOT graph."""
    lines = ["graph hypergraph {"]
    for v in range(h.num_nodes):
        lines.append(f"  v{v};")
    for j in range(h.num_hyperedges):
        lines.append(f"  e{j} [shape=box];")
    for j, e in enumerate(h.hyperedges):
        for v in e:
            lines.append(f"  v{v} -- e{j};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def export(graphs: list[Hypergraph], fmt: str, out_dir: str | Path, stem: str = "graph") -> list[Path]:
    """Write graphs as DOT, OBJ, or JSONL files; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt == "jsonl":
        path = out / f"{stem}.jsonl"
        write_graphs_jsonl(path, graphs)
        written.append(path)
    elif fmt == "dot":
        for i, h in enumerate(graphs):
            path = out / f"{stem}_{i:04d}.dot"
            write_dot(h, path)
            written.append(path)
    elif fmt == "obj":
        from .datasets import save_obj

        for i, h in enumerate(graphs):
            path = out / f"{stem}_{i:04d}.obj"
            save_obj(path, h)
            written.append(path)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return written
