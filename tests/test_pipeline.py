import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import signal
import struct
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperforge.autodiff as ad
import hyperforge.pipeline as pipeline
from hyperforge.coarsening import CoarseningCache, CoarseningParams, sample_coarsening_sequence
from hyperforge.datasets import DatasetSpec, gen_tree, generate_dataset
from hyperforge.denoiser import _HEAD_STREAM, Denoiser, DenoiserConfig
from hyperforge.expansion import ExpansionVectors, expand, perturb_expand, refine, sibling_pairs, split_budgets
from hyperforge.hypergraph import (
    BipartiteGraph,
    Hypergraph,
    collapse_bipartite,
    read_graphs_jsonl,
    star_expand,
    write_graphs_jsonl,
)
from hyperforge.pipeline import (
    SampleRequest,
    TrainConfig,
    apply_inpainting,
    build_training_example,
    couple_noise,
    evaluate,
    export,
    least_expansion_count,
    prepare_step,
    sample,
    sample_one,
    train,
    write_dot,
)
from test_coarsening import _arbitrary_hypergraphs
from test_expansion import _perturb_cases, reference_sibling_groups
from test_denoiser import _nonzero_head_model


SMALL = DenoiserConfig(hidden_dim=16, num_layers=1, mlp_hidden=24, spectral_k=4)


def _tree_sequence(seed=0, num_nodes=16):
    rng = np.random.default_rng(seed)
    h = gen_tree(rng, num_nodes=num_nodes)
    return sample_coarsening_sequence(h, CoarseningParams(), rng)


# ---------------------------------------------------------------- config ----


def test_train_config_from_file(tmp_path):
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        """
# toy run
data_dir = /tmp/data
lr = 0.001
max_steps = 42
perturbation = false
hidden_dim=32   # inline comment
"""
    )
    cfg = TrainConfig.from_file(cfg_path)
    assert cfg.data_dir == "/tmp/data"
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.max_steps == 42
    assert cfg.perturbation is False
    assert cfg.hidden_dim == 32


def test_train_config_unknown_key_names_location(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("data_dir = x\nnot_a_key = 1\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        TrainConfig.from_file(cfg_path)
    cfg_path.write_text("data_dir = x\nmax_steps=2.5\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: config key 'max_steps': invalid literal"):
        TrainConfig.from_file(cfg_path)


def test_train_config_rejects_a_repeated_key(tmp_path):
    """A second line for a key used to override the first without a word."""
    cfg_path = tmp_path / "twice.cfg"
    cfg_path.write_text("max_steps = 10\n# comment\nlr = 0.01\nmax_steps = 20\n")
    with pytest.raises(ValueError, match=r"^.*twice\.cfg:4: config key 'max_steps' given twice \(first on line 1\)$"):
        TrainConfig.from_file(cfg_path)


def test_train_config_bad_bool(tmp_path):
    cfg_path = tmp_path / "bad2.cfg"
    cfg_path.write_text("perturbation = maybe\n")
    with pytest.raises(ValueError, match=r"bad2\.cfg:1: config key 'perturbation': cannot parse bool"):
        TrainConfig.from_file(cfg_path)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(perturb_prob=1.5), "perturb_prob"),
        (dict(perturb_prob=-0.1), "perturb_prob"),
        (dict(perturb_radius=-1), "perturb_radius"),
        (dict(rho_min=0.0), "rho_min"),
        (dict(rho_min=0.4, rho_max=0.3), "rho_max"),
        (dict(gate_lambda=1.5), "gate_lambda"),
        (dict(preserve_k=0), "preserve_k"),
        (dict(hidden_dim=0), "hidden_dim"),
        (dict(num_layers=0), "num_layers"),
        (dict(mlp_hidden=-3), "mlp_hidden"),
        (dict(spectral_k=0), "spectral_k"),
    ],
)
def test_train_config_rejects_bad_perturbation_and_coarsening(kwargs, match):
    """Bad values fail at construction, not at the first training step after
    the loss log was opened."""
    with pytest.raises(ValueError, match=match):
        TrainConfig(**kwargs)
    TrainConfig(perturb_radius=0, perturb_prob=0.0)
    TrainConfig(perturb_prob=1.0)


@pytest.mark.parametrize(
    "cls, name, bad, match",
    [
        *(
            pytest.param(TrainConfig, name, 2.5, "is not an integer", id=name)
            for name in (
                "max_steps", "steps", "seed", "val_every", "val_batches", "checkpoint_every", "hidden_dim", "preserve_k"
            )
        ),
        pytest.param(TrainConfig, "lr", "0.1", "is not a real number", id="lr-str"),
        pytest.param(TrainConfig, "rho_max", True, "is not a real number", id="rho_max-bool"),
        pytest.param(TrainConfig, "perturbation", "false", "is not a bool", id="perturbation-str"),
        pytest.param(TrainConfig, "perturbation", 1, "is not a bool", id="perturbation-int"),
        pytest.param(CoarseningParams, "preserve_k", 2.5, "is not an integer", id="CoarseningParams-preserve_k"),
        pytest.param(CoarseningParams, "gate_lambda", "0.3", "is not a real number", id="CoarseningParams-gate_lambda"),
        pytest.param(DatasetSpec, "train_count", 2.5, "is not an integer", id="DatasetSpec-train_count"),
        pytest.param(DenoiserConfig, "spectral_k", 2.0, "is not an integer", id="DenoiserConfig-spectral_k"),
    ],
)
def test_train_config_rejects_an_int_field_that_is_not_an_integer(cls, name, bad, match):
    """A float count used to be kept, and max_steps = 2.5 failed only in
    train(), after the loss log was opened.  Every config dataclass checks
    each int, float and bool field by its annotation where it is built, and
    stores an int as a plain int."""
    base = {"kind": "tree"} if cls is DatasetSpec else {}
    with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(bad))} {match}$"):
        cls(**base, **{name: bad})
    default = getattr(cls, name)
    if type(default) is int:
        assert type(getattr(cls(**base, **{name: np.int64(default)}), name)) is int


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_train_config_rejects_a_learning_rate_that_is_not_positive_and_finite(tmp_path, lr):
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        TrainConfig(lr=lr)
    cfg_path = tmp_path / "lr.cfg"
    cfg_path.write_text(f"lr = {lr}\n")
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        TrainConfig.from_file(cfg_path)


@pytest.mark.parametrize(
    "kwargs",
    [dict(val_every=5, val_batches=0), dict(val_every=-1), dict(checkpoint_every=-1)],
)
def test_train_config_rejects_checks_that_cannot_run(kwargs):
    """A validation with no batches would never write best.hfck; a negative
    interval would never fire."""
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)
    TrainConfig(val_every=0, val_batches=0, checkpoint_every=0)


# ------------------------------------------------------ training examples ----


def test_training_example_shapes_and_mapping():
    seq = _tree_sequence(seed=1)
    rng = np.random.default_rng(2)
    for l in range(len(seq.levels)):
        ex = build_training_example(seq, l, rng, TrainConfig(perturbation=False))
        n, m, e = ex.expanded.num_left, ex.expanded.num_right, ex.expanded.num_edges
        t = ex.targets
        assert t["left_expansion"].shape == (n, 1)
        assert t["left_split"].shape == (n, 1)
        assert t["right_expansion"].shape == (m, 1)
        assert t["edge_keep"].shape == (e, 1)
        assert set(np.unique(t["edge_keep"])) <= {-1.0, 1.0}
        # v targets live on the +-1 / {-1,0,1} grids
        assert set(np.unique(t["left_expansion"])) <= {-1.0, 1.0}
        assert set(np.unique(t["right_expansion"])) <= {-1.0, 0.0, 1.0}
        assert 0.0 <= ex.rho_hat < 1.0
        assert ex.total_left == seq.levels[0].bipartite.num_left


def test_training_example_finest_level_stops_expanding():
    seq = _tree_sequence(seed=3)
    ex = build_training_example(seq, 0, np.random.default_rng(0), TrainConfig(perturbation=False))
    # the finest level clones nothing next; splits/keeps still rebuild level 0
    assert np.all(ex.targets["left_expansion"] == -1.0)
    assert np.all(ex.targets["right_expansion"] == -1.0)
    assert ex.rho_hat == 0.0
    fracs = (ex.targets["left_split"].ravel() + 1.0) / 2.0
    for g in reference_sibling_groups(ex.expanded.cluster_of_left):
        assert np.sum(fracs[g]) == pytest.approx(1.0)


def test_training_example_top_level():
    rng = np.random.default_rng(4)
    h = gen_tree(rng, num_nodes=16)
    h = Hypergraph(
        h.num_nodes,
        h.hyperedges,
        node_features=rng.normal(size=(h.num_nodes, 2)),
        hyperedge_features=rng.normal(size=(h.num_hyperedges, 1)),
    )
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    top = len(seq.levels) - 1
    ex = build_training_example(seq, top, np.random.default_rng(0), TrainConfig(perturbation=False))
    assert ex.expanded.num_left == 1
    # the top level's features were zeroed, and so are its feature targets
    assert ex.targets["left_features"].shape == (1, 2)
    assert ex.targets["right_features"].shape == (1, 1)
    assert np.all(ex.targets["left_features"] == 0.0)
    assert np.all(ex.targets["right_features"] == 0.0)
    assert np.all(ex.targets["left_split"] == 1.0)


def test_training_example_perturbation_extras_target_removal():
    seq = _tree_sequence(seed=5)
    # force extras with p = 1 at a level with more than one node
    l = 0
    ex = build_training_example(
        seq, l, np.random.default_rng(1), TrainConfig(perturbation=True, perturb_radius=2, perturb_prob=1.0)
    )
    fine = seq.levels[l].bipartite
    assert ex.expanded.num_edges > fine.num_edges
    fine_set = {(int(a), int(b)) for a, b in fine.edges}
    for (a, b), tgt in zip(ex.expanded.edges.tolist(), ex.targets["edge_keep"].ravel()):
        assert tgt == (1.0 if (a, b) in fine_set else -1.0)


@pytest.mark.parametrize(
    "cfg",
    [TrainConfig(perturbation=False), TrainConfig(perturb_prob=0.0), TrainConfig(perturb_radius=0)],
    ids=["perturbation-off", "prob-0", "radius-0"],
)
@settings(max_examples=100, deadline=None)
@given(case=_perturb_cases(), seed=st.integers(0, 2**32 - 1))
def test_expansion_without_perturbation_is_plain_and_draws_nothing(cfg, case, seed):
    """Each way of turning perturbation off expands exactly as ``expand``
    does and leaves the generator where it was."""
    b, v, _ = case
    rng = np.random.default_rng(seed)
    before = rng.bit_generator.state
    got, want = pipeline._expand_as_trained(b, v, cfg, rng), expand(b, v)
    assert rng.bit_generator.state == before
    for f in dataclasses.fields(want):
        a, w = getattr(got, f.name), getattr(want, f.name)
        assert (a is None and w is None) if w is None else np.array_equal(a, w), f.name


def test_couple_noise_preserves_group_multisets():
    seq = _tree_sequence(seed=6)
    l = next(
        i for i in range(1, len(seq.levels))
        if any(len(g) == 2 for g in _groups_of(seq, i))
    )
    ex = build_training_example(seq, l - 1, np.random.default_rng(2), TrainConfig(perturbation=False))
    rng = np.random.default_rng(3)
    from hyperforge.pipeline import _sample_noise

    noise = _sample_noise(ex.expanded, sibling_pairs(ex.expanded.cluster_of_left), rng)
    coupled = couple_noise({k: v.copy() for k, v in noise.items()}, ex.targets, ex)
    for g in reference_sibling_groups(ex.expanded.cluster_of_left):
        for key in ("left_expansion", "left_split"):
            assert np.allclose(
                np.sort(coupled[key][g].ravel()), np.sort(noise[key][g].ravel())
            )
    for g in reference_sibling_groups(ex.expanded.cluster_of_right):
        assert np.allclose(
            np.sort(coupled["right_expansion"][g].ravel()),
            np.sort(noise["right_expansion"][g].ravel()),
        )


def _reference_couple_noise(noise, targets, example):
    """The dict-of-incident-edges coupling that joint rows over ot_couple
    replaced, kept as the oracle: per left (then right) sibling pair, the
    node-head noise plus the noise of the edges matched through a shared
    opposite endpoint is swapped when that strictly lowers the squared
    distance to the targets."""
    noise = {k: v.copy() for k, v in noise.items()}
    left_inc = [dict() for _ in range(example.expanded.num_left)]
    right_inc = [dict() for _ in range(example.expanded.num_right)]
    for idx, (a, b) in enumerate(example.expanded.edges):
        left_inc[int(a)][int(b)] = idx
        right_inc[int(b)][int(a)] = idx

    def couple(groups, inc, heads):
        for g in groups:
            if len(g) != 2:
                continue
            i, j = g
            shared = sorted(set(inc[i]) & set(inc[j]))
            ei = [inc[i][s] for s in shared]
            ej = [inc[j][s] for s in shared]
            zi = np.concatenate([noise[h][i] for h in heads] + [noise["edge_keep"][ei, 0]])
            zj = np.concatenate([noise[h][j] for h in heads] + [noise["edge_keep"][ej, 0]])
            xi = np.concatenate([targets[h][i] for h in heads] + [targets["edge_keep"][ei, 0]])
            xj = np.concatenate([targets[h][j] for h in heads] + [targets["edge_keep"][ej, 0]])
            keep = np.sum((zi - xi) ** 2) + np.sum((zj - xj) ** 2)
            swap = np.sum((zj - xi) ** 2) + np.sum((zi - xj) ** 2)
            if swap < keep:
                for h in heads:
                    noise[h][[i, j]] = noise[h][[j, i]]
                eki, ekj = noise["edge_keep"][ei, 0].copy(), noise["edge_keep"][ej, 0].copy()
                noise["edge_keep"][ei, 0] = ekj
                noise["edge_keep"][ej, 0] = eki

    expanded = example.expanded
    couple(reference_sibling_groups(expanded.cluster_of_left), left_inc, ("left_expansion", "left_split", "left_features"))
    couple(reference_sibling_groups(expanded.cluster_of_right), right_inc, ("right_expansion", "right_features"))
    return noise


@st.composite
def _coupling_cases(draw):
    """A training example at any level of a tree or an arbitrary hypergraph
    with node and hyperedge features of width 0 to 2, plainly or perturbedly
    expanded."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        h = gen_tree(np.random.default_rng(seed), num_nodes=draw(st.integers(4, 24)))
    else:
        h = draw(_arbitrary_hypergraphs())
    rng = np.random.default_rng([seed, 1])
    fm, fl = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    h = Hypergraph(
        h.num_nodes,
        h.hyperedges,
        node_features=rng.normal(size=(h.num_nodes, fm)),
        hyperedge_features=rng.normal(size=(h.num_hyperedges, fl)),
    )
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    ex = build_training_example(
        seq, draw(st.integers(0, seq.num_levels - 1)), rng, TrainConfig(perturbation=draw(st.booleans()))
    )
    assert ex.targets["left_features"].shape == (ex.expanded.num_left, fm)
    assert ex.targets["right_features"].shape == (ex.expanded.num_right, fl)
    noise = pipeline._sample_noise(ex.expanded, sibling_pairs(ex.expanded.cluster_of_left), rng)
    targets = ex.targets
    if draw(st.booleans()):
        targets = {k: rng.normal(size=v.shape) for k, v in targets.items()}
    return noise, targets, ex


@settings(max_examples=200, deadline=None)
@given(case=_coupling_cases())
def test_couple_noise_matches_dict_reference(case):
    noise, targets, ex = case
    before = {k: v.copy() for k, v in noise.items()}
    coupled = couple_noise(noise, targets, ex)
    expected = _reference_couple_noise(noise, targets, ex)
    assert coupled.keys() == expected.keys()
    for name in expected:
        assert coupled[name].shape == expected[name].shape
        assert np.array_equal(coupled[name], expected[name]), name
        assert np.array_equal(noise[name], before[name])


def _groups_of(seq, level):
    v = seq.levels[level].expansion
    groups = []
    idx = 0
    for count in v.left.tolist():
        groups.append(list(range(idx, idx + count)))
        idx += count
    return groups


def test_prepare_step_shapes():
    seq = _tree_sequence(seed=7)
    ex = build_training_example(seq, 0, np.random.default_rng(0), TrainConfig(perturbation=False))
    inp, x_t = prepare_step(ex, np.random.default_rng(1), SMALL.spectral_k)
    n, m, e = ex.expanded.num_left, ex.expanded.num_right, ex.expanded.num_edges
    assert inp.state["left_expansion"].shape == inp.state["left_split"].shape == (n, 1)
    assert inp.state["right_expansion"].shape == (m, 1)
    assert inp.state["edge_keep"].shape == (e, 1)
    assert inp.left_spectral.shape == (n, SMALL.spectral_k)
    assert 0.0 <= inp.t < 1.0
    assert set(x_t) == set(ex.targets)


def test_every_head_dict_follows_the_head_table():
    """The prior noise, the targets, the network input's flow state and the
    forward's output name the heads of ``_HEAD_STREAM`` in its order, the
    order in which ``couple_noise`` lays out each sibling's joint row."""
    ex = build_training_example(_tree_sequence(seed=7), 0, np.random.default_rng(0), TrainConfig(perturbation=False))
    noise = pipeline._sample_noise(ex.expanded, sibling_pairs(ex.expanded.cluster_of_left), np.random.default_rng(1))
    inp, targets = prepare_step(ex, np.random.default_rng(2), SMALL.spectral_k)
    preds = Denoiser(SMALL, rng=np.random.default_rng(0)).predict(inp)
    assert list(noise) == list(targets) == list(inp.state) == list(preds) == list(_HEAD_STREAM)


def test_training_step_on_right_only_levels():
    # Seven copies of one hyperedge on one node coarsen by right merges alone:
    # (1, 7) -> (1, 3) -> (1, 1).  Each level trains like any other.
    seq = sample_coarsening_sequence(Hypergraph(1, [[0]] * 7), CoarseningParams(), np.random.default_rng(0))
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    for l in range(len(seq.levels)):
        ex = build_training_example(seq, l, np.random.default_rng(l), TrainConfig())
        assert ex.expanded.num_right == seq.levels[l].bipartite.num_right
        if l >= 1:
            assert ex.rho_hat == 0.0
            assert ex.targets["right_expansion"].max() == 1.0
        inp, targets = prepare_step(ex, np.random.default_rng(1), SMALL.spectral_k)
        den.store.zero_grad()
        loss = pipeline._step_loss_tensor(den, inp, targets)
        ad.backward(loss)
        assert np.isfinite(float(loss.data))
        grads = [t.grad for _, t in den.store.items() if t.grad is not None]
        assert grads and all(np.all(np.isfinite(g)) for g in grads)


# ------------------------------------------------------------- inpainting ----


def test_least_expansion_count_values():
    assert least_expansion_count(8, 0.25) == 3
    assert least_expansion_count(4, 0.2) == 1
    assert least_expansion_count(1, 0.3) == 1
    assert least_expansion_count(10, 0.0) == 0


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging when the block overruns."""

    def overrun(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_least_expansion_count_rejects_rho_without_solution():
    for rho in (1.0, 1.5, -0.1):
        with _deadline(5.0), pytest.raises(ValueError, match="0 <= rho < 1"):
            least_expansion_count(8, rho)


def _preds(left_exp, left_split, right_exp, edge_keep):
    return {
        "left_expansion": np.asarray(left_exp, dtype=np.float64).reshape(-1, 1),
        "left_split": np.asarray(left_split, dtype=np.float64).reshape(-1, 1),
        "left_features": np.zeros((len(left_exp), 0)),
        "right_expansion": np.asarray(right_exp, dtype=np.float64).reshape(-1, 1),
        "right_features": np.zeros((len(right_exp), 0)),
        "edge_keep": np.asarray(edge_keep, dtype=np.float64).reshape(-1, 1),
    }


def test_inpainting_top_k_selection():
    # three singleton clusters, budgets comfortably splittable
    parent = BipartiteGraph(
        3, 1, np.array([[0, 0], [1, 0], [2, 0]]), np.array([4, 4, 4], dtype=np.int64)
    )
    v = ExpansionVectors([1, 1, 1], [1])
    expanded = expand(parent, v)
    preds = _preds([0.9, 0.2, 0.7], [1.0, 1.0, 1.0], [0.0], [1.0, 1.0, 1.0])
    v_out, decision = apply_inpainting(preds, expanded, 2)
    assert v_out.left.tolist() == [2, 1, 2]
    assert v_out.right.tolist() == [2]
    assert decision.budget_split.tolist() == [1.0, 1.0, 1.0]


def test_inpainting_skips_unit_budgets():
    parent = BipartiteGraph(
        3, 1, np.array([[0, 0], [1, 0], [2, 0]]), np.array([1, 2, 1], dtype=np.int64)
    )
    v = ExpansionVectors([1, 1, 1], [1])
    expanded = expand(parent, v)
    preds = _preds([0.9, 0.2, 0.7], [1.0, 1.0, 1.0], [-0.5], [1.0, 1.0, 1.0])
    v_out, _ = apply_inpainting(preds, expanded, 2)
    # only the budget-2 cluster can expand, best scores notwithstanding
    assert v_out.left.tolist() == [1, 2, 1]
    assert v_out.right.tolist() == [1]


def test_inpainting_budget_two_pair_splits_evenly():
    parent = BipartiteGraph(1, 1, np.array([[0, 0]]), np.array([2], dtype=np.int64))
    v = ExpansionVectors([2], [1])
    expanded = expand(parent, v)
    preds = _preds([3.0, 3.0], [0.9, -0.9], [0.0], [1.0, 1.0])
    v_out, decision = apply_inpainting(preds, expanded, 2)
    assert decision.budget_split.tolist() == [0.5, 0.5]
    # both children end at budget 1: no further expansion possible
    assert v_out.left.tolist() == [1, 1]


def test_inpainting_post_split_budgets_gate_selection():
    # budget 3 splits (2, 1): only the first child may expand
    parent = BipartiteGraph(1, 1, np.array([[0, 0]]), np.array([3], dtype=np.int64))
    v = ExpansionVectors([2], [1])
    expanded = expand(parent, v)
    preds = _preds([0.1, 5.0], [2.0 * (2 / 3) - 1.0, 2.0 * (1 / 3) - 1.0], [0.0], [1.0, 1.0])
    v_out, decision = apply_inpainting(preds, expanded, 1)
    child = split_budgets(expanded.left_budgets, decision.budget_split, expanded.cluster_of_left)
    assert child.tolist() == [2, 1]
    assert v_out.left.tolist() == [2, 1]


def test_inpainting_right_thresholds():
    parent = BipartiteGraph(
        1, 3, np.array([[0, 0], [0, 1], [0, 2]]), np.array([1], dtype=np.int64)
    )
    v = ExpansionVectors([1], [1, 1, 1])
    expanded = expand(parent, v)
    preds = _preds([0.0], [1.0], [-0.5, 0.0, 0.5], [1.0, 1.0, 1.0])
    v_out, _ = apply_inpainting(preds, expanded, 0)
    assert v_out.right.tolist() == [1, 2, 3]


def test_inpainting_edge_keep_threshold():
    parent = BipartiteGraph(
        2, 1, np.array([[0, 0], [1, 0]]), np.array([1, 1], dtype=np.int64)
    )
    v = ExpansionVectors([1, 1], [1])
    expanded = expand(parent, v)
    preds = _preds([0.0, 0.0], [1.0, 1.0], [0.0], [0.6, 0.4])
    _, decision = apply_inpainting(preds, expanded, 0)
    assert decision.edge_keep.tolist() == [1, 0]


def _feature_preds(expanded):
    """Predictions that keep every left split even and change each feature to -9."""
    n, m, e = expanded.num_left, expanded.num_right, expanded.num_edges
    split = np.ones(n)
    for g in reference_sibling_groups(expanded.cluster_of_left):
        split[g] = 2.0 / len(g) - 1.0
    return {
        "left_expansion": np.zeros((n, 1)),
        "left_split": split.reshape(-1, 1),
        "left_features": np.full((n, 1), -9.0),
        "right_expansion": np.zeros((m, 1)),
        "right_features": np.full((m, 1), -9.0),
        "edge_keep": np.ones((e, 1)),
    }


def test_inpainting_unexpanded_copy_parent_features():
    parent = BipartiteGraph(
        2,
        1,
        np.array([[0, 0], [1, 0]]),
        np.array([4, 1], dtype=np.int64),
        left_features=np.array([[1.5], [2.5]]),
        right_features=np.array([[7.0]]),
    )
    expanded = expand(parent, ExpansionVectors([1, 1], [1]))
    preds = _feature_preds(expanded)
    preds["left_expansion"][0] = 5.0
    v_out, decision = apply_inpainting(preds, expanded, 1)
    # both left children here are unexpanded singletons of this level's graph
    assert v_out.left.tolist() == [2, 1]
    assert decision.left_features[:, 0].tolist() == [1.5, 2.5]
    assert decision.right_features[:, 0].tolist() == [7.0]

    # a path l0 - r0 - l1 - r1 - l2 whose ends clone, expanded with every
    # perturbation edge: extra edges change neither the groups nor the copies
    parent = BipartiteGraph(
        3,
        2,
        np.array([[0, 0], [1, 0], [1, 1], [2, 1]]),
        np.array([4, 1, 1], dtype=np.int64),
        left_features=np.array([[1.5], [2.5], [3.5]]),
        right_features=np.array([[7.0], [8.0]]),
    )
    v = ExpansionVectors([2, 1, 1], [1, 2])
    expanded = perturb_expand(parent, v, 1, 1.0, np.random.default_rng(0))
    assert expanded.num_edges > expand(parent, v).num_edges
    _, decision = apply_inpainting(_feature_preds(expanded), expanded, 0)
    assert decision.left_features[:, 0].tolist() == [-9.0, -9.0, 2.5, 3.5]
    assert decision.right_features[:, 0].tolist() == [7.0, -9.0, -9.0]


def _keep_of(expanded, scores_by_edge, keep_connected=True):
    """apply_inpainting's edge decision for one score per (left, right) edge."""
    n, m = expanded.num_left, expanded.num_right
    scores = [scores_by_edge[(int(a), int(b))] for a, b in expanded.edges]
    preds = _preds([0.0] * n, [1.0] * n, [0.0] * m, scores)
    _, decision = apply_inpainting(preds, expanded, 0, keep_connected=keep_connected)
    kept = {(int(a), int(b)) for (a, b), k in zip(expanded.edges, decision.edge_keep) if k}
    return kept, decision


def _level(num_left, num_right, edges):
    parent = BipartiteGraph(
        num_left, num_right, np.array(edges), np.ones(num_left, dtype=np.int64)
    )
    return expand(parent, ExpansionVectors([1] * num_left, [1] * num_right))


def test_inpainting_keep_connected_restores_isolated_child():
    # same inputs as the threshold test: the second child would end isolated
    expanded = _level(2, 1, [[0, 0], [1, 0]])
    kept, _ = _keep_of(expanded, {(0, 0): 0.6, (1, 0): 0.4})
    assert kept == {(0, 0), (1, 0)}
    # with two candidates, the child keeps its highest-scoring incidence
    expanded = _level(2, 2, [[0, 0], [0, 1], [1, 0], [1, 1]])
    kept, _ = _keep_of(expanded, {(0, 0): 0.9, (0, 1): 0.8, (1, 0): 0.3, (1, 1): 0.1})
    assert kept == {(0, 0), (0, 1), (1, 0)}


def test_inpainting_keep_connected_bridges_split_component():
    # path 0 - r0 - 1 - r1 - 2 plus the chord (2, r0); the thresholded edges
    # leave {0, r0} apart from {1, 2, r1}, and the better bridge wins
    expanded = _level(3, 2, [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1]])
    scores = {(0, 0): 0.9, (1, 0): 0.2, (1, 1): 0.9, (2, 0): 0.4, (2, 1): 0.9}
    kept, _ = _keep_of(expanded, scores, keep_connected=False)
    assert kept == {(0, 0), (1, 1), (2, 1)}
    kept, _ = _keep_of(expanded, scores)
    assert kept == {(0, 0), (1, 1), (2, 0), (2, 1)}


def test_inpainting_keep_connected_still_drops_emptied_right():
    expanded = _level(2, 2, [[0, 0], [0, 1], [1, 0], [1, 1]])
    kept, decision = _keep_of(expanded, {(0, 0): 0.9, (0, 1): 0.3, (1, 0): 0.9, (1, 1): 0.2})
    # the spanning forest would hang r1 off child 0 as a size-1 hyperedge
    assert kept == {(0, 0), (1, 0)}
    level, _ = pipeline._drop_empty_right(refine(expanded, decision))
    assert collapse_bipartite(level).hyperedges == ((0, 1),)


def _components(num_left, edges):
    """Connected pieces of the incidence graph over left and non-empty right nodes."""
    nodes = {("l", i) for i in range(num_left)} | {("r", int(b)) for _, b in edges}
    adj = {u: set() for u in nodes}
    for a, b in edges:
        adj[("l", int(a))].add(("r", int(b)))
        adj[("r", int(b))].add(("l", int(a)))
    seen, count = set(), 0
    for u in nodes:
        if u in seen:
            continue
        count += 1
        stack = [u]
        seen.add(u)
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
    return count


@st.composite
def _connected_expansions(draw):
    """A random connected level, expanded, with one random score per edge."""
    n = draw(st.integers(1, 7))
    hyperedges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=n), max_size=4))
    hyperedges += [tuple(e) for e in extra]
    if not hyperedges:
        hyperedges = [(0,)]
    parent = star_expand(Hypergraph(n, hyperedges))
    v = ExpansionVectors(
        draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)),
        draw(st.lists(st.integers(1, 3), min_size=len(hyperedges), max_size=len(hyperedges))),
    )
    expanded = expand(parent, v)
    scores = draw(st.lists(
        st.floats(-1.5, 1.5), min_size=expanded.num_edges, max_size=expanded.num_edges
    ))
    return expanded, np.array(scores)


@settings(max_examples=200, deadline=None)
@given(case=_connected_expansions())
def test_connected_support_properties(case):
    expanded, scores = case
    thresholded = (scores > pipeline.EDGE_KEEP_THRESHOLD).astype(np.int8)
    keep = pipeline._connected_support(expanded, scores, thresholded)
    assert np.all(keep >= thresholded)
    kept = expanded.edges[keep.astype(bool)]
    assert np.all(np.bincount(kept[:, 0], minlength=expanded.num_left) > 0)
    assert _components(expanded.num_left, kept) == 1
    # a right node the model emptied never comes back as a size-1 hyperedge
    right_deg = np.bincount(kept[:, 1], minlength=expanded.num_right)
    emptied = np.bincount(
        expanded.edges[:, 1], weights=thresholded, minlength=expanded.num_right
    ) == 0
    if expanded.num_left > 1:
        assert not np.any(emptied & (right_deg == 1))


# --------------------------------------------------------------- sampling ----


def test_sample_one_exact_size_and_budgets():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    den.extra_config = {"train": {"steps": 8}}
    for n in (1, 2, 7, 16):
        h, diag = sample_one(den, n, np.random.default_rng(n))
        assert h.num_nodes == n
        assert all(s == n for s in diag["budget_sums"])
        assert diag["iterations"] <= int(4 * np.log2(max(n, 2)) + 16)


class _FixedHeads(Denoiser):
    """The untrained model with some heads replaced by fixed functions of
    the input."""

    def __init__(self, heads):
        super().__init__(SMALL, rng=np.random.default_rng(0))
        self.heads = heads
        self.extra_config = {"train": {"steps": 1}}  # one Euler step: each endpoint is the prediction

    def predict(self, inp):
        return {**super().predict(inp), **{name: head(inp) for name, head in self.heads.items()}}


def test_sample_one_may_need_one_level_per_node():
    """left_split = -3 · row projects every sibling pair to (1, 0), so each
    cluster splits (B - 1, 1) and one cluster at a time can expand.  N levels
    always suffice; the old cap of 4 log2 N + 16 did not."""
    den = _FixedHeads({"left_split": lambda inp: -3.0 * np.arange(inp.num_left, dtype=np.float64).reshape(-1, 1)})
    for n in (40, 64):
        h, diag = sample_one(den, n, np.random.default_rng(0))
        assert h.num_nodes == n
        assert diag["budget_sums"] == [n] * diag["iterations"]
        assert int(4 * np.log2(n) + 16) < diag["iterations"] <= n


def test_sample_one_drops_the_right_nodes_it_empties():
    """Every right node is cloned three times and only the edges to even
    right nodes are kept, so every level empties right nodes; each is
    dropped together with its expansion count."""
    den = _FixedHeads({
        "right_expansion": lambda inp: np.ones((inp.num_right, 1)),
        "edge_keep": lambda inp: np.where(inp.edges[:, 1] % 2 == 0, 1.0, -1.0).reshape(-1, 1),
    })
    for n in (8, 16):
        h, diag = sample_one(den, n, np.random.default_rng(0))
        assert h.num_nodes == n
        assert diag["budget_sums"] == [n] * diag["iterations"]
        assert diag["empty_hyperedges_dropped"] > 0


def test_sample_one_rejects_a_size_that_is_not_an_integer():
    """A float size used to be truncated: 2.5 gave a 2-node graph."""
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_nodes 2.5 is not an integer"):
        sample_one(den, 2.5, np.random.default_rng(0))
    h, _ = sample_one(den, np.int64(3), np.random.default_rng(0))
    assert h.num_nodes == 3


def test_sample_one_untrained_keeps_single_hyperedge():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    den.extra_config = {"train": {"steps": 8}}
    h, diag = sample_one(den, 9, np.random.default_rng(1))
    assert h.num_hyperedges == 1
    assert sorted(h.hyperedges[0]) == list(range(9))
    assert diag["valid_structure"] is True
    assert diag["isolated_nodes"] == 0


def test_sample_one_deterministic():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    den.extra_config = {"train": {"steps": 8}}
    h1, _ = sample_one(den, 11, np.random.default_rng(5))
    h2, _ = sample_one(den, 11, np.random.default_rng(5))
    assert h1.num_nodes == h2.num_nodes
    assert [tuple(e) for e in h1.hyperedges] == [tuple(e) for e in h2.hyperedges]


def test_sample_one_reads_the_settings_that_sample_reads(tmp_path, monkeypatch):
    """A direct sample_one on a loaded checkpoint draws graph i of sample(),
    both with the recorded Euler steps and reduction fraction; sample()
    advances its graphs in lockstep, one forward per step over all of them.
    A recorded key that is no TrainConfig field, as an older version may
    have written, is ignored."""
    ckpt = tmp_path / "m.hfck"
    recorded = {"steps": 3, "rho_min": 0.2, "rho_max": 0.2, "perturbation": True, "batch_size": 4}
    Denoiser(SMALL, rng=np.random.default_rng(0)).save(ckpt, extra_config={"train": recorded})
    forwards = []
    real_forward = Denoiser.forward

    def counted_forward(self, inp):
        forwards.append(1)
        return real_forward(self, inp)

    monkeypatch.setattr(Denoiser, "forward", counted_forward)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)  # every forward in this process
    graphs, diags = sample(SampleRequest(checkpoint=str(ckpt), n_nodes=40, count=3, seed=4))
    assert len(forwards) == 3 * max(d["iterations"] for d in diags)
    den = Denoiser.from_checkpoint(ckpt)
    for i, (h, diag) in enumerate(zip(graphs, diags)):
        forwards.clear()
        ref, ref_diag = sample_one(den, 40, np.random.default_rng([4, i]))
        assert len(forwards) == 3 * ref_diag["iterations"]
        assert diag == dict(ref_diag, index=i)
        assert (h.num_nodes, h.hyperedges) == (ref.num_nodes, ref.hyperedges)


def _spy(monkeypatch, name):
    """Record the arguments of every call of a function that pipeline looks up."""
    calls = []
    real = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


def test_sample_request_with_checkpoint(tmp_path, monkeypatch):
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    ckpt = tmp_path / "m.hfck"
    den.save(ckpt, extra_config={"train": {"steps": 8, "perturbation": True}})
    req = SampleRequest(checkpoint=str(ckpt), n_nodes=6, count=3, seed=2)
    perturbed = _spy(monkeypatch, "perturb_expand")
    graphs, reports = sample(req)
    assert len(graphs) == 3 and len(reports) == 3
    assert all(g.num_nodes == 6 for g in graphs)
    assert all("valid_structure" in r for r in reports)
    # the recorded perturbation is honoured, at the training defaults
    assert perturbed
    assert {args[2:4] for args, _ in perturbed} == {(2, 0.5)}
    # per-sample seeding: a repeat call reproduces the run exactly
    graphs2, _ = sample(req)
    for a, b in zip(graphs, graphs2):
        assert [tuple(e) for e in a.hyperedges] == [tuple(e) for e in b.hyperedges]
    # a checkpoint that records no perturbation expands without it
    perturbed.clear()
    plain = tmp_path / "plain.hfck"
    den.save(plain, extra_config={"train": {"steps": 8}})
    sample(SampleRequest(checkpoint=str(plain), n_nodes=6, count=3, seed=2))
    assert perturbed == []


def test_sample_request_follows_recorded_connectivity(tmp_path, monkeypatch):
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    inpaint = _spy(monkeypatch, "apply_inpainting")
    for recorded in (True, False):
        inpaint.clear()
        ckpt = tmp_path / f"{recorded}.hfck"
        den.save(ckpt, extra_config={"train": {"steps": 8}, "train_graphs_connected": recorded})
        graphs, _ = sample(SampleRequest(checkpoint=str(ckpt), n_nodes=9, count=2, seed=1))
        assert inpaint and all(args[-1] is recorded for args, _ in inpaint)
        # the untrained heads keep every edge either way
        assert all(g.num_hyperedges == 1 for g in graphs)


@pytest.mark.parametrize(
    "extra, match",
    [
        *(
            pytest.param(
                {"train": {"steps": 8, "rho_min": lo, "rho_max": hi}},
                re.escape("need 0 < rho_min <= rho_max < 1"),
                id=f"{lo}-{hi}",
            )
            for lo, hi in [(1.0, 1.0), (0.0, 0.0), (0.3, 0.1)]
        ),
        pytest.param({"train": {"steps": 2.5}}, "^steps 2.5 is not an integer$", id="steps-float"),
        pytest.param(
            {"train": {"steps": 8, "perturbation": "false"}}, "^perturbation 'false' is not a bool$", id="perturbation-str"
        ),
        pytest.param(
            {"train": {"steps": 8}, "train_graphs_connected": "yes"},
            "^train_graphs_connected 'yes' is not a bool$",
            id="connected-str",
        ),
    ],
)
def test_sample_rejects_invalid_reduction_range_before_any_forward(tmp_path, monkeypatch, extra, match):
    """A record that TrainConfig rejects, such as a ρ range outside (0, 1),
    fails before any forward.  steps 2.5 used to run 2 Euler steps, and
    perturbation "false" to perturb."""
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    ckpt = tmp_path / "m.hfck"
    den.save(ckpt, extra_config=extra)
    forwards = []
    real_forward = Denoiser.forward

    def counted_forward(self, inp):
        forwards.append(1)
        return real_forward(self, inp)

    monkeypatch.setattr(Denoiser, "forward", counted_forward)
    with _deadline(10.0), pytest.raises(ValueError, match=match):
        sample(SampleRequest(checkpoint=str(ckpt), n_nodes=16, seed=0))
    assert forwards == []


def _edit_manifest(path, edit) -> None:
    """Rewrite the JSON manifest of the checkpoint at ``path`` through
    ``edit``, keeping its parameter bytes."""
    raw = path.read_bytes()
    start = len(ad.CHECKPOINT_MAGIC) + 8
    (size,) = struct.unpack_from("<Q", raw, len(ad.CHECKPOINT_MAGIC))
    manifest = json.loads(raw[start : start + size])
    edit(manifest)
    header = json.dumps(manifest).encode()
    path.write_bytes(ad.CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header + raw[start + size :])


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda m: m["config"].update(train=[8, 2]),
            "checkpoint record 'train' is not a JSON object: [8, 2]",
            id="train-list",
        ),
        pytest.param(lambda m: m.pop("config"), "checkpoint record 'config' is not a JSON object: None", id="no-config"),
        pytest.param(
            lambda m: m.update(config=[16, 1]), "checkpoint record 'config' is not a JSON object: [16, 1]", id="config-list"
        ),
    ],
)
def test_sample_rejects_malformed_records_before_any_fork_or_forward(tmp_path, monkeypatch, edit, message):
    """A record that is no JSON object fails as a ValueError naming it.  A
    ``train`` list used to raise AttributeError, a missing ``config``
    KeyError, and a ``config`` list loaded the default widths and failed on
    the first parameter's shape."""
    ckpt = tmp_path / "m.hfck"
    Denoiser(SMALL, rng=np.random.default_rng(0)).save(ckpt, extra_config={"train": {"steps": 4}})
    _edit_manifest(ckpt, edit)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    forks, forwards = _spy(monkeypatch, "_sample_forked"), []
    monkeypatch.setattr(Denoiser, "forward", lambda self, inp: forwards.append(1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample(SampleRequest(checkpoint=str(ckpt), n_nodes=6, count=2, seed=0))
    assert forks == [] and forwards == []


@pytest.fixture
def small_ckpt(tmp_path):
    path = tmp_path / "small.hfck"
    Denoiser(SMALL, rng=np.random.default_rng(0)).save(path, extra_config={"train": {"steps": 4}})
    return path


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sample_equals_one_by_one_loop_for_any_worker_count(tmp_path, monkeypatch, cpus):
    """Graphs, features and diagnostics are those of a plain sample_one loop,
    bit for bit, however many processes draw them."""
    den = Denoiser(replace(SMALL, node_feature_dim=2, edge_feature_dim=1), rng=np.random.default_rng(3))
    _assert_sample_equals_one_by_one_loop(den, tmp_path, monkeypatch, cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sample_equals_one_by_one_loop_with_nonzero_heads(tmp_path, monkeypatch, cpus):
    """As above, on heads with nonzero weights: zero-weight heads output
    their biases exactly, whatever order a stacked forward adds in, so only
    these see every bit of a lockstep share's union."""
    den = Denoiser(replace(SMALL, node_feature_dim=2, edge_feature_dim=1), rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for name, t in den.store.items():
        if name.startswith("head.") and name.endswith(".w"):
            den.store.replace_value(name, rng.normal(0.0, 0.05, size=t.data.shape))
    _assert_sample_equals_one_by_one_loop(den, tmp_path, monkeypatch, cpus)


def _assert_sample_equals_one_by_one_loop(den, tmp_path, monkeypatch, cpus):
    ckpt = tmp_path / "featured.hfck"
    den.save(ckpt, extra_config={"train": {"steps": 4}})
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    with _deadline(60.0):
        graphs, diags = sample(SampleRequest(checkpoint=str(ckpt), n_nodes=7, count=5, seed=11))
    assert multiprocessing.active_children() == []
    assert len(graphs) == len(diags) == 5
    den = Denoiser.from_checkpoint(ckpt)
    for i, (h, diag) in enumerate(zip(graphs, diags)):
        ref, ref_diag = sample_one(den, 7, np.random.default_rng([11, i]))
        assert diag == dict(ref_diag, index=i)
        assert (h.num_nodes, h.hyperedges) == (ref.num_nodes, ref.hyperedges)
        for got, want in ((h.node_features, ref.node_features), (h.hyperedge_features, ref.hyperedge_features)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable


def _fake_levels(seed, count, fail=(), die=(), nap=0.0):
    """A stand-in for the per-graph level step ``_draw_levels`` that finds
    its graph index from its rng, raises for the indices in ``fail``, kills
    its (child) process for those in ``die`` and sleeps ``nap`` seconds per
    graph in a child, and then finishes before its first level; each diag
    records the process that drew the graph."""
    draws = [np.random.default_rng([seed, i]).random() for i in range(count)]
    parent = os.getpid()

    def fake(denoiser, settings, n_nodes, rng):
        i = draws.index(rng.random())
        if i in fail:
            raise ValueError(f"graph {i} failed")
        if i in die:
            assert os.getpid() != parent, "only a child may be killed"
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() != parent:
            time.sleep(nap)
        return Hypergraph(n_nodes, [range(n_nodes)]), {"pid": os.getpid()}
        yield  # a generator, as the step it stands in for

    return fake


def test_sample_draws_graph_i_in_process_i_mod_workers(small_ckpt, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "_draw_levels", _fake_levels(seed=5, count=5))
    with _deadline(30.0):
        _, diags = sample(SampleRequest(checkpoint=str(small_ckpt), n_nodes=3, count=5, seed=5))
    pids = [d["pid"] for d in diags]
    assert [d["index"] for d in diags] == list(range(5))
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4]  # share 1 is one task
    children = {pids[1], pids[2], pids[4]}
    assert os.getpid() not in children and len(children) <= 2
    assert multiprocessing.active_children() == []


def test_sample_stops_children_early_after_a_failure(small_ckpt, monkeypatch):
    """Graph 0 fails in this process at once; the child, at 0.3 s per graph
    of its six (1.8 s), drops what it has not started when it learns of the
    failure."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_draw_levels", _fake_levels(seed=5, count=12, fail={0}, nap=0.3))
    start = time.monotonic()
    with _deadline(30.0), pytest.raises(ValueError, match="^graph 0 failed$"):
        sample(SampleRequest(checkpoint=str(small_ckpt), n_nodes=3, count=12, seed=5))
    assert time.monotonic() - start < 1.2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fail", [(), {3}, {4}])
def test_sample_leaves_no_process_or_thread_behind(small_ckpt, monkeypatch, fail):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "_draw_levels", _fake_levels(seed=5, count=6, fail=fail))
    before = threading.active_count(), multiprocessing.active_children()
    with _deadline(30.0), (pytest.raises(ValueError) if fail else nullcontext()):
        sample(SampleRequest(checkpoint=str(small_ckpt), n_nodes=3, count=6, seed=5))
    assert (threading.active_count(), multiprocessing.active_children()) == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("fail, first", [({1}, 1), ({2}, 2), ({1, 2}, 1), ({0, 1}, 0)])
def test_sample_raises_the_lowest_failing_index(small_ckpt, monkeypatch, cpus, fail, first):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_draw_levels", _fake_levels(seed=5, count=3, fail=fail))
    with _deadline(30.0), pytest.raises(ValueError, match=f"^graph {first} failed$"):
        sample(SampleRequest(checkpoint=str(small_ckpt), n_nodes=3, count=3, seed=5))
    assert multiprocessing.active_children() == []


def test_sample_raises_the_lowest_failure_with_more_workers_than_cores(small_ckpt, monkeypatch):
    """Four processes on this machine's cores, failures in three shares at
    once: the lowest failing index, which every process lowers in the value
    they share, is the error raised."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(pipeline, "_draw_levels", _fake_levels(seed=5, count=16, fail={6, 9, 11, 13}, nap=0.05))
    for _ in range(3):
        with _deadline(30.0), pytest.raises(ValueError, match="^graph 6 failed$"):
            sample(SampleRequest(checkpoint=str(small_ckpt), n_nodes=3, count=16, seed=5))
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fail, error, match", [((), RuntimeError, r"graphs \[1\]"), ({0}, ValueError, "graph 0")])
def test_sample_reports_a_killed_worker_without_hanging(small_ckpt, monkeypatch, fail, error, match):
    """A child that dies before it replies loses index 1; that is the error
    unless a lower index failed first."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_draw_levels", _fake_levels(seed=5, count=3, fail=fail, die={1}))
    with _deadline(30.0), pytest.raises(error, match=match):
        sample(SampleRequest(checkpoint=str(small_ckpt), n_nodes=3, count=3, seed=5))
    assert multiprocessing.active_children() == []


def _failing_levels(seed, count, fail_at):
    """The real ``_draw_levels``, but graph ``i`` raises when it is asked to
    start level ``fail_at[i]``; also returns how many levels each graph of
    this process was asked to start."""
    real = pipeline._draw_levels
    states = [np.random.default_rng([seed, i]).bit_generator.state for i in range(count)]
    started = dict.fromkeys(range(count), 0)

    def wrapped(denoiser, settings, n_nodes, rng):
        i = states.index(rng.bit_generator.state)
        levels = real(denoiser, settings, n_nodes, rng)
        endpoints = None
        while True:
            started[i] += 1
            if fail_at.get(i) == started[i]:
                raise ValueError(f"graph {i} failed at level {started[i]}")
            try:
                level = levels.send(endpoints)
            except StopIteration as done:
                return done.value
            endpoints = yield level

    return wrapped, started


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "fail_at, error", [({3: 2}, "graph 3 failed at level 2"), ({3: 2, 1: 5}, "graph 1 failed at level 5")]
)
def test_sample_lets_lower_graphs_of_a_share_run_on_after_a_failure(tmp_path, monkeypatch, cpus, fail_at, error):
    """Graph 3 fails in the middle of its lockstep share (all six graphs at
    one process, graphs 1, 3 and 5 at two) while graph 1 still runs.  Graph
    1 goes on, so its own later failure is the error raised; the graphs
    after 3 start no level once graph 3 has failed."""
    ckpt = tmp_path / "m.hfck"
    Denoiser(SMALL, rng=np.random.default_rng(0)).save(
        ckpt, extra_config={"train": {"steps": 1, "rho_min": 0.2, "rho_max": 0.2}}
    )
    levels, started = _failing_levels(seed=3, count=6, fail_at=fail_at)
    monkeypatch.setattr(pipeline, "_draw_levels", levels)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    with _deadline(60.0), pytest.raises(ValueError, match=f"^{error}$"):
        sample(SampleRequest(checkpoint=str(ckpt), n_nodes=40, count=6, seed=3))
    assert multiprocessing.active_children() == []
    if cpus == 1:
        assert started[4] == started[5] == 1
        assert started[0] > 5  # graph 0 ran to its end
        assert started[1] == fail_at.get(1, started[0])  # at one ρ, every graph takes as many levels


def test_lockstep_integrates_a_failing_union_level_by_level(monkeypatch):
    """Graph 1's level 2 holds NaN spectral rows, so the forward over the
    union of graphs 0-3 raises.  Each level is then integrated alone: graph
    1 gets the error, graph 0 runs on to its own draw bit for bit, and
    graphs 2 and 3 are dropped at their next level boundary."""
    den = _nonzero_head_model(SMALL)
    den.extra_config = {"train": {"steps": 2, "rho_min": 0.2, "rho_max": 0.2}}
    real = pipeline._draw_levels

    def poisoned(denoiser, settings, n_nodes, rng):
        levels = real(denoiser, settings, n_nodes, rng)
        endpoints, started = None, 0
        while True:
            try:
                level = levels.send(endpoints)
            except StopIteration as done:
                return done.value
            started += 1
            if rng is rngs[1] and started == 2:
                level.inp.left_spectral = np.full_like(level.inp.left_spectral, np.nan)
            endpoints = yield level

    rngs = {i: np.random.default_rng([7, i]) for i in range(4)}
    monkeypatch.setattr(pipeline, "_draw_levels", poisoned)
    outcomes = pipeline._lockstep(den, pipeline._recorded_config(den), 30, rngs)
    assert sorted(outcomes) == [0, 1]
    assert isinstance(outcomes[1], FloatingPointError)
    h, diag = outcomes[0]
    ref, ref_diag = sample_one(den, 30, np.random.default_rng([7, 0]))
    assert diag == ref_diag and diag["iterations"] > 2
    assert (h.num_nodes, h.hyperedges) == (ref.num_nodes, ref.hyperedges)


def test_sample_request_validation():
    with pytest.raises(ValueError):
        SampleRequest(checkpoint="x", n_nodes=0)
    with pytest.raises(ValueError):
        SampleRequest(checkpoint="x", n_nodes=3, count=0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n_nodes=2.5), "n_nodes 2.5"),
        (dict(n_nodes=3, count=1.5), "count 1.5"),
        (dict(n_nodes=3, seed=0.5), "seed 0.5"),
        (dict(n_nodes=True), "n_nodes True"),
        (dict(n_nodes="3"), "n_nodes '3'"),
    ],
)
def test_sample_request_rejects_counts_that_are_not_integers(kwargs, match):
    with pytest.raises(ValueError, match=f"{match} is not an integer"):
        SampleRequest(checkpoint="x", **kwargs)
    req = SampleRequest(checkpoint="x", n_nodes=np.int64(3), count=np.int32(2), seed=np.uint32(7))
    assert (req.n_nodes, req.count, req.seed) == (3, 2, 7)
    assert {type(req.n_nodes), type(req.count), type(req.seed)} == {int}


# --------------------------------------------------------------- training ----


def _toy_cfg(data_dir, ckpt_dir, **overrides):
    base = dict(
        data_dir=str(data_dir),
        hidden_dim=16,
        num_layers=1,
        mlp_hidden=24,
        spectral_k=4,
        max_steps=30,
        lr=2e-3,
        seed=5,
        checkpoint_dir=str(ckpt_dir),
        checkpoint_every=30,
        val_every=10,
        val_batches=2,
        log_path=str(ckpt_dir / "loss.csv"),
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "data"
    spec = DatasetSpec(kind="tree", train_count=6, val_count=2, test_count=2, seed=13, num_nodes=10)
    generate_dataset(spec, out)
    return out


def test_train_writes_artifacts(toy_data, tmp_path):
    ckpt = tmp_path / "ckpt"
    summary = train(_toy_cfg(toy_data, ckpt))
    assert (ckpt / "checkpoint.hfck").exists()
    assert (ckpt / "best.hfck").exists()
    assert summary["steps"] == 30
    assert np.isfinite(summary["best_val_loss"])
    assert sorted(summary["phase_s"]) == ["backward", "data", "forward", "optimizer"]
    assert all(seconds >= 0.0 for seconds in summary["phase_s"].values())
    lines = (ckpt / "loss.csv").read_text().strip().split("\n")
    assert lines[0] == "step,train_loss,val_loss"
    assert len(lines) == 31


def test_train_deterministic_loss_trace(toy_data, tmp_path):
    log_a = train(_toy_cfg(toy_data, tmp_path / "a"))["loss_log"]
    log_b = train(_toy_cfg(toy_data, tmp_path / "b"))["loss_log"]
    from pathlib import Path

    assert Path(log_a).read_text() == Path(log_b).read_text()


def test_checkpoint_bytes_do_not_depend_on_paths(toy_data, tmp_path):
    """Two identical runs whose data, checkpoints and logs live in different
    directories write byte-identical checkpoints."""
    written = []
    for run in ("a", "b"):
        data = tmp_path / run / "data"
        shutil.copytree(toy_data, data)
        ckpt = tmp_path / run / "ckpt"
        train(_toy_cfg(data, ckpt, max_steps=4, val_every=2, log_path=str(tmp_path / run / "log.csv")))
        written.append((ckpt / "checkpoint.hfck").read_bytes())
    assert written[0] == written[1]
    recorded = Denoiser.from_checkpoint(ckpt / "checkpoint.hfck").extra_config["train"]
    assert not {"data_dir", "checkpoint_dir", "log_path"} & set(recorded)
    assert recorded["seed"] == 5


def test_train_dumps_its_state_on_a_non_finite_loss(toy_data, tmp_path, monkeypatch):
    """A NaN loss at step 3 stops training with the step's flow time and
    reduction fraction written out as plain JSON numbers."""
    real_loss, real_example = pipeline._step_loss_tensor, pipeline.build_training_example
    inputs, examples = [], []

    def loss(denoiser, inp, targets):
        inputs.append(inp)
        return ad.Tensor(np.nan) if len(inputs) == 3 else real_loss(denoiser, inp, targets)

    def example(*args):
        examples.append(real_example(*args))
        return examples[-1]

    monkeypatch.setattr(pipeline, "_step_loss_tensor", loss)
    monkeypatch.setattr(pipeline, "build_training_example", example)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(RuntimeError, match=r"^non-finite loss at step 3; state dumped to "):
        train(_toy_cfg(toy_data, ckpt, val_every=0))
    dump = json.loads((ckpt / "abort_state.json").read_text())
    assert dump["step"] == 3 and np.isnan(dump["loss"])
    assert type(dump["t"]) is float and dump["t"] == inputs[2].t
    assert type(dump["rho_hat"]) is float and dump["rho_hat"] == examples[2].rho_hat


def test_train_writes_the_same_bytes_at_one_and_two_cpus(toy_data, tmp_path, monkeypatch):
    """The checkpoints and the loss log are byte-identical whether each Adam
    update is the serial sweep or split with a forked helper; the update is
    split only with two CPUs in a process of one thread."""
    helpers = []
    real_init = ad._AdamHelper.__init__

    def counted_init(helper, store):
        helpers.append(store)
        real_init(helper, store)

    monkeypatch.setattr(ad._AdamHelper, "__init__", counted_init)
    written = []
    for cpus, threads, split in ((1, 1, 0), (2, 1, 1), (2, 3, 0)):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda n=cpus: n)
        monkeypatch.setattr(pipeline, "_native_threads", lambda n=threads: n)
        ckpt = tmp_path / f"cpus{cpus}-threads{threads}"
        before = len(helpers)
        with _deadline(60.0):
            train(_toy_cfg(toy_data, ckpt))
        assert len(helpers) - before == split
        written.append([(ckpt / name).read_bytes() for name in ("checkpoint.hfck", "best.hfck", "loss.csv")])
    assert written[0] == written[1] == written[2]


def _two_cpu_settings(monkeypatch):
    """The serial update, then the update in a helper process."""
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda n=cpus: n)
        monkeypatch.setattr(pipeline, "_native_threads", lambda: 1)
        yield cpus


def test_train_draws_one_example_per_step(toy_data, tmp_path, monkeypatch):
    """Each step prepares the next step's example, and the last step none:
    train() takes and prepares exactly ``max_steps`` examples."""
    calls = []
    real_take, real_prepare = CoarseningCache.take, pipeline.prepare_step
    monkeypatch.setattr(CoarseningCache, "take", lambda *a: calls.append("take") or real_take(*a))
    monkeypatch.setattr(pipeline, "prepare_step", lambda *a: calls.append("prepare") or real_prepare(*a))
    for cpus in _two_cpu_settings(monkeypatch):
        calls.clear()
        with _deadline(60.0):
            train(_toy_cfg(toy_data, tmp_path / f"cpus{cpus}", max_steps=7, val_every=0))
        assert calls == ["take", "prepare"] * 7, cpus


def test_train_raises_a_failed_draw_once_the_step_before_is_done(toy_data, tmp_path, monkeypatch):
    """An error while preparing step 3's example, which runs during step 2's
    update, surfaces once step 2 is updated, validated, logged and saved,
    whether the update runs in this process or in a helper: both write the
    same files, and the log is the start of a clean run's."""
    real_take, real_update = CoarseningCache.take, ad.ParameterStore.adam_step
    events = []

    def take(*args):
        events.append("take")
        if events.count("take") == 3:
            raise ValueError("draw 3 failed")
        return real_take(*args)

    def adam_step(store, lr):
        real_update(store, lr)
        events.append("update")

    monkeypatch.setattr(CoarseningCache, "take", take)
    monkeypatch.setattr(ad.ParameterStore, "adam_step", adam_step)
    written = []
    for cpus in _two_cpu_settings(monkeypatch):
        events.clear()
        ckpt = tmp_path / f"cpus{cpus}"
        with _deadline(60.0), pytest.raises(ValueError, match="^draw 3 failed$"):
            train(_toy_cfg(toy_data, ckpt, val_every=2, checkpoint_every=2))
        assert events.count("update") == 2
        written.append([(ckpt / name).read_bytes() for name in ("checkpoint.hfck", "best.hfck", "loss.csv")])
        assert written[-1][2].decode().count("\n") == 3  # the header and steps 1 and 2
    assert written[0] == written[1]
    monkeypatch.setattr(CoarseningCache, "take", real_take)
    train(_toy_cfg(toy_data, tmp_path / "clean", val_every=2, checkpoint_every=2))
    assert (tmp_path / "clean" / "loss.csv").read_bytes().startswith(written[0][2])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="the OS lists no threads of a process")
def test_native_threads_counts_a_started_thread():
    before = pipeline._native_threads()
    assert before >= 1
    done = threading.Event()
    worker = threading.Thread(target=done.wait)
    worker.start()
    try:
        assert pipeline._native_threads() == before + 1
    finally:
        done.set()
        worker.join(5.0)
    assert not worker.is_alive()


@pytest.mark.parametrize("ending", ["return", "non-finite loss", "killed helper", "killed helper in flight"])
def test_train_leaves_no_process_or_thread_behind(toy_data, tmp_path, monkeypatch, ending):
    """With two CPUs and one thread, train() stops its optimizer helper and
    gives this process its CPUs back however it ends: when it returns, when
    a NaN loss at step 3 aborts it, and when the helper is killed at step 3,
    in the forward or in the backward once it has been handed some groups,
    which raises naming the helper instead of hanging."""
    real_loss, real_send = pipeline._step_loss_tensor, ad._AdamHelper.send
    losses, sends = [], []

    def kill_helper():
        (helper,) = multiprocessing.active_children()
        os.kill(helper.pid, signal.SIGKILL)

    def loss(denoiser, inp, targets):
        losses.append(real_loss(denoiser, inp, targets))
        if len(losses) == 3 and ending == "non-finite loss":
            return ad.Tensor(np.nan)
        if len(losses) == 3 and ending == "killed helper":
            kill_helper()
        return losses[-1]

    def send(helper, k, coefs):
        sends.append(len(losses))
        if sends.count(3) == 2 and ending == "killed helper in flight":
            kill_helper()
        real_send(helper, k, coefs)

    monkeypatch.setattr(pipeline, "_step_loss_tensor", loss)
    monkeypatch.setattr(ad._AdamHelper, "send", send)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_native_threads", lambda: 1)
    raises = {
        "return": nullcontext(),
        "non-finite loss": pytest.raises(RuntimeError, match="^non-finite loss at step 3;"),
        "killed helper": pytest.raises(RuntimeError, match="^the optimizer helper process died"),
        "killed helper in flight": pytest.raises(RuntimeError, match="^the optimizer helper process died"),
    }[ending]
    before = threading.active_count(), multiprocessing.active_children(), os.sched_getaffinity(0)
    # wide enough for 7 sweep groups, so that some are handed over in backward
    widths = {"hidden_dim": 64, "mlp_hidden": 128} if ending == "killed helper in flight" else {}
    with _deadline(60.0), raises:
        train(_toy_cfg(toy_data, tmp_path / "ckpt", val_every=0, **widths))
    assert (threading.active_count(), multiprocessing.active_children(), os.sched_getaffinity(0)) == before
    assert len(losses) == (30 if ending == "return" else 3)


def test_train_rejects_empty_val_split_before_any_step(tmp_path, monkeypatch):
    data = tmp_path / "data"
    spec = DatasetSpec(kind="tree", train_count=3, val_count=0, test_count=1, seed=13, num_nodes=10)
    generate_dataset(spec, data)
    steps = []
    real_prepare_step = pipeline.prepare_step

    def counted_prepare_step(*args, **kwargs):
        steps.append(1)
        return real_prepare_step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_step", counted_prepare_step)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(ValueError, match="empty val split"):
        train(_toy_cfg(data, ckpt, val_every=2, max_steps=4))
    assert steps == []
    assert not (ckpt / "loss.csv").exists()
    # without validation the same split trains
    summary = train(_toy_cfg(data, ckpt, val_every=0, max_steps=2))
    assert len(steps) == 2
    assert summary["best_checkpoint"] is None


@pytest.mark.parametrize(
    "train_widths, val_widths, mixed",
    [
        ((3, 2, 3), (3,), "[(2, 0), (3, 0)]"),
        ((3, 3, 3), (0,), "[(0, 0), (3, 0)]"),
    ],
    ids=["3d-and-2d-nodes", "featured-and-featureless"],
)
def test_train_rejects_mixed_feature_widths_before_any_step(
    tmp_path, monkeypatch, train_widths, val_widths, mixed
):
    rng = np.random.default_rng(0)

    def featured(width):
        h = gen_tree(rng, num_nodes=8)
        feats = rng.normal(size=(h.num_nodes, width)) if width else None
        return Hypergraph(h.num_nodes, h.hyperedges, node_features=feats)

    data = tmp_path / "data"
    data.mkdir()
    for split, widths in (("train", train_widths), ("val", val_widths), ("test", (3,))):
        write_graphs_jsonl(data / f"{split}.jsonl", [featured(w) for w in widths])
    (data / "manifest.json").write_text(json.dumps({"kind": "tree"}))
    steps = []
    real_prepare_step = pipeline.prepare_step

    def counted_prepare_step(*args, **kwargs):
        steps.append(1)
        return real_prepare_step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare_step", counted_prepare_step)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(ValueError, match=re.escape(f"feature widths {mixed}")):
        train(_toy_cfg(data, ckpt, val_every=2, max_steps=4))
    assert steps == []
    assert not (ckpt / "loss.csv").exists()


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_a_graph_without_hyperedges_before_any_step(tmp_path, monkeypatch, split):
    """Coarsening cannot start from a graph with no hyperedge; it is named up
    front instead of failing at whichever step first draws it."""
    rng = np.random.default_rng(0)
    graphs = {name: [gen_tree(rng, num_nodes=8) for _ in range(6)] for name in ("train", "val", "test")}
    graphs[split][3] = Hypergraph(4, [])
    data = tmp_path / "data"
    data.mkdir()
    for name, split_graphs in graphs.items():
        write_graphs_jsonl(data / f"{name}.jsonl", split_graphs)
    (data / "manifest.json").write_text(json.dumps({"kind": "tree"}))
    steps = _spy(monkeypatch, "prepare_step")
    ckpt = tmp_path / "ckpt"
    with pytest.raises(ValueError, match=re.escape(f"{split} record 3 has no hyperedges")):
        train(_toy_cfg(data, ckpt, val_every=2, max_steps=4))
    assert steps == []
    assert not (ckpt / "loss.csv").exists()


def test_trained_checkpoint_samples(toy_data, tmp_path):
    ckpt = tmp_path / "ckpt"
    summary = train(_toy_cfg(toy_data, ckpt))
    # every toy tree is connected, and the checkpoint says so
    recorded = Denoiser.from_checkpoint(summary["best_checkpoint"]).extra_config
    assert recorded["train_graphs_connected"] is True
    graphs, reports = sample(
        SampleRequest(checkpoint=summary["best_checkpoint"], n_nodes=10, count=2, seed=0)
    )
    assert all(g.num_nodes == 10 for g in graphs)


# ------------------------------------------------------------- evaluation ----


def test_evaluate_self_comparison(tmp_path):
    rng = np.random.default_rng(20)
    graphs = [gen_tree(rng, num_nodes=12) for _ in range(4)]
    gen_path = tmp_path / "gen.jsonl"
    write_graphs_jsonl(gen_path, graphs)
    report = evaluate(gen_path, gen_path, "tree")
    assert report.node_num_diff == 0.0
    assert report.degree_wasserstein == 0.0
    assert report.edge_size_wasserstein == 0.0
    assert report.spectral_mmd < 1e-12
    assert report.validity_fraction == 1.0
    assert report.chamfer_nearest is None


def test_evaluate_prefers_test_split(tmp_path):
    rng = np.random.default_rng(21)
    small = [gen_tree(rng, num_nodes=8) for _ in range(2)]
    large = [gen_tree(rng, num_nodes=20) for _ in range(2)]
    data = tmp_path / "data"
    data.mkdir()
    write_graphs_jsonl(data / "train.jsonl", large)
    write_graphs_jsonl(data / "test.jsonl", small)
    gen_path = tmp_path / "gen.jsonl"
    write_graphs_jsonl(gen_path, small)
    report = evaluate(gen_path, data, "tree")
    # matching test.jsonl exactly: node counts agree only against that split
    assert report.node_num_diff == 0.0


def test_evaluate_mesh_kind(tmp_path):
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    tet = Hypergraph(4, faces, node_features=verts)
    path = tmp_path / "m.jsonl"
    write_graphs_jsonl(path, [tet])
    report = evaluate(path, path, "mesh")
    assert report.chamfer_nearest == pytest.approx(0.0, abs=1e-12)
    assert report.validity_fraction is None


# ----------------------------------------------------------------- export ----


DOT_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|--|[{}\[\];=]")


def check_dot_grammar(text):
    """Minimal DOT grammar check: 'graph' id? '{' stmt* '}' with node,
    attribute, and undirected-edge statements."""
    leftover = DOT_TOKEN.sub("", text)
    if leftover.strip():
        return False
    tokens = DOT_TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise SyntaxError(f"unexpected token {tok!r}")
        pos += 1
        return tok

    try:
        take("graph")
        if peek() != "{":
            take()  # optional graph name
        take("{")
        while peek() != "}":
            take()  # node or edge head
            if peek() == "--":
                take("--")
                take()
            elif peek() == "[":
                take("[")
                take()
                take("=")
                take()
                take("]")
            take(";")
        take("}")
    except SyntaxError:
        return False
    return pos == len(tokens)


def test_write_dot_parses(tmp_path):
    h = gen_tree(np.random.default_rng(22), num_nodes=10)
    path = tmp_path / "g.dot"
    write_dot(h, path)
    text = path.read_text()
    assert check_dot_grammar(text)
    assert text.count("--") == sum(len(e) for e in h.hyperedges)


def test_export_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    graphs = [gen_tree(rng, num_nodes=8) for _ in range(3)]
    paths = export(graphs, "jsonl", tmp_path, stem="out")
    assert len(paths) == 1
    back = read_graphs_jsonl(paths[0])
    assert len(back) == 3


def test_export_dot_per_graph(tmp_path):
    rng = np.random.default_rng(24)
    graphs = [gen_tree(rng, num_nodes=6) for _ in range(2)]
    paths = export(graphs, "dot", tmp_path, stem="g")
    assert [p.name for p in paths] == ["g_0000.dot", "g_0001.dot"]
    assert all(check_dot_grammar(p.read_text()) for p in paths)


def test_export_obj_tetrahedron(tmp_path):
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    tet = Hypergraph(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], node_features=verts)
    paths = export([tet], "obj", tmp_path, stem="tet")
    text = paths[0].read_text()
    assert len([l for l in text.splitlines() if l.startswith("v ")]) == 4
    assert len([l for l in text.splitlines() if l.startswith("f ")]) == 4


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export([], "svg", tmp_path)
