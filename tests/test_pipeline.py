import json
import re
import shutil
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperforge.autodiff as ad
import hyperforge.pipeline as pipeline
from hyperforge.coarsening import CoarseningParams, sample_coarsening_sequence
from hyperforge.datasets import DatasetSpec, gen_tree, generate_dataset
from hyperforge.denoiser import Denoiser, DenoiserConfig
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
from test_expansion import reference_sibling_groups


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
        ex = build_training_example(seq, l, rng, perturbation=False)
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
    ex = build_training_example(seq, 0, np.random.default_rng(0), perturbation=False)
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
    ex = build_training_example(seq, top, np.random.default_rng(0), perturbation=False)
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
        seq, l, np.random.default_rng(1),
        perturbation=True, perturb_radius=2, perturb_prob=1.0,
    )
    fine = seq.levels[l].bipartite
    assert ex.expanded.num_edges > fine.num_edges
    fine_set = {(int(a), int(b)) for a, b in fine.edges}
    for (a, b), tgt in zip(ex.expanded.edges.tolist(), ex.targets["edge_keep"].ravel()):
        assert tgt == (1.0 if (a, b) in fine_set else -1.0)


def test_couple_noise_preserves_group_multisets():
    seq = _tree_sequence(seed=6)
    l = next(
        i for i in range(1, len(seq.levels))
        if any(len(g) == 2 for g in _groups_of(seq, i))
    )
    ex = build_training_example(seq, l - 1, np.random.default_rng(2), perturbation=False)
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
        seq, draw(st.integers(0, seq.num_levels - 1)), rng, perturbation=draw(st.booleans())
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
    ex = build_training_example(seq, 0, np.random.default_rng(0), perturbation=False)
    inp, x_t = prepare_step(ex, np.random.default_rng(1), SMALL.spectral_k)
    n, m, e = ex.expanded.num_left, ex.expanded.num_right, ex.expanded.num_edges
    assert inp.left_state.shape == (n, 2)
    assert inp.right_state.shape == (m, 1)
    assert inp.edge_state.shape == (e, 1)
    assert inp.left_spectral.shape == (n, SMALL.spectral_k)
    assert 0.0 <= inp.t < 1.0
    assert set(x_t) == set(ex.targets)


def test_training_step_on_right_only_levels():
    # Seven copies of one hyperedge on one node coarsen by right merges alone:
    # (1, 7) -> (1, 3) -> (1, 1).  Each level trains like any other.
    seq = sample_coarsening_sequence(Hypergraph(1, [[0]] * 7), CoarseningParams(), np.random.default_rng(0))
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    for l in range(len(seq.levels)):
        ex = build_training_example(seq, l, np.random.default_rng(l))
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
    for n in (1, 2, 7, 16):
        h, diag = sample_one(den, n, np.random.default_rng(n), steps=8)
        assert h.num_nodes == n
        assert all(s == n for s in diag["budget_sums"])
        assert diag["iterations"] <= int(4 * np.log2(max(n, 2)) + 16)


def test_sample_one_untrained_keeps_single_hyperedge():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    h, diag = sample_one(den, 9, np.random.default_rng(1), steps=8)
    assert h.num_hyperedges == 1
    assert sorted(h.hyperedges[0]) == list(range(9))
    assert diag["valid_structure"] is True
    assert diag["isolated_nodes"] == 0


def test_sample_one_deterministic():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    h1, _ = sample_one(den, 11, np.random.default_rng(5), steps=8)
    h2, _ = sample_one(den, 11, np.random.default_rng(5), steps=8)
    assert h1.num_nodes == h2.num_nodes
    assert [tuple(e) for e in h1.hyperedges] == [tuple(e) for e in h2.hyperedges]


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


@pytest.mark.parametrize("rho_min, rho_max", [(1.0, 1.0), (0.0, 0.0), (0.3, 0.1)])
def test_sample_rejects_invalid_reduction_range_before_any_forward(tmp_path, monkeypatch, rho_min, rho_max):
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    ckpt = tmp_path / "m.hfck"
    den.save(ckpt, extra_config={"train": {"steps": 8, "rho_min": rho_min, "rho_max": rho_max}})
    forwards = []
    real_forward = Denoiser.forward

    def counted_forward(self, inp):
        forwards.append(1)
        return real_forward(self, inp)

    monkeypatch.setattr(Denoiser, "forward", counted_forward)
    with _deadline(10.0), pytest.raises(ValueError, match=re.escape("need 0 < rho_min <= rho_max < 1")):
        sample(SampleRequest(checkpoint=str(ckpt), n_nodes=16, seed=0))
    assert forwards == []


def test_sample_request_validation():
    with pytest.raises(ValueError):
        SampleRequest(checkpoint="x", n_nodes=0)
    with pytest.raises(ValueError):
        SampleRequest(checkpoint="x", n_nodes=3, count=0)


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
