import numpy as np
import pytest

import hyperforge.autodiff as ad
from hyperforge.denoiser import (
    PE_DIM,
    Denoiser,
    DenoiserConfig,
    DenoiserInput,
    fourier_time_encoding,
    sinusoidal_encoding,
    spectral_rows,
)
from hyperforge.hypergraph import Hypergraph, star_expand

HEADS = ("left_expansion", "left_split", "left_features", "right_expansion", "right_features", "edge_keep")


SMALL = DenoiserConfig(hidden_dim=24, num_layers=2, mlp_hidden=32, spectral_k=4)


def _graph(n=12, seed=0):
    rng = np.random.default_rng(seed)
    edges = [sorted(rng.choice(n, size=int(rng.integers(2, 4)), replace=False).tolist()) for _ in range(n - 2)]
    return star_expand(Hypergraph(n, edges))


def _input_for(b, cfg, t=0.4, seed=1):
    rng = np.random.default_rng(seed)
    lrows, rrows, lam = spectral_rows(b, cfg.spectral_k)
    return DenoiserInput(
        edges=b.edges,
        left_spectral=lrows,
        right_spectral=rrows,
        eigenvalues=lam,
        left_budgets=b.left_budgets.astype(np.float64),
        left_parent_features=np.zeros((b.num_left, 0)),
        right_parent_features=np.zeros((b.num_right, 0)),
        left_state=rng.normal(size=(b.num_left, 2)),
        right_state=rng.normal(size=(b.num_right, 1)),
        edge_state=rng.normal(size=(b.num_edges, 1)),
        left_feature_state=np.zeros((b.num_left, 0)),
        right_feature_state=np.zeros((b.num_right, 0)),
        t=t,
        rho_hat=0.2,
        total_left=float(b.num_left),
    )


def sinusoidal_reference(value, dim, base):
    """Second implementation of the interleaved sin/cos encoding, written
    without vector ops."""
    half = dim // 2
    out = []
    for j in range(half):
        freq = base ** (j / (half - 1)) if half > 1 else base
        out.append(np.sin(value * freq))
        out.append(np.cos(value * freq))
    return np.array(out)


def test_sinusoidal_matches_reference_over_budgets():
    dim, base = 32, 1e-4
    for b in range(1, 1001):
        ours = sinusoidal_encoding(np.array([float(b)]), dim, base)[0]
        ref = sinusoidal_reference(float(b), dim, base)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_sinusoidal_distinguishes_budgets():
    vals = sinusoidal_encoding(np.arange(1.0, 201.0), 32, 1e-4)
    d = np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-4


def test_fourier_time_encoding_shape_and_range():
    enc = fourier_time_encoding(0.3, 8)
    assert enc.shape == (8,)
    assert np.all(np.abs(enc) <= 1.0)
    assert not np.allclose(fourier_time_encoding(0.3, 8), fourier_time_encoding(0.7, 8))


def test_spectral_rows_shapes():
    b = _graph()
    lrows, rrows, lam = spectral_rows(b, 4)
    assert lrows.shape == (b.num_left, 4)
    assert rrows.shape == (b.num_right, 4)
    assert lam.shape == (4,)


def test_encode_spectral_sign_invariance():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph()
    lrows, rrows, lam = spectral_rows(b, SMALL.spectral_k)
    with ad.no_grad():
        base = den.encode_spectral(lrows, lam).data
    rng = np.random.default_rng(1)
    for _ in range(5):
        signs = rng.choice([-1.0, 1.0], size=SMALL.spectral_k)
        with ad.no_grad():
            flipped = den.encode_spectral(lrows * signs, lam).data
        assert np.max(np.abs(flipped - base)) < 1e-12


def encode_spectral_reference(den, rows, eigenvalues):
    """The shared map applied column by column, one call per column and sign."""
    blocks = []
    for i in range(den.config.spectral_k):
        col = rows[:, i : i + 1]
        lam_col = np.full_like(col, eigenvalues[i])
        pos = den.phi(ad.Tensor(np.concatenate([col, lam_col], axis=1)))
        neg = den.phi(ad.Tensor(np.concatenate([-col, lam_col], axis=1)))
        blocks.append(ad.add(pos, neg))
    return den.rho(ad.concat(blocks, axis=1))


def test_encode_spectral_matches_per_column_loop():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    for seed, n in [(0, 12), (4, 5), (5, 30)]:
        lrows, rrows, lam = spectral_rows(_graph(n=n, seed=seed), SMALL.spectral_k)
        for rows in (lrows, rrows):
            with ad.no_grad():
                ours = den.encode_spectral(rows, lam).data
                ref = encode_spectral_reference(den, rows, lam).data
            assert ours.shape == (rows.shape[0], PE_DIM)
            assert np.max(np.abs(ours - ref)) < 1e-12


def _flow_state_shapes(expanded):
    """The shape of every head's flow state on ``expanded``."""
    n, m, e = expanded.num_left, expanded.num_right, expanded.num_edges
    return {
        "left_expansion": (n, 1),
        "left_split": (n, 1),
        "left_features": expanded.left_features.shape,
        "right_expansion": (m, 1),
        "right_features": expanded.right_features.shape,
        "edge_keep": (e, 1),
    }


def _children_level(den, b, expanded):
    """encode_level of ``expanded``, an expansion of ``b``, conditioned the
    way the sampler conditions it."""
    from hyperforge.pipeline import _make_input

    state = {k: np.zeros(shape) for k, shape in _flow_state_shapes(expanded).items()}
    with ad.no_grad():
        return den.encode_level(_make_input(b, expanded, state, 0.5, 0.2, float(b.num_left), SMALL.spectral_k))


def test_spectral_embed_identity_v():
    from hyperforge.expansion import ExpansionVectors, expand

    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph()
    lrows, rrows, lam = spectral_rows(b, SMALL.spectral_k)
    level = _children_level(den, b, expand(b, ExpansionVectors([1] * b.num_left, [1] * b.num_right)))
    with ad.no_grad():
        assert np.array_equal(level.pe_left.data, den.encode_spectral(lrows, lam).data)
        assert np.array_equal(level.pe_right.data, den.encode_spectral(rrows, lam).data)


def test_spectral_embed_replicates_children():
    from hyperforge.expansion import ExpansionVectors, expand, perturb_expand

    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph(n=6, seed=2)
    v = ExpansionVectors([2] + [1] * (b.num_left - 1), [3] + [1] * (b.num_right - 1))
    plain = expand(b, v)
    # perturbation adds edges but no rows: the children still share their parent's rows
    perturbed = perturb_expand(b, v, 2, 1.0, np.random.default_rng(0))
    assert perturbed.num_edges > plain.num_edges
    levels = []
    for expanded in (plain, perturbed):
        level = _children_level(den, b, expanded)
        levels.append(level)
        assert level.rows == (b.num_left + 1, b.num_right + 2, expanded.num_edges)
        assert np.array_equal(level.pe_left.data[0], level.pe_left.data[1])
        assert np.array_equal(level.pe_right.data[0], level.pe_right.data[1])
        assert np.array_equal(level.pe_right.data[0], level.pe_right.data[2])
        # each edge row carries the encoding of its endpoints
        assert np.array_equal(level.pe_edge_left.data, level.pe_left.data[expanded.edges[:, 0]])
        assert np.array_equal(level.pe_edge_right.data, level.pe_right.data[expanded.edges[:, 1]])
    assert np.array_equal(levels[0].pe_left.data, levels[1].pe_left.data)
    assert np.array_equal(levels[0].pe_right.data, levels[1].pe_right.data)


FEATURED = DenoiserConfig(
    hidden_dim=24, num_layers=2, mlp_hidden=32, spectral_k=4, node_feature_dim=3, edge_feature_dim=2
)


def _featured_model_and_input(seed=0):
    rng = np.random.default_rng(seed)
    den = Denoiser(FEATURED, rng=np.random.default_rng(0))
    # nonzero head weights so every head depends on the whole network
    for name, t in den.store.items():
        if name.startswith("head."):
            den.store.replace_value(name, rng.normal(size=t.data.shape) * 0.1)
    b = _graph()
    inp = _input_for(b, FEATURED)
    inp.left_parent_features = rng.normal(size=(b.num_left, 3))
    inp.right_parent_features = rng.normal(size=(b.num_right, 2))
    inp.left_feature_state = rng.normal(size=(b.num_left, 3))
    inp.right_feature_state = rng.normal(size=(b.num_right, 2))
    return den, inp


def _perturbed_featured_input(seed=0):
    """The featured model's input on a perturbed expansion with clones on
    both sides, built the way the sampler builds it."""
    from hyperforge.expansion import ExpansionVectors, expand, perturb_expand
    from hyperforge.hypergraph import BipartiteGraph
    from hyperforge.pipeline import _make_input

    rng = np.random.default_rng(seed)
    g = _graph(n=8, seed=4)
    b = BipartiteGraph(
        num_left=g.num_left,
        num_right=g.num_right,
        edges=g.edges,
        left_budgets=np.full(g.num_left, 2, dtype=np.int64),
        left_features=rng.normal(size=(g.num_left, 3)),
        right_features=rng.normal(size=(g.num_right, 2)),
    )
    v = ExpansionVectors([2, 1, 2] + [1] * (b.num_left - 3), [3, 2] + [1] * (b.num_right - 2))
    expanded = perturb_expand(b, v, 1, 1.0, rng)
    # perturbation added edges, which the level's incidences must scatter too
    assert expanded.num_edges > expand(b, v).num_edges
    state = {k: rng.normal(size=shape) for k, shape in _flow_state_shapes(expanded).items()}
    return _make_input(b, expanded, state, 0.0, 0.2, 20.0, FEATURED.spectral_k)


def test_predict_with_level_encoding_is_bit_identical():
    from dataclasses import replace

    den, plain_inp = _featured_model_and_input()
    for inp in (plain_inp, _perturbed_featured_input()):
        with ad.no_grad():
            level = den.encode_level(inp)
        rng = np.random.default_rng(3)
        for t in (0.0, 0.37, 0.96):
            state = dict(
                t=t,
                left_state=rng.normal(size=inp.left_state.shape),
                right_state=rng.normal(size=inp.right_state.shape),
                edge_state=rng.normal(size=inp.edge_state.shape),
                left_feature_state=rng.normal(size=inp.left_feature_state.shape),
                right_feature_state=rng.normal(size=inp.right_feature_state.shape),
            )
            plain = den.predict(replace(inp, **state))
            cached = den.predict(replace(inp, **state, level=level))
            for k in HEADS:
                assert np.array_equal(plain[k], cached[k]), (inp.num_edges, t, k)


def test_forward_rejects_mismatched_level():
    from dataclasses import replace

    den, inp = _featured_model_and_input()
    other = _input_for(_graph(n=9, seed=5), FEATURED)
    other.left_parent_features = np.zeros((other.num_left, 3))
    other.right_parent_features = np.zeros((other.num_right, 2))
    with ad.no_grad():
        level = den.encode_level(other)
    with pytest.raises(ValueError, match="level encoding"):
        den.predict(replace(inp, level=level))


def test_untrained_heads_predict_identity():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph()
    preds = den.predict(_input_for(b, SMALL))
    assert set(preds) == set(HEADS)
    assert np.allclose(preds["left_expansion"], -1.0)
    assert np.allclose(preds["right_expansion"], -1.0)
    assert np.allclose(preds["edge_keep"], 1.0)
    assert np.allclose(preds["left_split"], 0.0)


def test_forward_shapes():
    cfg = DenoiserConfig(
        hidden_dim=24, num_layers=2, mlp_hidden=32, spectral_k=4,
        node_feature_dim=3, edge_feature_dim=2,
    )
    den = Denoiser(cfg, rng=np.random.default_rng(0))
    b = _graph()
    inp = _input_for(b, cfg)
    inp.left_parent_features = np.zeros((b.num_left, 3))
    inp.right_parent_features = np.zeros((b.num_right, 2))
    inp.left_feature_state = np.random.default_rng(0).normal(size=(b.num_left, 3))
    inp.right_feature_state = np.random.default_rng(1).normal(size=(b.num_right, 2))
    preds = den.predict(inp)
    assert preds["left_expansion"].shape == (b.num_left, 1)
    assert preds["left_split"].shape == (b.num_left, 1)
    assert preds["left_features"].shape == (b.num_left, 3)
    assert preds["right_expansion"].shape == (b.num_right, 1)
    assert preds["right_features"].shape == (b.num_right, 2)
    assert preds["edge_keep"].shape == (b.num_edges, 1)


def test_forward_deterministic():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph()
    inp = _input_for(b, SMALL)
    p1 = den.predict(inp)
    p2 = den.predict(inp)
    for k in HEADS:
        assert np.array_equal(p1[k], p2[k])


def _permute_input(inp, lperm, rperm, eperm):
    edges = inp.edges.copy()
    linv = np.empty_like(lperm); linv[lperm] = np.arange(lperm.size)
    rinv = np.empty_like(rperm); rinv[rperm] = np.arange(rperm.size)
    new_edges = np.stack([linv[edges[:, 0]], rinv[edges[:, 1]]], axis=1)[eperm]
    return DenoiserInput(
        edges=new_edges,
        left_spectral=inp.left_spectral[lperm],
        right_spectral=inp.right_spectral[rperm],
        eigenvalues=inp.eigenvalues,
        left_budgets=inp.left_budgets[lperm],
        left_parent_features=inp.left_parent_features[lperm],
        right_parent_features=inp.right_parent_features[rperm],
        left_state=inp.left_state[lperm],
        right_state=inp.right_state[rperm],
        edge_state=inp.edge_state[eperm],
        left_feature_state=inp.left_feature_state[lperm],
        right_feature_state=inp.right_feature_state[rperm],
        t=inp.t,
        rho_hat=inp.rho_hat,
        total_left=inp.total_left,
    )


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(8)
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    # nonzero head weights so the check exercises the full network
    for name, t in den.store.items():
        if name.startswith("head."):
            den.store.replace_value(name, rng.normal(size=t.data.shape) * 0.1)
    b = _graph()
    inp = _input_for(b, SMALL)
    base = den.predict(inp)
    for _ in range(3):
        lperm = rng.permutation(b.num_left)
        rperm = rng.permutation(b.num_right)
        eperm = rng.permutation(b.num_edges)
        pinp = _permute_input(inp, lperm, rperm, eperm)
        perm = den.predict(pinp)
        # permuted output row i corresponds to original row lperm[i]
        assert np.max(np.abs(perm["left_expansion"] - base["left_expansion"][lperm])) < 1e-9
        assert np.max(np.abs(perm["left_split"] - base["left_split"][lperm])) < 1e-9
        assert np.max(np.abs(perm["right_expansion"] - base["right_expansion"][rperm])) < 1e-9
        assert np.max(np.abs(perm["edge_keep"] - base["edge_keep"][eperm])) < 1e-9


def test_config_round_trip_and_validation():
    cfg = DenoiserConfig(hidden_dim=16, num_layers=1, mlp_hidden=8, spectral_k=2)
    back = DenoiserConfig.from_dict(cfg.to_dict())
    assert back == cfg
    # unknown keys are ignored (checkpoint manifests carry extras)
    extra = dict(cfg.to_dict(), train={"lr": 1.0})
    assert DenoiserConfig.from_dict(extra) == cfg
    with pytest.raises(ValueError):
        DenoiserConfig(hidden_dim=0)


def test_save_and_from_checkpoint(tmp_path):
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph()
    inp = _input_for(b, SMALL)
    base = den.predict(inp)
    path = tmp_path / "d.hfck"
    den.save(path, extra_config={"dataset_kind": "tree"})
    back = Denoiser.from_checkpoint(path)
    assert back.config == SMALL
    assert den.extra_config == {}
    assert back.extra_config == {"dataset_kind": "tree"}
    again = back.predict(inp)
    for k in HEADS:
        assert np.array_equal(base[k], again[k])


# The encoding widths that checkpoints recorded as config keys before they
# became module constants, at the values of those constants.
_RECORDED_WIDTHS = {
    "pe_dim": 32,
    "phi_dim": 16,
    "attr_embed_dim": 16,
    "feat_embed_dim": 32,
    "budget_encoding_dim": 32,
    "budget_base_freq": 1e-4,
    "time_enc_dim": 8,
}


def test_checkpoint_recording_encoding_widths_loads(tmp_path):
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    inp = _input_for(_graph(), SMALL)
    path = tmp_path / "old.hfck"
    ad.save_checkpoint(path, den.store, {**SMALL.to_dict(), **_RECORDED_WIDTHS})
    back = Denoiser.from_checkpoint(path)
    assert back.config == SMALL
    base, again = den.predict(inp), back.predict(inp)
    for k in HEADS:
        assert np.array_equal(base[k], again[k])


def test_checkpoint_with_other_widths_names_the_parameter(tmp_path):
    """A checkpoint saved with phi_dim = 8 fails on the first array whose
    shape the fixed widths do not give."""
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    store = ad.ParameterStore()
    for name, t in den.store.items():
        store.create(name, np.zeros((2, 8)) if name == "signnet.phi.lin1.w" else t.data)
    path = tmp_path / "narrow.hfck"
    ad.save_checkpoint(path, store, {**SMALL.to_dict(), **_RECORDED_WIDTHS, "phi_dim": 8})
    with pytest.raises(ValueError, match=r"'signnet.phi.lin1.w' has shape \(2, 8\), expected \(2, 16\)"):
        Denoiser.from_checkpoint(path)


def test_forward_rejects_nonfinite_head():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    den.store.replace_value("head.edge_keep.b", np.array([np.inf]))
    b = _graph()
    with pytest.raises(FloatingPointError, match="edge_keep"):
        den.predict(_input_for(b, SMALL))


def test_parameter_count_is_stable():
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    b = _graph()
    den.predict(_input_for(b, SMALL))
    n1 = den.store.num_entries()
    den.predict(_input_for(b, SMALL))
    assert den.store.num_entries() == n1
