import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperforge.autodiff as ad
from hyperforge.denoiser import (
    _HEAD_STREAM,
    PE_DIM,
    Denoiser,
    DenoiserConfig,
    DenoiserInput,
    fourier_time_encoding,
    sinusoidal_encoding,
    spectral_rows,
)
from hyperforge.hypergraph import Hypergraph, _from_record, star_expand

HEADS = ("left_expansion", "left_split", "left_features", "right_expansion", "right_features", "edge_keep")


SMALL = DenoiserConfig(hidden_dim=24, num_layers=2, mlp_hidden=32, spectral_k=4)


def _graph(n=12, seed=0):
    rng = np.random.default_rng(seed)
    edges = [sorted(rng.choice(n, size=int(rng.integers(2, 4)), replace=False).tolist()) for _ in range(n - 2)]
    return star_expand(Hypergraph(n, edges))


def _one_block(*rows):
    """The (left, right, edge) row offsets of a stack of one level."""
    return tuple(np.array([0, r]) for r in rows)


def _state(left, right, edge, left_features, right_features):
    """The flow state of every head, with the two columns of ``left`` as
    the expansion and split heads."""
    return {
        "left_expansion": left[:, :1],
        "left_split": left[:, 1:],
        "left_features": left_features,
        "right_expansion": right,
        "right_features": right_features,
        "edge_keep": edge,
    }


def _input_for(b, cfg, t=0.4, seed=1):
    rng = np.random.default_rng(seed)
    lrows, rrows, lam = spectral_rows(b, cfg.spectral_k)
    return DenoiserInput(
        edges=b.edges,
        left_spectral=lrows,
        right_spectral=rrows,
        eigenvalues=lam[None, :],
        left_budgets=b.left_budgets.astype(np.float64),
        left_parent_features=np.zeros((b.num_left, 0)),
        right_parent_features=np.zeros((b.num_right, 0)),
        state=_state(
            rng.normal(size=(b.num_left, 2)),
            rng.normal(size=(b.num_right, 1)),
            rng.normal(size=(b.num_edges, 1)),
            np.zeros((b.num_left, 0)),
            np.zeros((b.num_right, 0)),
        ),
        t=t,
        rho_hat=np.array([0.2]),
        total_left=np.array([float(b.num_left)]),
        blocks=_one_block(b.num_left, b.num_right, b.num_edges),
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
        base = den.encode_spectral(lrows, lam[None, :], np.array([0, len(lrows)])).data
    rng = np.random.default_rng(1)
    for _ in range(5):
        signs = rng.choice([-1.0, 1.0], size=SMALL.spectral_k)
        with ad.no_grad():
            flipped = den.encode_spectral(lrows * signs, lam[None, :], np.array([0, len(lrows)])).data
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
                ours = den.encode_spectral(rows, lam[None, :], np.array([0, len(rows)])).data
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
        lb, rb = _one_block(b.num_left, b.num_right)
        assert np.array_equal(level.pe_left.data, den.encode_spectral(lrows, lam[None, :], lb).data)
        assert np.array_equal(level.pe_right.data, den.encode_spectral(rrows, lam[None, :], rb).data)


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
    inp.state["left_features"] = rng.normal(size=(b.num_left, 3))
    inp.state["right_features"] = rng.normal(size=(b.num_right, 2))
    return den, inp


def test_backward_reports_each_parameter_once_no_closure_reads_it_again():
    """backward's ``ready`` callback names each parameter on the tape once,
    and no closure reads a parameter after it: overwriting each parameter's
    buffer with NaN the moment it is reported (as a helper process may
    overwrite it with its update) leaves every gradient bit for bit that of
    a plain backward."""
    grads = []
    for poison in (False, True):
        den, inp = _featured_model_and_input()
        names = {id(t): name for name, t in den.store.items()}
        reported = []

        def ready(t):
            reported.append(names[id(t)])
            den.store.replace_value(reported[-1], np.full(t.shape, np.nan))

        out = den.forward(inp)
        loss = None
        for pred in out.values():
            term = ad.mse_loss(pred, np.zeros(pred.shape))
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss, ready if poison else None)
        grads.append({name: t.grad for name, t in den.store.items()})
    reached = {name for name, g in grads[0].items() if g is not None}
    assert len(reported) == len(set(reported)) and set(reported) == reached
    assert reached == set(names.values())  # the featured model uses every parameter
    for name, g in grads[0].items():
        assert grads[1][name].tobytes() == g.tobytes(), name


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
            state = _state(
                rng.normal(size=(inp.num_left, 2)),
                rng.normal(size=inp.state["right_expansion"].shape),
                rng.normal(size=inp.state["edge_keep"].shape),
                rng.normal(size=inp.state["left_features"].shape),
                rng.normal(size=inp.state["right_features"].shape),
            )
            plain = den.predict(replace(inp, t=t, state=state))
            cached = den.predict(replace(inp, t=t, state=state, level=level))
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
    inp.state["left_features"] = np.random.default_rng(0).normal(size=(b.num_left, 3))
    inp.state["right_features"] = np.random.default_rng(1).normal(size=(b.num_right, 2))
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
        state={head: x[(lperm, rperm, eperm)[_HEAD_STREAM[head]]] for head, x in inp.state.items()},
        t=inp.t,
        rho_hat=inp.rho_hat,
        total_left=inp.total_left,
        blocks=inp.blocks,
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
    back = _from_record(DenoiserConfig, dataclasses.asdict(cfg), "config")
    assert back == cfg
    # unknown keys are ignored (checkpoint manifests carry extras)
    extra = dict(dataclasses.asdict(cfg), train={"lr": 1.0})
    assert _from_record(DenoiserConfig, extra, "config") == cfg
    for bad in (dict(hidden_dim=0), dict(num_layers=0), dict(mlp_hidden=0), dict(spectral_k=0)):
        with pytest.raises(ValueError):
            DenoiserConfig(**bad)


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
    ad.save_checkpoint(path, den.store, {**dataclasses.asdict(SMALL), **_RECORDED_WIDTHS})
    back = Denoiser.from_checkpoint(path)
    assert back.config == SMALL
    base, again = den.predict(inp), back.predict(inp)
    for k in HEADS:
        assert np.array_equal(base[k], again[k])


def test_checkpoint_recording_a_float_width_fails_at_load(tmp_path):
    """spectral_k = 4.0 used to load, then fail in the middle of sampling on
    a slice index."""
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    path = tmp_path / "float.hfck"
    ad.save_checkpoint(path, den.store, {**dataclasses.asdict(SMALL), "spectral_k": float(SMALL.spectral_k)})
    with pytest.raises(ValueError, match=r"^spectral_k 4.0 is not an integer$"):
        Denoiser.from_checkpoint(path)


def test_checkpoint_with_other_widths_names_the_parameter(tmp_path):
    """A checkpoint saved with phi_dim = 8 fails on the first array whose
    shape the fixed widths do not give."""
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    store = ad.ParameterStore()
    for name, t in den.store.items():
        store.create(name, np.zeros((2, 8)) if name == "signnet.phi.lin1.w" else t.data)
    path = tmp_path / "narrow.hfck"
    ad.save_checkpoint(path, store, {**dataclasses.asdict(SMALL), **_RECORDED_WIDTHS, "phi_dim": 8})
    with pytest.raises(ValueError, match=r"'signnet.phi.lin1.w' has shape \(2, 8\), expected \(2, 16\)"):
        Denoiser.from_checkpoint(path)


@pytest.mark.parametrize(
    "drop, add, missing, unknown",
    [
        ("head.edge_keep.b", None, "'head.edge_keep.b'", "None"),
        (None, "head.extra.w", "None", "'head.extra.w'"),
        ("in.left.w", "in.lft.w", "'in.left.w'", "'in.lft.w'"),
    ],
)
def test_checkpoint_must_hold_exactly_the_model_parameters(tmp_path, drop, add, missing, unknown):
    """A parameter the checkpoint lacks does not load at its init value, and
    one the model does not have is not kept to be saved again."""
    den = Denoiser(SMALL, rng=np.random.default_rng(0))
    store = ad.ParameterStore()
    for name, t in den.store.items():
        if name != drop:
            store.create(name, t.data)
    if add is not None:
        store.create(add, np.zeros((2, 3)))
    path = tmp_path / "partial.hfck"
    ad.save_checkpoint(path, store, dataclasses.asdict(SMALL))
    with pytest.raises(ValueError, match=re.escape(f"first missing {missing}, first unknown {unknown}") + "$"):
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


def _nonzero_head_model(cfg: DenoiserConfig) -> Denoiser:
    """A model whose heads read the whole network: head weights drawn from
    Normal(0, 0.05) instead of the zeros that make every head output its bias."""
    den = Denoiser(cfg, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for name, t in den.store.items():
        if name.startswith("head.") and name.endswith(".w"):
            den.store.replace_value(name, rng.normal(0.0, 0.05, size=t.data.shape))
    return den


_UNION_MODELS = {False: _nonzero_head_model(SMALL), True: _nonzero_head_model(FEATURED)}


def _random_level(n: int, cfg: DenoiserConfig, t: float, rng: np.random.Generator) -> DenoiserInput:
    """The input of a random level of ``n`` left rows, one-row levels included."""
    edges = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False).tolist())
             for _ in range(int(rng.integers(1, n + 1)))]
    b = star_expand(Hypergraph(n, edges))
    inp = _input_for(b, cfg, t=t, seed=int(rng.integers(2**32)))
    inp.rho_hat = np.array([rng.uniform(0.0, 0.5)])
    inp.total_left = np.array([float(n + rng.integers(0, 20))])
    inp.left_parent_features = rng.normal(size=(b.num_left, cfg.node_feature_dim))
    inp.right_parent_features = rng.normal(size=(b.num_right, cfg.edge_feature_dim))
    inp.state["left_features"] = rng.normal(size=(b.num_left, cfg.node_feature_dim))
    inp.state["right_features"] = rng.normal(size=(b.num_right, cfg.edge_feature_dim))
    return inp


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    featured=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_union_predicts_each_level_bit_for_bit(sizes, featured, seed):
    """One forward over the disjoint union of B levels gives every level,
    head by head, exactly what the level's own forward gives."""
    den = _UNION_MODELS[featured]
    rng = np.random.default_rng(seed)
    t = float(rng.uniform())
    inputs = [_random_level(n, den.config, t, rng) for n in sizes]
    union = DenoiserInput.union(inputs)
    assert union.num_left == sum(inp.num_left for inp in inputs)
    together = union.split(den.predict(union))
    assert len(together) == len(inputs)
    for inp, got in zip(inputs, together):
        alone = den.predict(inp)
        for k in HEADS:
            assert got[k].shape == alone[k].shape and np.array_equal(got[k], alone[k]), (sizes, k)


def _assert_same_input(got: DenoiserInput, want: DenoiserInput) -> None:
    """Every field but ``level``, and every head of ``state``, equal in
    shape, dtype and value."""
    assert list(got.state) == list(want.state)
    arrays = [(f"state[{head!r}]", got.state[head], want.state[head]) for head in want.state]
    arrays += [
        (f.name, getattr(got, f.name), getattr(want, f.name))
        for f in dataclasses.fields(DenoiserInput)
        if f.name not in ("level", "state")
    ]
    for name, x, y in arrays:
        x, y = np.asarray(x), np.asarray(y)
        assert (x.shape, x.dtype) == (y.shape, y.dtype) and np.array_equal(x, y), name


def test_union_of_stacks_stacks_their_levels():
    """A union of unions is the union of all their levels, field for field
    and bit for bit in what it predicts; a union of one input is that input."""
    den = _UNION_MODELS[True]
    rng = np.random.default_rng(0)
    a, b, c = (_random_level(n, den.config, 0.5, rng) for n in (3, 1, 5))
    nested = DenoiserInput.union([DenoiserInput.union([a, b]), c])
    flat = DenoiserInput.union([a, b, c])
    _assert_same_input(nested, flat)
    assert [len(blocks) for blocks in flat.blocks] == [4, 4, 4]
    got, want = den.predict(nested), den.predict(flat)
    for k in HEADS:
        assert np.array_equal(got[k], want[k]), k
    _assert_same_input(DenoiserInput.union([a]), a)


def test_split_of_union_state_is_each_input_state():
    """Cut by the union's blocks, the union's flow state is every input's
    state again, head by head, in order."""
    rng = np.random.default_rng(1)
    inputs = [_random_level(n, FEATURED, 0.5, rng) for n in (4, 1, 6)]
    union = DenoiserInput.union(inputs)
    parts = union.split(union.state)
    assert len(parts) == len(inputs)
    for inp, part in zip(inputs, parts):
        assert list(part) == list(inp.state)
        for head, x in inp.state.items():
            assert part[head].shape == x.shape and np.array_equal(part[head], x), head


def test_union_rejects_mixed_times():
    rng = np.random.default_rng(0)
    a, b = (_random_level(3, SMALL, 0.5, rng) for _ in range(2))
    b.t = 0.25
    with pytest.raises(ValueError, match="one flow time"):
        DenoiserInput.union([a, b])
