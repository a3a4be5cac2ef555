"""Permutation-equivariant denoiser over expanded bipartite graphs.

The network consumes a child-resolution bipartite graph (edges plus per-node
conditioning replicated from the parent level) together with the current flow
state of every head, and predicts clean endpoints for all of them:

* per left node: an expansion score and a budget-split fraction,
* per left and right node: feature vectors,
* per right node: an expansion score,
* per edge: a keep score.

Inputs carry the spectral rows precomputed on the parent graph, so the
forward pass itself is a fixed composition of row-wise maps, gathers, and
segment sums and is therefore equivariant to relabelling either side or the
edge list.  All learnable components live in a :class:`ParameterStore`, so
gradients flow through sign-invariant spectral encoders, FiLM feature
modulation, and the gated edge-message stack.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Mapping

import numpy as np
from scipy.sparse import csr_array

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .hypergraph import BipartiteGraph, normalized_laplacian, smallest_nonzero_eigs

__all__ = [
    "DenoiserConfig",
    "DenoiserInput",
    "LevelEncoding",
    "Denoiser",
    "sinusoidal_encoding",
    "fourier_time_encoding",
    "spectral_rows",
]

# Fixed widths of the encodings and embeddings.
PE_DIM = 32  # spectral positional encoding
PHI_DIM = 16  # the sign-invariant map of one eigenvector entry
ATTR_EMBED_DIM = 16  # budgets, node count and the flow state of the structure heads
FEAT_EMBED_DIM = 32  # feature states under FiLM
BUDGET_ENCODING_DIM = 32  # sinusoidal encoding of budgets and node count
BUDGET_BASE_FREQ = 1e-4
TIME_ENC_DIM = 8  # Fourier encoding of the flow time


@dataclass(frozen=True)
class DenoiserConfig:
    """Architecture hyperparameters.

    ``node_feature_dim`` / ``edge_feature_dim`` are the widths of the left
    and right feature vectors of the data (either may be zero).  The
    encoding widths are the module constants above; older checkpoints that
    record them as config keys still load, and one saved with other widths
    fails on the first parameter whose shape differs.
    """

    hidden_dim: int = 64
    num_layers: int = 4
    mlp_hidden: int = 128
    spectral_k: int = 8
    node_feature_dim: int = 0
    edge_feature_dim: int = 0

    def __post_init__(self):
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ValueError("hidden_dim and num_layers must be positive")
        if self.spectral_k < 1:
            raise ValueError("spectral_k must be positive")
        if self.node_feature_dim < 0 or self.edge_feature_dim < 0:
            raise ValueError("feature dims must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "DenoiserConfig":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class LevelEncoding:
    """Forward terms that depend only on the level, not on the flow state.

    Built by :meth:`Denoiser.encode_level` from the edges, spectral rows,
    budgets, node count and parent features of a :class:`DenoiserInput`;
    those stay fixed while a level is integrated, so a sampler computes
    this once per level instead of once per Euler step.  That includes the
    :func:`~hyperforge.autodiff.incidence` of each edge endpoint column,
    through which every gather and segment sum of the level scatters.
    """

    pe_left: Tensor
    pe_right: Tensor
    pe_edge_left: Tensor
    pe_edge_right: Tensor
    budget: Tensor
    nnodes_left: Tensor
    nnodes_right: Tensor
    left_film_gain: Tensor
    left_film_bias: Tensor
    right_film_gain: Tensor
    right_film_bias: Tensor
    left_incidence: csr_array
    right_incidence: csr_array

    @property
    def rows(self) -> tuple[int, int, int]:
        """Left, right and edge row counts the encoding was built for."""
        return self.pe_left.shape[0], self.pe_right.shape[0], self.pe_edge_left.shape[0]


@dataclass
class DenoiserInput:
    """Everything the forward pass needs, at child resolution.

    Spectral rows are computed on the parent graph and replicated to the
    children ahead of time; ``eigenvalues`` has ``spectral_k`` entries.
    ``level``, when set, is the :meth:`Denoiser.encode_level` of these
    level-constant fields and spares the forward pass from recomputing it.
    """

    edges: np.ndarray
    left_spectral: np.ndarray
    right_spectral: np.ndarray
    eigenvalues: np.ndarray
    left_budgets: np.ndarray
    left_parent_features: np.ndarray
    right_parent_features: np.ndarray
    left_state: np.ndarray
    right_state: np.ndarray
    edge_state: np.ndarray
    left_feature_state: np.ndarray
    right_feature_state: np.ndarray
    t: float
    rho_hat: float
    total_left: float
    level: LevelEncoding | None = None

    @property
    def num_left(self) -> int:
        return self.left_state.shape[0]

    @property
    def num_right(self) -> int:
        return self.right_state.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def sinusoidal_encoding(values: np.ndarray, dim: int, base_freq: float) -> np.ndarray:
    """Interleaved sin/cos features with geometrically spaced frequencies.

    Frequencies run from 1 down to ``base_freq`` across ``dim / 2`` channels,
    so integer magnitudes from single digits up to roughly ``1 / base_freq``
    stay distinguishable.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = base_freq**exponents
    args = values[:, None] * freqs[None, :]
    out = np.empty((values.shape[0], dim))
    out[:, 0::2] = np.sin(args)
    out[:, 1::2] = np.cos(args)
    return out


def fourier_time_encoding(t: float, dim: int) -> np.ndarray:
    """Low-dimensional encoding of a scalar in [0, 1]."""
    half = dim // 2
    freqs = np.pi * (2.0 ** np.arange(half))
    args = t * freqs
    out = np.empty(dim)
    out[0::2] = np.sin(args)
    out[1::2] = np.cos(args)
    return out


def spectral_rows(b: BipartiteGraph, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvector rows of the star-expansion normalized Laplacian.

    Returns (left rows (n, k), right rows (m, k), eigenvalues (k,)), zero
    padded when fewer than ``k`` nonzero eigenpairs exist.
    """
    vals, vecs = smallest_nonzero_eigs(normalized_laplacian(b), k)
    return vecs[: b.num_left], vecs[b.num_left :], vals


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    if fan_in == 0:
        return np.zeros((0, fan_out))
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class _Linear:
    def __init__(
        self,
        store: ParameterStore,
        name: str,
        fan_in: int,
        fan_out: int,
        rng: np.random.Generator,
        bias_fill: float = 0.0,
        zero_weights: bool = False,
    ):
        if zero_weights:
            init = lambda: np.zeros((fan_in, fan_out))
        else:
            init = lambda: _glorot(rng, fan_in, fan_out)
        self.w = _param(store, f"{name}.w", (fan_in, fan_out), init)
        self.b = _param(store, f"{name}.b", (fan_out,), lambda: np.full(fan_out, bias_fill))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class _MLP:
    def __init__(self, store, name, fan_in, hidden, fan_out, rng):
        self.lin1 = _Linear(store, f"{name}.lin1", fan_in, hidden, rng)
        self.lin2 = _Linear(store, f"{name}.lin2", hidden, fan_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(ad.silu(self.lin1(x)))


class _LayerNorm:
    def __init__(self, store, name, dim):
        self.g = _param(store, f"{name}.g", (dim,), lambda: np.ones(dim))
        self.b = _param(store, f"{name}.b", (dim,), lambda: np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.g, self.b)


def _param(store: ParameterStore, name: str, shape: tuple, init_fn) -> Tensor:
    if name in store:
        t = store[name]
        if t.data.shape != shape:
            raise ValueError(f"checkpoint parameter {name!r} has shape {t.data.shape}, expected {shape}")
        return t
    return store.create(name, init_fn())


class Denoiser:
    """Endpoint predictor for all flow heads of one expansion step."""

    def __init__(
        self,
        config: DenoiserConfig,
        rng: np.random.Generator | None = None,
        store: ParameterStore | None = None,
    ):
        self.config = config
        self.store = store if store is not None else ParameterStore()
        # what a checkpoint recorded next to the network config; empty for a
        # model built in memory
        self.extra_config: dict = {}
        rng = rng if rng is not None else np.random.default_rng(0)
        c = config
        s = self.store

        self.phi = _MLP(s, "signnet.phi", 2, PHI_DIM, PHI_DIM, rng)
        self.rho = _MLP(s, "signnet.rho", c.spectral_k * PHI_DIM, PE_DIM, PE_DIM, rng)

        self.budget_proj = _Linear(s, "cond.budget", BUDGET_ENCODING_DIM, ATTR_EMBED_DIM, rng)
        self.nnodes_proj = _Linear(s, "cond.nnodes", BUDGET_ENCODING_DIM, ATTR_EMBED_DIM, rng)

        self.left_state_embed = _Linear(s, "embed.left_state", 2, ATTR_EMBED_DIM, rng)
        self.right_state_embed = _Linear(s, "embed.right_state", 1, ATTR_EMBED_DIM, rng)
        self.edge_state_embed = _Linear(s, "embed.edge_state", 1, ATTR_EMBED_DIM, rng)
        self.left_feat_embed = _Linear(s, "embed.left_feat", c.node_feature_dim, FEAT_EMBED_DIM, rng)
        self.right_feat_embed = _Linear(s, "embed.right_feat", c.edge_feature_dim, FEAT_EMBED_DIM, rng)
        self.left_film_gain = _Linear(s, "film.left.gain", c.node_feature_dim, FEAT_EMBED_DIM, rng)
        self.left_film_bias = _Linear(s, "film.left.bias", c.node_feature_dim, FEAT_EMBED_DIM, rng)
        self.right_film_gain = _Linear(s, "film.right.gain", c.edge_feature_dim, FEAT_EMBED_DIM, rng)
        self.right_film_bias = _Linear(s, "film.right.bias", c.edge_feature_dim, FEAT_EMBED_DIM, rng)

        left_in = PE_DIM + 2 * ATTR_EMBED_DIM + ATTR_EMBED_DIM + FEAT_EMBED_DIM + TIME_ENC_DIM + 1
        right_in = PE_DIM + ATTR_EMBED_DIM + ATTR_EMBED_DIM + FEAT_EMBED_DIM + TIME_ENC_DIM + 1
        edge_in = 2 * PE_DIM + ATTR_EMBED_DIM + TIME_ENC_DIM + 1
        self.left_in = _Linear(s, "in.left", left_in, c.hidden_dim, rng)
        self.right_in = _Linear(s, "in.right", right_in, c.hidden_dim, rng)
        self.edge_in = _Linear(s, "in.edge", edge_in, c.hidden_dim, rng)
        self.left_in_ln = _LayerNorm(s, "in.left_ln", c.hidden_dim)
        self.right_in_ln = _LayerNorm(s, "in.right_ln", c.hidden_dim)
        self.edge_in_ln = _LayerNorm(s, "in.edge_ln", c.hidden_dim)

        h = c.hidden_dim
        self.layers = []
        for i in range(c.num_layers):
            p = f"layer{i}"
            self.layers.append(
                {
                    "mlp_a": _MLP(s, f"{p}.mlp_a", 3 * h, c.mlp_hidden, h, rng),
                    "mlp_b": _MLP(s, f"{p}.mlp_b", 3 * h, c.mlp_hidden, h, rng),
                    "lin_o": _Linear(s, f"{p}.lin_o", h, h, rng),
                    "ln_e": _LayerNorm(s, f"{p}.ln_e", h),
                    "mlp_left": _MLP(s, f"{p}.mlp_left", 2 * h, c.mlp_hidden, h, rng),
                    "ln_left": _LayerNorm(s, f"{p}.ln_left", h),
                    "mlp_right": _MLP(s, f"{p}.mlp_right", 2 * h, c.mlp_hidden, h, rng),
                    "ln_right": _LayerNorm(s, f"{p}.ln_right", h),
                }
            )

        # Heads start at exactly "change nothing": zero weights with fixed
        # biases, so an untrained model clones no node, keeps every edge,
        # and never inflates the graph while sampling.
        self.head_left_exp = _Linear(s, "head.left_exp", h, 1, rng, bias_fill=-1.0, zero_weights=True)
        self.head_left_split = _Linear(s, "head.left_split", h, 1, rng, zero_weights=True)
        self.head_left_feat = _Linear(s, "head.left_feat", h, c.node_feature_dim, rng, zero_weights=True)
        self.head_right_exp = _Linear(s, "head.right_exp", h, 1, rng, bias_fill=-1.0, zero_weights=True)
        self.head_right_feat = _Linear(s, "head.right_feat", h, c.edge_feature_dim, rng, zero_weights=True)
        self.head_edge_keep = _Linear(s, "head.edge_keep", h, 1, rng, bias_fill=1.0, zero_weights=True)

    def encode_spectral(self, rows: np.ndarray, eigenvalues: np.ndarray) -> Tensor:
        """Sign-invariant positional encoding of eigenvector rows.

        Each eigenvector column is paired with its eigenvalue and passed
        through the shared map in both signs; the summed responses are mixed
        across eigenvectors.  Flipping any column's sign leaves the output
        unchanged.  All (row, column) pairs go through the shared map as one
        batch per sign, row-major, so row r's block for column i lands in
        columns ``i * PHI_DIM : (i + 1) * PHI_DIM`` of the input to the mixer.
        """
        k = self.config.spectral_k
        num_rows = rows.shape[0]
        pairs = np.empty((num_rows, k, 2))
        pairs[:, :, 0] = rows[:, :k]
        pairs[:, :, 1] = eigenvalues[:k]
        pairs = pairs.reshape(num_rows * k, 2)
        flipped = pairs.copy()
        flipped[:, 0] = -flipped[:, 0]
        both = ad.add(self.phi(Tensor(pairs)), self.phi(Tensor(flipped)))
        return self.rho(ad.reshape(both, (num_rows, k * PHI_DIM)))

    def encode_level(self, inp: DenoiserInput) -> LevelEncoding:
        """Every forward term that reads only the level-constant fields of
        ``inp``: spectral encodings and their edge gathers, the budget and
        node-count projections, and the FiLM gain and bias of the parent
        features, and the incidence of each edge endpoint column.  Builds
        tape nodes unless called under ``no_grad``."""
        n, m = inp.num_left, inp.num_right
        src, dst = inp.edges[:, 0], inp.edges[:, 1]
        left_incidence, right_incidence = ad.incidence(src, n), ad.incidence(dst, m)
        pe_left = self.encode_spectral(inp.left_spectral, inp.eigenvalues)
        pe_right = self.encode_spectral(inp.right_spectral, inp.eigenvalues)
        budget_enc = sinusoidal_encoding(inp.left_budgets, BUDGET_ENCODING_DIM, BUDGET_BASE_FREQ)
        n_enc = sinusoidal_encoding(np.array([inp.total_left]), BUDGET_ENCODING_DIM, BUDGET_BASE_FREQ)
        left_pf = Tensor(inp.left_parent_features)
        right_pf = Tensor(inp.right_parent_features)
        one = Tensor(1.0)
        return LevelEncoding(
            pe_left=pe_left,
            pe_right=pe_right,
            pe_edge_left=ad.gather_rows(pe_left, src, left_incidence),
            pe_edge_right=ad.gather_rows(pe_right, dst, right_incidence),
            budget=self.budget_proj(Tensor(budget_enc)),
            nnodes_left=self.nnodes_proj(Tensor(np.tile(n_enc, (n, 1)))),
            nnodes_right=self.nnodes_proj(Tensor(np.tile(n_enc, (m, 1)))),
            left_film_gain=ad.add(one, self.left_film_gain(left_pf)),
            left_film_bias=self.left_film_bias(left_pf),
            right_film_gain=ad.add(one, self.right_film_gain(right_pf)),
            right_film_bias=self.right_film_bias(right_pf),
            left_incidence=left_incidence,
            right_incidence=right_incidence,
        )

    def forward(self, inp: DenoiserInput) -> dict[str, Tensor]:
        n, m, e = inp.num_left, inp.num_right, inp.num_edges
        level = inp.level
        if level is None:
            level = self.encode_level(inp)
        elif level.rows != (n, m, e):
            raise ValueError(f"level encoding has {level.rows} (left, right, edge) rows, input has {(n, m, e)}")
        t_vec = fourier_time_encoding(inp.t, TIME_ENC_DIM)

        lf_embed = ad.add(
            ad.mul(self.left_feat_embed(Tensor(inp.left_feature_state)), level.left_film_gain),
            level.left_film_bias,
        )
        rf_embed = ad.add(
            ad.mul(self.right_feat_embed(Tensor(inp.right_feature_state)), level.right_film_gain),
            level.right_film_bias,
        )

        left_parts = [
            level.pe_left,
            level.budget,
            level.nnodes_left,
            self.left_state_embed(Tensor(inp.left_state)),
            lf_embed,
            Tensor(np.tile(t_vec, (n, 1))),
            Tensor(np.full((n, 1), inp.rho_hat)),
        ]
        right_parts = [
            level.pe_right,
            level.nnodes_right,
            self.right_state_embed(Tensor(inp.right_state)),
            rf_embed,
            Tensor(np.tile(t_vec, (m, 1))),
            Tensor(np.full((m, 1), inp.rho_hat)),
        ]
        src = inp.edges[:, 0]
        dst = inp.edges[:, 1]
        edge_parts = [
            level.pe_edge_left,
            level.pe_edge_right,
            self.edge_state_embed(Tensor(inp.edge_state)),
            Tensor(np.tile(t_vec, (e, 1))),
            Tensor(np.full((e, 1), inp.rho_hat)),
        ]

        h_left = self.left_in_ln(ad.silu(self.left_in(ad.concat(left_parts, axis=1))))
        h_right = self.right_in_ln(ad.silu(self.right_in(ad.concat(right_parts, axis=1))))
        h_edge = self.edge_in_ln(ad.silu(self.edge_in(ad.concat(edge_parts, axis=1))))

        inc_l, inc_r = level.left_incidence, level.right_incidence
        for layer in self.layers:
            x_e = ad.concat([h_edge, ad.gather_rows(h_left, src, inc_l), ad.gather_rows(h_right, dst, inc_r)], axis=1)
            gate = ad.mul(layer["mlp_a"](x_e), layer["mlp_b"](x_e))
            h_edge = layer["ln_e"](ad.add(h_edge, layer["lin_o"](gate)))
            agg_l = ad.segment_sum(h_edge, src, inc_l)
            agg_r = ad.segment_sum(h_edge, dst, inc_r)
            h_left = layer["ln_left"](ad.add(h_left, layer["mlp_left"](ad.concat([h_left, agg_l], axis=1))))
            h_right = layer["ln_right"](ad.add(h_right, layer["mlp_right"](ad.concat([h_right, agg_r], axis=1))))

        out = {
            "left_expansion": self.head_left_exp(h_left),
            "left_split": self.head_left_split(h_left),
            "left_features": self.head_left_feat(h_left),
            "right_expansion": self.head_right_exp(h_right),
            "right_features": self.head_right_feat(h_right),
            "edge_keep": self.head_edge_keep(h_edge),
        }
        for key, tensor in out.items():
            if not np.all(np.isfinite(tensor.data)):
                raise FloatingPointError(f"non-finite activations in head {key!r}")
        return out

    def predict(self, inp: DenoiserInput) -> dict[str, np.ndarray]:
        """Forward pass without tape construction; plain arrays out."""
        with ad.no_grad():
            out = self.forward(inp)
        return {k: v.data for k, v in out.items()}

    def save(self, path, extra_config: dict | None = None) -> None:
        cfg = self.config.to_dict()
        if extra_config:
            cfg = {**cfg, **{k: v for k, v in extra_config.items() if k not in cfg}}
        ad.save_checkpoint(path, self.store, cfg)

    @classmethod
    def from_checkpoint(cls, path) -> "Denoiser":
        store, manifest = ad.load_checkpoint(path)
        config = DenoiserConfig.from_dict(manifest["config"])
        den = cls(config, rng=np.random.default_rng(0), store=store)
        known = config.to_dict()
        den.extra_config = {k: v for k, v in manifest["config"].items() if k not in known}
        return den
