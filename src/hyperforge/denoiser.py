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
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .hypergraph import BipartiteGraph, _check_fields, _from_record, normalized_laplacian, smallest_nonzero_eigs

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

# The rows every head has one entry per: 0 left nodes, 1 right nodes, 2 edges.
_HEAD_STREAM = {
    "left_expansion": 0,
    "left_split": 0,
    "left_features": 0,
    "right_expansion": 1,
    "right_features": 1,
    "edge_keep": 2,
}


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
        _check_fields(self)
        if self.hidden_dim < 1 or self.num_layers < 1 or self.mlp_hidden < 1:
            raise ValueError("hidden_dim, num_layers and mlp_hidden must be positive")
        if self.spectral_k < 1:
            raise ValueError("spectral_k must be positive")
        if self.node_feature_dim < 0 or self.edge_feature_dim < 0:
            raise ValueError("feature dims must be nonnegative")


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
    """Everything the forward pass needs, at child resolution, for a stack
    of B >= 1 levels at one flow time: a single level is a stack of one.

    The rows of the levels follow one another.  ``blocks`` holds their
    left, right and edge row offsets, each ``B + 1`` long from 0, and edge
    endpoints count the rows of the levels before them.  Spectral rows are
    computed on each parent graph and replicated to its children ahead of
    time; ``eigenvalues`` is ``(B, spectral_k)``, and ``rho_hat`` and
    ``total_left`` have one entry per level.  ``state`` is the flow state
    at time ``t``: one array per head, keyed and ordered as
    ``_HEAD_STREAM``, with one row per row of the head's stream, the same
    dict that priors, interpolation and integration use.  ``level``, when
    set, is the :meth:`Denoiser.encode_level` of the level-constant fields
    and spares the forward pass from recomputing it.

    The forward runs every matmul once per block, so each level's rows of
    the output are bit for bit those of its own forward; :meth:`union`
    stacks inputs and :meth:`split` cuts the output apart.
    """

    edges: np.ndarray
    left_spectral: np.ndarray
    right_spectral: np.ndarray
    eigenvalues: np.ndarray
    left_budgets: np.ndarray
    left_parent_features: np.ndarray
    right_parent_features: np.ndarray
    state: dict[str, np.ndarray]
    t: float
    rho_hat: np.ndarray
    total_left: np.ndarray
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray]
    level: LevelEncoding | None = None

    @property
    def num_left(self) -> int:
        return self.left_spectral.shape[0]

    @property
    def num_right(self) -> int:
        return self.right_spectral.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @classmethod
    def union(cls, inputs: Sequence["DenoiserInput"]) -> "DenoiserInput":
        """The stack of the levels of ``inputs`` at one flow time, in order,
        edges renumbered by the rows before them, with ``level`` unset.

        Raises:
            ValueError: for no input or flow times that differ.
        """
        if len({inp.t for inp in inputs}) != 1:
            raise ValueError("a union needs one flow time for every level")
        counts = [(inp.num_left, inp.num_right, inp.num_edges) for inp in inputs]
        starts = np.cumsum([(0, 0, 0)] + counts, axis=0)
        blocks = tuple(
            np.concatenate([[0]] + [inp.blocks[s][1:] + lo[s] for inp, lo in zip(inputs, starts)])
            for s in range(3)
        )

        def stack(field: str) -> np.ndarray:
            return np.concatenate([getattr(inp, field) for inp in inputs])

        return cls(
            edges=np.concatenate([inp.edges + lo[:2] for inp, lo in zip(inputs, starts)]),
            left_spectral=stack("left_spectral"),
            right_spectral=stack("right_spectral"),
            eigenvalues=stack("eigenvalues"),
            left_budgets=stack("left_budgets"),
            left_parent_features=stack("left_parent_features"),
            right_parent_features=stack("right_parent_features"),
            state={head: np.concatenate([inp.state[head] for inp in inputs]) for head in inputs[0].state},
            t=inputs[0].t,
            rho_hat=stack("rho_hat"),
            total_left=stack("total_left"),
            blocks=blocks,
        )

    def split(self, heads: Mapping[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
        """Per level, the rows of every head array of ``heads``, as views:
        of this input's forward, of its ``state`` or of any dict keyed by
        head names whose arrays have the rows of this input's streams."""
        offsets = [self.blocks[_HEAD_STREAM[name]] for name in heads]
        return [
            {name: arr[o[j]:o[j + 1]] for (name, arr), o in zip(heads.items(), offsets)}
            for j in range(len(self.blocks[0]) - 1)
        ]


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


def _level_rows(values: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Row ``j`` of ``values`` repeated over the rows of level ``j`` of a
    stack with row offsets ``blocks``."""
    return np.repeat(values, np.diff(blocks), axis=0)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    if fan_in == 0:
        return np.zeros((0, fan_out))
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class _Linear:
    def __init__(
        self,
        param,
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
        self.w = param(f"{name}.w", (fan_in, fan_out), init)
        self.b = param(f"{name}.b", (fan_out,), lambda: np.full(fan_out, bias_fill))

    def __call__(self, x: Tensor, blocks: np.ndarray | None = None) -> Tensor:
        return ad.linear(x, self.w, self.b, blocks)


class _MLP:
    def __init__(self, param, name, fan_in, hidden, fan_out, rng):
        self.lin1 = _Linear(param, f"{name}.lin1", fan_in, hidden, rng)
        self.lin2 = _Linear(param, f"{name}.lin2", hidden, fan_out, rng)

    def __call__(self, x: Tensor, blocks: np.ndarray | None = None) -> Tensor:
        return self.lin2(ad.silu(self.lin1(x, blocks)), blocks)


class _LayerNorm:
    def __init__(self, param, name, dim):
        self.g = param(f"{name}.g", (dim,), lambda: np.ones(dim))
        self.b = param(f"{name}.b", (dim,), lambda: np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.g, self.b)


class Denoiser:
    """Endpoint predictor for all flow heads of one expansion step."""

    def __init__(
        self,
        config: DenoiserConfig,
        rng: np.random.Generator | None = None,
        store: ParameterStore | None = None,
    ):
        """A model with fresh parameters, or with those of ``store``, which
        must hold exactly the model's parameters at their shapes."""
        self.config = config
        self.store = store if store is not None else ParameterStore()
        # what a checkpoint recorded next to the network config; empty for a
        # model built in memory
        self.extra_config: dict = {}
        rng = rng if rng is not None else np.random.default_rng(0)
        c = config
        unused = dict(self.store.items())
        missing = []

        def param(name: str, shape: tuple, init_fn) -> Tensor:
            t = unused.pop(name, None)
            if t is None:
                missing.append(name)
                return self.store.create(name, init_fn())
            if t.data.shape != shape:
                raise ValueError(f"checkpoint parameter {name!r} has shape {t.data.shape}, expected {shape}")
            return t

        self.phi = _MLP(param, "signnet.phi", 2, PHI_DIM, PHI_DIM, rng)
        self.rho = _MLP(param, "signnet.rho", c.spectral_k * PHI_DIM, PE_DIM, PE_DIM, rng)

        self.budget_proj = _Linear(param, "cond.budget", BUDGET_ENCODING_DIM, ATTR_EMBED_DIM, rng)
        self.nnodes_proj = _Linear(param, "cond.nnodes", BUDGET_ENCODING_DIM, ATTR_EMBED_DIM, rng)

        self.left_state_embed = _Linear(param, "embed.left_state", 2, ATTR_EMBED_DIM, rng)
        self.right_state_embed = _Linear(param, "embed.right_state", 1, ATTR_EMBED_DIM, rng)
        self.edge_state_embed = _Linear(param, "embed.edge_state", 1, ATTR_EMBED_DIM, rng)
        self.left_feat_embed = _Linear(param, "embed.left_feat", c.node_feature_dim, FEAT_EMBED_DIM, rng)
        self.right_feat_embed = _Linear(param, "embed.right_feat", c.edge_feature_dim, FEAT_EMBED_DIM, rng)
        self.left_film_gain = _Linear(param, "film.left.gain", c.node_feature_dim, FEAT_EMBED_DIM, rng)
        self.left_film_bias = _Linear(param, "film.left.bias", c.node_feature_dim, FEAT_EMBED_DIM, rng)
        self.right_film_gain = _Linear(param, "film.right.gain", c.edge_feature_dim, FEAT_EMBED_DIM, rng)
        self.right_film_bias = _Linear(param, "film.right.bias", c.edge_feature_dim, FEAT_EMBED_DIM, rng)

        left_in = PE_DIM + 2 * ATTR_EMBED_DIM + ATTR_EMBED_DIM + FEAT_EMBED_DIM + TIME_ENC_DIM + 1
        right_in = PE_DIM + ATTR_EMBED_DIM + ATTR_EMBED_DIM + FEAT_EMBED_DIM + TIME_ENC_DIM + 1
        edge_in = 2 * PE_DIM + ATTR_EMBED_DIM + TIME_ENC_DIM + 1
        self.left_in = _Linear(param, "in.left", left_in, c.hidden_dim, rng)
        self.right_in = _Linear(param, "in.right", right_in, c.hidden_dim, rng)
        self.edge_in = _Linear(param, "in.edge", edge_in, c.hidden_dim, rng)
        self.left_in_ln = _LayerNorm(param, "in.left_ln", c.hidden_dim)
        self.right_in_ln = _LayerNorm(param, "in.right_ln", c.hidden_dim)
        self.edge_in_ln = _LayerNorm(param, "in.edge_ln", c.hidden_dim)

        h = c.hidden_dim
        self.layers = []
        for i in range(c.num_layers):
            p = f"layer{i}"
            self.layers.append(
                {
                    "mlp_a": _MLP(param, f"{p}.mlp_a", 3 * h, c.mlp_hidden, h, rng),
                    "mlp_b": _MLP(param, f"{p}.mlp_b", 3 * h, c.mlp_hidden, h, rng),
                    "lin_o": _Linear(param, f"{p}.lin_o", h, h, rng),
                    "ln_e": _LayerNorm(param, f"{p}.ln_e", h),
                    "mlp_left": _MLP(param, f"{p}.mlp_left", 2 * h, c.mlp_hidden, h, rng),
                    "ln_left": _LayerNorm(param, f"{p}.ln_left", h),
                    "mlp_right": _MLP(param, f"{p}.mlp_right", 2 * h, c.mlp_hidden, h, rng),
                    "ln_right": _LayerNorm(param, f"{p}.ln_right", h),
                }
            )

        # Heads start at exactly "change nothing": zero weights with fixed
        # biases, so an untrained model clones no node, keeps every edge,
        # and never inflates the graph while sampling.
        self.head_left_exp = _Linear(param, "head.left_exp", h, 1, rng, bias_fill=-1.0, zero_weights=True)
        self.head_left_split = _Linear(param, "head.left_split", h, 1, rng, zero_weights=True)
        self.head_left_feat = _Linear(param, "head.left_feat", h, c.node_feature_dim, rng, zero_weights=True)
        self.head_right_exp = _Linear(param, "head.right_exp", h, 1, rng, bias_fill=-1.0, zero_weights=True)
        self.head_right_feat = _Linear(param, "head.right_feat", h, c.edge_feature_dim, rng, zero_weights=True)
        self.head_edge_keep = _Linear(param, "head.edge_keep", h, 1, rng, bias_fill=1.0, zero_weights=True)
        if store is not None and (missing or unused):
            raise ValueError(
                "checkpoint parameters differ from the model's: first missing "
                f"{next(iter(missing), None)!r}, first unknown {next(iter(unused), None)!r}"
            )

    def encode_spectral(self, rows: np.ndarray, eigenvalues: np.ndarray, blocks: np.ndarray) -> Tensor:
        """Sign-invariant positional encoding of eigenvector rows.

        Each eigenvector column is paired with its eigenvalue and passed
        through the shared map in both signs; the summed responses are mixed
        across eigenvectors.  Flipping any column's sign leaves the output
        unchanged.  All (row, column) pairs go through the shared map as one
        batch per sign, row-major, so row r's block for column i lands in
        columns ``i * PHI_DIM : (i + 1) * PHI_DIM`` of the input to the mixer.
        ``eigenvalues`` has one row per level of the stack whose row offsets
        are ``blocks`` (see :class:`DenoiserInput`).
        """
        k = self.config.spectral_k
        num_rows = rows.shape[0]
        pairs = np.empty((num_rows, k, 2))
        pairs[:, :, 0] = rows[:, :k]
        pairs[:, :, 1] = _level_rows(eigenvalues[:, :k], blocks)
        pairs = pairs.reshape(num_rows * k, 2)
        flipped = pairs.copy()
        flipped[:, 0] = -flipped[:, 0]
        both = ad.add(self.phi(Tensor(pairs), blocks * k), self.phi(Tensor(flipped), blocks * k))
        return self.rho(ad.reshape(both, (num_rows, k * PHI_DIM)), blocks)

    def encode_level(self, inp: DenoiserInput) -> LevelEncoding:
        """Every forward term that reads only the level-constant fields of
        ``inp``: spectral encodings and their edge gathers, the budget and
        node-count projections, and the FiLM gain and bias of the parent
        features, and the incidence of each edge endpoint column.  Builds
        tape nodes unless called under ``no_grad``."""
        n, m = inp.num_left, inp.num_right
        lb, rb, _ = inp.blocks
        src, dst = inp.edges[:, 0], inp.edges[:, 1]
        left_incidence, right_incidence = ad.incidence(src, n), ad.incidence(dst, m)
        pe_left = self.encode_spectral(inp.left_spectral, inp.eigenvalues, lb)
        pe_right = self.encode_spectral(inp.right_spectral, inp.eigenvalues, rb)
        budget_enc = sinusoidal_encoding(inp.left_budgets, BUDGET_ENCODING_DIM, BUDGET_BASE_FREQ)
        n_enc = sinusoidal_encoding(inp.total_left, BUDGET_ENCODING_DIM, BUDGET_BASE_FREQ)
        left_pf = Tensor(inp.left_parent_features)
        right_pf = Tensor(inp.right_parent_features)
        one = Tensor(1.0)
        return LevelEncoding(
            pe_left=pe_left,
            pe_right=pe_right,
            pe_edge_left=ad.gather_rows(pe_left, src, left_incidence),
            pe_edge_right=ad.gather_rows(pe_right, dst, right_incidence),
            budget=self.budget_proj(Tensor(budget_enc), lb),
            nnodes_left=self.nnodes_proj(Tensor(_level_rows(n_enc, lb)), lb),
            nnodes_right=self.nnodes_proj(Tensor(_level_rows(n_enc, rb)), rb),
            left_film_gain=ad.add(one, self.left_film_gain(left_pf, lb)),
            left_film_bias=self.left_film_bias(left_pf, lb),
            right_film_gain=ad.add(one, self.right_film_gain(right_pf, rb)),
            right_film_bias=self.right_film_bias(right_pf, rb),
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
        lb, rb, eb = inp.blocks
        t_vec = fourier_time_encoding(inp.t, TIME_ENC_DIM)
        rho_hat = inp.rho_hat[:, None]
        state = inp.state

        lf_embed = ad.add(
            ad.mul(self.left_feat_embed(Tensor(state["left_features"]), lb), level.left_film_gain),
            level.left_film_bias,
        )
        rf_embed = ad.add(
            ad.mul(self.right_feat_embed(Tensor(state["right_features"]), rb), level.right_film_gain),
            level.right_film_bias,
        )

        left_parts = [
            level.pe_left,
            level.budget,
            level.nnodes_left,
            self.left_state_embed(Tensor(np.hstack([state["left_expansion"], state["left_split"]])), lb),
            lf_embed,
            Tensor(np.tile(t_vec, (n, 1))),
            Tensor(_level_rows(rho_hat, lb)),
        ]
        right_parts = [
            level.pe_right,
            level.nnodes_right,
            self.right_state_embed(Tensor(state["right_expansion"]), rb),
            rf_embed,
            Tensor(np.tile(t_vec, (m, 1))),
            Tensor(_level_rows(rho_hat, rb)),
        ]
        src = inp.edges[:, 0]
        dst = inp.edges[:, 1]
        edge_parts = [
            level.pe_edge_left,
            level.pe_edge_right,
            self.edge_state_embed(Tensor(state["edge_keep"]), eb),
            Tensor(np.tile(t_vec, (e, 1))),
            Tensor(_level_rows(rho_hat, eb)),
        ]

        h_left = self.left_in_ln(ad.silu(self.left_in(ad.concat(left_parts, axis=1), lb)))
        h_right = self.right_in_ln(ad.silu(self.right_in(ad.concat(right_parts, axis=1), rb)))
        h_edge = self.edge_in_ln(ad.silu(self.edge_in(ad.concat(edge_parts, axis=1), eb)))

        inc_l, inc_r = level.left_incidence, level.right_incidence
        for layer in self.layers:
            x_e = ad.concat([h_edge, ad.gather_rows(h_left, src, inc_l), ad.gather_rows(h_right, dst, inc_r)], axis=1)
            gate = ad.mul(layer["mlp_a"](x_e, eb), layer["mlp_b"](x_e, eb))
            h_edge = layer["ln_e"](ad.add(h_edge, layer["lin_o"](gate, eb)))
            agg_l = ad.segment_sum(h_edge, src, inc_l)
            agg_r = ad.segment_sum(h_edge, dst, inc_r)
            h_left = layer["ln_left"](ad.add(h_left, layer["mlp_left"](ad.concat([h_left, agg_l], axis=1), lb)))
            h_right = layer["ln_right"](ad.add(h_right, layer["mlp_right"](ad.concat([h_right, agg_r], axis=1), rb)))

        out = {
            "left_expansion": self.head_left_exp(h_left, lb),
            "left_split": self.head_left_split(h_left, lb),
            "left_features": self.head_left_feat(h_left, lb),
            "right_expansion": self.head_right_exp(h_right, rb),
            "right_features": self.head_right_feat(h_right, rb),
            "edge_keep": self.head_edge_keep(h_edge, eb),
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
        cfg = asdict(self.config)
        cfg |= {k: v for k, v in (extra_config or {}).items() if k not in cfg}
        ad.save_checkpoint(path, self.store, cfg)

    @classmethod
    def from_checkpoint(cls, path) -> "Denoiser":
        """The model a checkpoint holds: its ``config`` record (a JSON object,
        else ValueError) gives the :class:`DenoiserConfig`, and each other key
        of it goes to ``extra_config``."""
        store, manifest = ad.load_checkpoint(path)
        record = manifest.get("config")
        den = cls(_from_record(DenoiserConfig, record, "config"), rng=np.random.default_rng(0), store=store)
        den.extra_config = {k: v for k, v in record.items() if k not in DenoiserConfig.__dataclass_fields__}
        return den
