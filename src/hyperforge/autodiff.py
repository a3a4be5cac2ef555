"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an immutable array plus a backward closure; calling
:func:`backward` on a scalar walks the tape in reverse topological order.
Everything is plain single-threaded numpy, so identical passes produce
bitwise-identical gradients.  Parameters live in a :class:`ParameterStore`
with named dense arrays, gradient slots, an Adam update, and a flat
little-endian checkpoint format with a JSON manifest.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

__all__ = [
    "Tensor",
    "ParameterStore",
    "no_grad",
    "constant",
    "add",
    "mul",
    "matmul",
    "linear",
    "reshape",
    "concat",
    "gather_rows",
    "segment_sum",
    "tanh",
    "sigmoid",
    "silu",
    "tensor_sum",
    "layer_norm",
    "mse_loss",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Array node on the tape.  ``data`` is read-only; in-place edits abort."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        arr.flags.writeable = False
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + g

    # Operator sugar; constants are wrapped on the fly.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _wrap(-1.0)))

    def __rsub__(self, other):
        return add(_wrap(other), mul(self, _wrap(-1.0)))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x)


def _needs(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    if not _needs(a, b):
        return Tensor(out_data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return Tensor(out_data, True, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    if not _needs(a, b):
        return Tensor(out_data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, True, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data
    if not _needs(a, b):
        return Tensor(out_data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return Tensor(out_data, True, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one tape node."""
    out_data = x.data @ w.data + b.data
    if not _needs(x, w, b):
        return Tensor(out_data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return Tensor(out_data, True, (x, w, b), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        a.accumulate_grad(g.reshape(a.shape))

    return Tensor(out_data, True, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        a.accumulate_grad(g * (1.0 - out_data * out_data))

    return Tensor(out_data, True, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out_data = expit(a.data)
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        a.accumulate_grad(g * out_data * (1.0 - out_data))

    return Tensor(out_data, True, (a,), bwd)


def silu(a: Tensor) -> Tensor:
    """Smooth gated activation x * sigmoid(x); kink-free for FD checks."""
    sig = expit(a.data)
    out_data = a.data * sig
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        a.accumulate_grad(g * sig * (1.0 + a.data * (1.0 - sig)))

    return Tensor(out_data, True, (a,), bwd)


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    return Tensor(out_data, True, (a,), bwd)


def tensor_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), _wrap(1.0 / count))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _needs(*tensors):
        return Tensor(out_data)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return Tensor(out_data, True, tuple(tensors), bwd)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    out_data = a.data[index]
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, index, g)
        a.accumulate_grad(acc)

    return Tensor(out_data, True, (a,), bwd)


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Row-wise scatter-add: out[s] = sum of rows with segment_ids == s."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = np.zeros((num_segments,) + a.data.shape[1:])
    np.add.at(out_data, segment_ids, a.data)
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        a.accumulate_grad(g[segment_ids])

    return Tensor(out_data, True, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then re-scale.

    One tape node; the forward takes the float steps of the composition
    ``(x - mean) * (var + eps) ** -0.5 * gain + bias`` in that order.
    """
    scale = 1.0 / x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + eps) ** -0.5
    normed = centered * inv
    out_data = normed * gain.data + bias.data
    if not _needs(x, gain, bias):
        return Tensor(out_data)

    def bwd(g):
        if x.requires_grad:
            gn = g * gain.data
            dot = (gn * normed).sum(axis=-1, keepdims=True) * scale
            x.accumulate_grad(inv * (gn - gn.sum(axis=-1, keepdims=True) * scale - normed * dot))
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    return Tensor(out_data, True, (x, gain, bias), bwd)


def mse_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Differentiable mean squared error over unmasked entries."""
    target_t = _wrap(np.asarray(target, dtype=np.float64))
    diff = pred - target_t
    sq = mul(diff, diff)
    if mask is None:
        return tensor_mean(sq)
    mask = np.asarray(mask, dtype=np.float64)
    count = float(mask.sum())
    if count == 0:
        return _wrap(0.0)
    return mul(tensor_sum(mul(sq, _wrap(mask))), _wrap(1.0 / count))


def backward(t: Tensor) -> None:
    """Reverse accumulation from a scalar output."""
    if t.data.size != 1:
        raise ValueError("backward expects a scalar")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(t, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    t.grad = np.ones_like(t.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class ParameterStore:
    """Named trainable arrays plus Adam state.

    Creation order is preserved; gradients live on the tensors themselves and
    are cleared with :meth:`zero_grad`.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def create(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def num_entries(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def replace_value(self, name: str, value: np.ndarray) -> None:
        t = self._params[name]
        if value.shape != t.data.shape:
            raise ValueError(f"shape mismatch for {name!r}")
        arr = np.asarray(value, dtype=np.float64).copy()
        arr.flags.writeable = False
        t.data = arr

    def adam_step(
        self,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        """One bias-corrected Adam update; parameters without gradients (or
        with all-zero fresh state and zero gradient) stay put."""
        self.step_count += 1
        b1, b2 = betas
        for name, t in self._params.items():
            g = t.grad
            if g is None:
                g = np.zeros_like(t.data)
            m = self._adam_m.get(name)
            v = self._adam_v.get(name)
            if m is None:
                m = np.zeros_like(t.data)
                v = np.zeros_like(t.data)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self._adam_m[name] = m
            self._adam_v[name] = v
            m_hat = m / (1 - b1**self.step_count)
            v_hat = v / (1 - b2**self.step_count)
            with np.errstate(invalid="ignore", over="ignore"):
                new = t.data - lr * m_hat / (np.sqrt(v_hat) + eps)
            if not np.all(np.isfinite(new)):
                raise FloatingPointError(f"non-finite optimizer update for parameter {name!r}")
            self.replace_value(name, new)


CHECKPOINT_MAGIC = b"HFCKPT1\n"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, store: ParameterStore, config: dict) -> None:
    """Write parameters as little-endian float64 blobs behind a JSON manifest."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": config,
        "step_count": store.step_count,
        "arrays": [
            {"name": name, "shape": list(t.data.shape), "dtype": "<f8"}
            for name, t in store.items()
        ],
    }
    header = json.dumps(manifest).encode("utf-8")
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, t in store.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> tuple[ParameterStore, dict]:
    """Read a checkpoint; returns the store and the manifest (with config).

    Raises:
        ValueError: on bad magic, version, or truncated payload.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError("not a hyperforge checkpoint (bad magic)")
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    manifest = json.loads(raw[off : off + hlen].decode("utf-8"))
    off += hlen
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest.get('format_version')}")
    store = ParameterStore()
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if off + nbytes > len(raw):
            raise ValueError("checkpoint payload truncated")
        arr = np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(shape).copy()
        off += nbytes
        store.create(entry["name"], arr)
    store.step_count = int(manifest.get("step_count", 0))
    return store, manifest
