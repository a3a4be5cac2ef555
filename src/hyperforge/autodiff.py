"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps a read-only array plus a backward closure; calling
:func:`backward` on a scalar walks the tape in reverse topological order.
Everything is plain single-threaded numpy, so identical passes produce
bitwise-identical gradients.  Parameters live in a :class:`ParameterStore`
with named dense arrays, gradient slots, an in-place Adam update, and a flat
little-endian checkpoint format with a JSON manifest.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.special import expit

__all__ = [
    "Tensor",
    "ParameterStore",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "linear",
    "reshape",
    "concat",
    "incidence",
    "gather_rows",
    "segment_sum",
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

# Entries per Adam sweep group: the five arrays of a 32768-entry sweep
# (1.3 MB) stay in a 2 MB L2 cache, which a whole-buffer sweep does not.
_ADAM_SWEEP = 1 << 15
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_LAYER_NORM_EPS = 1e-5


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
    """Array node on the tape.  ``data`` is read-only; in-place edits abort.

    ``data`` is a read-only view of the given array (of a float64 copy if it
    has another dtype): the caller's array keeps its flags, and whoever owns
    it may still write it.  For a parameter that owner is its
    :class:`ParameterStore`: the store writes, tensors read.  A tape must
    therefore not outlive the optimizer step that follows it, because the
    arrays its forward derived from parameters do not follow the update.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64).view()
        arr.setflags(write=False)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` (already of this tensor's shape) to the gradient.

        The first gradient is kept as given, not copied, so it may be shared
        with the caller or with other tensors.  That is safe because nothing
        writes into a gradient in place: no backward closure writes to its
        incoming ``g`` or to an array it has passed on, and later touches
        build a new array with ``grad + g``.
        """
        self.grad = g if self.grad is None else self.grad + g

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
    out_data = x.data @ w.data
    out_data += b.data
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


def silu(a: Tensor) -> Tensor:
    """Smooth gated activation x * sigmoid(x); kink-free for FD checks."""
    sig = expit(a.data)
    if not _needs(a):
        sig *= a.data
        return Tensor(sig)
    out_data = a.data * sig

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


def incidence(index: np.ndarray, num_rows: int) -> csr_array:
    """The ``(num_rows, len(index))`` 0/1 matrix with a one at ``(index[e], e)``.

    Multiplying by it sums the rows ``e`` of an operand into row
    ``index[e]``: the forward of :func:`segment_sum` and the backward of
    :func:`gather_rows`.  Each row lists its columns in increasing order, so
    a product adds the rows in index order, starting from zero, bit for bit
    like a scatter-add loop over ``e``.  Built from a stable argsort, once
    per index array, for every product that follows.
    """
    index = np.asarray(index, dtype=np.int64)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=num_rows), out=indptr[1:])
    order = np.argsort(index, kind="stable")
    return csr_array((np.ones(index.size), order, indptr), shape=(num_rows, index.size))


def gather_rows(a: Tensor, index: np.ndarray, scatter: csr_array) -> Tensor:
    """Rows ``a[index]``; ``scatter`` is :func:`incidence` of ``index`` over
    the rows of ``a``, which sums the gradient back onto them."""
    out_data = a.data[index]
    if not _needs(a):
        return Tensor(out_data)
    if scatter.shape != (a.shape[0], out_data.shape[0]):
        raise ValueError(f"incidence of shape {scatter.shape} does not scatter onto {a.shape[0]} rows")

    def bwd(g):
        a.accumulate_grad(scatter @ g)

    return Tensor(out_data, True, (a,), bwd)


def segment_sum(a: Tensor, segment_ids: np.ndarray, scatter: csr_array) -> Tensor:
    """Row-wise scatter-add: out[s] = sum of rows with segment_ids == s.

    ``scatter`` is :func:`incidence` of ``segment_ids``; its row count is
    the number of segments.
    """
    out_data = scatter @ a.data
    if not _needs(a):
        return Tensor(out_data)

    def bwd(g):
        a.accumulate_grad(g[segment_ids])

    return Tensor(out_data, True, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then re-scale.

    One tape node; the forward takes the float steps of the composition
    ``(x - mean) * (var + eps) ** -0.5 * gain + bias`` in that order.
    """
    scale = 1.0 / x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + _LAYER_NORM_EPS) ** -0.5
    normed = centered * inv
    if not _needs(x, gain, bias):
        normed *= gain.data
        normed += bias.data
        return Tensor(normed)
    out_data = normed * gain.data + bias.data

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


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Differentiable mean squared error over all entries."""
    diff = pred - _wrap(np.asarray(target, dtype=np.float64))
    return tensor_mean(mul(diff, diff))


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

    The store writes, tensors read: :meth:`create` copies its input into a
    private writeable buffer, and the parameter's ``Tensor.data`` is a
    read-only view of that buffer.  :meth:`adam_step` and
    :meth:`replace_value` write the buffer in place, so a tape built before
    an update must not be used after it.  At its first update the store
    packs all buffers into one flat array, which the Adam update then
    sweeps with a handful of whole-array operations per group.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        # the packed parameters and their Adam moments; each sweep group is
        # [start, stop, members], a member (name, tensor, slice in the group)
        self._flat = self._adam_m = self._adam_v = np.empty(0)
        self._groups: list[list] = []
        self._scratch = np.empty((2, 0))
        self.step_count = 0

    def create(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        buf = np.array(value, dtype=np.float64)
        t = Tensor(buf, requires_grad=True)
        self._buffers[name] = buf
        self._params[name] = t
        self._groups = []  # pack again before the next update
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def num_entries(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def replace_value(self, name: str, value: np.ndarray) -> None:
        """Overwrite a parameter's buffer in place; its tensor sees the change."""
        buf = self._buffers[name]
        if value.shape != buf.shape:
            raise ValueError(f"shape mismatch for {name!r}")
        buf[...] = value

    def _pack(self) -> None:
        """Move every buffer into one flat array, in creation order, and cut
        it into sweep groups of whole parameters.

        Parameters created since the last pack are appended, so earlier ones
        keep their offsets and their Adam moments.
        """
        total = self.num_entries()
        flat = np.empty(total)
        start = 0
        for name, buf in self._buffers.items():
            stop = start + buf.size
            flat[start:stop] = buf.ravel()
            buf = flat[start:stop].reshape(buf.shape)
            view = buf.view()
            view.setflags(write=False)
            t = self._params[name]
            self._buffers[name], t.data = buf, view
            if not self._groups or stop - self._groups[-1][0] > _ADAM_SWEEP:
                self._groups.append([start, start, []])
            group = self._groups[-1]
            group[1] = stop
            group[2].append((name, t, slice(start - group[0], stop - group[0])))
            start = stop
        packed = self._adam_m.size
        m, v = np.zeros(total), np.zeros(total)
        m[:packed], v[:packed] = self._adam_m, self._adam_v
        self._flat, self._adam_m, self._adam_v = flat, m, v
        self._scratch = np.empty((2, max((stop - start for start, stop, _ in self._groups), default=0)))

    def adam_step(self, lr: float) -> None:
        """One bias-corrected Adam update of every parameter, in place.

        It writes the buffers that the parameter tensors read, so a tape
        built before this call must not be used after it.  A parameter
        without a gradient counts as having a zero one, so it stays put
        while its moments are zero.  The float operations are those of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``p - lr*m_hat / (sqrt(v_hat) + eps)``, in that order, so the result
        does not depend on how the update is laid out in memory.  The flat
        buffer is swept in groups of whole parameters, of at most
        ``_ADAM_SWEEP`` entries unless one parameter alone is larger.

        Raises:
            FloatingPointError: naming the first parameter whose update is
                not finite; that parameter and every later one keep their
                values.
        """
        if not self._groups:
            self._pack()
        self.step_count += 1
        b1, b2 = _ADAM_BETAS
        bc1, bc2 = 1 - b1**self.step_count, 1 - b2**self.step_count
        with np.errstate(invalid="ignore", over="ignore"):
            for start, stop, members in self._groups:
                g, a = self._scratch[:, : stop - start]
                m, v, p = self._adam_m[start:stop], self._adam_v[start:stop], self._flat[start:stop]
                for _, t, local in members:
                    g[local] = 0.0 if t.grad is None else t.grad.ravel()
                m *= b1
                np.multiply(g, 1 - b1, out=a)
                m += a
                v *= b2
                np.multiply(g, 1 - b2, out=a)
                a *= g
                v += a
                # g is spent: it now holds sqrt(v_hat) + eps, and a the new values
                np.divide(v, bc2, out=g)
                np.sqrt(g, out=g)
                g += _ADAM_EPS
                np.divide(m, bc1, out=a)
                a *= lr
                a /= g
                np.subtract(p, a, out=a)
                if not np.isfinite(a).all():
                    for name, _, local in members:
                        if not np.isfinite(a[local]).all():
                            raise FloatingPointError(f"non-finite optimizer update for parameter {name!r}")
                p[...] = a


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
        ValueError: on bad magic, version, a truncated header or payload, or
            bytes after the last array.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError("not a hyperforge checkpoint (bad magic)")
    off = len(CHECKPOINT_MAGIC)
    if off + 8 > len(raw):
        raise ValueError("checkpoint header truncated")
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if off + hlen > len(raw):
        raise ValueError("checkpoint header truncated")
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
        arr = np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(shape)
        off += nbytes
        store.create(entry["name"], arr)
    if off != len(raw):
        raise ValueError(f"{len(raw) - off} bytes after the last checkpoint array")
    store.step_count = int(manifest.get("step_count", 0))
    return store, manifest
