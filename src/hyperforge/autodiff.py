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
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.special import expit

__all__ = [
    "Tensor",
    "ParameterStore",
    "no_grad",
    "add",
    "mul",
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

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _wrap(-1.0)))

    def __mul__(self, other):
        return mul(self, _wrap(other))

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


def linear(x: Tensor, w: Tensor, b: Tensor, blocks: np.ndarray | None = None) -> Tensor:
    """Affine map ``x @ w + b`` as one tape node.

    ``blocks``, when given, holds the row offsets ``0 = o_0 <= ... <= o_B``
    of B stacked inputs, and each block ``x[o_j:o_{j+1}]`` gets its own
    matmul into its rows of the output.  OpenBLAS picks its kernel by the
    row count, so one matmul over the stack can differ in the last bits from
    the matmuls of the blocks alone; per block, every row comes out exactly
    as it does when its input runs by itself.
    """
    if blocks is None or len(blocks) <= 2:
        out_data = x.data @ w.data
    else:
        out_data = np.empty((x.shape[0], w.shape[1]))
        for lo, hi in zip(blocks[:-1], blocks[1:]):
            np.matmul(x.data[lo:hi], w.data, out=out_data[lo:hi])
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


def backward(t: Tensor, ready: Callable[[Tensor], None] | None = None) -> None:
    """Reverse accumulation from a scalar output.

    ``ready``, when given, is called once with each leaf on the tape (a
    tensor made with ``requires_grad``, such as a parameter) as soon as its
    gradient is final: right after the closure of its last consumer has
    run, which is the consumer first in topological order.  Closures run in
    reverse topological order, so by then every closure that reads the
    leaf's ``data``, directly or through a view such as :func:`reshape`, has
    run as well, and ``ready`` may let another process overwrite the leaf's
    buffer while backward goes on.
    """
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
    # the leaves that each node's closure is the last consumer of
    final: dict[int, list[Tensor]] = {}
    if ready is not None:
        claimed: set[int] = set()
        for node in topo:
            for p in node._parents:
                if p._backward is None and p.requires_grad and id(p) not in claimed:
                    claimed.add(id(p))
                    final.setdefault(id(node), []).append(p)
        if t._backward is None:
            final[id(t)] = [t]
    t.grad = np.ones_like(t.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        for leaf in final.get(id(node), ()):
            ready(leaf)


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
    sweeps with a handful of whole-array operations per group.  The flat
    parameters and both Adam moments live in anonymous shared memory, so a
    process forked by :meth:`split_updates` updates them where this one
    reads them; while that block is open, a buffer of the gradients is
    shared with it as well.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        # the packed parameters and their Adam moments; each sweep group is
        # [start, stop, members], a member (name, tensor, slice in the group)
        self._flat = self._adam_m = self._adam_v = np.empty(0)
        self._groups: list[list] = []
        self._group_of: dict[int, int] = {}  # the sweep group of each parameter tensor, by id
        self._helper: _AdamHelper | None = None
        # of the update begun and not complete: its coefficients, and per group
        # the members whose gradients are not final yet (0 once handed over)
        self._coefs = (0.0, 0.0, 0.0)
        self._waiting: list[int] | None = None
        self._scratch = np.empty((2, 0))
        self.step_count = 0

    def create(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already exists")
        if self._helper is not None:
            raise RuntimeError("cannot create a parameter while the Adam update is split")
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
        """Move every buffer into one flat array in shared memory, in
        creation order, and cut it into sweep groups of whole parameters.

        Parameters created since the last pack are appended, so earlier ones
        keep their offsets and their Adam moments.
        """
        total = self.num_entries()
        flat, m, v = _shared_zeros(3, total)
        self._group_of = {}
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
            self._group_of[id(t)] = len(self._groups) - 1
            start = stop
        packed = self._adam_m.size
        m[:packed], v[:packed] = self._adam_m, self._adam_v
        self._flat, self._adam_m, self._adam_v = flat, m, v
        self._scratch = np.empty((2, max((stop - start for start, stop, _ in self._groups), default=0)))

    @contextmanager
    def split_updates(self):
        """While open, a forked helper process sweeps every Adam update,
        group by group as the groups are handed to it (see
        :meth:`begin_update`), and :meth:`adam_step` waits for it to finish;
        outside the block :meth:`adam_step` is the serial sweep.

        The helper is started when the block opens and stopped when it
        closes, also on an error; it inherits the packed store at fork.
        The update's floats, and so its result, are those of the serial
        sweep.  Where the OS lets a process choose its CPUs and this one
        may use two or more, the helper runs on one of them and this
        process on the others until the block closes.  An update begun and
        not completed when the block closes leaves the groups already
        handed over updated.
        """
        if not self._groups:
            self._pack()
        self._helper = _AdamHelper(self)
        try:
            yield
        finally:
            helper, self._helper, self._waiting = self._helper, None, None
            helper.close()

    def _next_coefs(self, lr: float) -> tuple[float, float, float]:
        """Count the next update and return its ``lr`` and bias corrections."""
        self.step_count += 1
        b1, b2 = _ADAM_BETAS
        return lr, 1 - b1**self.step_count, 1 - b2**self.step_count

    @contextmanager
    def begin_update(self, lr: float):
        """Begin the next Adam update inside :meth:`split_updates`, for one
        :func:`backward` in the block.

        The block yields that backward's ``ready`` callback: once every
        parameter of a sweep group has its final gradient, it copies the
        group's gradients to the shared buffer and hands the group to the
        helper, which sweeps it while backward goes on.  When the block ends
        without an error, the groups left (parameters the tape did not
        reach) go to the helper as well; :meth:`adam_step` with the same
        ``lr`` then completes the update.  Outside :meth:`split_updates`
        there is no helper: the block yields None, and :meth:`adam_step`
        sweeps by itself.

        Raises:
            RuntimeError: when the last update begun is not complete, or the
                helper died.
        """
        if self._helper is None:
            yield None
            return
        waiting = self._begin(lr)
        group_of = self._group_of

        def ready(t: Tensor) -> None:
            k = group_of.get(id(t))
            if k is not None:
                waiting[k] -= 1
                if not waiting[k]:
                    self._hand_over(k)

        yield ready
        self._hand_over_rest()

    def _begin(self, lr: float) -> list[int]:
        if self._waiting is not None:
            raise RuntimeError("the Adam update begun last is not complete")
        self._coefs = self._next_coefs(lr)
        self._waiting = [len(members) for _, _, members in self._groups]
        return self._waiting

    def _hand_over(self, k: int) -> None:
        start, stop, members = self._groups[k]
        _gather_grads(self._helper.grad[start:stop], members)
        self._helper.send(k, self._coefs)
        self._waiting[k] = 0

    def _hand_over_rest(self) -> None:
        for k, left in enumerate(self._waiting):
            if left > 0:
                self._hand_over(k)

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

        Inside :meth:`split_updates` the helper sweeps every group, each with
        the serial sweep's code, in the order the groups are handed to it:
        during and right after backward by :meth:`begin_update`, and here
        any group not handed over yet (this call begins the update when no
        :meth:`begin_update` did).  This call then waits for the helper.
        The helper writes a group's new values only when they are finite and
        keeps the old ones in the group's part of the shared buffer; once
        all groups are swept, it puts them back in every group after the
        first that failed, so the parameters end as the serial sweep leaves
        them.

        Raises:
            ValueError: when ``lr`` is not the one the update began with.
            FloatingPointError: naming the first parameter whose update is
                not finite; that parameter and every later one keep their
                values.  Inside :meth:`split_updates` the moments of later
                groups that the helper swept before the failing one may have
                advanced all the same.
            RuntimeError: when the helper of :meth:`split_updates` died.
        """
        if not self._groups:
            self._pack()
        helper = self._helper
        if helper is None:
            self._sweep(self._next_coefs(lr))
            return
        if self._waiting is None:
            self._begin(lr)
        elif lr != self._coefs[0]:
            raise ValueError(f"the update began with lr {self._coefs[0]!r}, not {lr!r}")
        self._hand_over_rest()
        self._waiting = None
        failed = helper.wait()
        if failed >= 0:
            start, stop, members = self._groups[failed]
            _check_finite(helper.grad[start:stop], members)

    def _sweep(self, coefs: tuple[float, float, float]) -> None:
        """Update every group in order, each from its tensors' gradients."""
        for start, stop, members in self._groups:
            g, a = self._scratch[:, : stop - start]
            _gather_grads(g, members)
            p = self._flat[start:stop]
            _adam_group(g, a, self._adam_m[start:stop], self._adam_v[start:stop], p, coefs)
            _check_finite(a, members)
            p[...] = a


def _shared_zeros(*shape: int) -> np.ndarray:
    """A float64 array of zeros in anonymous shared memory: a process forked
    after this call writes the same pages that this one reads."""
    import mmap

    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(count, 1) * 8), count=count).reshape(shape)


def _gather_grads(g: np.ndarray, members: list) -> None:
    """Copy a group's gradients into ``g``; a tensor without one has zeros."""
    for _, t, local in members:
        g[local] = 0.0 if t.grad is None else t.grad.ravel()


def _adam_group(
    g: np.ndarray, a: np.ndarray, m: np.ndarray, v: np.ndarray, p: np.ndarray, coefs: tuple[float, float, float]
) -> None:
    """Advance one sweep group's moments ``m`` and ``v`` in place by its
    gradient ``g`` and write its new values, from ``p``, into ``a``.

    ``g`` is spent: it ends holding ``sqrt(v_hat) + eps``.
    """
    lr, bc1, bc2 = coefs
    b1, b2 = _ADAM_BETAS
    with np.errstate(invalid="ignore", over="ignore"):
        m *= b1
        np.multiply(g, 1 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += _ADAM_EPS
        np.divide(m, bc1, out=a)
        a *= lr
        a /= g
        np.subtract(p, a, out=a)


def _check_finite(a: np.ndarray, members: list) -> None:
    """Raise naming the first member of a group whose new values ``a`` are not all finite."""
    if not np.isfinite(a).all():
        for name, _, local in members:
            if not np.isfinite(a[local]).all():
                raise FloatingPointError(f"non-finite optimizer update for parameter {name!r}")


class _AdamHelper:
    """The forked process of :meth:`ParameterStore.split_updates`, and the
    shared buffer ``grad`` of the gradients of the groups handed to it.

    A request is one group's index, ``lr`` and the two bias corrections;
    after one request per group, the reply is the index of the first group
    (in creation order) whose new values are not finite, or -1.  Once a
    group is swept, its part of ``grad`` holds its old values if the new
    ones were written, and the new ones if they were not finite.  A group
    that follows the first failing one in creation order is not swept if it
    is handed over after the failure, and is put back if it was swept
    before it.

    The helper and this process run on disjoint CPUs (see
    :meth:`ParameterStore.split_updates`): woken through the pipe, an
    unpinned helper was put on its waker's busy CPU at every update, so the
    two ran one after the other.
    """

    def __init__(self, store: ParameterStore):
        import multiprocessing  # imported here: only a split update forks

        self._store = store
        self.grad = _shared_zeros(store._flat.size)
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        self._cpus = cpus if len(cpus) > 1 else None
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(target=self._serve, args=(child_end,), name="adam-helper", daemon=True)
        try:
            self._process.start()
        finally:
            child_end.close()
        if self._cpus:
            os.sched_setaffinity(0, self._cpus - {max(self._cpus)})

    def _serve(self, conn) -> None:
        """The helper's loop; it leaves through ``os._exit``, so it flushes
        none of the files it inherited, when this process closes the pipe."""
        code = 1
        try:
            self._conn.close()  # so that the pipe ends when this process closes its end
            if self._cpus:
                os.sched_setaffinity(0, {max(self._cpus)})
            store, grad = self._store, self.grad
            groups, flat = store._groups, store._flat
            scratch = np.empty_like(store._scratch[0])
            while True:
                failed, written = len(groups), []
                for _ in groups:
                    k, *coefs = struct.unpack("<q3d", conn.recv_bytes())
                    if k > failed:  # the serial sweep stops at the first failure
                        continue
                    start, stop, _ = groups[k]
                    g, a, p = grad[start:stop], scratch[: stop - start], flat[start:stop]
                    _adam_group(g, a, store._adam_m[start:stop], store._adam_v[start:stop], p, coefs)
                    if np.isfinite(a).all():
                        g[...] = p
                        p[...] = a
                        written.append(k)
                    else:
                        g[...] = a
                        failed = k
                for k in written:
                    if k > failed:
                        start, stop, _ = groups[k]
                        flat[start:stop] = grad[start:stop]
                conn.send_bytes(struct.pack("<q", failed if failed < len(groups) else -1))
        except EOFError:
            code = 0
        finally:
            os._exit(code)

    def send(self, k: int, coefs: tuple[float, float, float]) -> None:
        try:
            self._conn.send_bytes(struct.pack("<q3d", k, *coefs))
        except OSError:
            self._died()

    def wait(self) -> int:
        """The helper's reply once it has swept every group."""
        try:
            (failed,) = struct.unpack("<q", self._conn.recv_bytes())
        except (EOFError, OSError):
            self._died()
        return failed

    def _died(self):
        self._process.join(1.0)
        raise RuntimeError(f"the optimizer helper process died (exit code {self._process.exitcode})") from None

    def close(self) -> None:
        """Stop the helper: it leaves when the pipe ends, or is killed."""
        self._conn.close()
        self._process.join(5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._process.close()
        if self._cpus:
            os.sched_setaffinity(0, self._cpus)


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
        ValueError: on bad magic, version, a malformed manifest, a truncated
            header or payload, or bytes after the last array.
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
    if not isinstance(manifest, dict):
        raise ValueError("checkpoint manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest.get('format_version')}")
    entries = manifest.get("arrays")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("checkpoint manifest needs a list of array entries")
    store = ParameterStore()
    for entry in entries:
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
        ):
            raise ValueError(f"checkpoint array {entry.get('name')!r} has shape {shape!r}, not a list of sizes >= 0")
        shape = tuple(shape)
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
