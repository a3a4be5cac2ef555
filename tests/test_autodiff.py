import json
import multiprocessing
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import hyperforge.autodiff as ad


def _finite_diff(fn, x, h=1e-6):
    """Central differences of a scalar function of a flat array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        g.flat[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def test_zero_loss_zero_gradient():
    w = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ad.mse_loss(w, np.array([1.0, 2.0]))
    ad.backward(loss)
    assert loss.data == 0.0
    assert np.all(w.grad == 0.0)
    assert ad.mse_loss(w, np.array([3.0, 4.0])).data == pytest.approx(4.0)


def test_backward_is_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def run():
        w = ad.Tensor(np.full((4, 3), 0.1), requires_grad=True)
        out = ad.silu(_matmul(ad.Tensor(x), w))
        loss = ad.mse_loss(out, target)
        ad.backward(loss)
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_add_mul_broadcast_gradients():
    a = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    b = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)  # broadcasts over rows
    out = ad.tensor_sum(a * b + b)
    ad.backward(out)
    assert np.allclose(a.grad, [[2.0, 3.0]] * 3)
    assert np.allclose(b.grad, [6.0, 6.0])


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 2))
    target = rng.normal(size=(4, 2))

    def loss_of(wflat):
        w = wflat.reshape(3, 2)
        return float(np.mean((x @ w - target) ** 2))

    w = ad.Tensor(w0.copy(), requires_grad=True)
    loss = ad.mse_loss(_matmul(ad.Tensor(x), w), target)
    ad.backward(loss)
    fd = _finite_diff(loss_of, w0.ravel()).reshape(3, 2)
    assert np.max(np.abs(w.grad - fd)) < 1e-7


def test_elementwise_op_gradients_vs_fd():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=7)
    w = ad.Tensor(x0.copy(), requires_grad=True)
    loss = ad.tensor_sum(ad.silu(w) * ad.silu(w))
    ad.backward(loss)
    fd = _finite_diff(lambda v: float(np.sum((v / (1 + np.exp(-v))) ** 2)), x0)
    assert np.max(np.abs(w.grad - fd)) < 1e-6


def test_sigmoid_stable_at_extremes():
    """The sigmoid gate of silu neither overflows nor loses its limits."""
    big = ad.Tensor(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
    with np.errstate(over="raise"):
        out = ad.silu(big)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == 0.0 and out.data[2] == 0.0 and out.data[-1] == 1e4


def test_gather_rows_accumulates():
    w = ad.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
    idx = np.array([0, 0, 2])
    out = ad.tensor_sum(ad.gather_rows(w, idx, ad.incidence(idx, 3)))
    ad.backward(out)
    assert w.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]


def test_segment_sum_forward_and_grad():
    x = ad.Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
    seg = np.array([1, 1, 0])
    out = ad.segment_sum(x, seg, ad.incidence(seg, 2))
    assert out.data.tolist() == [[3.0], [3.0]]
    loss = ad.tensor_sum(out * np.array([[2.0], [5.0]]))
    ad.backward(loss)
    assert x.grad.ravel().tolist() == [5.0, 5.0, 2.0]


def _scatter_add_reference(ids, rows, num_segments):
    """Reference scatter-add: ``np.add.at`` into zeros, in index order."""
    out = np.zeros((num_segments,) + rows.shape[1:])
    np.add.at(out, ids, rows)
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda segments: st.tuples(
            st.just(segments),
            st.lists(st.integers(0, segments - 1), max_size=40),
            st.integers(0, 3),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_incidence_products_match_scatter_add(case, seed):
    """Sums through the incidence operator equal a scatter-add bit for bit:
    segment_sum forward and gather_rows backward, on repeated and unsorted
    ids, segments that no id names, and no ids at all."""
    segments, ids, width = case
    ids = np.array(ids, dtype=np.int64)
    rng = np.random.default_rng(seed)
    # wide magnitudes so that any change of summation order shows
    rows = rng.normal(size=(ids.size, width)) * 10.0 ** rng.integers(-8, 9, size=(ids.size, width))
    scatter = ad.incidence(ids, segments)
    assert scatter.shape == (segments, ids.size)

    x = ad.Tensor(rows, requires_grad=True)
    summed = ad.segment_sum(x, ids, scatter)
    assert np.array_equal(summed.data, _scatter_add_reference(ids, rows, segments))
    g = rng.normal(size=summed.shape)
    ad.backward(ad.tensor_sum(summed * g))
    assert np.array_equal(x.grad, g[ids])

    table = ad.Tensor(rng.normal(size=(segments, width)), requires_grad=True)
    gathered = ad.gather_rows(table, ids, scatter)
    assert np.array_equal(gathered.data, table.data[ids])
    ad.backward(ad.tensor_sum(gathered * rows))
    assert np.array_equal(table.grad, _scatter_add_reference(ids, rows, segments))


def test_gather_rows_rejects_mismatched_incidence():
    w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    idx = np.array([0, 2])
    with pytest.raises(ValueError, match="incidence"):
        ad.gather_rows(w, idx, ad.incidence(idx, 4))


def test_concat_and_mean_gradients():
    a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    out = ad.tensor_mean(ad.concat([a, b], axis=1))
    ad.backward(out)
    assert np.allclose(a.grad, 1.0 / 10)
    assert np.allclose(b.grad, 1.0 / 10)


def test_layer_norm_statistics_and_grad():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(4, 6))
    gain = ad.Tensor(np.ones(6), requires_grad=True)
    bias = ad.Tensor(np.zeros(6), requires_grad=True)
    x = ad.Tensor(x0.copy(), requires_grad=True)
    out = ad.layer_norm(x, gain, bias)
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.data.std(axis=1), 1.0, atol=1e-3)

    target = rng.normal(size=(4, 6))
    loss = ad.mse_loss(ad.layer_norm(ad.Tensor(x0.copy(), requires_grad=False), gain, bias), target)
    # fd on the gain vector
    def loss_of(gflat):
        mu = x0.mean(axis=1, keepdims=True)
        var = ((x0 - mu) ** 2).mean(axis=1, keepdims=True)
        norm = (x0 - mu) / np.sqrt(var + 1e-5)
        return float(np.mean((norm * gflat - target) ** 2))

    gain.grad = None
    loss = ad.mse_loss(ad.layer_norm(ad.Tensor(x0), gain, bias), target)
    ad.backward(loss)
    fd = _finite_diff(loss_of, np.ones(6))
    assert np.max(np.abs(gain.grad - fd)) < 1e-6


def _matmul(a, b):
    """Matrix product as its own tape node: the composed linear's product,
    and the plain product the gradient tests differentiate."""
    out = a.data @ b.data
    if not (a.requires_grad or b.requires_grad):
        return ad.Tensor(out)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return ad.Tensor(out, True, (a, b), bwd)


def _composed_power(a, exponent):
    """Elementwise power as its own tape node, for the composed layer norm."""
    out = a.data**exponent
    if not a.requires_grad:
        return ad.Tensor(out)

    def bwd(g):
        a.accumulate_grad(g * exponent * a.data ** (exponent - 1.0))

    return ad.Tensor(out, True, (a,), bwd)


def _composed_layer_norm(x, gain, bias, eps=1e-5):
    """Reference: layer norm built from the elementary tape ops."""
    mu = ad.tensor_mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.tensor_mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = _composed_power(ad.add(var, ad.Tensor(eps)), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def _composed_linear(x, w, b):
    """Reference: affine map built from the elementary tape ops."""
    return ad.add(_matmul(x, w), b)


def _composed_silu(x):
    """Reference: x times its sigmoid, the sigmoid as its own tape node."""
    sig = expit(x.data)
    if not x.requires_grad:
        return ad.mul(x, ad.Tensor(sig))

    def bwd(g):
        x.accumulate_grad(g * sig * (1.0 - sig))

    return ad.mul(x, ad.Tensor(sig, True, (x,), bwd))


FUSED_CASES = [
    # op, reference, input shapes (x, second, third)
    (ad.linear, _composed_linear, [(5, 4), (4, 3), (3,)]),
    (ad.layer_norm, _composed_layer_norm, [(5, 6), (6,), (6,)]),
    (ad.silu, _composed_silu, [(5, 6)]),
]
FUSED_IDS = ["linear", "layer_norm", "silu"]


@pytest.mark.parametrize(
    "fused, composed, shapes, inference",
    [case + (False,) for case in FUSED_CASES] + [case + (True,) for case in FUSED_CASES],
    ids=FUSED_IDS + [f"{name}-no_grad" for name in FUSED_IDS],
)
def test_fused_op_matches_composed_reference(fused, composed, shapes, inference):
    """The fused op computes the composition's output bit for bit, and its
    gradients to rounding.  Under ``no_grad`` (``inference``), where it
    finishes in arrays it allocated itself, it still returns the taped
    output bit for bit, read-only."""
    rng = np.random.default_rng(11)
    values = [rng.normal(size=s) * 2.0 + 0.5 for s in shapes]
    weights = rng.normal(size=fused(*[ad.Tensor(v) for v in values]).shape)

    def grads_of(op):
        inputs = [ad.Tensor(v.copy(), requires_grad=True) for v in values]
        out = op(*inputs)
        ad.backward(ad.tensor_sum(out * weights))
        return out.data, [t.grad for t in inputs]

    out_f, grads_f = grads_of(fused)
    out_c, grads_c = grads_of(composed)
    assert np.array_equal(out_f, out_c)
    for gf, gc in zip(grads_f, grads_c):
        assert np.max(np.abs(gf - gc)) <= 1e-10 * np.max(np.abs(gc))
    if inference:
        with ad.no_grad():
            out = fused(*[ad.Tensor(v, requires_grad=True) for v in values])
        assert not out.requires_grad
        assert np.array_equal(out.data, out_f)
        with pytest.raises(ValueError):
            out.data[...] = 0.0


@pytest.mark.parametrize("fused, shapes", [(op, shapes) for op, _, shapes in FUSED_CASES], ids=FUSED_IDS)
def test_fused_op_gradients_vs_fd(fused, shapes):
    rng = np.random.default_rng(12)
    values = [rng.normal(size=s) for s in shapes]
    target = rng.normal(size=fused(*[ad.Tensor(v) for v in values]).shape)
    for which in range(len(values)):
        inputs = [ad.Tensor(v.copy(), requires_grad=(i == which)) for i, v in enumerate(values)]
        ad.backward(ad.mse_loss(fused(*inputs), target))

        def loss_of(flat):
            args = [ad.Tensor(flat.reshape(v.shape) if i == which else v) for i, v in enumerate(values)]
            return float(np.mean((fused(*args).data - target) ** 2))

        fd = _finite_diff(loss_of, values[which].ravel()).reshape(values[which].shape)
        assert np.max(np.abs(inputs[which].grad - fd)) < 1e-7, which


def test_reshape_round_trips_gradient():
    x = ad.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
    out = ad.reshape(x, (2, 3))
    assert out.data.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    ad.backward(ad.tensor_sum(out * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])))
    assert x.grad.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_no_grad_disables_tape():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.tensor_sum(w * w)
    assert out.requires_grad is False


def test_tensor_data_read_only():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises((ValueError, RuntimeError)):
        w.data[0] = 5.0


def test_tensor_leaves_caller_array_writeable():
    x = np.ones(3)
    ad.Tensor(x)
    assert x.flags.writeable
    x[0] = 5.0


def test_store_create_and_fetch():
    store = ad.ParameterStore()
    w = store.create("w", np.zeros((2, 2)))
    assert "w" in store
    assert store["w"] is w
    assert store.num_entries() == 4
    with pytest.raises(ValueError):
        store.create("w", np.zeros((2, 2)))


def test_adam_zero_gradient_keeps_params():
    store = ad.ParameterStore()
    store.create("w", np.array([1.0, -2.0]))
    store.zero_grad()
    before = store["w"].data.copy()
    store.adam_step(lr=0.1)
    assert np.array_equal(store["w"].data, before)


def test_adam_quadratic_bowl():
    store = ad.ParameterStore()
    rng = np.random.default_rng(4)
    store.create("w", rng.normal(size=8))
    for _ in range(2000):
        store.zero_grad()
        w = store["w"]
        loss = ad.tensor_sum(w * w)
        ad.backward(loss)
        store.adam_step(lr=1e-2)
    assert np.linalg.norm(store["w"].data) < 1e-3


def test_adam_rejects_nonfinite():
    store = ad.ParameterStore()
    store.create("a", np.array([2.0]))
    store.create("w", np.array([1.0]))
    store.zero_grad()
    w = store["w"]
    loss = ad.tensor_sum(store["a"] * 3.0 + w * np.array([np.inf]))
    ad.backward(loss)
    with pytest.raises(FloatingPointError, match="'w'"):
        store.adam_step(lr=0.1)
    assert w.data.tolist() == [1.0]


def test_store_create_copies_input():
    w = np.array([1.0, -2.0])
    store = ad.ParameterStore()
    t = store.create("w", w)
    t.accumulate_grad(np.array([0.5, 0.5]))
    store.adam_step(lr=0.1)
    assert w.tolist() == [1.0, -2.0]
    w[0] = 7.0  # the caller still owns its array
    assert t.data[0] != 7.0


def _reference_adam(params, grads, m, v, k, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Out-of-place Adam with fresh arrays at every operation; the store's
    in-place update must reproduce it bit for bit."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1**k)
        v_hat = v[name] / (1 - b2**k)
        params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)


# "big" alone exceeds one sweep group, so the update spans three groups:
# (w, b, head, s), (big) and (fades, zero)
_REFERENCE_SHAPES = {"w": (3, 4), "b": (4,), "head": (64, 0), "s": (1,), "big": (190, 190), "fades": (2, 3), "zero": (5,)}


def _reference_store(rng):
    """A store of ``_REFERENCE_SHAPES`` with random values, and those values."""
    store = ad.ParameterStore()
    ref = {}
    for name, shape in _REFERENCE_SHAPES.items():
        ref[name] = rng.normal(size=shape)
        store.create(name, ref[name])
    return store, ref


def _set_grads(store, grads):
    store.zero_grad()
    for name, g in grads.items():
        store[name].accumulate_grad(g)


def test_adam_matches_out_of_place_reference():
    rng = np.random.default_rng(9)
    shapes = _REFERENCE_SHAPES
    store, ref = _reference_store(rng)
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    for step in range(1, 7):
        if step == 3:  # a parameter created between updates starts with zero moments
            ref["late"] = rng.normal(size=(2, 2))
            store.create("late", ref["late"])
            m["late"], v["late"] = np.zeros((2, 2)), np.zeros((2, 2))
        store.zero_grad()
        grads = {n: rng.normal(size=p.shape) for n, p in ref.items()}
        grads["zero"] = np.zeros(shapes["zero"])
        if step > 3:  # no gradient at all: only its moments move it
            del grads["fades"]
        for name, g in grads.items():
            store[name].accumulate_grad(g)
        store.adam_step(lr=0.05)
        _reference_adam(ref, grads, m, v, step, lr=0.05)
        for name, p in ref.items():
            data = store[name].data
            assert data.tobytes() == p.tobytes(), (step, name)
            assert not data.flags.writeable
    data = store["w"].data
    store.replace_value("w", np.ones((3, 4)))
    assert store["w"].data is data and data.tolist() == np.ones((3, 4)).tolist()


def _hand_over(store, lr, order):
    """Begin a split update and report the parameters of the sweep groups
    in ``order`` ready, as backward would; the rest go when the block ends."""
    with store.begin_update(lr) as ready:
        for k in order:
            for _, t, _ in store._groups[k][2]:
                ready(t)


def test_split_adam_matches_serial_sweep():
    """The reference store, updated by the serial sweep and by a forked
    helper, has the same parameters and moments bit for bit at every step,
    whichever groups are handed over during backward and in whatever order;
    a parameter created between two split blocks starts with zero moments,
    and none can be created inside one."""
    rng = np.random.default_rng(9)
    serial, values = _reference_store(np.random.default_rng(1))
    split, _ = _reference_store(np.random.default_rng(1))
    for block in range(2):
        with split.split_updates():
            assert len(split._groups) == 3
            assert len(multiprocessing.active_children()) == 1
            with pytest.raises(RuntimeError, match="while the Adam update is split"):
                split.create("inside", np.ones(2))
            for step in range(20):
                grads = {name: rng.normal(size=t.data.shape) for name, t in serial.items()}
                grads["zero"][...] = 0.0
                if block or step:  # no gradient at all: only its moments move it
                    del grads["fades"]
                for store in (serial, split):
                    _set_grads(store, grads)
                if step % 3:  # some groups, in a random order, before adam_step
                    _hand_over(split, 0.05, rng.permutation(3)[: step % 3 + 1])
                for store in (serial, split):
                    store.adam_step(lr=0.05)
                for name, t in serial.items():
                    assert split[name].data.tobytes() == t.data.tobytes(), (block, step, name)
                assert split._adam_m.tobytes() == serial._adam_m.tobytes()
                assert split._adam_v.tobytes() == serial._adam_v.tobytes()
            with serial.begin_update(0.05) as ready:
                assert ready is None  # no helper: adam_step sweeps by itself
            _hand_over(split, 0.05, [])
            with pytest.raises(RuntimeError, match="^the Adam update begun last is not complete$"):
                _hand_over(split, 0.05, [])
            with pytest.raises(ValueError, match="^the update began with lr 0.05, not 0.01$"):
                split.adam_step(lr=0.01)
            for store in (serial, split):  # the update begun still completes
                store.adam_step(lr=0.05)
        assert multiprocessing.active_children() == []
        if block == 0:
            for store in (serial, split):
                store.create("late", values["w"][:2])


@pytest.mark.parametrize(
    "bad, order, named",
    [
        (("s", "zero"), (), "s"),
        (("zero",), (), "zero"),
        (("s", "zero"), (2, 0), "s"),  # the later failure is swept first
        (("zero",), (2,), "zero"),  # big, before zero, is swept after the failure
        (("big",), (2, 0), "big"),  # fades and zero, swept first, are put back
        (("s", "big"), (1,), "s"),  # big, failed, is the first group swept
    ],
    ids=["bad0-s", "bad1-zero", "handed-2-0-s", "handed-2-zero", "handed-2-0-big", "handed-1-s"],
)
def test_split_adam_names_the_first_non_finite_parameter(bad, order, named):
    """A NaN gradient in one or two groups, the groups handed to the helper
    in ``order`` during backward and the rest after it: both paths raise
    naming the first failing parameter in creation order, which keeps its
    value with every later one, and leave the same parameters."""
    rng = np.random.default_rng(3)
    stores = [_reference_store(np.random.default_rng(1))[0] for _ in range(2)]
    names = list(_REFERENCE_SHAPES)
    with stores[1].split_updates():
        for step in range(3):
            grads = {name: rng.normal(size=shape) for name, shape in _REFERENCE_SHAPES.items()}
            if step == 2:
                for name in bad:
                    grads[name].flat[-1] = np.nan
            for store in stores:
                _set_grads(store, grads)
                before = {name: t.data.copy() for name, t in store.items()}
                if step < 2:
                    store.adam_step(lr=0.05)
                    continue
                if store is stores[1]:
                    _hand_over(store, 0.05, order)
                with pytest.raises(FloatingPointError, match=f"^non-finite optimizer update for parameter '{named}'$"):
                    store.adam_step(lr=0.05)
                for name in names[names.index(named) :]:
                    assert store[name].data.tobytes() == before[name].tobytes(), name
    for name in names:
        assert stores[1][name].data.tobytes() == stores[0][name].data.tobytes(), name


def test_checkpoint_round_trip(tmp_path):
    store = ad.ParameterStore()
    rng = np.random.default_rng(5)
    store.create("layer/w", rng.normal(size=(3, 4)))
    store.create("layer/b", rng.normal(size=4))
    store.step_count = 17
    path = tmp_path / "model.hfck"
    ad.save_checkpoint(path, store, {"hidden_dim": 64, "note": "x"})

    with open(path, "rb") as fh:
        assert fh.read(len(ad.CHECKPOINT_MAGIC)) == ad.CHECKPOINT_MAGIC

    loaded, manifest = ad.load_checkpoint(path)
    assert manifest["format_version"] == 1
    assert manifest["config"]["hidden_dim"] == 64
    assert manifest["step_count"] == 17
    assert [name for name, _ in loaded.items()] == [name for name, _ in store.items()]
    for name, t in store.items():
        assert np.array_equal(loaded[name].data, t.data)
        assert loaded[name].data.dtype == np.float64


def test_checkpoint_is_atomic(tmp_path):
    store = ad.ParameterStore()
    store.create("w", np.ones(2))
    path = tmp_path / "a.hfck"
    ad.save_checkpoint(path, store, {})
    ad.save_checkpoint(path, store, {})  # overwrite in place
    leftovers = [p for p in tmp_path.iterdir() if p.name != "a.hfck"]
    assert leftovers == []


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hfck"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        ad.load_checkpoint(path)


@pytest.mark.parametrize("case", ["short_length_field", "header_past_end", "bytes_after_arrays"])
def test_checkpoint_rejects_malformed_framing(tmp_path, case):
    """A checkpoint without arrays, so that only the framing can be wrong."""
    path = tmp_path / "empty.hfck"
    ad.save_checkpoint(path, ad.ParameterStore(), {})
    raw = path.read_bytes()
    magic = ad.CHECKPOINT_MAGIC
    header = raw[len(magic) + 8 :]
    raw = {
        "short_length_field": magic + b"abc",
        "header_past_end": magic + struct.pack("<Q", len(header) + 5) + header,
        "bytes_after_arrays": raw + b"\x00",
    }[case]
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        ad.load_checkpoint(path)


@pytest.mark.parametrize(
    "manifest",
    [
        [],
        {"format_version": ad.CHECKPOINT_VERSION, "arrays": {}},
        {"format_version": ad.CHECKPOINT_VERSION, "arrays": [{"name": "w", "shape": [-1], "dtype": "<f8"}]},
        {"format_version": ad.CHECKPOINT_VERSION, "arrays": [{"name": "w", "shape": [2.5], "dtype": "<f8"}]},
    ],
    ids=["list_header", "arrays_not_a_list", "negative_shape", "float_shape"],
)
def test_checkpoint_rejects_malformed_manifest(tmp_path, manifest):
    header = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "bad.hfck"
    path.write_bytes(ad.CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(ValueError, match="manifest|shape"):
        ad.load_checkpoint(path)
