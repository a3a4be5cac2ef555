"""End-to-end acceptance checks.

Twelve numbered criteria covering reconstruction, conservation laws,
closed-form optima, coupling statistics, gradients, symmetry, training
behaviour, metric oracles, and the sampling cost contract.  Each test prints
one ``criterion NN``: PASS/FAIL line (run pytest with ``-s`` to see the lines
for passing tests too).
"""

import math
import time

import numpy as np
import pytest
import scipy.stats
from scipy.optimize import linear_sum_assignment

import hyperforge.autodiff as ad
from hyperforge.coarsening import (
    CoarseningParams,
    merge_left,
    sample_coarsening_sequence,
)
from hyperforge.datasets import DatasetSpec, gen_sbm, gen_tree, generate_dataset, load_dataset_split
from hyperforge.denoiser import _HEAD_STREAM, Denoiser, DenoiserConfig, DenoiserInput, spectral_rows
from hyperforge.expansion import reconstruct_finer
from hyperforge.flow import ot_couple, simplex_project
from hyperforge.hypergraph import Hypergraph, star_expand
from hyperforge.metrics import (
    degree_multiset,
    spectral_histogram,
    spectral_mmd,
    validity,
    wasserstein_1d,
)
from hyperforge.pipeline import (
    TrainConfig,
    _step_loss_tensor,
    build_training_example,
    prepare_step,
    sample_one,
    train,
)

UNTRAINED = DenoiserConfig(hidden_dim=32, num_layers=2, mlp_hidden=64, spectral_k=8)


def _verdict(num: int, label: str, ok: bool) -> bool:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def corpus():
    """50 tree + 50 SBM graphs with one coarsening sequence each."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    pairs = []
    for _ in range(50):
        h = gen_tree(rng)
        pairs.append((h, sample_coarsening_sequence(h, CoarseningParams(), rng)))
    for _ in range(50):
        h = gen_sbm(rng)
        pairs.append((h, sample_coarsening_sequence(h, CoarseningParams(), rng)))
    return pairs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def untrained_model():
    return Denoiser(UNTRAINED, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def trajectories(untrained_model):
    """100 sampling runs split over N in {8, 16, 33}, with diagnostics."""
    rng = np.random.default_rng(17)
    runs = []
    for i, n in enumerate([8] * 34 + [16] * 33 + [33] * 33):
        h, diag = sample_one(untrained_model, n, rng)
        runs.append((n, h, diag))
    return runs


@pytest.fixture(scope="module")
def toy_tree_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("toytree")
    spec = DatasetSpec(kind="tree", train_count=64, val_count=16, test_count=16,
                       seed=100, num_nodes=16)
    generate_dataset(spec, out)
    return out


# ---------------------------------------------------------------------------
# 1. round-trip reconstruction


def test_criterion_01_round_trip(corpus):
    pairs, build_s = corpus
    t0 = time.perf_counter()
    exact = True
    for h, seq in pairs:
        for i in range(len(seq.levels) - 1, 0, -1):
            level = seq.levels[i]
            rebuilt = reconstruct_finer(level.bipartite, level.expansion, level.refinement)
            fine = seq.levels[i - 1].bipartite
            if not rebuilt.same_topology(fine):
                exact = False
            if not np.array_equal(rebuilt.left_budgets, fine.left_budgets):
                exact = False
            fa, fb = rebuilt.left_features, fine.left_features
            if (fa is None) != (fb is None):
                exact = False
            elif fa is not None and not np.array_equal(fa, fb):
                exact = False
    elapsed = build_s + (time.perf_counter() - t0)
    ok = exact and elapsed < 60.0
    assert _verdict(1, f"round-trip reconstruction ({elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 2. budget conservation


def test_criterion_02_budget_conservation(corpus, trajectories):
    pairs, _ = corpus
    violations = 0
    for h, seq in pairs:
        for level in seq.levels:
            if int(level.bipartite.left_budgets.sum()) != h.num_nodes:
                violations += 1
    for n, _, diag in trajectories:
        for total in diag["budget_sums"]:
            if total != n:
                violations += 1
    ok = violations == 0
    assert _verdict(2, "budget conservation", ok)


# ---------------------------------------------------------------------------
# 3. exact size control


def test_criterion_03_exact_size(trajectories):
    bad = [(n, h.num_nodes) for n, h, _ in trajectories if h.num_nodes != n]
    ok = not bad
    assert _verdict(3, "exact size control", ok)


# ---------------------------------------------------------------------------
# 4. budget-weighted mean vs grid search


def test_criterion_04_weighted_mean_optimal():
    rng = np.random.default_rng(4)
    step = 1e-3
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(2, 7))
        budgets = rng.integers(1, 10, size=s).astype(np.int64)
        feats = rng.uniform(-2.0, 2.0, size=(s, 1))
        from hyperforge.hypergraph import BipartiteGraph

        b = BipartiteGraph(
            num_left=s,
            num_right=1,
            edges=np.stack([np.arange(s), np.zeros(s, dtype=np.int64)], axis=1),
            left_budgets=budgets,
            left_features=feats,
        )
        merged, _ = merge_left(b, [list(range(s))])
        c_star = float(merged.left_features[0, 0])
        grid = np.arange(feats.min(), feats.max() + step, step)
        cost = ((grid[:, None] - feats[:, 0][None, :]) ** 2 * budgets[None, :]).sum(axis=1)
        best_grid = float(cost.min())
        mine = float(((c_star - feats[:, 0]) ** 2 * budgets).sum())
        worst = max(worst, mine - best_grid)
    ok = worst <= 1e-9
    assert _verdict(4, f"budget-weighted mean optimality (worst gap {worst:.2e})", ok)


# ---------------------------------------------------------------------------
# 5. simplex projection vs iterative QP oracle


def _qp_projection_oracle(z: np.ndarray, iterations: int = 100_000) -> np.ndarray:
    """Dykstra's projected iteration for min ||x-z||^2 on the simplex.

    Alternates exact projections onto the sum-one hyperplane and the
    non-negative orthant with correction terms, which converges to the
    metric projection onto their intersection.
    """
    x = z.copy()
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    n = z.shape[1]
    for _ in range(iterations):
        y = x + p
        y = y + (1.0 - y.sum(axis=1, keepdims=True)) / n
        p = (x + p) - y
        x_new = np.maximum(y + q, 0.0)
        q = (y + q) - x_new
        if np.max(np.abs(x_new - x)) < 1e-15:
            x = x_new
            break
        x = x_new
    return x


def test_criterion_05_simplex_projection():
    rng = np.random.default_rng(5)
    max_err = 0.0
    max_sum_err = 0.0
    min_entry = np.inf
    for dim in range(2, 7):
        z = rng.normal(scale=1.5, size=(2000, dim))
        oracle = _qp_projection_oracle(z)
        ours = np.stack([simplex_project(row) for row in z])
        max_err = max(max_err, float(np.max(np.abs(ours - oracle))))
        max_sum_err = max(max_sum_err, float(np.max(np.abs(ours.sum(axis=1) - 1.0))))
        min_entry = min(min_entry, float(ours.min()))
    ok = max_err <= 1e-8 and max_sum_err <= 1e-12 and min_entry >= 0.0
    assert _verdict(5, f"simplex projection (max dev {max_err:.2e})", ok)


# ---------------------------------------------------------------------------
# 6. OT coupling marginals


def test_criterion_06_ot_marginals():
    rng = np.random.default_rng(6)
    groups = [(2 * i, 2 * i + 1) for i in range(10_000)]
    noise = rng.standard_normal((20_000, 1))
    mags = rng.standard_normal((10_000, 1))
    targets = np.empty((20_000, 1))
    targets[0::2] = mags
    targets[1::2] = -mags
    targets_before = targets.copy()
    coupled = ot_couple(noise, targets, groups)
    multiset_ok = np.array_equal(targets, targets_before)
    for a, b in groups:
        pair = sorted([coupled[a, 0], coupled[b, 0]])
        orig = sorted([noise[a, 0], noise[b, 0]])
        if pair != orig:
            multiset_ok = False
            break
    p0 = scipy.stats.kstest(coupled[0::2, 0], "norm").pvalue
    p1 = scipy.stats.kstest(coupled[1::2, 0], "norm").pvalue
    ok = multiset_ok and p0 > 0.01 and p1 > 0.01
    assert _verdict(6, f"OT coupling marginals (KS p = {p0:.2f}, {p1:.2f})", ok)


# ---------------------------------------------------------------------------
# 7. gradient correctness


def _training_loss_setup():
    rng = np.random.default_rng(70)
    h = gen_tree(rng, 12)
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    example = build_training_example(seq, 0, rng, TrainConfig(perturbation=False))
    cfg = DenoiserConfig(hidden_dim=24, num_layers=2, mlp_hidden=32, spectral_k=4)
    den = Denoiser(cfg, rng=np.random.default_rng(71))
    wrng = np.random.default_rng(72)
    for name, tens in den.store.items():
        if name.startswith("head.") and name.endswith(".w"):
            den.store.replace_value(name, wrng.normal(size=tens.data.shape) * 0.2)
    inp, targets = prepare_step(example, np.random.default_rng(73), 4)
    assert inp.num_left == inp.state["left_expansion"].shape[0] == 12
    return den, inp, targets


def test_criterion_07_gradcheck():
    den, inp, targets = _training_loss_setup()
    den.store.zero_grad()
    loss = _step_loss_tensor(den, inp, targets)
    ad.backward(loss)
    grads = {name: t.grad.copy() for name, t in den.store.items() if t.grad is not None}

    entries = [
        (name, i)
        for name, t in den.store.items()
        if t.data.size
        for i in range(t.data.size)
    ]
    rng = np.random.default_rng(74)
    picks = [entries[i] for i in rng.choice(len(entries), size=20, replace=False)]
    h = 1e-4
    worst = 0.0
    for name, idx in picks:
        base = den.store[name].data.copy()
        for sign in (+1, -1):
            mod = base.copy()
            mod.flat[idx] += sign * h
            den.store.replace_value(name, mod)
            val = float(_step_loss_tensor(den, inp, targets).data)
            if sign > 0:
                f_plus = val
            else:
                f_minus = val
        den.store.replace_value(name, base)
        fd = (f_plus - f_minus) / (2 * h)
        g = float(grads[name].flat[idx]) if name in grads else 0.0
        rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
        worst = max(worst, rel)
    ok = worst < 1e-4
    assert _verdict(7, f"gradient check (max rel err {worst:.2e})", ok)


# ---------------------------------------------------------------------------
# 8. permutation equivariance


def _random_bipartite_input(cfg, n=12, seed=80):
    rng = np.random.default_rng(seed)
    edges = [
        sorted(rng.choice(n, size=int(rng.integers(2, 4)), replace=False).tolist())
        for _ in range(n - 2)
    ]
    b = star_expand(Hypergraph(n, edges))
    lrows, rrows, lam = spectral_rows(b, cfg.spectral_k)
    left = rng.normal(size=(b.num_left, 2))  # the expansion and split heads' columns
    inp = DenoiserInput(
        edges=b.edges,
        left_spectral=lrows,
        right_spectral=rrows,
        eigenvalues=lam[None, :],
        left_budgets=b.left_budgets.astype(np.float64),
        left_parent_features=np.zeros((b.num_left, 0)),
        right_parent_features=np.zeros((b.num_right, 0)),
        state={
            "left_expansion": left[:, :1],
            "left_split": left[:, 1:],
            "left_features": np.zeros((b.num_left, 0)),
            "right_expansion": rng.normal(size=(b.num_right, 1)),
            "right_features": np.zeros((b.num_right, 0)),
            "edge_keep": rng.normal(size=(b.num_edges, 1)),
        },
        t=0.4,
        rho_hat=np.array([0.2]),
        total_left=np.array([float(b.num_left)]),
        blocks=tuple(np.array([0, r]) for r in (b.num_left, b.num_right, b.num_edges)),
    )
    return b, inp


def _permute_input(inp, lperm, rperm, eperm):
    edges = inp.edges.copy()
    linv = np.empty_like(lperm)
    linv[lperm] = np.arange(lperm.size)
    rinv = np.empty_like(rperm)
    rinv[rperm] = np.arange(rperm.size)
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


def test_criterion_08_equivariance():
    cfg = DenoiserConfig(hidden_dim=24, num_layers=2, mlp_hidden=32, spectral_k=4)
    den = Denoiser(cfg, rng=np.random.default_rng(81))
    rng = np.random.default_rng(82)
    for name, t in den.store.items():
        if name.startswith("head."):
            den.store.replace_value(name, rng.normal(size=t.data.shape) * 0.1)
    b, inp = _random_bipartite_input(cfg)
    base = den.predict(inp)
    worst = 0.0
    for _ in range(20):
        lperm = rng.permutation(b.num_left)
        rperm = rng.permutation(b.num_right)
        eperm = rng.permutation(b.num_edges)
        out = den.predict(_permute_input(inp, lperm, rperm, eperm))
        for key, rows in out.items():
            ref = base[key]
            if ref.shape[0] == b.num_left:
                expect = ref[lperm]
            elif ref.shape[0] == b.num_right:
                expect = ref[rperm]
            else:
                expect = ref[eperm]
            if rows.size:
                worst = max(worst, float(np.max(np.abs(rows - expect))))
    ok = worst < 1e-9
    assert _verdict(8, f"permutation equivariance (max dev {worst:.2e})", ok)


# ---------------------------------------------------------------------------
# 9. smoke training


@pytest.mark.slow
def test_criterion_09_smoke_training(toy_tree_dataset, tmp_path):
    cfg = TrainConfig(
        data_dir=str(toy_tree_dataset),
        hidden_dim=64,
        num_layers=4,
        mlp_hidden=128,
        spectral_k=8,
        max_steps=500,
        seed=0,
        checkpoint_dir=str(tmp_path / "smoke"),
        checkpoint_every=500,
        val_every=0,
        log_path=str(tmp_path / "smoke_loss.csv"),
    )
    t0 = time.perf_counter()
    summary = train(cfg)
    elapsed = time.perf_counter() - t0
    losses = np.loadtxt(summary["loss_log"], delimiter=",", skiprows=1, usecols=1)
    running = losses[0]
    for x in losses:
        running = 0.98 * running + 0.02 * x
    ok = running < 0.5 * losses[0] and elapsed < 15 * 60
    assert _verdict(
        9, f"smoke training (running loss {running:.2f} vs initial {losses[0]:.2f}, {elapsed:.0f}s)", ok
    )


# ---------------------------------------------------------------------------
# 10. trained-model sanity


@pytest.mark.slow
def test_criterion_10_trained_sampling(toy_tree_dataset, tmp_path):
    cfg = TrainConfig(
        data_dir=str(toy_tree_dataset),
        hidden_dim=64,
        num_layers=4,
        mlp_hidden=128,
        spectral_k=8,
        max_steps=5000,
        seed=0,
        checkpoint_dir=str(tmp_path / "full"),
        checkpoint_every=5000,
        val_every=250,
        val_batches=8,
        log_path=str(tmp_path / "full_loss.csv"),
    )
    t0 = time.perf_counter()
    summary = train(cfg)
    den = Denoiser.from_checkpoint(summary["best_checkpoint"])
    rng = np.random.default_rng(2026)
    samples = [sample_one(den, 16, rng)[0] for _ in range(50)]
    elapsed = time.perf_counter() - t0

    train_set = load_dataset_split(toy_tree_dataset, "train")
    val_set = load_dataset_split(toy_tree_dataset, "val")

    def pooled_degrees(graphs):
        return np.concatenate([degree_multiset(g) for g in graphs])

    valid_frac = float(np.mean([validity("tree", h) for h in samples]))
    w_gen = wasserstein_1d(pooled_degrees(samples), pooled_degrees(train_set))
    w_self = wasserstein_1d(pooled_degrees(train_set), pooled_degrees(val_set))
    ok = valid_frac >= 0.20 and w_gen < 2.0 * w_self and elapsed < 2 * 3600
    assert _verdict(
        10,
        f"trained sampling (valid {valid_frac:.2f}, degree-W1 {w_gen:.3f} vs 2x self {2 * w_self:.3f}, {elapsed:.0f}s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 11. metric oracles


def _w1_assignment_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    size = math.lcm(len(a), len(b))
    ra = np.repeat(a, size // len(a))
    rb = np.repeat(b, size // len(b))
    cost = np.abs(ra[:, None] - rb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _mmd_double_loop_oracle(set_a, set_b):
    ha = [spectral_histogram(h) for h in set_a]
    hb = [spectral_histogram(h) for h in set_b]
    pooled = ha + hb
    dists = []
    for i in range(len(pooled)):
        for j in range(i + 1, len(pooled)):
            dists.append(np.linalg.norm(pooled[i] - pooled[j]))
    sigma = float(np.median(dists)) if dists else 0.0
    if sigma <= 0.0:
        sigma = 1.0

    def k(x, y):
        return math.exp(-float(np.sum((x - y) ** 2)) / (2.0 * sigma * sigma))

    def block(xs, ys):
        total = 0.0
        for x in xs:
            for y in ys:
                total += k(x, y)
        return total / (len(xs) * len(ys))

    return max(block(ha, ha) + block(hb, hb) - 2.0 * block(ha, hb), 0.0)


def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        a = degree_multiset(gen_tree(rng, int(rng.integers(8, 20))))
        b = degree_multiset(gen_sbm(rng))
        worst = max(worst, abs(wasserstein_1d(a, b) - _w1_assignment_oracle(a, b)))
    for _ in range(10):
        set_a = [gen_tree(rng, int(rng.integers(8, 16))) for _ in range(4)]
        set_b = [gen_tree(rng, int(rng.integers(8, 16))) for _ in range(4)]
        worst = max(worst, abs(spectral_mmd(set_a, set_b) - _mmd_double_loop_oracle(set_a, set_b)))
    ok = worst <= 1e-10
    assert _verdict(11, f"metric oracles (max dev {worst:.2e})", ok)


# ---------------------------------------------------------------------------
# 12. sampling cost growth


@pytest.mark.slow
def test_criterion_12_sampling_cost(untrained_model):
    sizes = [32, 64, 128, 256]
    sample_one(untrained_model, 32, np.random.default_rng(120))  # warm-up

    def measure(n):
        best = np.inf
        unit = None
        for rep in range(3):
            rng = np.random.default_rng([121, n, rep])
            t0 = time.perf_counter()
            h, _ = sample_one(untrained_model, n, rng)
            best = min(best, time.perf_counter() - t0)
            unit = h.num_nodes + h.num_hyperedges + sum(len(e) for e in h.hyperedges)
        return best, unit

    times, units = {}, {}
    for n in sizes:
        times[n], units[n] = measure(n)
    ok = True
    detail = []
    for n in sizes[1:]:
        t_ratio = times[n] / times[32]
        u_ratio = units[n] / units[32]
        detail.append(f"N={n}: time x{t_ratio:.1f} vs size x{u_ratio:.1f}")
        if t_ratio > 1.25 * u_ratio:
            ok = False
    assert _verdict(12, "sampling cost growth (" + "; ".join(detail) + ")", ok)
