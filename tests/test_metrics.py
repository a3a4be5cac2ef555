import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hyperforge.datasets import gen_sbm, gen_tree, load_mesh
from hyperforge.hypergraph import Hypergraph
from hyperforge.metrics import (
    MetricReport,
    chamfer_distance,
    chamfer_nearest,
    degree_multiset,
    edge_size_multiset,
    node_num_diff,
    sample_surface_points,
    spectral_histogram,
    spectral_mmd,
    validity,
    validity_fraction,
    wasserstein_1d,
)

TET_OFF = """OFF
4 4 6
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


def w1_assignment_oracle(a, b):
    """Brute-force W1: replicate both multisets to their lcm length and solve
    the assignment problem on |x - y| costs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    size = math.lcm(len(a), len(b))
    ra = np.repeat(a, size // len(a))
    rb = np.repeat(b, size // len(b))
    cost = np.abs(ra[:, None] - rb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def mmd_double_loop_oracle(set_a, set_b):
    """Brute-force biased squared MMD with explicit loops."""
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


def test_w1_identical_is_zero():
    assert wasserstein_1d([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0


def test_w1_shifted_pair():
    assert wasserstein_1d([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)


def test_w1_sorted_pairing():
    # sorted pairing 0<->1, 2<->1
    assert wasserstein_1d([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)


def test_w1_matches_assignment_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=int(rng.integers(2, 9)))
        b = rng.normal(size=int(rng.integers(2, 9)))
        assert wasserstein_1d(a, b) == pytest.approx(w1_assignment_oracle(a, b), abs=1e-10)


def test_w1_unequal_sizes():
    a = [0.0, 1.0]
    b = [0.0, 0.0, 3.0]
    assert wasserstein_1d(a, b) == pytest.approx(w1_assignment_oracle(a, b), abs=1e-12)


def test_degree_and_size_multisets():
    h = Hypergraph(4, [[0, 1], [1, 2, 3]])
    assert sorted(degree_multiset(h).tolist()) == [1, 1, 1, 2]
    assert sorted(edge_size_multiset(h).tolist()) == [2, 3]
    rng = np.random.default_rng(0)
    graphs = [Hypergraph(3, [])] + [
        Hypergraph(12, [rng.choice(12, int(rng.integers(1, 6)), replace=False) for _ in range(int(rng.integers(1, 9)))])
        for _ in range(20)
    ]
    for h in graphs:  # the double loop degree_multiset once ran
        ref = np.zeros(h.num_nodes, dtype=np.int64)
        for e in h.hyperedges:
            for v in e:
                ref[v] += 1
        got = degree_multiset(h)
        assert got.dtype == np.int64 and np.array_equal(got, ref)


def test_spectral_histogram_normalized():
    h = gen_tree(np.random.default_rng(1))
    hist = spectral_histogram(h)
    assert hist.shape == (64,)
    assert hist.sum() == pytest.approx(1.0)
    assert np.all(hist >= 0.0)


def test_spectral_mmd_identical_sets():
    rng = np.random.default_rng(2)
    graphs = [gen_tree(rng) for _ in range(4)]
    assert spectral_mmd(graphs, list(graphs)) < 1e-12


def test_spectral_mmd_degenerate_bandwidth():
    h = gen_tree(np.random.default_rng(3))
    # all histograms equal: median distance 0 falls back to sigma = 1
    val = spectral_mmd([h, h], [h, h])
    assert val == 0.0


def test_spectral_mmd_matches_double_loop():
    rng = np.random.default_rng(4)
    set_a = [gen_tree(rng) for _ in range(5)]
    set_b = [gen_sbm(rng) for _ in range(5)]
    ours = spectral_mmd(set_a, set_b)
    oracle = mmd_double_loop_oracle(set_a, set_b)
    assert ours == pytest.approx(oracle, abs=1e-10)
    assert ours > 0.0


def test_valid_tree_accepts_generator_output():
    rng = np.random.default_rng(5)
    assert all(validity("tree", gen_tree(rng)) for _ in range(10))


def test_valid_tree_rejects_complete_3_uniform():
    h = Hypergraph(6, [list(e) for e in itertools.combinations(range(6), 3)])
    assert not validity("tree", h)


def test_valid_tree_rejects_disconnected():
    h = Hypergraph(4, [[0, 1], [2, 3]])
    assert not validity("tree", h)


def test_valid_tree_rejects_hyperedge_cycle():
    h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
    assert not validity("tree", h)


def test_valid_tree_single_hyperedge_star():
    assert validity("tree", Hypergraph(4, [[0, 1, 2, 3]]))


def test_valid_sbm_accepts_planted_structure():
    h = gen_sbm(np.random.default_rng(6))
    assert validity("sbm", h)


def test_valid_sbm_rejects_uniform_noise():
    rng = np.random.default_rng(7)
    triples = list(itertools.combinations(range(32), 3))
    mask = rng.random(len(triples)) < 0.01
    h = Hypergraph(32, [list(t) for t, m in zip(triples, mask) if m])
    assert not validity("sbm", h)


def test_valid_ego():
    assert validity("ego", Hypergraph(4, [[0, 1], [0, 2, 3]]))
    assert not validity("ego", Hypergraph(4, [[0, 1], [2, 3]]))


def test_validity_fraction():
    good = Hypergraph(4, [[0, 1], [0, 2, 3]])
    bad = Hypergraph(4, [[0, 1], [2, 3]])
    assert validity_fraction("ego", [good, bad, good, bad]) == pytest.approx(0.5)


def test_validity_unknown_kind():
    with pytest.raises(ValueError):
        validity("nope", Hypergraph(1, [[0]]))


def test_surface_points_on_tetrahedron(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    mesh = load_mesh(path)
    pts = sample_surface_points(mesh, 500, np.random.default_rng(8))
    assert pts.shape == (500, 3)
    verts = mesh.node_features
    # barycentric points stay inside the convex hull bounding box
    assert np.all(pts >= verts.min(axis=0) - 1e-12)
    assert np.all(pts <= verts.max(axis=0) + 1e-12)


def test_chamfer_distance_known_value():
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    # directed means: p->q is 1; q->p averages 1 and 2
    assert chamfer_distance(p, q) == pytest.approx(1.0 + 1.5)


def test_chamfer_self_distance_zero(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    mesh = load_mesh(path)
    assert chamfer_nearest(mesh, [mesh]) == pytest.approx(0.0, abs=1e-12)


def test_chamfer_minimum_at_reference_copy(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    mesh = load_mesh(path)
    shifted = Hypergraph(
        mesh.num_nodes, mesh.hyperedges, node_features=mesh.node_features + 0.5
    )
    d_with_copy = chamfer_nearest(mesh, [shifted, mesh])
    d_without = chamfer_nearest(mesh, [shifted])
    assert d_with_copy == pytest.approx(0.0, abs=1e-12)
    assert d_without > 1e-3


def test_chamfer_monotone_in_translation(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    mesh = load_mesh(path)
    prev = 0.0
    for d in (0.5, 1.0, 2.0, 4.0):
        moved = Hypergraph(
            mesh.num_nodes, mesh.hyperedges, node_features=mesh.node_features + d
        )
        cur = chamfer_nearest(mesh, [moved])
        assert cur > prev
        prev = cur


def test_node_num_diff_exact_zero():
    graphs = [Hypergraph(5, [[0, 1]]) for _ in range(4)]
    assert node_num_diff(graphs, graphs) == 0.0


def test_node_num_diff_one_off_by_three():
    refs = [Hypergraph(10, [[0, 1]]) for _ in range(10)]
    gens = [Hypergraph(10, [[0, 1]]) for _ in range(9)]
    gens.append(Hypergraph(13, [[0, 1]]))
    assert node_num_diff(gens, refs) == pytest.approx(0.3)


def test_node_num_diff_matches_recount():
    rng = np.random.default_rng(9)
    refs = [Hypergraph(int(rng.integers(4, 20)), [[0, 1]]) for _ in range(7)]
    gens = [Hypergraph(int(rng.integers(4, 20)), [[0, 1]]) for _ in range(5)]
    expected = np.mean(
        [abs(g.num_nodes - refs[i % len(refs)].num_nodes) for i, g in enumerate(gens)]
    )
    assert node_num_diff(gens, refs) == pytest.approx(float(expected))


def test_metric_report_serialization():
    rep = MetricReport(
        node_num_diff=0.0,
        degree_wasserstein=0.1,
        edge_size_wasserstein=0.2,
        spectral_mmd=0.01,
        validity_fraction=0.8,
        chamfer_nearest=None,
    )
    d = rep.to_dict()
    assert d["validity_fraction"] == 0.8
    assert "node_num_diff" in rep.to_json()
    with pytest.raises(ValueError):
        MetricReport(
            node_num_diff=0.0,
            degree_wasserstein=0.1,
            edge_size_wasserstein=0.2,
            spectral_mmd=0.01,
            validity_fraction=1.5,
            chamfer_nearest=None,
        )
