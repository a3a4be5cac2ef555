import numpy as np
import pytest

from hyperforge.hypergraph import (
    BipartiteGraph,
    Hypergraph,
    clique_of_bipartite,
    collapse_bipartite,
    is_connected,
    normalized_laplacian,
    read_graphs_jsonl,
    record_to_hypergraph,
    hypergraph_to_record,
    smallest_nonzero_eigs,
    star_expand,
    write_graphs_jsonl,
)


def _random_hypergraph(rng, n=10, m=6):
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, 5))
        edges.append(sorted(rng.choice(n, size=size, replace=False).tolist()))
    return Hypergraph(n, edges)


def test_clique_triangle():
    h = Hypergraph(3, [[0, 1, 2]])
    c = clique_of_bipartite(star_expand(h))
    assert sorted(map(tuple, c.edges.tolist())) == [(0, 1), (0, 2), (1, 2)]
    assert np.all(c.weights == 1)


def test_clique_weight_counts_shared_hyperedges():
    h = Hypergraph(2, [[0, 1], [0, 1]])
    c = clique_of_bipartite(star_expand(h))
    # oracle: count pairs by direct enumeration
    expected = {}
    for e in h.hyperedges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                key = (min(e[i], e[j]), max(e[i], e[j]))
                expected[key] = expected.get(key, 0) + 1
    got = {tuple(p): w for p, w in zip(c.edges.tolist(), c.weights.tolist())}
    assert got == expected == {(0, 1): 2}


def test_star_expand_shapes():
    h = Hypergraph(4, [[0, 1], [1, 2, 3]])
    b = star_expand(h)
    assert b.num_left == 4 and b.num_right == 2
    assert b.num_edges == 5
    assert np.all(b.left_budgets == 1)


def test_collapse_single_pair():
    b = BipartiteGraph(
        num_left=2,
        num_right=1,
        edges=np.array([[0, 0], [1, 0]]),
        left_budgets=np.ones(2, dtype=np.int64),
    )
    h = collapse_bipartite(b)
    assert h.num_nodes == 2
    assert [tuple(e) for e in h.hyperedges] == [(0, 1)]


def test_collapse_rejects_empty_hyperedge():
    b = BipartiteGraph(
        num_left=2,
        num_right=2,
        edges=np.array([[0, 0], [1, 0]]),
        left_budgets=np.ones(2, dtype=np.int64),
    )
    with pytest.raises(ValueError):
        collapse_bipartite(b)


def test_star_collapse_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(25):
        h = _random_hypergraph(rng)
        back = collapse_bipartite(star_expand(h))
        assert back.num_nodes == h.num_nodes
        assert sorted(map(tuple, back.hyperedges)) == sorted(
            tuple(sorted(e)) for e in h.hyperedges
        )


def test_canonical_edge_order():
    b = BipartiteGraph(
        num_left=2,
        num_right=2,
        edges=np.array([[1, 1], [0, 0], [0, 1], [1, 0]]),
        left_budgets=np.ones(2, dtype=np.int64),
    )
    assert b.edges.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_duplicate_incidence_rejected():
    with pytest.raises(ValueError):
        BipartiteGraph(
            num_left=2,
            num_right=2,
            edges=np.array([[1, 1], [0, 0], [1, 1]]),
            left_budgets=np.ones(2, dtype=np.int64),
        )


@pytest.mark.parametrize("cluster_map", [[0, 0], [1, 1, 2], [0, 0, 2], [0, 1, 0], [0, 1]])
def test_cluster_map_must_label_consecutive_blocks(cluster_map):
    """Sibling pairs and budget splits read blocks off the cluster maps
    without checking them again; the graph rejects any other map."""
    edges = np.array([[0, 0]])
    assert BipartiteGraph(3, 1, edges, cluster_of_left=[0, 0, 1]).cluster_of_left.tolist() == [0, 0, 1]
    with pytest.raises(ValueError, match="cluster_of_left"):
        BipartiteGraph(3, 1, edges, cluster_of_left=cluster_map)


def test_is_connected():
    assert is_connected(Hypergraph(3, [(0, 1), (1, 2)]))
    assert is_connected(Hypergraph(1, []))
    assert not is_connected(Hypergraph(3, [(0, 1)]))
    assert not is_connected(Hypergraph(3, [(0, 1), (2,)]))
    assert not is_connected(Hypergraph(4, [(0, 1), (2, 3)]))


def test_laplacian_single_edge():
    # hand computation: both degrees 1, so D^{-1/2} A D^{-1/2} = A
    b = BipartiteGraph(
        num_left=1,
        num_right=1,
        edges=np.array([[0, 0]]),
        left_budgets=np.ones(1, dtype=np.int64),
    )
    L = normalized_laplacian(b)
    assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_spectrum_range():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = _random_hypergraph(rng, n=10, m=7)
        L = normalized_laplacian(star_expand(h))
        vals = np.linalg.eigvalsh(L)
        assert vals.min() > -1e-10
        assert vals.max() < 2.0 + 1e-10


def test_path3_fiedler_value():
    # P3 as a bipartite graph: nodes 0-1-2 with two connecting edges.
    b = BipartiteGraph(
        num_left=2,
        num_right=1,
        edges=np.array([[0, 0], [1, 0]]),
        left_budgets=np.ones(2, dtype=np.int64),
    )
    L = normalized_laplacian(b)
    vals, _ = smallest_nonzero_eigs(L, 1)
    dense = np.sort(np.linalg.eigvalsh(L))
    assert abs(vals[0] - 1.0) < 1e-10
    assert abs(vals[0] - dense[1]) < 1e-10


def test_disconnected_components_excluded():
    # two disjoint single-edge blocks: two zero eigenvalues to skip
    b = BipartiteGraph(
        num_left=2,
        num_right=2,
        edges=np.array([[0, 0], [1, 1]]),
        left_budgets=np.ones(2, dtype=np.int64),
    )
    L = normalized_laplacian(b)
    vals, _ = smallest_nonzero_eigs(L, 2)
    dense = np.sort(np.linalg.eigvalsh(L))
    assert np.sum(dense < 1e-8) == 2
    assert np.all(vals > 1e-8)
    assert np.allclose(vals, dense[2:4], atol=1e-10)


def test_eigs_zero_padding_when_k_exceeds_spectrum():
    b = BipartiteGraph(
        num_left=1,
        num_right=1,
        edges=np.array([[0, 0]]),
        left_budgets=np.ones(1, dtype=np.int64),
    )
    vals, vecs = smallest_nonzero_eigs(normalized_laplacian(b), 5)
    assert vals.shape == (5,) and vecs.shape == (2, 5)
    assert np.all(vals[1:] == 0.0) and np.all(vecs[:, 1:] == 0.0)


def test_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    graphs = [_random_hypergraph(rng) for _ in range(5)]
    graphs[0] = Hypergraph(
        4,
        [[0, 1], [2, 3]],
        node_features=rng.normal(size=(4, 3)),
        hyperedge_features=rng.normal(size=(2, 2)),
    )
    path = tmp_path / "graphs.jsonl"
    write_graphs_jsonl(path, graphs)
    back = read_graphs_jsonl(path)
    assert len(back) == len(graphs)
    for a, b in zip(graphs, back):
        assert a.num_nodes == b.num_nodes
        assert a.hyperedges == b.hyperedges
        if a.node_features is None:
            assert b.node_features is None
        else:
            assert np.allclose(a.node_features, b.node_features)


def test_jsonl_round_trip_featured_without_hyperedges(tmp_path):
    """A featured graph with no hyperedges, built directly or collapsed from a
    level without right nodes, stores its empty hyperedge features as None
    and survives a JSONL round trip."""
    feats = np.arange(6, dtype=np.float64).reshape(3, 2)
    direct = Hypergraph(3, [], node_features=feats, hyperedge_features=np.zeros((0, 2)))
    collapsed = collapse_bipartite(BipartiteGraph(3, 0, [], left_features=feats, right_features=np.zeros((0, 2))))
    path = tmp_path / "graphs.jsonl"
    write_graphs_jsonl(path, [direct, collapsed])
    for h in read_graphs_jsonl(path):
        assert h.num_nodes == 3 and h.hyperedges == ()
        assert np.array_equal(h.node_features, feats)
        assert h.hyperedge_features is None


def test_record_round_trip_preserves_features():
    h = Hypergraph(
        3,
        [[0, 1, 2]],
        node_features=np.arange(6, dtype=np.float64).reshape(3, 2),
    )
    back = record_to_hypergraph(hypergraph_to_record(h))
    assert np.array_equal(back.node_features, h.node_features)
    assert back.hyperedge_features is None


def test_same_topology_ignores_budgets():
    e = np.array([[0, 0], [1, 0]])
    a = BipartiteGraph(2, 1, e, np.array([1, 1], dtype=np.int64))
    b = BipartiteGraph(2, 1, e.copy(), np.array([2, 3], dtype=np.int64))
    assert a.same_topology(b)
    c = BipartiteGraph(2, 1, np.array([[0, 0]]), np.array([1, 1], dtype=np.int64))
    assert not a.same_topology(c)


def test_degree_helpers():
    h = Hypergraph(4, [[0, 1], [1, 2, 3]])
    b = star_expand(h)
    assert b.left_degrees().tolist() == [1, 2, 1, 1]
    assert b.right_degrees().tolist() == [2, 3]
    members, offsets = b.right_runs()
    assert members.tolist() == [0, 1, 1, 2, 3]
    assert offsets.tolist() == [0, 2, 5]
