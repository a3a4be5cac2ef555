import re
from collections import deque

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperforge.hypergraph import (
    DENSE_EIG_CUTOFF,
    ZERO_EIGENVALUE_THRESHOLD,
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
    _dense_nonzero_eigs,
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


@st.composite
def _adversarial_hypergraphs(draw):
    """Hypergraphs whose hyperedges come from a small pool, so they repeat,
    leave nodes isolated and split the nodes into several components; a
    single node may have no hyperedge at all."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=5))
    hyperedges = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
    return Hypergraph(n, [sorted(e) for e in hyperedges])


def _reaches_everything(h: Hypergraph) -> bool:
    """Breadth-first search of the incidence graph from node 0: whether it
    reaches every node and every hyperedge."""
    members = [set() for _ in range(h.num_nodes)]
    for j, e in enumerate(h.hyperedges):
        for i in e:
            members[i].add(j)
    seen_nodes, seen_edges, queue = {0}, set(), deque([0])
    while queue:
        for j in members[queue.popleft()] - seen_edges:
            seen_edges.add(j)
            for i in set(h.hyperedges[j]) - seen_nodes:
                seen_nodes.add(i)
                queue.append(i)
    return len(seen_nodes) == h.num_nodes and len(seen_edges) == h.num_hyperedges


@settings(max_examples=300, deadline=None)
@given(h=_adversarial_hypergraphs())
@example(h=Hypergraph(1, []))
@example(h=Hypergraph(2, []))
@example(h=Hypergraph(5, [(0, 1), (0, 1), (2, 3), (2, 3)]))
@example(h=Hypergraph(4, [(3,), (3,), (0, 3), (1, 2)]))
def test_is_connected_matches_breadth_first_search(h):
    assert is_connected(h) == _reaches_everything(h)


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


def _sparse_level_laplacian(seed: int) -> np.ndarray:
    """The normalized Laplacian of a random level of 550-900 rows: each left
    node not held out has up to three edges to right nodes not held out, and
    the 60-119 held-out nodes of each side stay isolated, so the matrix has
    120 or more zero eigenvalues."""
    rng = np.random.default_rng(seed)
    num_left, num_right = int(rng.integers(340, 520)), int(rng.integers(210, 380))
    active_left = rng.choice(num_left, num_left - int(rng.integers(60, 120)), replace=False)
    active_right = rng.choice(num_right, num_right - int(rng.integers(60, 120)), replace=False)
    edges = np.unique(
        np.stack([np.repeat(active_left, 3), rng.choice(active_right, 3 * active_left.size)], axis=1), axis=0
    )
    return normalized_laplacian(
        BipartiteGraph(num_left, num_right, edges, np.ones(num_left, dtype=np.int64))
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_eigs_above_the_dense_cutoff_match_the_dense_solve(seed, monkeypatch):
    """Shifted Lanczos, with the request doubled past the zero eigenvalues,
    gives the dense eigenvalues and the span of the dense eigenvectors; when
    it does not converge, the dense solve is the answer.  The shift of -1e-6
    gives the factored matrix a condition number near 2e6, so the two agree
    to about eps · 2e6 = 4e-10, not to eps (up to 1.2e-10 on these levels)."""
    L = _sparse_level_laplacian(seed)
    everything = np.linalg.eigvalsh(L)
    nonzero = everything[everything > ZERO_EIGENVALUE_THRESHOLD]
    assert L.shape[0] > DENSE_EIG_CUTOFF and np.sum(everything <= ZERO_EIGENVALUE_THRESHOLD) >= 90
    for k in (2, 8, 16):
        assert nonzero[k] - nonzero[k - 1] > 1e-6  # the span of the first k is well defined
        vals, vecs = smallest_nonzero_eigs(L, k)
        dense_vals, dense_vecs = _dense_nonzero_eigs(L, k)
        assert np.max(np.abs(vals - dense_vals)) < 1e-9
        assert np.max(np.abs(vecs - dense_vecs @ (dense_vecs.T @ vecs))) < 1e-8

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((L.shape[0], 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    vals, vecs = smallest_nonzero_eigs(L, 8)
    dense_vals, dense_vecs = _dense_nonzero_eigs(L, 8)
    assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)


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


@pytest.mark.parametrize(
    "bad, message",
    [
        ("5", "expected a JSON object, got '5'"),
        ('{"n": 3}', "record must carry 'n' and 'edges'"),
        ('{"edges": [[0]]}', "record must carry 'n' and 'edges'"),
        ('{"n": 2, "edges": [[0, 2]]}', "hyperedge (0, 2) out of range for n=2"),
        ('{"n": 2, "edges": 7}', "not iterable"),
        ("{n: 2}", "invalid JSON"),
        ('{"n": 2.7, "edges": [[0, 1]]}', "node count 2.7 is not an integer"),
        ('{"n": "3", "edges": [[0, 1]]}', "node count '3' is not an integer"),
        ('{"n": true, "edges": [[0]]}', "node count True is not an integer"),
        ('{"n": 3, "edges": [[0.9, 1.5]]}', "hyperedge member 0.9 is not an integer"),
        ('{"n": 3, "edges": [[1.9, 0]]}', "hyperedge member 1.9 is not an integer"),
        ('{"n": 3, "edges": [[0, true]]}', "hyperedge member True is not an integer"),
    ],
)
def test_read_graphs_jsonl_names_the_file_and_line_of_a_bad_record(tmp_path, bad, message):
    path = tmp_path / "graphs.jsonl"
    path.write_text('{"n": 1, "edges": []}\n\n' + bad + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: ')}.*{re.escape(message)}"):
        read_graphs_jsonl(path)


def test_hypergraph_takes_numpy_integers_as_ints():
    h = Hypergraph(np.int64(3), [np.array([2, 0], dtype=np.int32)])
    assert (h.num_nodes, h.hyperedges) == (3, ((0, 2),))
    assert type(h.num_nodes) is int and all(type(v) is int for v in h.hyperedges[0])


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((2.7, 1, [[0, 0], [1, 0]]), {}, "left count 2.7 is not an integer"),
        ((2, 1.0, [[0, 0], [1, 0]]), {}, "right count 1.0 is not an integer"),
        ((2, 1, [[0.9, 0.2], [1.5, 0]]), {}, "edge endpoints must be integers"),
        ((2, 1, [[0, 0], [1, 0]]), {"left_budgets": [1.5, 2.7]}, "left budgets must be integers"),
        ((2, 1, [[0, 0], [1, 0]]), {"left_budgets": [True, True]}, "left budgets must be integers"),
        ((2, 1, [[0, 0], [1, 0]]), {"cluster_of_left": [0.0, 1.0]}, "cluster_of_left must be integers"),
    ],
)
def test_bipartite_graph_rejects_non_integers(args, kwargs, message):
    """A float count, endpoint or budget is rejected, not truncated."""
    with pytest.raises(ValueError, match=re.escape(message)):
        BipartiteGraph(*args, **kwargs)


def test_public_constructors_copy_caller_arrays():
    """The caller's arrays stay writeable and its own: a later write to them
    does not reach the stored, read-only copy."""
    edges, budgets, feats = np.array([[0, 0], [2, 0]]), np.array([1, 2, 3]), np.zeros((3, 1))
    g = BipartiteGraph(3, 1, edges, budgets, feats)
    h = Hypergraph(3, [[0, 2]], node_features=feats)
    for arr in (edges, budgets, feats):
        assert arr.flags.writeable
        arr += 1
    assert g.edges.tolist() == [[0, 0], [2, 0]] and g.left_budgets.tolist() == [1, 2, 3]
    assert not g.left_features.any() and not h.node_features.any()
    for stored in (g.edges, g.left_budgets, g.left_features, h.node_features):
        assert not stored.flags.writeable


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


def test_star_expansion_is_read_only_and_kept_on_the_graph():
    h = Hypergraph(4, [[0, 1], [1, 2, 3]], node_features=np.ones((4, 2)))
    b = star_expand(h)
    assert star_expand(h) is b
    assert not any(arr.flags.writeable for arr in (b.edges, b.left_budgets, b.left_features, b.right_features))


def test_featured_graphs_compare_by_value_and_hash_consistently():
    edges = [[0, 1], [1, 2]]
    a = Hypergraph(3, edges, node_features=np.ones((3, 2)))
    b = Hypergraph(3, [[1, 0], [2, 1]], node_features=np.ones((3, 2)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Hypergraph(3, edges, node_features=np.full((3, 2), 2.0))
    assert a != Hypergraph(3, edges, node_features=np.ones((3, 1)))
    assert a != Hypergraph(3, edges) and Hypergraph(3, edges) != a
    assert a != Hypergraph(3, edges, node_features=np.ones((3, 2)), hyperedge_features=np.ones((2, 1)))
    assert a != Hypergraph(3, [[0, 1], [0, 2]], node_features=np.ones((3, 2)))
    assert Hypergraph(3, edges) == Hypergraph(3, edges)
    assert a != "a hypergraph"
    # the kept star expansion takes no part in equality or hashing
    before = hash(a)
    star_expand(a)
    assert a == b and hash(a) == before == hash(b)


def test_array_containers_compare_by_identity():
    b = BipartiteGraph(2, 1, np.array([[0, 0], [1, 0]]))
    same = BipartiteGraph(2, 1, np.array([[0, 0], [1, 0]]))
    assert b == b and b != same
