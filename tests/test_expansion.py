import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperforge.expansion import (
    ExpansionVectors,
    RefinementDecision,
    expand,
    perturb_expand,
    refine,
    split_budget,
)
from hyperforge.hypergraph import BipartiteGraph, Hypergraph, star_expand


def _chain_graph(n_left=3, budgets=None):
    """Left nodes 0..n-1 each incident to right nodes i and i+1 (a path)."""
    edges = []
    for i in range(n_left):
        edges.append([i, i])
        edges.append([i, i + 1])
    b = np.asarray(budgets if budgets is not None else np.ones(n_left), dtype=np.int64)
    return BipartiteGraph(n_left, n_left + 1, np.array(edges), b)


def test_expand_identity_under_all_ones():
    b = _chain_graph()
    out = expand(b, ExpansionVectors([1] * 3, [1] * 4))
    assert out.same_topology(b)
    assert np.array_equal(out.left_budgets, b.left_budgets)
    assert out.cluster_of_left.tolist() == [0, 1, 2]
    assert out.cluster_of_right.tolist() == [0, 1, 2, 3]


def test_expand_cross_product_edges():
    # one parent edge between a doubled left cluster and a tripled right
    # cluster must become all 2 x 3 = 6 child pairs
    b = BipartiteGraph(1, 1, np.array([[0, 0]]), np.array([4], dtype=np.int64))
    out = expand(b, ExpansionVectors([2], [3]))
    assert out.num_left == 2 and out.num_right == 3
    assert out.num_edges == 6
    expected = [[i, j] for i in range(2) for j in range(3)]
    assert out.edges.tolist() == expected


def test_expand_inherits_budgets_and_features():
    b = BipartiteGraph(
        2,
        1,
        np.array([[0, 0], [1, 0]]),
        np.array([3, 1], dtype=np.int64),
        left_features=np.array([[1.0], [2.0]]),
        right_features=np.array([[5.0]]),
    )
    out = expand(b, ExpansionVectors([2, 1], [2]))
    assert out.left_budgets.tolist() == [3, 3, 1]
    assert out.left_features[:, 0].tolist() == [1.0, 1.0, 2.0]
    assert out.right_features[:, 0].tolist() == [5.0, 5.0]
    assert out.cluster_of_left.tolist() == [0, 0, 1]
    assert out.cluster_of_right.tolist() == [0, 0]


def test_expansion_vector_validation():
    with pytest.raises(ValueError):
        ExpansionVectors([3], [1])
    with pytest.raises(ValueError):
        ExpansionVectors([1], [4])
    with pytest.raises(ValueError):
        ExpansionVectors([0], [1])


def test_perturb_zero_prob_is_plain_expand():
    b = _chain_graph()
    v = ExpansionVectors([2, 1, 1], [1, 2, 1, 1])
    rng = np.random.default_rng(0)
    a = perturb_expand(b, v, 2, 0.0, rng)
    c = expand(b, v)
    assert a.same_topology(c)


@st.composite
def _perturb_cases(draw):
    """A random bipartite level, expansion vectors and a radius in 0..3."""
    n_left = draw(st.integers(1, 7))
    n_right = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1))
    edges = sorted(draw(st.sets(pairs, max_size=20)))
    b = BipartiteGraph(n_left, n_right, np.array(edges, dtype=np.int64).reshape(-1, 2))
    v = ExpansionVectors(
        draw(st.lists(st.integers(1, 2), min_size=n_left, max_size=n_left)),
        draw(st.lists(st.integers(1, 3), min_size=n_right, max_size=n_right)),
    )
    return b, v, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(case=_perturb_cases())
@example(case=(_chain_graph(n_left=6), ExpansionVectors([1] * 6, [1] * 7), 2))
def test_perturb_candidates_match_bfs_distance(case):
    """Candidate extra edges are exactly the child pairs of parent non-edges
    whose parents sit within bipartite distance 2r+1 (BFS oracle via networkx)."""
    b, v, radius = case
    g = nx.Graph()
    g.add_nodes_from(("L", i) for i in range(b.num_left))
    g.add_nodes_from(("R", j) for j in range(b.num_right))
    g.add_edges_from((("L", int(i)), ("R", int(j))) for i, j in b.edges)
    existing = {(int(i), int(j)) for i, j in b.edges}
    loff = np.concatenate([[0], np.cumsum(v.left)])
    roff = np.concatenate([[0], np.cumsum(v.right)])
    candidates = set()
    for i in range(b.num_left):
        dist = nx.single_source_shortest_path_length(
            g, ("L", i), cutoff=2 * radius + 1
        )
        for (side, j), d in dist.items():
            if side == "R" and (i, j) not in existing:
                candidates.update(
                    (int(a), int(c))
                    for a in range(loff[i], loff[i + 1])
                    for c in range(roff[j], roff[j + 1])
                )

    # with p = 1 every candidate is added and nothing else
    base = {tuple(map(int, e)) for e in expand(b, v).edges.tolist()}
    out = perturb_expand(b, v, radius, 1.0, np.random.default_rng(1))
    added = {tuple(map(int, e)) for e in out.edges.tolist()} - base
    assert added == candidates


def test_perturb_extras_are_random_subset():
    b = _chain_graph(n_left=6)
    v = ExpansionVectors([1] * 6, [1] * 7)
    base = {tuple(map(int, e)) for e in expand(b, v).edges.tolist()}
    full = {
        tuple(map(int, e))
        for e in perturb_expand(b, v, 2, 1.0, np.random.default_rng(2)).edges.tolist()
    }
    some = {
        tuple(map(int, e))
        for e in perturb_expand(b, v, 2, 0.5, np.random.default_rng(3)).edges.tolist()
    }
    assert base <= some <= full
    assert some != base and some != full


def test_split_budget_examples():
    assert split_budget(5, [0.6, 0.4]).tolist() == [3, 2]
    assert split_budget(3, [0.5, 0.5]).tolist() == [2, 1]
    assert split_budget(7, [1.0]).tolist() == [7]
    assert split_budget(2, [0.5, 0.5]).tolist() == [1, 1]


def test_split_budget_clamps_to_one():
    # a tiny fraction still yields at least one unit
    out = split_budget(10, [0.99, 0.01])
    assert out.tolist() == [9, 1]
    out = split_budget(2, [0.999, 0.001])
    assert out.tolist() == [1, 1]


@settings(max_examples=200, deadline=None)
@given(
    budget=st.integers(min_value=2, max_value=50),
    raw=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=2),
)
def test_split_budget_conserves(budget, raw):
    f = np.asarray(raw) / np.sum(raw)
    if len(f) > budget:
        return
    out = split_budget(budget, f)
    assert out.sum() == budget
    assert np.all(out >= 1)


def test_split_budget_rejects_impossible():
    with pytest.raises(ValueError):
        split_budget(1, [0.5, 0.5])


def test_refine_keep_mask_and_features():
    b = BipartiteGraph(1, 1, np.array([[0, 0]]), np.array([4], dtype=np.int64))
    expanded = expand(b, ExpansionVectors([2], [2]))
    assert expanded.num_edges == 4
    decision = RefinementDecision(
        edge_keep=np.array([1, 0, 0, 1], dtype=np.int8),
        budget_split=np.array([0.75, 0.25]),
        left_features=np.array([[1.0], [2.0]]),
        right_features=np.array([[3.0], [4.0]]),
    )
    out = refine(expanded, decision)
    assert out.edges.tolist() == [[0, 0], [1, 1]]
    assert out.left_budgets.tolist() == [3, 1]
    assert out.left_features[:, 0].tolist() == [1.0, 2.0]
    assert out.right_features[:, 0].tolist() == [3.0, 4.0]
    assert out.cluster_of_left is None and out.cluster_of_right is None


def test_refine_inherits_features_when_none():
    b = BipartiteGraph(
        1,
        1,
        np.array([[0, 0]]),
        np.array([2], dtype=np.int64),
        left_features=np.array([[7.0]]),
    )
    expanded = expand(b, ExpansionVectors([2], [1]))
    decision = RefinementDecision(
        edge_keep=np.ones(2, dtype=np.int8),
        budget_split=np.array([0.5, 0.5]),
        left_features=None,
        right_features=None,
    )
    out = refine(expanded, decision)
    assert out.left_features[:, 0].tolist() == [7.0, 7.0]


def test_refine_singleton_budget_unchanged():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    b = star_expand(h)
    expanded = expand(b, ExpansionVectors([1, 1, 1], [1, 1]))
    decision = RefinementDecision(
        edge_keep=np.ones(expanded.num_edges, dtype=np.int8),
        budget_split=np.ones(3),
        left_features=None,
        right_features=None,
    )
    out = refine(expanded, decision)
    assert out.left_budgets.tolist() == [1, 1, 1]
    assert out.same_topology(b)
