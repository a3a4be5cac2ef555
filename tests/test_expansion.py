import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperforge.expansion import (
    ExpansionVectors,
    RefinementDecision,
    expand,
    kept_edges,
    perturb_expand,
    refine,
    sibling_pairs,
    split_budgets,
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


def test_expansion_vectors_reject_non_integers():
    """Float counts are rejected, not truncated to [1, 2] and [3]."""
    with pytest.raises(ValueError, match="left expansion counts must be integers"):
        ExpansionVectors([1.9, 2.5], [3])
    with pytest.raises(ValueError, match="right expansion counts must be integers"):
        ExpansionVectors([1, 2], [3.7])


@pytest.mark.parametrize("edge_keep", [[0.7, 1.2], [True, False], [257, 0]])
def test_refinement_decision_rejects_non_binary_edge_keep(edge_keep):
    """Floats are not truncated to 0/1, and 257 does not wrap to 1 in int8."""
    with pytest.raises(ValueError, match="edge_keep entries must be"):
        RefinementDecision(edge_keep, np.ones(2), np.zeros((2, 0)), np.zeros((1, 0)))


@pytest.mark.parametrize("expander", [expand, lambda b, v: perturb_expand(b, v, 1, 0.5, np.random.default_rng(0))])
@pytest.mark.parametrize("left, right", [([1, 1], [1, 1, 1, 1]), ([1, 1, 1], [1, 1, 1]), ([1] * 4, [1] * 4)])
def test_expand_rejects_vectors_of_the_wrong_length(expander, left, right):
    with pytest.raises(ValueError, match="expansion vector length mismatch"):
        expander(_chain_graph(), ExpansionVectors(left, right))


def _decision_for(expanded, **changes):
    fields = dict(
        edge_keep=np.ones(expanded.num_edges, dtype=np.int8),
        budget_split=np.ones(expanded.num_left),
        left_features=np.zeros((expanded.num_left, 1)),
        right_features=np.zeros((expanded.num_right, 1)),
    )
    return RefinementDecision(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"left_features": np.zeros((2, 1))}, r"left features must have shape \(3, dim\)"),
        ({"right_features": np.zeros((4, 1))}, r"right features must have shape \(2, dim\)"),
        ({"left_features": np.zeros(3)}, r"left features must have shape \(3, dim\)"),
        ({"right_features": np.array([[0.0], [np.nan]])}, "right features contain non-finite entries"),
        ({"left_features": np.array([[0.0], [np.inf], [1.0]])}, "left features contain non-finite entries"),
        ({"edge_keep": np.ones(3, dtype=np.int8)}, "edge_keep length mismatch"),
        ({"budget_split": np.ones(2)}, "budget_split length mismatch"),
    ],
)
def test_refine_rejects_a_decision_that_does_not_fit(changes, message):
    """Checks on the caller's decision: refine builds its graph unchecked, so
    these must come from refine itself."""
    expanded = expand(star_expand(Hypergraph(3, [[0, 1], [1, 2]])), ExpansionVectors([1, 1, 1], [1, 1]))
    with pytest.raises(ValueError, match=message):
        refine(expanded, _decision_for(expanded, **changes))


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


def reference_split_budget(parent_budget: int, fractions) -> np.ndarray:
    """The scalar per-block rule that :func:`split_budgets` replaced, kept as
    the oracle: round half up, clamp to >= 1, then give a surplus back from
    the highest index down and take a deficit from the lowest index up, one
    unit per child and round."""
    f = np.asarray(fractions, dtype=np.float64).reshape(-1)
    g = f.shape[0]
    if g < 1:
        raise ValueError("need at least one child")
    parent_budget = int(parent_budget)
    if parent_budget < g:
        raise ValueError(f"parent budget {parent_budget} cannot cover {g} children")
    if np.any(f < -1e-9) or abs(f.sum() - 1.0) > 1e-6:
        raise ValueError("fractions are off the simplex beyond tolerance")
    f = np.clip(f, 0.0, None)
    out = np.floor(parent_budget * f + 0.5).astype(np.int64)
    np.clip(out, 1, None, out=out)
    diff = int(out.sum()) - parent_budget
    while diff > 0:
        for i in range(g - 1, -1, -1):
            if out[i] > 1:
                out[i] -= 1
                diff -= 1
                if diff == 0:
                    break
    while diff < 0:
        for i in range(g):
            out[i] += 1
            diff += 1
            if diff == 0:
                break
    return out


def reference_sibling_groups(cluster_map: np.ndarray) -> list[list[int]]:
    """The index lists of the blocks of equal labels, as the pipeline built
    them before :func:`sibling_pairs`; kept as the oracle."""
    if cluster_map.shape[0] == 0:
        return []
    starts = np.flatnonzero(np.diff(cluster_map)) + 1
    return [g.tolist() for g in np.split(np.arange(cluster_map.shape[0]), starts)]


def _block_split(budget, fractions):
    """split_budgets of one block: the children of a single parent."""
    f = np.asarray(fractions, dtype=np.float64)
    return split_budgets(np.full(f.size, budget), f, np.zeros(f.size, dtype=np.int64))


def test_split_budget_examples():
    assert _block_split(5, [0.6, 0.4]).tolist() == [3, 2]
    assert _block_split(3, [0.5, 0.5]).tolist() == [2, 1]
    assert _block_split(7, [1.0]).tolist() == [7]
    assert _block_split(2, [0.5, 0.5]).tolist() == [1, 1]
    # blocks in one call: an only child, a pair, an only child
    out = split_budgets([4, 5, 5, 9], [1.0, 0.6, 0.4, 1.0], np.array([0, 1, 1, 2]))
    assert out.tolist() == [4, 3, 2, 9]


def test_split_budget_clamps_to_one():
    # a tiny fraction still yields at least one unit
    assert _block_split(10, [0.99, 0.01]).tolist() == [9, 1]
    assert _block_split(2, [0.999, 0.001]).tolist() == [1, 1]


@settings(max_examples=200, deadline=None)
@given(
    budget=st.integers(min_value=2, max_value=50),
    raw=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=2),
)
def test_split_budget_conserves(budget, raw):
    f = np.asarray(raw) / np.sum(raw)
    out = _block_split(budget, f)
    assert out.sum() == budget
    assert np.all(out >= 1)


def test_split_budget_rejects_impossible():
    with pytest.raises(ValueError, match="cover"):
        _block_split(1, [0.5, 0.5])
    with pytest.raises(ValueError, match="one or two"):
        _block_split(6, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="simplex"):
        _block_split(6, [0.5, 0.6])


# offsets at and around the two tolerances of the scalar rule
_TOLERANCE_EDGES = st.sampled_from(
    [0.0, 1e-9, -1e-9, 1.01e-9, -1.01e-9, 0.99e-9, -0.99e-9, 1e-6, -1e-6, 1.01e-6, -1.01e-6, 0.99e-6, -0.99e-6]
)


@st.composite
def _split_blocks(draw):
    """Budget blocks of one or two children: a budget from 1 to 10**6 and
    fractions on, near or just off the simplex."""
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        budget = draw(st.one_of(st.integers(1, 10**6), st.sampled_from([1, 2, 3, 10**6])))
        if draw(st.booleans()):
            f0 = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
            fractions = [f0 + draw(_TOLERANCE_EDGES), (1.0 - f0) + draw(_TOLERANCE_EDGES)]
        else:
            fractions = [1.0 + draw(_TOLERANCE_EDGES)]
        blocks.append((budget, fractions))
    return blocks


@settings(max_examples=500, deadline=None)
@given(blocks=_split_blocks())
# a surplus of two (a clamped child), a deficit, and a pair with budget 1
@example(blocks=[(10**6, [-9.9e-10, 1.0000005]), (10**6, [0.5 - 0.99e-6, 0.5]), (3, [0.5, 0.5])])
@example(blocks=[(5, [1.0]), (1, [0.5, 0.5])])
def test_split_budgets_match_scalar_rule(blocks):
    """All blocks at once give what the scalar rule gives block by block,
    and raise wherever it raises for some block."""
    budgets = np.concatenate([[b] * len(f) for b, f in blocks])
    fractions = np.concatenate([f for _, f in blocks])
    cluster = np.concatenate([[i] * len(f) for i, (_, f) in enumerate(blocks)])
    expected = []
    try:
        for budget, f in blocks:
            expected.append(reference_split_budget(budget, f))
    except ValueError:
        with pytest.raises(ValueError):
            split_budgets(budgets, fractions, cluster)
        return
    out = split_budgets(budgets, fractions, cluster)
    assert out.dtype == np.int64
    assert out.tolist() == np.concatenate(expected).tolist()


def _expansion_case(draw):
    """A random bipartite level with budgets and features, and expansion vectors."""
    n_left = draw(st.integers(1, 7))
    n_right = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1))
    edges = sorted(draw(st.sets(pairs, max_size=20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = BipartiteGraph(
        n_left,
        n_right,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        rng.integers(1, 9, size=n_left),
        left_features=rng.normal(size=(n_left, 2)) if draw(st.booleans()) else None,
        right_features=rng.normal(size=(n_right, 1)) if draw(st.booleans()) else None,
    )
    v = ExpansionVectors(
        draw(st.lists(st.integers(1, 2), min_size=n_left, max_size=n_left)),
        draw(st.lists(st.integers(1, 3), min_size=n_right, max_size=n_right)),
    )
    return b, v


def reference_expand(b: BipartiteGraph, v: ExpansionVectors) -> BipartiteGraph:
    """The per-parent-edge loop that :func:`expand` replaced, kept as the oracle."""
    loff = np.concatenate([[0], np.cumsum(v.left)])
    roff = np.concatenate([[0], np.cumsum(v.right)])
    pieces = []
    for p, q in b.edges:
        lc, rc = int(v.left[p]), int(v.right[q])
        block = np.empty((lc * rc, 2), dtype=np.int64)
        block[:, 0] = np.repeat(np.arange(loff[p], loff[p] + lc), rc)
        block[:, 1] = np.tile(np.arange(roff[q], roff[q] + rc), lc)
        pieces.append(block)
    edges = np.concatenate(pieces) if pieces else np.zeros((0, 2), dtype=np.int64)
    return BipartiteGraph(
        num_left=int(loff[-1]),
        num_right=int(roff[-1]),
        edges=edges,
        left_budgets=np.repeat(b.left_budgets, v.left),
        left_features=np.repeat(b.left_features, v.left, axis=0),
        right_features=np.repeat(b.right_features, v.right, axis=0),
        cluster_of_left=np.repeat(np.arange(b.num_left), v.left),
        cluster_of_right=np.repeat(np.arange(b.num_right), v.right),
    )


def _same_array(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_expand_matches_per_edge_loop(data):
    b, v = _expansion_case(data.draw)
    out, ref = expand(b, v), reference_expand(b, v)
    assert (out.num_left, out.num_right) == (ref.num_left, ref.num_right)
    for name in ("edges", "left_budgets", "left_features", "right_features", "cluster_of_left", "cluster_of_right"):
        assert _same_array(getattr(out, name), getattr(ref, name)), name


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(1, 3), max_size=30))
def test_sibling_pairs_match_reference_groups(counts):
    cluster_map = np.repeat(np.arange(len(counts)), counts).astype(np.int64)
    pairs = sibling_pairs(cluster_map)
    assert pairs.shape == (counts.count(2), 2)
    assert pairs.tolist() == [g for g in reference_sibling_groups(cluster_map) if len(g) == 2]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kept_edges_match_set_membership(data):
    b, v = _expansion_case(data.draw)
    expanded = perturb_expand(b, v, data.draw(st.integers(0, 2)), data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                              np.random.default_rng(data.draw(st.integers(0, 99))))
    pairs = st.tuples(st.integers(0, expanded.num_left - 1), st.integers(0, expanded.num_right - 1))
    fine_edges = data.draw(st.sets(st.one_of(st.sampled_from(expanded.edges.tolist() or [[0, 0]]).map(tuple), pairs)))
    fine = BipartiteGraph(expanded.num_left, expanded.num_right, np.array(sorted(fine_edges)).reshape(-1, 2))
    mask = kept_edges(expanded, fine)
    assert mask.dtype == np.int8
    assert mask.tolist() == [int((a, c) in fine_edges) for a, c in expanded.edges.tolist()]


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


def test_refine_singleton_budget_unchanged():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    b = star_expand(h)
    expanded = expand(b, ExpansionVectors([1, 1, 1], [1, 1]))
    decision = RefinementDecision(
        edge_keep=np.ones(expanded.num_edges, dtype=np.int8),
        budget_split=np.ones(3),
        left_features=expanded.left_features,
        right_features=expanded.right_features,
    )
    out = refine(expanded, decision)
    assert out.left_budgets.tolist() == [1, 1, 1]
    assert out.same_topology(b)


def test_refinement_decision_leaves_caller_arrays_writeable():
    args = dict(
        edge_keep=np.ones(2, dtype=np.int8),
        budget_split=np.ones(2),
        left_features=np.zeros((2, 1)),
        right_features=np.zeros((2, 1)),
    )
    decision = RefinementDecision(**args)
    assert all(arr.flags.writeable for arr in args.values())
    assert not any(arr.flags.writeable for arr in (decision.edge_keep, decision.budget_split,
                                                  decision.left_features, decision.right_features))
