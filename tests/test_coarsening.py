import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expansion import _perturb_cases

from hyperforge import coarsening
from hyperforge.coarsening import (
    CoarseningCache,
    CoarseningParams,
    CoarseningSequence,
    _variation_costs,
    dedup_right,
    merge_left,
    sample_coarsening_sequence,
)
from hyperforge.datasets import gen_sbm, gen_tree
from hyperforge.expansion import RefinementDecision, expand, perturb_expand, reconstruct_finer, refine
from hyperforge.hypergraph import (
    BipartiteGraph,
    Hypergraph,
    clique_of_bipartite,
    collapse_bipartite,
    star_expand,
)
from hyperforge.pipeline import _drop_empty_right


def _line_hypergraph(n=6):
    return Hypergraph(n, [[i, i + 1] for i in range(n - 1)])


def _replay_exact(seq):
    """Rebuild every finer level from its coarser neighbour's stored targets."""
    for i in range(len(seq.levels) - 1, 0, -1):
        level = seq.levels[i]
        rebuilt = reconstruct_finer(level.bipartite, level.expansion, level.refinement)
        fine = seq.levels[i - 1].bipartite
        if not rebuilt.same_topology(fine):
            return False
        if not np.array_equal(rebuilt.left_budgets, fine.left_budgets):
            return False
        if not np.allclose(rebuilt.left_features, fine.left_features):
            return False
    return True


def test_merge_budget_weighted_feature():
    b = BipartiteGraph(
        2,
        1,
        np.array([[0, 0], [1, 0]]),
        np.array([3, 1], dtype=np.int64),
        left_features=np.array([[0.0], [4.0]]),
    )
    merged, assign = merge_left(b, [[0, 1]])
    assert assign.tolist() == [0, 0]
    assert merged.num_left == 1
    assert merged.left_budgets.tolist() == [4]
    # (3*0 + 1*4) / 4 = 1
    assert merged.left_features[0, 0] == pytest.approx(1.0)


def test_merge_singletons_is_identity():
    b = star_expand(_line_hypergraph())
    merged, assign = merge_left(b, [[i] for i in range(b.num_left)])
    assert assign.tolist() == list(range(b.num_left))
    assert merged.same_topology(b)
    assert np.array_equal(merged.left_budgets, b.left_budgets)


def test_merge_rejects_disconnected_part():
    b = star_expand(_line_hypergraph())
    with pytest.raises(ValueError):
        merge_left(b, [[0, 5]])
    merged, _ = merge_left(b, [[0, 5]], allow_disconnected=True)
    assert merged.num_left == b.num_left - 1


def test_merge_fills_singletons_in_least_member_order():
    b = BipartiteGraph(5, 1, [[l, 0] for l in range(5)], [1, 2, 3, 4, 5])
    merged, assign = merge_left(b, [[3, 1]])
    assert assign.tolist() == [0, 1, 2, 1, 3]
    assert merged.left_budgets.tolist() == [1, 6, 3, 5]


def test_part_listing_a_node_twice_is_rejected():
    b = star_expand(_line_hypergraph())
    with pytest.raises(ValueError, match="part lists a node twice"):
        merge_left(b, [[1, 2, 1]])
    with pytest.raises(ValueError, match="part lists a node twice"):
        merge_left(b, [[1, 1]], allow_disconnected=True)


@pytest.mark.parametrize("parts", [[[0.9, 1.5]], [[0, 1.0]], [[True, False]], [["0", "1"]], [np.array([0.0, 1.0])]])
def test_merge_rejects_parts_that_are_not_integers(parts):
    """Node numbers are never truncated: [[0.9, 1.5]] would merge 0 and 1."""
    b = star_expand(_line_hypergraph())
    with pytest.raises(ValueError, match="parts must be integers"):
        merge_left(b, parts)
    merged, assign = merge_left(b, [np.array([0, 1]), (np.int32(2),)])
    assert assign[:3].tolist() == [0, 0, 1]


@pytest.mark.parametrize("budgets", [[1.7, 2.9], [1.0, 1.0], [True, True], ["1", "1"]])
def test_dedup_rejects_right_budgets_that_are_not_integers(budgets):
    """Right budgets are never truncated: [1.7, 2.9] would sum as [1, 2]."""
    b = BipartiteGraph(2, 2, np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), np.array([1, 1], dtype=np.int64))
    with pytest.raises(ValueError, match="right budgets must be integers"):
        dedup_right(b, budgets)
    _, _, summed = dedup_right(b, [np.int32(1), 2])
    assert summed.tolist() == [3]


def test_dedup_identical_neighborhoods():
    b = BipartiteGraph(
        2,
        2,
        np.array([[0, 0], [1, 0], [0, 1], [1, 1]]),
        np.ones(2, dtype=np.int64),
    )
    graph, assign, right_budgets = dedup_right(b, np.ones(2, dtype=np.int64))
    assert graph.num_right == 1
    assert graph.edges.tolist() == [[0, 0], [1, 0]]
    assert assign.tolist() == [0, 0]
    assert right_budgets.tolist() == [2]


def test_dedup_distinct_is_identity():
    b = star_expand(_line_hypergraph())
    graph, assign, _ = dedup_right(b, np.ones(b.num_right, dtype=np.int64))
    assert graph.same_topology(b)
    assert assign.tolist() == list(range(b.num_right))


def test_dedup_three_copies_merge_with_cap():
    edges = [[0, j] for j in range(3)] + [[1, j] for j in range(3)]
    b = BipartiteGraph(2, 3, np.array(edges), np.ones(2, dtype=np.int64))
    graph, assign, right_budgets = dedup_right(b, np.ones(3, dtype=np.int64))
    assert graph.num_right == 1
    assert assign.tolist() == [0, 0, 0]
    assert right_budgets.tolist() == [3]


def test_dedup_splits_copies_into_chunks_of_three():
    edges = [[l, j] for j in range(7) for l in range(2)]
    b = BipartiteGraph(2, 7, np.array(edges), np.ones(2, dtype=np.int64))
    graph, assign, right_budgets = dedup_right(b, np.ones(7, dtype=np.int64))
    assert assign.tolist() == [0, 0, 0, 1, 1, 1, 2]
    assert right_budgets.tolist() == [3, 3, 1]
    assert graph.num_right == 3
    members, offsets = graph.right_runs()
    assert members.tolist() == [0, 1] * 3
    assert offsets.tolist() == [0, 2, 4, 6]


def test_duplicate_hyperedge_limits():
    # Any number of copies coarsens: each level merges at most three of them,
    # so every stored right expansion stays within the cap.
    graphs = [
        Hypergraph(4, [[0, 1], [0, 1], [0, 1], [1, 2], [2, 3]]),
        Hypergraph(4, [[0, 1]] * 4 + [[1, 2], [2, 3]]),
        Hypergraph(1, [[0]] * 2),
        Hypergraph(1, [[0]] * 7),
        Hypergraph(3, [[0, 1]] * 9),
    ]
    for h in graphs:
        for seed in range(3):
            seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(seed))
            assert _replay_exact(seq)
            for level in seq.levels:
                assert int(level.bipartite.left_budgets.sum()) == h.num_nodes
            for level in seq.levels[1:]:
                assert max(level.expansion.right.tolist()) <= 3
    seq = sample_coarsening_sequence(Hypergraph(1, [[0]] * 7), CoarseningParams(), np.random.default_rng(0))
    assert [(lvl.bipartite.num_left, lvl.bipartite.num_right) for lvl in seq.levels] == [(1, 7), (1, 3), (1, 1)]
    assert seq.levels[1].expansion.right.tolist() == [3, 3, 1]
    assert seq.levels[2].expansion.right.tolist() == [3]


def test_each_contraction_step_derives_its_left_partition_once(monkeypatch):
    """``merge_left`` returns the partition it derives, so the sampler does
    not derive it again."""
    left_assign, calls = coarsening._left_assign, []

    def counted(parts, num_left):
        calls.append(num_left)
        return left_assign(parts, num_left)

    monkeypatch.setattr(coarsening, "_left_assign", counted)
    for h in (gen_tree(np.random.default_rng(3)), Hypergraph(1, [[0]] * 7)):
        calls.clear()
        seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(4))
        assert calls == [lvl.bipartite.num_left for lvl in seq.levels[:-1]]


def test_sequence_rejects_repeated_or_growing_level():
    seq = sample_coarsening_sequence(_line_hypergraph(8), CoarseningParams(), np.random.default_rng(0))
    levels = seq.levels
    assert len(levels) >= 3
    with pytest.raises(ValueError, match="grow neither"):
        CoarseningSequence(levels=levels[:2] + levels[1:])
    with pytest.raises(ValueError, match="grow neither"):
        CoarseningSequence(levels=(levels[0], levels[2], levels[1]) + levels[2:])


@st.composite
def _arbitrary_hypergraphs(draw):
    """Valid hypergraphs with isolated nodes, singleton and duplicate
    hyperedges, and disconnected parts."""
    n = draw(st.integers(1, 14))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5), unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=12))
    copies = draw(st.lists(st.sampled_from(edges), max_size=4))
    return Hypergraph(n, edges + copies)


def _dense_variation_cost(clique, u, v, preserve_k):
    """Oracle: Frobenius norm of B^T L_local B for contracting {u, v}, with
    B = Pi_orth A[[u, v]] and A = U_k diag(lambda^-1/2) the first-k spectral
    basis of the combinatorial Laplacian, zero-eigenvalue columns masked."""
    W = np.zeros((clique.num_nodes, clique.num_nodes))
    for (a, b), weight in zip(clique.edges.tolist(), clique.weights.tolist()):
        W[a, b] = W[b, a] = weight
    deg = W.sum(axis=1)
    vals, vecs = np.linalg.eigh(np.diag(deg) - W)
    k = min(preserve_k, clique.num_nodes)
    coef = np.zeros(k)
    positive = vals[:k] > 1e-8
    coef[positive] = vals[:k][positive] ** -0.5
    A = vecs[:, :k] * coef
    w = W[u, v]
    local = np.array([[2 * deg[u] - w, -w], [-w, 2 * deg[v] - w]])
    pi_orth = np.array([[0.5, -0.5], [-0.5, 0.5]])
    B = pi_orth @ A[[u, v], :]
    return float(np.linalg.norm(B.T @ local @ B))


@settings(max_examples=150, deadline=None)
@given(h=_arbitrary_hypergraphs(), preserve_k=st.sampled_from([1, 3, 8]))
def test_cost_closed_form_matches_dense_oracle(h, preserve_k):
    clique = clique_of_bipartite(star_expand(h))
    costs = _variation_costs(clique, preserve_k)
    assert costs.shape == (clique.num_edges,)
    for (u, v), cost in zip(clique.edges.tolist(), costs):
        assert cost >= 0.0
        assert cost == pytest.approx(_dense_variation_cost(clique, u, v, preserve_k), rel=1e-9, abs=1e-12)


def test_cost_permutation_invariant():
    rng = np.random.default_rng(5)
    h = Hypergraph(8, [sorted(rng.choice(8, size=3, replace=False).tolist()) for _ in range(6)])
    clique = clique_of_bipartite(star_expand(h))
    perm = rng.permutation(8)
    permuted = Hypergraph(8, [sorted(int(perm[x]) for x in e) for e in h.hyperedges])
    clique_p = clique_of_bipartite(star_expand(permuted))
    costs = _variation_costs(clique, 8)
    costs_p = dict(zip(map(tuple, clique_p.edges.tolist()), _variation_costs(clique_p, 8)))
    for (a, c), cost in zip(clique.edges.tolist(), costs):
        assert cost == pytest.approx(costs_p[tuple(sorted((int(perm[a]), int(perm[c]))))], abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(h=_arbitrary_hypergraphs(), seed=st.integers(0, 2**32 - 1))
def test_arbitrary_hypergraph_replays(h, seed):
    seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(seed))
    assert _replay_exact(seq)
    for level in seq.levels:
        assert int(level.bipartite.left_budgets.sum()) == h.num_nodes
    for level in seq.levels[1:]:
        assert max(level.expansion.right.tolist()) <= 3
    sizes = [(lvl.bipartite.num_left, lvl.bipartite.num_right) for lvl in seq.levels]
    for (fl, fr), (cl, cr) in zip(sizes[:-1], sizes[1:]):
        assert cl <= fl and cr <= fr


@settings(max_examples=150, deadline=None)
@given(h=_arbitrary_hypergraphs(), seed=st.integers(0, 2**32 - 1))
def test_sampled_contractions_pass_the_connectivity_check(h, seed):
    """The sampler skips merge_left's connectivity check on its own pairs:
    on every level the check finds its parts connected, except on a level
    without a clique edge, whose one pair is the bridge (0, 1)."""
    real, levels = coarsening._sample_level_contractions, []

    def recorded(b, params, rng):
        levels.append((b, real(b, params, rng)))
        return levels[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coarsening, "_sample_level_contractions", recorded)
        sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(seed))
    assert levels or h.num_nodes == 1
    for b, pairs in levels:
        assign = coarsening._left_assign(pairs, b.num_left)
        hub = np.unique(assign[b.edges[:, 0]] * max(b.num_right, 1) + b.edges[:, 1], return_inverse=True)[1]
        bad = coarsening._first_disconnected_group(b, assign, hub)
        if clique_of_bipartite(b).num_edges:
            assert bad is None, pairs
        else:
            assert pairs == [(0, 1)] and bad == 0


@st.composite
def _featured_hypergraphs(draw):
    """Arbitrary hypergraphs with node and hyperedge features of width 0 to
    3; a width-0 side is given as None or as an empty matrix."""
    h = draw(_arbitrary_hypergraphs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    feats = [
        rng.normal(size=(rows, d)) if d or draw(st.booleans()) else None
        for rows, d in zip((h.num_nodes, h.num_hyperedges), widths)
    ]
    return Hypergraph(h.num_nodes, h.hyperedges, *feats), widths


def _assert_widths(b: BipartiteGraph, widths):
    assert b.left_features.shape == (b.num_left, widths[0])
    assert b.right_features.shape == (b.num_right, widths[1])


@settings(max_examples=150, deadline=None)
@given(case=_featured_hypergraphs(), seed=st.integers(0, 2**32 - 1))
def test_every_level_carries_the_input_feature_widths(case, seed):
    h, widths = case
    for feats, d in zip((h.node_features, h.hyperedge_features), widths):
        assert (feats is None) == (d == 0)
    back = collapse_bipartite(star_expand(h))
    assert (back.node_features is None) == (h.node_features is None)
    assert (back.hyperedge_features is None) == (h.hyperedge_features is None)
    seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(seed))
    for level in seq.levels:
        _assert_widths(level.bipartite, widths)
    for level in seq.levels[1:]:
        expanded = expand(level.bipartite, level.expansion)
        _assert_widths(expanded, widths)
        _assert_widths(refine(expanded, level.refinement), widths)
        inherit = RefinementDecision(
            level.refinement.edge_keep, level.refinement.budget_split,
            expanded.left_features, expanded.right_features,
        )
        _assert_widths(refine(expanded, inherit), widths)


def test_single_node_sequence_is_minimal():
    h = Hypergraph(1, [[0]])
    seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(0))
    assert seq.num_levels == 1
    assert seq.levels[0].bipartite.num_left == 1
    assert seq.levels[0].expansion is None and seq.levels[0].refinement is None


def test_sequence_terminates_at_unit_graph():
    h = gen_tree(np.random.default_rng(3))
    seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(4))
    top = seq.levels[-1].bipartite
    assert top.num_left == 1 and top.num_right == 1
    assert int(top.left_budgets[0]) == h.num_nodes


def test_budget_conservation_every_level():
    rng = np.random.default_rng(6)
    for _ in range(5):
        h = gen_tree(rng)
        seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
        for level in seq.levels:
            assert int(level.bipartite.left_budgets.sum()) == h.num_nodes


def test_round_trip_tree_graphs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = gen_tree(rng)
        seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
        assert _replay_exact(seq)


def test_round_trip_sbm_graph():
    rng = np.random.default_rng(8)
    h = gen_sbm(rng)
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    assert _replay_exact(seq)


def test_round_trip_with_features():
    rng = np.random.default_rng(9)
    h = gen_tree(rng)
    h = Hypergraph(
        h.num_nodes,
        h.hyperedges,
        node_features=rng.normal(size=(h.num_nodes, 3)),
        hyperedge_features=rng.normal(size=(h.num_hyperedges, 2)),
    )
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    assert _replay_exact(seq)


def test_level_zero_matches_input():
    rng = np.random.default_rng(10)
    h = gen_tree(rng)
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    b0 = seq.levels[0].bipartite
    assert b0.num_left == h.num_nodes
    assert b0.num_right == h.num_hyperedges
    assert np.all(b0.left_budgets == 1)
    # level 0 is an isomorphic relabeling: sorted hyperedge size multiset agrees
    sizes = sorted(len(e) for e in h.hyperedges)
    assert sorted(np.bincount(b0.edges[:, 1]).tolist()) == sizes


def test_terminal_features_zeroed():
    rng = np.random.default_rng(11)
    h = gen_tree(rng)
    h = Hypergraph(h.num_nodes, h.hyperedges, node_features=rng.normal(size=(h.num_nodes, 2)))
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    assert seq.num_levels > 1
    top = seq.levels[-1].bipartite
    assert np.all(top.left_features == 0.0)


def test_reduction_fraction_bounds():
    params = CoarseningParams()
    rng = np.random.default_rng(12)
    h = gen_sbm(rng)
    seq = sample_coarsening_sequence(h, params, rng)
    for coarse, fine in zip(seq.levels[1:], seq.levels[:-1]):
        n_fine = fine.bipartite.num_left
        n_coarse = coarse.bipartite.num_left
        assert n_coarse < n_fine
        # the in-loop stop can overshoot the target by one contraction
        rho = 1.0 - n_coarse / n_fine
        assert rho <= params.rho_max + 1.0 / n_fine + 1e-9


def test_cache_returns_levels_and_resamples():
    rng = np.random.default_rng(13)
    graphs = [gen_tree(rng, num_nodes=12) for _ in range(2)]
    cache = CoarseningCache(graphs, CoarseningParams())
    seq, level_index = cache.take(0, rng)
    assert seq.num_levels >= 1
    assert 0 <= level_index < seq.num_levels

    # exhaust one sequence: L+1 consecutive takes hit all distinct levels
    first, level_index = cache.take(1, rng)
    total = first.num_levels
    seen = {level_index}
    for _ in range(total - 1):
        seq, level_index = cache.take(1, rng)
        assert seq is first
        seen.add(level_index)
    assert seen == set(range(total))

    # next take resamples a fresh sequence
    fresh, _ = cache.take(1, rng)
    assert fresh is not first


# ---------------------------------------------------------------------------
# The finest level's star expansion and contraction order are kept on the
# graph objects; a coarsening must not depend on whether they were cached.


def _sequence_arrays(seq):
    """Every level's sizes, arrays and stored targets, fine to coarse."""
    out = []
    for level in seq.levels:
        b = level.bipartite
        out += [(b.num_left, b.num_right), b.edges, b.left_budgets, b.left_features, b.right_features]
        if level.expansion is not None:
            rd = level.refinement
            out += [level.expansion.left, level.expansion.right]
            out += [rd.edge_keep, rd.budget_split, rd.left_features, rd.right_features]
    return out


def _coarsened(h, preserve_k, seed):
    """The sequence of ``h`` and the generator's next draws after it."""
    rng = np.random.default_rng(seed)
    seq = sample_coarsening_sequence(h, CoarseningParams(preserve_k=preserve_k), rng)
    return _sequence_arrays(seq) + [rng.random(4)]


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        else:
            assert x == y


@settings(max_examples=60, deadline=None)
@given(
    h=st.one_of(_arbitrary_hypergraphs(), _featured_hypergraphs().map(lambda case: case[0])),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_finest_level_keeps_levels_targets_and_draws(h, seed):
    """One graph object coarsened twice per preserve_k, the values of k
    alternating on it, equals a fresh equal copy coarsened once."""
    for preserve_k in (8, 1, 3, 8):
        fresh = Hypergraph(h.num_nodes, h.hyperedges, h.node_features, h.hyperedge_features)
        expected = _coarsened(fresh, preserve_k, seed)
        _assert_bit_identical(_coarsened(h, preserve_k, seed), expected)
        _assert_bit_identical(_coarsened(h, preserve_k, seed), expected)


def test_pickled_graph_carries_no_cache_and_coarsens_the_same():
    rng = np.random.default_rng(14)
    h = gen_tree(rng, num_nodes=12)
    h = Hypergraph(h.num_nodes, h.hyperedges, node_features=rng.normal(size=(h.num_nodes, 2)))
    expected = _coarsened(h, 8, 15)
    copy = pickle.loads(pickle.dumps(h))
    assert copy == h
    assert set(vars(copy)) == {f.name for f in dataclasses.fields(Hypergraph)}
    _assert_bit_identical(_coarsened(copy, 8, 15), expected)


def test_second_coarsening_reuses_the_finest_clique_expansion(monkeypatch):
    real, calls = coarsening.clique_of_bipartite, []

    def counted(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(coarsening, "clique_of_bipartite", counted)
    h = gen_sbm(np.random.default_rng(16))
    counts = []
    for seed in (17, 17):
        calls.clear()
        sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(seed))
        counts.append(len(calls))
    assert counts[1] == counts[0] - 1


# ---------------------------------------------------------------------------
# Oracles: loop-by-loop references for the vectorised level structure.


@st.composite
def _adversarial_levels(draw):
    """Bipartite levels with empty right nodes, isolated left nodes, many
    copies of one right neighbourhood and budgets above one."""
    num_left = draw(st.integers(1, 9))
    num_right = draw(st.integers(0, 9))
    nbhd = st.frozensets(st.integers(0, num_left - 1), max_size=num_left)
    pool = draw(st.lists(nbhd, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=num_right, max_size=num_right))
    edges = [(l, r) for r, ls in enumerate(picks) for l in ls]
    budgets = draw(st.lists(st.integers(1, 4), min_size=num_left, max_size=num_left))
    return BipartiteGraph(num_left, num_right, np.array(edges, dtype=np.int64).reshape(-1, 2), budgets)


def _neighbour_sets(b, side):
    """Neighbour set of every node of ``side`` (0 left, 1 right), by a loop
    over the incidences."""
    sets = [set() for _ in range(b.num_left if side == 0 else b.num_right)]
    for edge in b.edges.tolist():
        sets[edge[side]].add(edge[1 - side])
    return sets


def _clique_reference(b):
    counts = {}
    for nb in _neighbour_sets(b, 1):
        members = sorted(nb)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                key = (members[i], members[j])
                counts[key] = counts.get(key, 0) + 1
    pairs = sorted(counts)
    return pairs, [counts[p] for p in pairs]


def _dedup_reference(b, right_budgets):
    """Groups of identical neighbourhoods in chunks of three, ordered by
    least member; merged edges and summed budgets."""
    nbhds = _neighbour_sets(b, 1)
    by_nbhd = {}
    for r, nb in enumerate(nbhds):
        by_nbhd.setdefault(frozenset(nb), []).append(r)
    chunks = [tuple(g[i : i + 3]) for g in by_nbhd.values() for i in range(0, len(g), 3)]
    groups = sorted(chunks, key=lambda g: g[0])
    edges = sorted((l, k) for k, g in enumerate(groups) for l in nbhds[g[0]])
    budgets = [sum(right_budgets[r] for r in g) for g in groups]
    return tuple(groups), edges, budgets


def _partition_reference(parts, num_left):
    seen, groups = set(), []
    for part in parts:
        members = tuple(sorted(part))
        if not members:
            return "empty part"
        if members[0] < 0 or members[-1] >= num_left:
            return "part member out of range"
        if len(set(members)) < len(members):
            return "part lists a node twice"
        if seen.intersection(members):
            return "parts must be disjoint"
        seen.update(members)
        groups.append(members)
    groups.extend((i,) for i in range(num_left) if i not in seen)
    return sorted(groups)


def _connected_reference(group, left_nbhds):
    """Breadth-first search over members that share a right node."""
    reached, frontier = {group[0]}, [group[0]]
    while frontier:
        x = frontier.pop()
        for y in group:
            if y not in reached and left_nbhds[x] & left_nbhds[y]:
                reached.add(y)
                frontier.append(y)
    return len(reached) == len(group)


def _merge_reference(b, parts):
    """The merged (edges, budgets), or the error text of the first part
    that is not connected."""
    groups = _partition_reference(parts, b.num_left)
    left_nbhds = _neighbour_sets(b, 0)
    for g in groups:
        if not _connected_reference(g, left_nbhds):
            return f"part {g} is not connected in the clique expansion"
    new = {x: k for k, g in enumerate(groups) for x in g}
    edges = sorted({(new[l], r) for l, r in b.edges.tolist()})
    budgets = [sum(int(b.left_budgets[x]) for x in g) for g in groups]
    return edges, budgets


@st.composite
def _levels_with_parts(draw):
    """A level and disjoint parts of 1 to 4 members, listed in any order."""
    b = draw(_adversarial_levels())
    nodes = draw(st.permutations(range(b.num_left)))
    sizes = draw(st.lists(st.integers(1, 4), max_size=b.num_left))
    parts, start = [], 0
    for size in sizes:
        if start < len(nodes):
            parts.append(list(nodes[start : start + size]))
        start += size
    return b, parts


@settings(max_examples=200, deadline=None)
@given(b=_adversarial_levels())
def test_clique_matches_pair_loop_oracle(b):
    clique = clique_of_bipartite(b)
    pairs, weights = _clique_reference(b)
    assert clique.edges.reshape(-1, 2).tolist() == [list(p) for p in pairs]
    assert clique.weights.tolist() == weights


@settings(max_examples=200, deadline=None)
@given(b=_adversarial_levels(), data=st.data())
def test_dedup_matches_grouping_oracle(b, data):
    rb = data.draw(st.lists(st.integers(1, 5), min_size=b.num_right, max_size=b.num_right))
    graph, assign, right_budgets = dedup_right(b, np.array(rb, dtype=np.int64))
    groups, edges, budgets = _dedup_reference(b, rb)
    assert assign.tolist() == [k for r in range(b.num_right) for k, g in enumerate(groups) if r in g]
    assert graph.edges.tolist() == [list(e) for e in edges]
    assert right_budgets.tolist() == budgets
    assert graph.num_right == len(groups)


@settings(max_examples=200, deadline=None)
@given(case=_levels_with_parts())
def test_merge_left_matches_bfs_oracle(case):
    b, parts = case
    expected = _merge_reference(b, parts)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            merge_left(b, parts)
        assert str(err.value) == expected
        return
    merged, _ = merge_left(b, parts)
    assert merged.edges.tolist() == [list(e) for e in expected[0]]
    assert merged.left_budgets.tolist() == expected[1]
    assert merged.num_right == b.num_right


@settings(max_examples=200, deadline=None)
@given(b=_adversarial_levels(), data=st.data())
def test_merge_left_partition_matches_loop_oracle(b, data):
    member = st.integers(-1, b.num_left)
    parts = data.draw(st.lists(st.lists(member, max_size=4), max_size=5))
    expected = _partition_reference(parts, b.num_left)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            merge_left(b, parts, allow_disconnected=True)
        assert str(err.value) == expected
    else:
        merged, _ = merge_left(b, parts, allow_disconnected=True)
        assert merged.left_budgets.tolist() == [sum(int(b.left_budgets[x]) for x in g) for g in expected]


@settings(max_examples=200, deadline=None)
@given(case=_levels_with_parts())
def test_merge_left_assign_matches_loop_oracle(case):
    """The merged node of every left node is its group's rank by least
    member, and summing budgets by it gives the merged budgets."""
    b, parts = case
    groups = _partition_reference(parts, b.num_left)
    merged, assign = merge_left(b, parts, allow_disconnected=True)
    assert assign.tolist() == [k for x in range(b.num_left) for k, g in enumerate(groups) if x in g]
    budgets = np.bincount(assign, weights=b.left_budgets)
    assert budgets.tolist() == merged.left_budgets.tolist()


# ---------------------------------------------------------------------------
# Derived containers: coarsening and expansion build their outputs with the
# unchecked ``_derived`` constructors, so these tests are what guards the
# invariants the public constructors check.


def _assert_passes_public_constructor(obj):
    """``obj`` goes through its public constructor unchanged: no error, and
    every field equal in value, dtype and shape."""
    values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    again = type(obj)(*values)
    for f, value in zip(dataclasses.fields(obj), values):
        other = getattr(again, f.name)
        if isinstance(value, np.ndarray):
            assert (other.dtype, other.shape) == (value.dtype, value.shape), f.name
            assert np.array_equal(other, value), f.name
        else:
            assert other == value, f.name


@settings(max_examples=150, deadline=None)
@given(case=_featured_hypergraphs(), seed=st.integers(0, 2**32 - 1))
def test_sequence_levels_pass_the_public_constructors(case, seed):
    h, _ = case
    _assert_passes_public_constructor(star_expand(h))
    seq = sample_coarsening_sequence(h, CoarseningParams(), np.random.default_rng(seed))
    for level in seq.levels:
        _assert_passes_public_constructor(level.bipartite)
        _assert_passes_public_constructor(clique_of_bipartite(level.bipartite))
    for level in seq.levels[1:]:
        _assert_passes_public_constructor(level.expansion)
        _assert_passes_public_constructor(level.refinement)
        expanded = expand(level.bipartite, level.expansion)
        _assert_passes_public_constructor(expanded)
        _assert_passes_public_constructor(refine(expanded, level.refinement))


@settings(max_examples=200, deadline=None)
@given(case=_levels_with_parts(), data=st.data())
def test_merges_pass_the_public_constructors(case, data):
    b, parts = case
    _assert_passes_public_constructor(merge_left(b, parts, allow_disconnected=True)[0])
    rb = data.draw(st.lists(st.integers(1, 5), min_size=b.num_right, max_size=b.num_right))
    _assert_passes_public_constructor(dedup_right(b, np.array(rb, dtype=np.int64))[0])
    _assert_passes_public_constructor(clique_of_bipartite(b))
    _assert_passes_public_constructor(_drop_empty_right(b)[0])


@settings(max_examples=200, deadline=None)
@given(case=_perturb_cases(), prob=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 99))
def test_expansions_pass_the_public_constructor(case, prob, seed):
    b, v, radius = case
    _assert_passes_public_constructor(expand(b, v))
    _assert_passes_public_constructor(perturb_expand(b, v, radius, prob, np.random.default_rng(seed)))
