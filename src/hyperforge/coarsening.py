"""Budgeted coarsening of featured hypergraphs.

A coarsening sequence contracts left-node pairs (merging budgets by sum and
features by budget-weighted mean), then merges right nodes whose neighborhoods
became identical, at most three per group and level (the right-expansion cap);
further copies merge at later levels.  Candidate contractions are
clique-expansion edges ranked by a local variation cost; acceptance runs a
stochastic gate and an overlap check.  Each level records the exact expansion
and refinement targets that rebuild the next-finer level, so the whole
sequence is losslessly replayable.  Every hypergraph with at least one
hyperedge coarsens to one node and one hyperedge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .expansion import MAX_RIGHT_EXPANSION, ExpansionVectors, RefinementDecision, expand, kept_edges
from .hypergraph import BipartiteGraph, CliqueExpansion, Hypergraph, clique_of_bipartite, star_expand

__all__ = [
    "CoarseningParams",
    "CoarseningLevel",
    "CoarseningSequence",
    "CoarseningCache",
    "DedupResult",
    "merge_left",
    "dedup_right",
    "complete_left_partition",
    "sample_coarsening_sequence",
]

# Graphs with fewer left nodes always use rho_max as their reduction fraction.
SMALL_GRAPH_CUTOFF = 16


@dataclass(frozen=True)
class CoarseningParams:
    """Knobs of the level sampler.

    ``gate_lambda`` is the stochastic acceptance gate: a candidate passes when
    a uniform draw exceeds it.
    """

    rho_min: float = 0.1
    rho_max: float = 0.3
    gate_lambda: float = 0.3
    preserve_k: int = 8

    def __post_init__(self):
        if not 0.0 < self.rho_min <= self.rho_max < 1.0:
            raise ValueError("need 0 < rho_min <= rho_max < 1")
        if not 0.0 <= self.gate_lambda <= 1.0:
            raise ValueError("gate_lambda must lie in [0, 1]")
        if self.preserve_k < 1:
            raise ValueError("preserve_k must be >= 1")


@dataclass(frozen=True)
class CoarseningLevel:
    """One level plus the stored targets that rebuild the next-finer level.

    The finest level carries no targets.  ``expansion`` holds per-node child
    counts; ``refinement`` holds the edge-keep mask over the canonical
    expanded-edge order, per-child budget fractions, and the finer feature
    matrices.
    """

    bipartite: BipartiteGraph
    expansion: ExpansionVectors | None = None
    refinement: RefinementDecision | None = None


@dataclass(frozen=True)
class CoarseningSequence:
    """Fine-to-coarse list of levels; levels[0] is the (relabeled) input."""

    levels: tuple[CoarseningLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("empty sequence")
        last = self.levels[-1].bipartite
        if last.num_left != 1 or last.num_right != 1:
            raise ValueError("terminal level must be a single node and hyperedge")
        sizes = [(lvl.bipartite.num_left, lvl.bipartite.num_right) for lvl in self.levels]
        for (fl, fr), (cl, cr) in zip(sizes[:-1], sizes[1:]):
            if cl > fl or cr > fr or (cl, cr) == (fl, fr):
                raise ValueError("each level must shrink one side and grow neither")
        if self.levels[0].expansion is not None:
            raise ValueError("finest level carries no targets")
        for lvl in self.levels[1:]:
            if lvl.expansion is None or lvl.refinement is None:
                raise ValueError("every non-finest level needs stored targets")

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def _variation_costs(clique: CliqueExpansion, preserve_k: int) -> np.ndarray:
    """Local variation cost of contracting each clique edge (Loukas, 2019).

    With the first-k spectral basis A = U_k diag(lambda^-1/2) of the
    combinatorial Laplacian (zero-eigenvalue columns masked), a pair
    contraction's cost matrix B^T L_local B is a rank-one outer product, so
    its Frobenius norm collapses to (deg_u + deg_v) / 2 * ||A_u - A_v||^2.
    Deterministic and non-negative.
    """
    if clique.num_edges == 0:
        return np.zeros(0)
    W = clique.adjacency()
    deg = W.sum(axis=1)
    L = np.diag(deg) - W
    vals, vecs = np.linalg.eigh(L)
    k = min(preserve_k, clique.num_nodes)
    coef = np.zeros(k)
    positive = vals[:k] > 1e-8
    coef[positive] = vals[:k][positive] ** -0.5
    A = vecs[:, :k] * coef
    u, v = clique.edges[:, 0], clique.edges[:, 1]
    diff = A[u] - A[v]
    return 0.5 * (deg[u] + deg[v]) * np.einsum("ij,ij->i", diff, diff)


def complete_left_partition(parts: Sequence[Sequence[int]], num_left: int) -> list[tuple[int, ...]]:
    """Extend disjoint parts with singletons and sort groups by least member."""
    seen: set[int] = set()
    groups: list[tuple[int, ...]] = []
    for part in parts:
        members = tuple(sorted(int(x) for x in part))
        if not members:
            raise ValueError("empty part")
        if members[0] < 0 or members[-1] >= num_left:
            raise ValueError("part member out of range")
        if seen.intersection(members):
            raise ValueError("parts must be disjoint")
        seen.update(members)
        groups.append(members)
    groups.extend((i,) for i in range(num_left) if i not in seen)
    groups.sort(key=lambda g: g[0])
    return groups


def _left_neighbor_sets(b: BipartiteGraph) -> list[set[int]]:
    sets: list[set[int]] = [set() for _ in range(b.num_left)]
    for l, r in b.edges:
        sets[l].add(int(r))
    return sets


def _part_connected(part: tuple[int, ...], left_nbhd: list[set[int]]) -> bool:
    if len(part) == 1:
        return True
    remaining = set(part[1:])
    frontier = {part[0]}
    reach_right = set(left_nbhd[part[0]])
    while remaining and frontier:
        frontier = {x for x in remaining if left_nbhd[x] & reach_right}
        for x in frontier:
            reach_right |= left_nbhd[x]
        remaining -= frontier
    return not remaining


def _weighted_means(
    features: np.ndarray, weights: np.ndarray, assign: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Per-group mean of ``features`` rows weighted by ``weights``.

    Row ``i`` joins group ``assign[i]``, whose weights sum to ``totals``.  Each
    group adds its weighted rows to zero in ascending row order, one member
    rank at a time, then divides by its total.
    """
    out = np.zeros((totals.size, features.shape[1]))
    if not features.shape[1]:
        return out
    weighted = features * weights[:, None]
    order = np.argsort(assign, kind="stable")
    grouped = assign[order]
    rank = np.arange(order.size) - np.searchsorted(grouped, grouped)
    for r in range(rank.max(initial=-1) + 1):
        at = rank == r
        out[grouped[at]] += weighted[order[at]]
    return out / totals[:, None]


def merge_left(
    b: BipartiteGraph, parts: Sequence[Sequence[int]], allow_disconnected: bool = False
) -> BipartiteGraph:
    """Merge left-node groups: budgets add, features average budget-weighted
    (:func:`_weighted_means`), right nodes and their features stay.

    Unlisted nodes stay as singletons; merged node order is by least original
    member.  Each part must induce a connected piece of the clique expansion
    unless ``allow_disconnected`` (the sampler's last-resort bridge for
    disconnected inputs).
    """
    groups = complete_left_partition(parts, b.num_left)
    if not allow_disconnected:
        left_nbhd = _left_neighbor_sets(b)
        for g in groups:
            if not _part_connected(g, left_nbhd):
                raise ValueError(f"part {g} is not connected in the clique expansion")

    assign = np.empty(b.num_left, dtype=np.int64)
    for new_idx, g in enumerate(groups):
        for member in g:
            assign[member] = new_idx

    budgets = np.bincount(assign, weights=b.left_budgets, minlength=len(groups)).astype(np.int64)

    if b.num_edges:
        mapped = np.stack([assign[b.edges[:, 0]], b.edges[:, 1]], axis=1)
        mapped = np.unique(mapped, axis=0)
    else:
        mapped = np.zeros((0, 2), dtype=np.int64)
    return BipartiteGraph(
        num_left=len(groups),
        num_right=b.num_right,
        edges=mapped,
        left_budgets=budgets,
        left_features=_weighted_means(b.left_features, b.left_budgets, assign, budgets),
        right_features=b.right_features,
    )


@dataclass(frozen=True)
class DedupResult:
    """Output of :func:`dedup_right`: merged graph, merge groups in the new
    right order, and the summed right budgets (coarsening-internal)."""

    graph: BipartiteGraph
    groups: tuple[tuple[int, ...], ...]
    right_budgets: np.ndarray


def dedup_right(b: BipartiteGraph, right_budgets=None) -> DedupResult:
    """Merge right nodes with identical left neighborhoods.

    Each group of identical neighborhoods splits, in ascending index order,
    into consecutive chunks of at most ``MAX_RIGHT_EXPANSION`` (the most one
    right expansion can undo); the chunks stay distinct right nodes and merge
    further at a later level.  Groups are ordered by least member.  Features
    merge by budget-weighted mean, as in :func:`merge_left`; right budgets
    are tracked only inside coarsening (they are not a BipartiteGraph field)
    so they travel through this function explicitly.
    """
    if right_budgets is None:
        rb = np.ones(b.num_right, dtype=np.int64)
    else:
        rb = np.asarray(right_budgets, dtype=np.int64).reshape(-1)
        if rb.shape[0] != b.num_right:
            raise ValueError("right budget length mismatch")

    nbhds = b.right_neighborhoods()
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for r, nb in enumerate(nbhds):
        by_nbhd.setdefault(nb, []).append(r)
    cap = MAX_RIGHT_EXPANSION
    chunks = (tuple(g[i : i + cap]) for g in by_nbhd.values() for i in range(0, len(g), cap))
    groups = sorted(chunks, key=lambda g: g[0])

    assign = np.empty(b.num_right, dtype=np.int64)
    assign[[r for g in groups for r in g]] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    edges = []
    for new_idx, g in enumerate(groups):
        for l in sorted(nbhds[g[0]]):
            edges.append((l, new_idx))
    new_rb = np.bincount(assign, weights=rb, minlength=len(groups)).astype(np.int64)
    graph = BipartiteGraph(
        num_left=b.num_left,
        num_right=len(groups),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        left_budgets=b.left_budgets,
        left_features=b.left_features,
        right_features=_weighted_means(b.right_features, rb, assign, new_rb),
    )
    return DedupResult(graph=graph, groups=tuple(groups), right_budgets=new_rb)


def _sample_level_contractions(
    b: BipartiteGraph, params: CoarseningParams, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], bool]:
    """One level's accepted contraction pairs; the flag marks a disconnected
    bridge merge (no clique edge existed at all)."""
    n_prev = b.num_left
    if n_prev < SMALL_GRAPH_CUTOFF:
        red_frac = params.rho_max
    else:
        red_frac = rng.uniform(params.rho_min, params.rho_max)

    clique = clique_of_bipartite(b)
    costs = _variation_costs(clique, params.preserve_k)
    if clique.num_edges:
        order = np.lexsort((clique.edges[:, 1], clique.edges[:, 0], costs))
        candidates = [tuple(int(x) for x in clique.edges[i]) for i in order]
    else:
        candidates = []

    used: set[int] = set()
    accepted: list[tuple[int, int]] = []

    for u, v in candidates:
        if rng.random() > params.gate_lambda:
            if u not in used and v not in used:
                accepted.append((u, v))
                used.update((u, v))
        if len(accepted) > red_frac * n_prev:
            break

    if accepted:
        return accepted, False

    # Forced progress: the gate rejected every candidate (or none existed).
    # Take the cheapest contraction; with no clique edge at all, bridge the
    # lowest-index pair across components.
    if candidates:
        return [candidates[0]], False
    return [(0, 1)], True


def _permute_bipartite(
    b: BipartiteGraph, lperm: np.ndarray, rperm: np.ndarray
) -> BipartiteGraph:
    """Relabel so that new node i is old node perm[i] on each side."""
    linv = np.empty(b.num_left, dtype=np.int64)
    linv[lperm] = np.arange(b.num_left)
    rinv = np.empty(b.num_right, dtype=np.int64)
    rinv[rperm] = np.arange(b.num_right)
    edges = (
        np.stack([linv[b.edges[:, 0]], rinv[b.edges[:, 1]]], axis=1)
        if b.num_edges
        else b.edges
    )
    return BipartiteGraph(
        num_left=b.num_left,
        num_right=b.num_right,
        edges=edges,
        left_budgets=b.left_budgets[lperm],
        left_features=b.left_features[lperm],
        right_features=b.right_features[rperm],
    )


def sample_coarsening_sequence(
    h: Hypergraph, params: CoarseningParams, rng: np.random.Generator
) -> CoarseningSequence:
    """Sample a full multi-scale sequence down to one node and one hyperedge.

    Levels are stored so that every coarse level's expansion enumerates the
    next-finer level's nodes as consecutive ascending blocks; replaying the
    stored targets therefore rebuilds each finer level exactly.  The terminal
    level's features are zeroed (whenever at least one reduction happened).

    Raises:
        ValueError: if the input has no hyperedges.
    """
    if h.num_hyperedges < 1:
        raise ValueError("cannot coarsen a hypergraph with no hyperedges")

    b0 = star_expand(h)
    raw: list[BipartiteGraph] = [b0]
    left_groups_per_step: list[list[tuple[int, ...]]] = [[]]
    right_groups_per_step: list[list[tuple[int, ...]]] = [[]]
    right_budgets = np.ones(b0.num_right, dtype=np.int64)

    # Terminates: ``Hypergraph`` rejects empty hyperedges, so every right
    # neighborhood is non-empty; each level removes at least one left node
    # while more than one is left; once one is left, every right neighborhood
    # is {0} and the right count falls from r to ceil(r / 3) per level.
    while raw[-1].num_left > 1 or raw[-1].num_right > 1:
        cur = raw[-1]
        pairs, bridged = [], False
        if cur.num_left > 1:
            pairs, bridged = _sample_level_contractions(cur, params, rng)
        merged = merge_left(cur, pairs, allow_disconnected=bridged)
        left_groups = complete_left_partition(pairs, cur.num_left)
        dedup = dedup_right(merged, right_budgets)
        raw.append(dedup.graph)
        left_groups_per_step.append(left_groups)
        right_groups_per_step.append([tuple(g) for g in dedup.groups])
        right_budgets = dedup.right_budgets

    top = len(raw) - 1
    if top >= 1:
        raw[top] = replace(
            raw[top],
            left_features=np.zeros_like(raw[top].left_features),
            right_features=np.zeros_like(raw[top].right_features),
        )

    # Top-down pass: fix each level's node order to the expansion order of its
    # parent, then record exact targets against the re-indexed finer level.
    lperm = np.arange(raw[top].num_left)
    rperm = np.arange(raw[top].num_right)
    stored: list[BipartiteGraph | None] = [None] * (top + 1)
    stored[top] = _permute_bipartite(raw[top], lperm, rperm)
    targets: list[tuple[ExpansionVectors, RefinementDecision] | None] = [None] * (top + 1)

    for t in range(top, 0, -1):
        gl = [tuple(sorted(left_groups_per_step[t][old])) for old in lperm]
        gr = [tuple(sorted(right_groups_per_step[t][old])) for old in rperm]
        child_lperm = np.array([i for g in gl for i in g], dtype=np.int64)
        child_rperm = np.array([i for g in gr for i in g], dtype=np.int64)
        fine = _permute_bipartite(raw[t - 1], child_lperm, child_rperm)
        stored[t - 1] = fine

        ev = ExpansionVectors([len(g) for g in gl], [len(g) for g in gr])
        expanded = expand(stored[t], ev)
        keep = kept_edges(expanded, fine)
        if int(keep.sum()) != fine.num_edges:
            raise AssertionError("finer edges escaped the expansion closure")
        fractions = fine.left_budgets / expanded.left_budgets
        targets[t] = (
            ev,
            RefinementDecision(
                edge_keep=keep,
                budget_split=fractions,
                left_features=fine.left_features,
                right_features=fine.right_features,
            ),
        )
        lperm, rperm = child_lperm, child_rperm

    levels = [CoarseningLevel(bipartite=stored[0])]
    for t in range(1, top + 1):
        ev, rd = targets[t]
        levels.append(CoarseningLevel(bipartite=stored[t], expansion=ev, refinement=rd))
    return CoarseningSequence(levels=tuple(levels))


@dataclass
class CacheItem:
    """One training draw: a sequence plus the sampled level index."""

    sequence: CoarseningSequence
    level_index: int


@dataclass
class CoarseningCache:
    """Per-graph queues of not-yet-consumed levels.

    Each take returns a uniformly random unconsumed level of the graph's
    current sequence; once every level was consumed a fresh sequence is
    sampled with new RNG draws.
    """

    graphs: Sequence[Hypergraph]
    params: CoarseningParams
    _state: dict[int, tuple[CoarseningSequence, list[int]]] = field(default_factory=dict)

    def take(self, graph_id: int, rng: np.random.Generator) -> CacheItem:
        if not 0 <= graph_id < len(self.graphs):
            raise ValueError(f"unknown graph id {graph_id}")
        entry = self._state.get(graph_id)
        if entry is None or not entry[1]:
            seq = sample_coarsening_sequence(self.graphs[graph_id], self.params, rng)
            entry = (seq, list(range(seq.num_levels)))
            self._state[graph_id] = entry
        seq, pending = entry
        level_index = pending.pop(int(rng.integers(len(pending))))
        return CacheItem(sequence=seq, level_index=level_index)
