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

Each level is built with array operations, without a Python loop over
incidences: the clique pairs and the right-node groups come from every right
node's neighbour run (:meth:`BipartiteGraph.right_runs`), and left groups are
numbered by their least member.  Each level is derived once: both merges
return the coarser node of every input node, the sampler keeps those two
partitions, and one top-down pass orders every level and records its targets.

Each level's code, here and in the helpers of ``expansion`` and
``hypergraph`` it calls, uses array methods (``x.repeat``, ``x.cumsum``,
``x.argsort``, ``x.all``) and ``np.column_stack`` rather than the
``np.repeat``-style functions and ``np.stack``: at a level's sizes the Python
dispatch of those functions costs more than their arithmetic, about 1 µs a
call, and an operation of the ``coarsen-ego`` benchmark makes tens of
thousands of such calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expansion import MAX_RIGHT_EXPANSION, ExpansionVectors, RefinementDecision, expand, kept_edges
from .hypergraph import (
    ZERO_EIGENVALUE_THRESHOLD,
    BipartiteGraph,
    CliqueExpansion,
    Hypergraph,
    _as_int_array,
    _check_fields,
    _least_reachable,
    clique_of_bipartite,
    star_expand,
)

__all__ = [
    "CoarseningParams",
    "CoarseningLevel",
    "CoarseningSequence",
    "CoarseningCache",
    "merge_left",
    "dedup_right",
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
        _check_fields(self)
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
    L = clique.laplacian()
    deg = L.diagonal()
    vals, vecs = np.linalg.eigh(L)
    k = min(preserve_k, clique.num_nodes)
    coef = np.zeros(k)
    positive = vals[:k] > ZERO_EIGENVALUE_THRESHOLD
    coef[positive] = vals[:k][positive] ** -0.5
    A = vecs[:, :k] * coef
    u, v = clique.edges[:, 0], clique.edges[:, 1]
    diff = A[u] - A[v]
    return 0.5 * (deg[u] + deg[v]) * np.einsum("ij,ij->i", diff, diff)


_PART_ERRORS = ("empty part", "part member out of range", "part lists a node twice", "parts must be disjoint")


def _left_assign(parts: Sequence[Sequence[int]], num_left: int) -> np.ndarray:
    """Group index of every left node: ``parts`` completed with singletons,
    groups ordered by least member.

    Raises on parts that are not all integers, and otherwise on the first
    invalid part, with the first of its faults in the order of
    ``_PART_ERRORS``; a part meets an earlier part when it shares a node
    with it.
    """
    sizes = np.array([len(p) for p in parts], dtype=np.int64)
    flat = _as_int_array([x for p in parts for x in p], "parts")
    part = np.arange(sizes.size).repeat(sizes)
    # Occurrences sorted by node, then part: a repeated node repeats within
    # its part or meets the earlier part listing it.
    order = np.lexsort((part, flat))
    node, part = flat[order], part[order]
    again = np.flatnonzero(node[1:] == node[:-1]) + 1
    if not sizes.all() or again.size or (node.size and (node[0] < 0 or node[-1] >= num_left)):
        fault = np.full(sizes.size, len(_PART_ERRORS))
        fault[sizes == 0] = 0
        np.minimum.at(fault, part[(node < 0) | (node >= num_left)], 1)
        np.minimum.at(fault, part[again], np.where(part[again] == part[again - 1], 2, 3))
        raise ValueError(_PART_ERRORS[fault[np.argmax(fault < len(_PART_ERRORS))]])
    leader = np.arange(num_left)
    if flat.size:
        leader[node] = np.minimum.reduceat(flat, sizes.cumsum() - sizes)[part]
    return _number_by_leader(leader)


def _number_by_leader(leader: np.ndarray) -> np.ndarray:
    """Group index of every node from its group's least member ``leader[i]``,
    groups numbered in ascending order of least member."""
    is_leader = leader == np.arange(leader.size)
    return (is_leader.cumsum() - 1)[leader]


def _first_disconnected_group(b: BipartiteGraph, assign: np.ndarray, hub: np.ndarray) -> int | None:
    """First group whose members do not all meet through right nodes they
    share, or None.  ``hub[e]`` numbers the (group, right node) pair of edge
    ``e``, so each node reaches the least node of its piece of its group."""
    labels = _least_reachable(b.num_left, b.edges[:, 0], hub)
    least = np.full(int(assign.max()) + 1, b.num_left)
    np.minimum.at(least, assign, labels)
    bad = np.flatnonzero(least[assign] != labels)
    return int(assign[bad].min()) if bad.size else None


def _weighted_means(
    features: np.ndarray, weights: np.ndarray, assign: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Per-group mean of ``features`` rows weighted by ``weights``.

    Row ``i`` joins group ``assign[i]``, whose weights sum to ``totals``.  Each
    group adds its weighted rows to zero in ascending row order (``np.add.at``
    is unbuffered and goes through the rows in order), then divides by its
    total.
    """
    out = np.zeros((totals.size, features.shape[1]))
    if not features.shape[1]:
        return out
    np.add.at(out, assign, features * weights[:, None])
    return out / totals[:, None]


def merge_left(
    b: BipartiteGraph, parts: Sequence[Sequence[int]], allow_disconnected: bool = False
) -> tuple[BipartiteGraph, np.ndarray]:
    """Merge left-node groups: budgets add, features average budget-weighted
    (:func:`_weighted_means`), right nodes and their features stay.

    Returns the merged graph and the merged left node of every input left
    node.  Unlisted nodes stay as singletons; merged node order is by least
    original member.  Each part must induce a connected piece of the clique
    expansion unless ``allow_disconnected``; the sampler passes it, because
    its pairs are clique edges or its last-resort bridge for disconnected
    inputs.

    Raises:
        ValueError: for parts that are not all integers, and on the first
            part that is empty, out of range, lists a node twice, meets an
            earlier part or (checked after all parts are valid) is not
            connected.
    """
    assign = _left_assign(parts, b.num_left)
    num_groups = int(assign.max()) + 1
    width = max(b.num_right, 1)
    keys, hub = np.unique(assign[b.edges[:, 0]] * width + b.edges[:, 1], return_inverse=True)
    if not allow_disconnected and num_groups < b.num_left:
        bad = _first_disconnected_group(b, assign, hub)
        if bad is not None:
            g = tuple(np.flatnonzero(assign == bad).tolist())
            raise ValueError(f"part {g} is not connected in the clique expansion")

    budgets = np.bincount(assign, weights=b.left_budgets, minlength=num_groups).astype(np.int64)
    graph = BipartiteGraph._derived(
        num_groups,
        b.num_right,
        np.column_stack((keys // width, keys % width)),
        budgets,
        _weighted_means(b.left_features, b.left_budgets, assign, budgets),
        b.right_features,
    )
    return graph, assign


def dedup_right(b: BipartiteGraph, right_budgets) -> tuple[BipartiteGraph, np.ndarray, np.ndarray]:
    """Merge right nodes with identical left neighborhoods.

    Each group of identical neighborhoods splits, in ascending index order,
    into consecutive chunks of at most ``MAX_RIGHT_EXPANSION`` (the most one
    right expansion can undo); the chunks stay distinct right nodes and merge
    further at a later level.  Groups are ordered by least member.  Features
    merge by budget-weighted mean, as in :func:`merge_left`; right budgets
    are tracked only inside coarsening (they are not a BipartiteGraph field)
    so they travel through this function explicitly.

    Returns the merged graph, the merged right node of every input right
    node, and the summed right budgets.

    Raises:
        ValueError: for right budgets that are not integers, or not one per
            right node.
    """
    rb = _as_int_array(right_budgets, "right budgets").reshape(-1)
    if rb.shape[0] != b.num_right:
        raise ValueError("right budget length mismatch")

    # Right nodes sorted by run size, then run, then index: equal runs are
    # consecutive and ascending, so each cap-sized chunk opens at a position
    # whose rank in its run class is a multiple of the cap.
    members, offsets = b.right_runs()
    sizes = offsets[1:] - offsets[:-1]
    rows = np.full((b.num_right, sizes.max(initial=0)), -1)
    right = np.arange(b.num_right).repeat(sizes)
    rows[right, np.arange(members.size) - offsets[right]] = members
    order = np.lexsort((*rows.T[::-1], sizes))
    rows = rows[order]
    opens_class = np.ones(b.num_right, dtype=bool)
    opens_class[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    position = np.arange(b.num_right)
    rank = position - np.maximum.accumulate(np.where(opens_class, position, 0))
    opens_chunk = rank % MAX_RIGHT_EXPANSION == 0
    leader = np.empty(b.num_right, dtype=np.int64)
    leader[order] = order[opens_chunk][opens_chunk.cumsum() - 1]
    assign = _number_by_leader(leader)
    num_groups = int(assign.max(initial=-1)) + 1
    # The merged edges are the chunk leaders' edges.
    kept = b.edges[leader[b.edges[:, 1]] == b.edges[:, 1]]
    new_rb = np.bincount(assign, weights=rb, minlength=num_groups).astype(np.int64)
    graph = BipartiteGraph._derived(
        b.num_left,
        num_groups,
        np.column_stack((kept[:, 0], assign[kept[:, 1]])),
        b.left_budgets,
        b.left_features,
        _weighted_means(b.right_features, rb, assign, new_rb),
    )
    return graph, assign, new_rb


def _contraction_order(b: BipartiteGraph, preserve_k: int) -> np.ndarray:
    """The clique edges of ``b`` as ``(P, 2)`` pairs, cheapest contraction
    first (:func:`_variation_costs`); ties keep ascending (u, v) order.

    Depends only on ``b`` and ``preserve_k``, so the read-only order is kept
    on ``b`` per ``preserve_k``: every later coarsening of the same level
    object, such as the cached star expansion of an input graph, reuses it.
    """
    orders = b.__dict__.setdefault("_contraction_orders", {})
    order = orders.get(preserve_k)
    if order is None:
        clique = clique_of_bipartite(b)
        order = clique.edges[_variation_costs(clique, preserve_k).argsort(kind="stable")]
        order.setflags(write=False)
        orders[preserve_k] = order
    return order


def _sample_level_contractions(
    b: BipartiteGraph, params: CoarseningParams, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """One level's accepted contraction pairs: disjoint clique edges or,
    when no clique edge exists at all, the bridge (0, 1) across components."""
    n_prev = b.num_left
    if n_prev < SMALL_GRAPH_CUTOFF:
        red_frac = params.rho_max
    else:
        red_frac = rng.uniform(params.rho_min, params.rho_max)

    candidates = _contraction_order(b, params.preserve_k).tolist()

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
        return accepted

    # Forced progress: the gate rejected every candidate (or none existed).
    # Take the cheapest contraction; with no clique edge at all, bridge the
    # lowest-index pair across components.
    return [candidates[0]] if candidates else [(0, 1)]


def _permute_bipartite(
    b: BipartiteGraph, lperm: np.ndarray, rperm: np.ndarray
) -> BipartiteGraph:
    """Relabel so that new node i is old node perm[i] on each side."""
    linv = np.empty(b.num_left, dtype=np.int64)
    linv[lperm] = np.arange(b.num_left)
    rinv = np.empty(b.num_right, dtype=np.int64)
    rinv[rperm] = np.arange(b.num_right)
    return BipartiteGraph._derived(
        b.num_left,
        b.num_right,
        np.column_stack((linv[b.edges[:, 0]], rinv[b.edges[:, 1]])),
        b.left_budgets[lperm],
        b.left_features[lperm],
        b.right_features[rperm],
    )


def _children_in_order(assign: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finer nodes in the order of their coarser node's stored position
    (coarser node i is ``perm[i]`` of ``assign``), ascending within each, and
    the child count of every stored coarser node."""
    position = np.empty_like(perm)
    position[perm] = np.arange(perm.size)
    parent = position[assign]
    return parent.argsort(kind="stable"), np.bincount(parent, minlength=perm.size)


def sample_coarsening_sequence(
    h: Hypergraph, params: CoarseningParams, rng: np.random.Generator
) -> CoarseningSequence:
    """Sample a full multi-scale sequence down to one node and one hyperedge.

    Levels are stored so that every coarse level's expansion enumerates the
    next-finer level's nodes as consecutive ascending blocks; replaying the
    stored targets therefore rebuilds each finer level exactly.  The terminal
    level's features are zeroed (whenever at least one reduction happened).

    The finest level's work depends only on ``h`` and ``params.preserve_k``
    and is done once per graph object: :func:`star_expand` keeps the star
    expansion on ``h``, and :func:`_contraction_order` keeps its ``(P, 2)``
    contraction order on that expansion, one per ``preserve_k``.  Coarser
    levels are new objects on every call and compute their order once.
    The random draws do not depend on what was cached.

    Raises:
        ValueError: if the input has no hyperedges.
    """
    if h.num_hyperedges < 1:
        raise ValueError("cannot coarsen a hypergraph with no hyperedges")

    raw: list[BipartiteGraph] = [star_expand(h)]
    # The coarser node of every left and right node, per contraction step.
    assigns: list[tuple[np.ndarray, np.ndarray]] = []
    right_budgets = np.ones(raw[0].num_right, dtype=np.int64)

    # Terminates: ``Hypergraph`` rejects empty hyperedges, so every right
    # neighborhood is non-empty; each level removes at least one left node
    # while more than one is left; once one is left, every right neighborhood
    # is {0} and the right count falls from r to ceil(r / 3) per level.
    while raw[-1].num_left > 1 or raw[-1].num_right > 1:
        cur = raw[-1]
        pairs = _sample_level_contractions(cur, params, rng) if cur.num_left > 1 else []
        # The pairs are disjoint clique edges, each pair meeting in a
        # hyperedge, or the bridge across components: the connectivity check
        # of merge_left could fail only on the bridge, which is meant.
        merged, left_assign = merge_left(cur, pairs, allow_disconnected=True)
        coarse, right_assign, right_budgets = dedup_right(merged, right_budgets)
        raw.append(coarse)
        assigns.append((left_assign, right_assign))

    coarse = raw.pop()
    if assigns:
        coarse = BipartiteGraph._derived(
            coarse.num_left,
            coarse.num_right,
            coarse.edges,
            coarse.left_budgets,
            np.zeros_like(coarse.left_features),
            np.zeros_like(coarse.right_features),
        )

    # Top-down pass: fix each level's node order to the expansion order of its
    # parent, then record exact targets against the re-indexed finer level.
    lperm = np.arange(coarse.num_left)
    rperm = np.arange(coarse.num_right)
    levels: list[CoarseningLevel] = []
    for (left_assign, right_assign), raw_fine in zip(reversed(assigns), reversed(raw)):
        lperm, left_sizes = _children_in_order(left_assign, lperm)
        rperm, right_sizes = _children_in_order(right_assign, rperm)
        fine = _permute_bipartite(raw_fine, lperm, rperm)
        ev = ExpansionVectors._derived(left_sizes, right_sizes)
        expanded = expand(coarse, ev)
        keep = kept_edges(expanded, fine)
        if int(keep.sum()) != fine.num_edges:
            raise AssertionError("finer edges escaped the expansion closure")
        rd = RefinementDecision._derived(
            keep, fine.left_budgets / expanded.left_budgets, fine.left_features, fine.right_features
        )
        levels.append(CoarseningLevel(bipartite=coarse, expansion=ev, refinement=rd))
        coarse = fine
    levels.append(CoarseningLevel(bipartite=coarse))
    return CoarseningSequence(levels=tuple(reversed(levels)))


@dataclass
class CoarseningCache:
    """Per-graph queues of not-yet-consumed levels.

    Each take returns ``(sequence, level_index)``: the graph's current
    sequence and a uniformly random unconsumed level of it; once every level
    was consumed a fresh sequence is sampled with new RNG draws.  Each
    resample reuses the star expansion and finest contraction order kept on
    the graph object (see :func:`sample_coarsening_sequence`), so each of
    ``graphs`` carries one of each beside the queues held here.
    """

    graphs: Sequence[Hypergraph]
    params: CoarseningParams
    _state: dict[int, tuple[CoarseningSequence, list[int]]] = field(default_factory=dict)

    def take(self, graph_id: int, rng: np.random.Generator) -> tuple[CoarseningSequence, int]:
        if not 0 <= graph_id < len(self.graphs):
            raise ValueError(f"unknown graph id {graph_id}")
        entry = self._state.get(graph_id)
        if entry is None or not entry[1]:
            seq = sample_coarsening_sequence(self.graphs[graph_id], self.params, rng)
            entry = (seq, list(range(seq.num_levels)))
            self._state[graph_id] = entry
        seq, pending = entry
        level_index = pending.pop(int(rng.integers(len(pending))))
        return seq, level_index
