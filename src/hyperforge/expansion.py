"""Expansion and refinement of bipartite levels.

Expansion clones every node into a small cluster of children (1-2 on the left,
1-3 on the right) and interconnects all child pairs of formerly adjacent
parents; children inherit budgets and features verbatim.  Refinement then
selects which expanded edges survive, splits parent budgets over children, and
replaces features wholesale.  A perturbed variant of expansion adds random
extra edges between children of near-by parents so the refinement model also
learns to delete edges.  Perturbation edges are never positives: coarsening
only contracts adjacent nodes, so every edge of a finer level joins children
of adjacent parents.  A model trained on perturbed expansions therefore
learns to drop about the share of input edges that perturbation adds, and
sampling has to expand the same way the model was trained.

Each level-structure primitive has one vectorised home here, used by
coarsening, training and sampling alike: the child pairs of parent pairs
(:func:`expand` and :func:`perturb_expand`), the sibling pairs of an
expanded side (:func:`sibling_pairs`), the integer budget split of every
left block at once (:func:`split_budgets`) and the kept-edge mask of a finer
level (:func:`kept_edges`).  Every left block has one or two children, so the
sibling pairs and the only children cover the left side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hypergraph import BipartiteGraph

__all__ = [
    "MAX_RIGHT_EXPANSION",
    "ExpansionVectors",
    "RefinementDecision",
    "expand",
    "perturb_expand",
    "sibling_pairs",
    "split_budgets",
    "kept_edges",
    "refine",
    "reconstruct_finer",
]

# The most children one right node can expand into; coarsening merges at most
# this many identical right nodes per level so that expansion can undo it.
MAX_RIGHT_EXPANSION = 3


@dataclass(frozen=True)
class ExpansionVectors:
    """Per-node child counts: left entries in {1, 2}, right entries in 1..MAX_RIGHT_EXPANSION."""

    left: np.ndarray
    right: np.ndarray

    def __init__(self, left, right):
        larr = np.asarray(left, dtype=np.int64).reshape(-1)
        rarr = np.asarray(right, dtype=np.int64).reshape(-1)
        if larr.size and (larr.min() < 1 or larr.max() > 2):
            raise ValueError("left expansion counts must be 1 or 2")
        if rarr.size and (rarr.min() < 1 or rarr.max() > MAX_RIGHT_EXPANSION):
            raise ValueError(f"right expansion counts must be in 1..{MAX_RIGHT_EXPANSION}")
        larr.flags.writeable = False
        rarr.flags.writeable = False
        object.__setattr__(self, "left", larr)
        object.__setattr__(self, "right", rarr)


@dataclass(frozen=True)
class RefinementDecision:
    """Targets or sampled outputs that turn an expanded graph into the finer level.

    ``edge_keep`` is 0/1 per expanded edge (canonical lexicographic order),
    ``budget_split`` holds one simplex fraction per left child (grouped by
    sibling blocks), and the feature matrices replace the inherited parent
    features wholesale.
    """

    edge_keep: np.ndarray
    budget_split: np.ndarray
    left_features: np.ndarray
    right_features: np.ndarray

    def __init__(self, edge_keep, budget_split, left_features, right_features):
        ek = np.asarray(edge_keep, dtype=np.int8).reshape(-1)
        if ek.size and not np.all((ek == 0) | (ek == 1)):
            raise ValueError("edge_keep entries must be 0 or 1")
        bs = np.asarray(budget_split, dtype=np.float64).reshape(-1)
        lf = np.asarray(left_features, dtype=np.float64)
        rf = np.asarray(right_features, dtype=np.float64)
        for arr in (ek, bs, lf, rf):
            arr.flags.writeable = False
        object.__setattr__(self, "edge_keep", ek)
        object.__setattr__(self, "budget_split", bs)
        object.__setattr__(self, "left_features", lf)
        object.__setattr__(self, "right_features", rf)


def _child_pairs(v: ExpansionVectors, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Every child pair of the parent pairs ``(ps[i], qs[i])``, pair after
    pair: entry k of pair (p, q) is the child pair (k // rc, k % rc) of the
    two sibling blocks, where rc = ``v.right[q]``."""
    sizes = v.left[ps] * v.right[qs]
    pair = np.repeat(np.arange(ps.size), sizes)
    k = np.arange(pair.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rc = v.right[qs[pair]]
    left = (np.cumsum(v.left) - v.left)[ps[pair]] + k // rc
    right = (np.cumsum(v.right) - v.right)[qs[pair]] + k % rc
    return np.stack([left, right], axis=1)


def expand(b: BipartiteGraph, v: ExpansionVectors) -> BipartiteGraph:
    """Clone-and-rewire expansion.

    Each parent becomes a consecutive block of children (ascending parent
    order); every expanded edge set contains all child pairs of each parent
    edge.  Children inherit the parent budget and feature row verbatim, so
    both feature matrices keep their width (0 included); right budgets are
    not modeled past this point.
    """
    if v.left.shape[0] != b.num_left or v.right.shape[0] != b.num_right:
        raise ValueError("expansion vector length mismatch")
    return BipartiteGraph(
        num_left=int(v.left.sum()),
        num_right=int(v.right.sum()),
        edges=_child_pairs(v, b.edges[:, 0], b.edges[:, 1]),
        left_budgets=np.repeat(b.left_budgets, v.left),
        left_features=np.repeat(b.left_features, v.left, axis=0),
        right_features=np.repeat(b.right_features, v.right, axis=0),
        cluster_of_left=np.repeat(np.arange(b.num_left, dtype=np.int64), v.left),
        cluster_of_right=np.repeat(np.arange(b.num_right, dtype=np.int64), v.right),
    )


def perturb_expand(
    b: BipartiteGraph,
    v: ExpansionVectors,
    radius: int,
    edge_prob: float,
    rng: np.random.Generator,
) -> BipartiteGraph:
    """Expansion plus random extra edges.

    For every left/right child pair that is not an expanded edge but whose
    parents sit within bipartite distance ``2 * radius + 1``, an extra edge is
    added independently with probability ``edge_prob``.  The draws run over
    parent pairs in row-major order, one per child pair in the order of
    :func:`_child_pairs`.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    base = expand(b, v)
    # distance 1 pairs are exactly the parent edges, whose child pairs all
    # exist already, so radius 0 has nothing to add
    if radius == 0 or edge_prob == 0.0:
        return base
    # reach[p, q]: right parent q lies within distance 2 * radius + 1 of left parent p
    incidence = np.zeros((b.num_left, b.num_right))
    incidence[b.edges[:, 0], b.edges[:, 1]] = 1.0
    left_hops = incidence @ incidence.T
    reach = incidence
    for _ in range(radius):
        reach = np.minimum(reach + left_hops @ reach, 1.0)
    reach[b.edges[:, 0], b.edges[:, 1]] = 0.0
    candidates = _child_pairs(v, *np.nonzero(reach))
    extra = candidates[rng.random(candidates.shape[0]) < edge_prob]
    if extra.shape[0] == 0:
        return base
    return replace(base, edges=np.concatenate([base.edges, extra]))


def sibling_pairs(cluster_map: np.ndarray) -> np.ndarray:
    """The ``(P, 2)`` child indices of every block of exactly two children in
    an expanded graph's ``cluster_of_left`` or ``cluster_of_right``, in block
    order.  Only children and right triples name no pair."""
    sizes = np.bincount(cluster_map)
    first = (np.cumsum(sizes) - sizes)[sizes == 2]
    return np.stack([first, first + 1], axis=1)


def split_budgets(budgets: np.ndarray, fractions, cluster_of_left: np.ndarray) -> np.ndarray:
    """Integer budget split of every left block at once.

    Each block's budget is the ``budgets`` entry of its first child.  Every
    child gets round(budget * fraction), rounding half up, and at least 1;
    a pair whose shares then exceed the budget gives the surplus back one
    unit at a time, second child first and in turns, skipping a child at 1,
    and a pair short of it gets the rest one unit at a time, first child
    first and in turns.  On exact ties the first child ends up with the
    larger share.  An only child gets the whole budget.

    Raises:
        ValueError: for a block of more than two children, a budget that
            cannot give every child of its block >= 1, or fractions off the
            simplex of their block beyond tolerance (an entry below -1e-9 or
            a block sum more than 1e-6 away from 1).
    """
    f = np.asarray(fractions, dtype=np.float64).reshape(-1)
    sizes = np.bincount(cluster_of_left)
    if sizes.max(initial=0) > 2:
        raise ValueError("a budget split covers one or two children")
    block_budget = np.asarray(budgets, dtype=np.int64)[np.cumsum(sizes) - sizes]
    if np.any(block_budget < sizes):
        raise ValueError("a parent budget cannot cover its children")
    sums = np.bincount(cluster_of_left, weights=f, minlength=sizes.size)
    if np.any(f < -1e-9) or not np.all(np.abs(sums - 1.0) <= 1e-6):
        raise ValueError("fractions are off the simplex beyond tolerance")
    out = block_budget[cluster_of_left]
    first, second = sibling_pairs(cluster_of_left).T
    budget = out[first]
    a = np.maximum(np.floor(budget * np.clip(f[first], 0.0, None) + 0.5).astype(np.int64), 1)
    b = np.maximum(np.floor(budget * np.clip(f[second], 0.0, None) + 0.5).astype(np.int64), 1)
    surplus = np.maximum(a + b - budget, 0)
    deficit = np.maximum(budget - a - b, 0)
    # turns alternate, second child first, until a child is down to 1
    from_b = np.minimum(b - 1, np.maximum((surplus + 1) // 2, surplus - (a - 1)))
    out[first] = a - (surplus - from_b) + (deficit + 1) // 2
    out[second] = b - from_b + deficit // 2
    return out


def kept_edges(expanded: BipartiteGraph, fine: BipartiteGraph) -> np.ndarray:
    """0/1 mask over ``expanded.edges``: 1 where ``fine`` has the same edge."""
    width = expanded.num_right
    keys = expanded.edges[:, 0] * width + expanded.edges[:, 1]
    return np.isin(keys, fine.edges[:, 0] * width + fine.edges[:, 1]).astype(np.int8)


def refine(expanded: BipartiteGraph, decision: RefinementDecision) -> BipartiteGraph:
    """Apply a refinement decision to an expanded graph.

    Keeps the selected edges, splits each parent budget over its sibling block
    per the stored fractions with :func:`split_budgets`, and swaps in the
    refined feature matrices.  The result carries no sibling maps; it is a
    plain level again.
    """
    if expanded.cluster_of_left is None or expanded.cluster_of_right is None:
        raise ValueError("refine requires an expanded graph with sibling maps")
    if decision.edge_keep.shape[0] != expanded.num_edges:
        raise ValueError("edge_keep length mismatch")
    if decision.budget_split.shape[0] != expanded.num_left:
        raise ValueError("budget_split length mismatch")

    kept = expanded.edges[decision.edge_keep.astype(bool)]
    budgets = split_budgets(expanded.left_budgets, decision.budget_split, expanded.cluster_of_left)

    return BipartiteGraph(
        num_left=expanded.num_left,
        num_right=expanded.num_right,
        edges=kept,
        left_budgets=budgets,
        left_features=decision.left_features,
        right_features=decision.right_features,
    )


def reconstruct_finer(
    coarse: BipartiteGraph, v: ExpansionVectors, decision: RefinementDecision
) -> BipartiteGraph:
    """Expand a level and refine it with stored targets in one call."""
    return refine(expand(coarse, v), decision)
