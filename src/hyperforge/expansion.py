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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import BipartiteGraph

__all__ = [
    "MAX_RIGHT_EXPANSION",
    "ExpansionVectors",
    "RefinementDecision",
    "expand",
    "perturb_expand",
    "sibling_groups",
    "split_budget",
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
    sibling blocks), and the feature matrices, when present, replace the
    inherited parent features wholesale.
    """

    edge_keep: np.ndarray
    budget_split: np.ndarray
    left_features: np.ndarray | None = None
    right_features: np.ndarray | None = None

    def __init__(self, edge_keep, budget_split, left_features=None, right_features=None):
        ek = np.asarray(edge_keep, dtype=np.int8).reshape(-1)
        if ek.size and not np.all((ek == 0) | (ek == 1)):
            raise ValueError("edge_keep entries must be 0 or 1")
        bs = np.asarray(budget_split, dtype=np.float64).reshape(-1)
        lf = None if left_features is None else np.asarray(left_features, dtype=np.float64)
        rf = None if right_features is None else np.asarray(right_features, dtype=np.float64)
        for arr in (ek, bs, lf, rf):
            if arr is not None:
                arr.flags.writeable = False
        object.__setattr__(self, "edge_keep", ek)
        object.__setattr__(self, "budget_split", bs)
        object.__setattr__(self, "left_features", lf)
        object.__setattr__(self, "right_features", rf)


def _child_offsets(counts: np.ndarray) -> np.ndarray:
    off = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def expand(b: BipartiteGraph, v: ExpansionVectors) -> BipartiteGraph:
    """Clone-and-rewire expansion.

    Each parent becomes a consecutive block of children (ascending parent
    order); every expanded edge set contains all child pairs of each parent
    edge.  Children inherit the parent budget and feature row verbatim; right
    budgets are not modeled past this point.
    """
    if v.left.shape[0] != b.num_left or v.right.shape[0] != b.num_right:
        raise ValueError("expansion vector length mismatch")
    loff = _child_offsets(v.left)
    roff = _child_offsets(v.right)
    num_left = int(loff[-1])
    num_right = int(roff[-1])

    pieces = []
    for p, q in b.edges:
        lc, rc = int(v.left[p]), int(v.right[q])
        block = np.empty((lc * rc, 2), dtype=np.int64)
        block[:, 0] = np.repeat(np.arange(loff[p], loff[p] + lc), rc)
        block[:, 1] = np.tile(np.arange(roff[q], roff[q] + rc), lc)
        pieces.append(block)
    edges = np.concatenate(pieces) if pieces else np.zeros((0, 2), dtype=np.int64)

    cl = np.repeat(np.arange(b.num_left, dtype=np.int64), v.left)
    cr = np.repeat(np.arange(b.num_right, dtype=np.int64), v.right)
    lf = None if b.left_features is None else np.repeat(b.left_features, v.left, axis=0)
    rf = None if b.right_features is None else np.repeat(b.right_features, v.right, axis=0)
    return BipartiteGraph(
        num_left=num_left,
        num_right=num_right,
        edges=edges,
        left_budgets=np.repeat(b.left_budgets, v.left),
        left_features=lf,
        right_features=rf,
        cluster_of_left=cl,
        cluster_of_right=cr,
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
    parent pairs in row-major order, ``lc * rc`` draws per pair.
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
    ps, qs = np.nonzero(reach)
    sizes = v.left[ps] * v.right[qs]
    keep = rng.random(int(sizes.sum())) < edge_prob
    # draw k of parent pair (p, q) is child pair (k // rc, k % rc), as in expand
    pair = np.repeat(np.arange(ps.size), sizes)
    k = np.arange(pair.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rc = v.right[qs[pair]]
    left = _child_offsets(v.left)[ps[pair]] + k // rc
    right = _child_offsets(v.right)[qs[pair]] + k % rc
    extra = np.stack([left, right], axis=1)[keep]
    if extra.shape[0] == 0:
        return base
    return BipartiteGraph(
        num_left=base.num_left,
        num_right=base.num_right,
        edges=np.concatenate([base.edges, extra]),
        left_budgets=base.left_budgets,
        left_features=base.left_features,
        right_features=base.right_features,
        cluster_of_left=base.cluster_of_left,
        cluster_of_right=base.cluster_of_right,
    )


def split_budget(parent_budget: int, fractions) -> np.ndarray:
    """Integer budget split: round(parent * fraction) with sum correction.

    Rounding is half-up per child, children are clamped to >= 1, and any
    surplus is removed starting from the highest index while any deficit is
    added starting from the lowest, so on exact ties the lowest-index child
    ends up with the larger share.

    Raises:
        ValueError: if the parent budget cannot give every child >= 1, or the
            fractions are off the simplex beyond tolerance.
    """
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


def sibling_groups(cluster_map: np.ndarray) -> list[list[int]]:
    """Index lists of the consecutive blocks of equal labels in an expanded
    graph's ``cluster_of_left`` or ``cluster_of_right``: the sibling groups."""
    if cluster_map.shape[0] == 0:
        return []
    starts = np.flatnonzero(np.diff(cluster_map)) + 1
    return [g.tolist() for g in np.split(np.arange(cluster_map.shape[0]), starts)]


def refine(expanded: BipartiteGraph, decision: RefinementDecision) -> BipartiteGraph:
    """Apply a refinement decision to an expanded graph.

    Keeps the selected edges, splits each parent budget over its sibling block
    per the stored fractions, and swaps in the refined feature matrices (when
    absent, the inherited parent features are kept).  The result carries no
    sibling maps; it is a plain level again.
    """
    if expanded.cluster_of_left is None or expanded.cluster_of_right is None:
        raise ValueError("refine requires an expanded graph with sibling maps")
    if decision.edge_keep.shape[0] != expanded.num_edges:
        raise ValueError("edge_keep length mismatch")
    if decision.budget_split.shape[0] != expanded.num_left:
        raise ValueError("budget_split length mismatch")

    kept = expanded.edges[decision.edge_keep.astype(bool)]
    budgets = np.empty(expanded.num_left, dtype=np.int64)
    for g in sibling_groups(expanded.cluster_of_left):
        budgets[g] = split_budget(int(expanded.left_budgets[g[0]]), decision.budget_split[g])

    lf = decision.left_features if decision.left_features is not None else expanded.left_features
    rf = decision.right_features if decision.right_features is not None else expanded.right_features
    if lf is not None and lf.shape[0] != expanded.num_left:
        raise ValueError("left feature rows mismatch")
    if rf is not None and rf.shape[0] != expanded.num_right:
        raise ValueError("right feature rows mismatch")
    return BipartiteGraph(
        num_left=expanded.num_left,
        num_right=expanded.num_right,
        edges=kept,
        left_budgets=budgets,
        left_features=lf,
        right_features=rf,
    )


def reconstruct_finer(
    coarse: BipartiteGraph, v: ExpansionVectors, decision: RefinementDecision
) -> BipartiteGraph:
    """Expand a level and refine it with stored targets in one call."""
    return refine(expand(coarse, v), decision)
