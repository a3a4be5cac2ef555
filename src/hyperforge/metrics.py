"""Evaluation metrics for sets of generated hypergraphs.

Distribution distances (1-d Wasserstein on degree and hyperedge-size
multisets, Gaussian-kernel MMD on spectral histograms), per-kind validity
predicates, mesh Chamfer distance to the nearest reference, and node-count
error against size targets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from math import comb

import numpy as np

from .hypergraph import Hypergraph, clique_of_bipartite, is_connected, normalized_laplacian, star_expand

__all__ = [
    "MetricReport",
    "wasserstein_1d",
    "degree_multiset",
    "edge_size_multiset",
    "spectral_histogram",
    "spectral_mmd",
    "validity",
    "validity_fraction",
    "sample_surface_points",
    "chamfer_distance",
    "chamfer_nearest",
    "node_num_diff",
]

SPECTRAL_BINS = 64
SPECTRAL_RANGE = (0.0, 2.0)


@dataclass
class MetricReport:
    """Bundle of summary metrics; optional entries stay None when not applicable."""

    node_num_diff: float
    degree_wasserstein: float
    edge_size_wasserstein: float
    spectral_mmd: float
    validity_fraction: float | None = None
    chamfer_nearest: float | None = None

    def __post_init__(self):
        for name in ("node_num_diff", "degree_wasserstein", "edge_size_wasserstein", "spectral_mmd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.validity_fraction is not None and not 0.0 <= self.validity_fraction <= 1.0:
            raise ValueError("validity_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def wasserstein_1d(a, b) -> float:
    """First Wasserstein distance between two empirical multisets."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein_1d needs nonempty multisets")
    from scipy.stats import wasserstein_distance  # imported here: train, sample and coarsen never call this

    return float(wasserstein_distance(a, b))


def degree_multiset(h: Hypergraph) -> np.ndarray:
    """Node degrees (hyperedges incident to each node)."""
    counts = np.zeros(h.num_nodes, dtype=np.int64)
    for e in h.hyperedges:
        for v in e:
            counts[v] += 1
    return counts


def edge_size_multiset(h: Hypergraph) -> np.ndarray:
    return np.array([len(e) for e in h.hyperedges], dtype=np.int64)


def spectral_histogram(h: Hypergraph) -> np.ndarray:
    """Normalized eigenvalue histogram of the incidence normalized Laplacian."""
    lap = normalized_laplacian(star_expand(h))
    vals = np.linalg.eigvalsh(lap)
    hist, _ = np.histogram(np.clip(vals, *SPECTRAL_RANGE), bins=SPECTRAL_BINS, range=SPECTRAL_RANGE)
    total = hist.sum()
    return hist / total if total else hist.astype(np.float64)


def spectral_mmd(set_a: list[Hypergraph], set_b: list[Hypergraph]) -> float:
    """Squared Gaussian-kernel MMD between spectral-histogram clouds.

    Bandwidth is the median pairwise distance over the pooled histograms
    (falling back to 1 when all histograms coincide).  The biased estimator
    is used, so identical sets score exactly zero.
    """
    if not set_a or not set_b:
        raise ValueError("spectral_mmd needs nonempty sets")
    ha = np.stack([spectral_histogram(h) for h in set_a])
    hb = np.stack([spectral_histogram(h) for h in set_b])
    pooled = np.vstack([ha, hb])
    sq = np.sum((pooled[:, None, :] - pooled[None, :, :]) ** 2, axis=-1)
    tri = np.sqrt(sq[np.triu_indices(len(pooled), k=1)])
    sigma = float(np.median(tri)) if tri.size else 0.0
    if sigma <= 0.0:
        sigma = 1.0
    kernel = np.exp(-sq / (2.0 * sigma * sigma))
    na, nb = len(ha), len(hb)
    k_aa = kernel[:na, :na].mean()
    k_bb = kernel[na:, na:].mean()
    k_ab = kernel[:na, na:].mean()
    return float(max(k_aa + k_bb - 2.0 * k_ab, 0.0))


def _fiedler_bipartition(h: Hypergraph) -> tuple[np.ndarray, np.ndarray] | None:
    clique = clique_of_bipartite(star_expand(h))
    if clique.num_edges == 0:
        return None
    fiedler = np.linalg.eigh(clique.laplacian())[1][:, 1]
    return np.flatnonzero(fiedler >= 0), np.flatnonzero(fiedler < 0)


def _valid_sbm(h: Hypergraph) -> bool:
    """Spectral bipartition with balanced parts and strongly intra-dominated rates.

    Valid when both recovered communities hold at least a quarter of the
    nodes, at least one hyperedge is fully inside a community, and the
    per-candidate intra rate is at least ten times the inter rate.
    """
    n = h.num_nodes
    if n < 4 or h.num_hyperedges == 0:
        return False
    parts = _fiedler_bipartition(h)
    if parts is None:
        return False
    part_a, part_b = parts
    if min(len(part_a), len(part_b)) < 0.25 * n:
        return False
    in_a = set(part_a.tolist())
    in_b = set(part_b.tolist())
    intra = sum(1 for e in h.hyperedges if set(e) <= in_a or set(e) <= in_b)
    inter = h.num_hyperedges - intra
    if intra < 1:
        return False
    cand_intra = comb(len(part_a), 3) + comb(len(part_b), 3)
    cand_inter = comb(n, 3) - cand_intra
    if cand_intra == 0:
        return False
    intra_rate = intra / cand_intra
    inter_rate = inter / cand_inter if cand_inter else 0.0
    return intra_rate >= 10.0 * inter_rate


def _valid_ego(h: Hypergraph) -> bool:
    if h.num_hyperedges == 0:
        return False
    common = set(h.hyperedges[0])
    for e in h.hyperedges[1:]:
        common &= set(e)
        if not common:
            return False
    return True


def _valid_tree(h: Hypergraph) -> bool:
    """Connected clique expansion plus an acyclic incidence graph.

    A connected incidence graph is a tree exactly when its edge count equals
    its node count minus one; any cycle there passes through at least two
    distinct hyperedges.
    """
    if h.num_hyperedges == 0:
        return h.num_nodes <= 1
    return is_connected(h) and h.num_incidences == h.num_nodes + h.num_hyperedges - 1


_VALIDITY = {"sbm": _valid_sbm, "ego": _valid_ego, "tree": _valid_tree}


def validity(kind: str, h: Hypergraph) -> bool:
    if kind not in _VALIDITY:
        raise ValueError(f"unknown validity kind {kind!r}")
    return _VALIDITY[kind](h)


def validity_fraction(kind: str, graphs: list[Hypergraph]) -> float:
    if not graphs:
        raise ValueError("validity_fraction needs graphs")
    return sum(validity(kind, h) for h in graphs) / len(graphs)


def sample_surface_points(h: Hypergraph, num_points: int, rng: np.random.Generator) -> np.ndarray:
    """Area-uniform surface samples from a triangle mesh hypergraph."""
    if h.node_features is None or h.node_features.shape[1] != 3:
        raise ValueError("surface sampling needs 3-d node features")
    tris = [e for e in h.hyperedges if len(e) == 3]
    if not tris:
        raise ValueError("no triangles to sample")
    idx = np.array(tris, dtype=np.int64)
    pts = h.node_features
    a, b, c = pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    if total <= 0:
        raise ValueError("degenerate zero-area mesh")
    choice = rng.choice(len(tris), size=num_points, p=areas / total)
    u = rng.random(num_points)
    v = rng.random(num_points)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    return a[choice] + u[:, None] * (b - a)[choice] + v[:, None] * (c - a)[choice]


def chamfer_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric point-cloud distance: both mean nearest-neighbor terms."""
    from scipy.spatial import cKDTree  # imported here: train, sample and coarsen never call this

    d_pq = cKDTree(q).query(p)[0].mean()
    d_qp = cKDTree(p).query(q)[0].mean()
    return float(d_pq + d_qp)


def chamfer_nearest(
    generated: Hypergraph,
    references: list[Hypergraph],
    num_points: int = 1024,
    seed: int = 0,
) -> float:
    """Chamfer distance to the closest reference mesh.

    Every mesh is sampled with an identically seeded rng, so a reference
    equal to the query scores exactly zero.
    """
    if not references:
        raise ValueError("chamfer_nearest needs references")
    gen_pts = sample_surface_points(generated, num_points, np.random.default_rng(seed))
    best = np.inf
    for ref in references:
        ref_pts = sample_surface_points(ref, num_points, np.random.default_rng(seed))
        best = min(best, chamfer_distance(gen_pts, ref_pts))
    return float(best)


def node_num_diff(generated: list[Hypergraph], references: list[Hypergraph]) -> float:
    """Mean absolute node-count error against cyclically paired targets."""
    if not generated or not references:
        raise ValueError("node_num_diff needs nonempty sets")
    diffs = [
        abs(g.num_nodes - references[i % len(references)].num_nodes)
        for i, g in enumerate(generated)
    ]
    return float(np.mean(diffs))
