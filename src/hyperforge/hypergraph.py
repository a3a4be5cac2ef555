"""Core hypergraph containers and spectral primitives.

A hypergraph is carried in two interchangeable forms: the node/hyperedge view
(:class:`Hypergraph`) and its star expansion (:class:`BipartiteGraph`), a
bipartite incidence graph whose left side holds nodes and whose right side
holds hyperedges.  All containers are immutable after construction; arrays are
stored read-only so accidental in-place edits fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

__all__ = [
    "Hypergraph",
    "BipartiteGraph",
    "CliqueExpansion",
    "star_expand",
    "clique_of_bipartite",
    "collapse_bipartite",
    "is_connected",
    "normalized_laplacian",
    "smallest_nonzero_eigs",
    "read_graphs_jsonl",
    "write_graphs_jsonl",
]

ZERO_EIGENVALUE_THRESHOLD = 1e-8
DENSE_EIG_CUTOFF = 512


def _freeze(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is None:
        return None
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


def _as_float_features(arr, rows: int, what: str) -> np.ndarray:
    """A ``(rows, dim)`` float matrix; None is the ``(rows, 0)`` matrix."""
    if arr is None:
        return np.zeros((rows, 0))
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != rows:
        raise ValueError(f"{what} must have shape ({rows}, dim), got {out.shape}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{what} contain non-finite entries")
    return out


@dataclass(frozen=True)
class Hypergraph:
    """A featured hypergraph: nodes 0..n-1 plus a list of hyperedges.

    Hyperedges are stored as sorted tuples of distinct node indices.  Duplicate
    hyperedges are permitted in the container (they only ever merge inside
    coarsening).  Features are optional float matrices aligned with nodes and
    hyperedges respectively; an empty matrix is stored as None.
    """

    num_nodes: int
    hyperedges: tuple[tuple[int, ...], ...]
    node_features: np.ndarray | None = None
    hyperedge_features: np.ndarray | None = None

    def __init__(
        self,
        num_nodes: int,
        hyperedges: Iterable[Sequence[int]],
        node_features=None,
        hyperedge_features=None,
    ):
        num_nodes = int(num_nodes)
        if num_nodes < 1:
            raise ValueError("hypergraph needs at least one node")
        canon = []
        for he in hyperedges:
            members = tuple(sorted(int(v) for v in he))
            if len(members) == 0:
                raise ValueError("empty hyperedge")
            if len(set(members)) != len(members):
                raise ValueError(f"hyperedge {members} repeats a node")
            if members[0] < 0 or members[-1] >= num_nodes:
                raise ValueError(f"hyperedge {members} out of range for n={num_nodes}")
            canon.append(members)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "hyperedges", tuple(canon))
        nf = _as_float_features(node_features, num_nodes, "node features")
        ef = _as_float_features(hyperedge_features, len(canon), "hyperedge features")
        object.__setattr__(self, "node_features", _freeze(nf) if nf.size else None)
        object.__setattr__(self, "hyperedge_features", _freeze(ef) if ef.size else None)

    @property
    def num_hyperedges(self) -> int:
        return len(self.hyperedges)

    @property
    def num_incidences(self) -> int:
        return sum(len(he) for he in self.hyperedges)


def _canonical_edges(edges, num_left: int, num_right: int) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs (left, right)")
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    if lo[0] < 0 or hi[0] >= num_left:
        raise ValueError("left endpoint out of range")
    if lo[1] < 0 or hi[1] >= num_right:
        raise ValueError("right endpoint out of range")
    # One key per incidence orders pairs lexicographically.
    key = arr[:, 0] * num_right + arr[:, 1]
    if np.all(key[1:] > key[:-1]):
        return arr.copy()
    order = np.argsort(key, kind="stable")
    if np.any(key[order[1:]] == key[order[:-1]]):
        raise ValueError("duplicate incidence edge")
    return arr[order]


@dataclass(frozen=True)
class BipartiteGraph:
    """Star-expansion bipartite graph with per-left-node integer budgets.

    ``edges`` is an (E, 2) int array of (left, right) incidences in ascending
    lexicographic order.  ``left_features`` / ``right_features`` are always
    ``(rows, dim)`` float matrices; ``dim == 0`` means no features, and None
    passed in stands for that.  ``cluster_of_left`` / ``cluster_of_right`` map
    each node to its parent cluster and are only meaningful right after an
    expansion; they are None otherwise.
    """

    num_left: int
    num_right: int
    edges: np.ndarray
    left_budgets: np.ndarray
    left_features: np.ndarray
    right_features: np.ndarray
    cluster_of_left: np.ndarray | None = None
    cluster_of_right: np.ndarray | None = None

    def __init__(
        self,
        num_left: int,
        num_right: int,
        edges,
        left_budgets=None,
        left_features=None,
        right_features=None,
        cluster_of_left=None,
        cluster_of_right=None,
    ):
        num_left = int(num_left)
        num_right = int(num_right)
        if num_left < 1:
            raise ValueError("bipartite graph needs at least one left node")
        if num_right < 0:
            raise ValueError("negative right count")
        arr = _canonical_edges(edges, num_left, max(num_right, 1))
        if arr.size and num_right == 0:
            raise ValueError("edges given but num_right == 0")
        if left_budgets is None:
            budgets = np.ones(num_left, dtype=np.int64)
        else:
            budgets = np.asarray(left_budgets, dtype=np.int64)
            if budgets.shape != (num_left,):
                raise ValueError("left_budgets length mismatch")
            if np.any(budgets < 1):
                raise ValueError("left budgets must be >= 1")
        lf = _as_float_features(left_features, num_left, "left features")
        rf = _as_float_features(right_features, num_right, "right features")
        cl = self._check_cluster_map(cluster_of_left, num_left, "cluster_of_left")
        cr = self._check_cluster_map(cluster_of_right, num_right, "cluster_of_right")
        object.__setattr__(self, "num_left", num_left)
        object.__setattr__(self, "num_right", num_right)
        object.__setattr__(self, "edges", _freeze(arr))
        object.__setattr__(self, "left_budgets", _freeze(budgets))
        object.__setattr__(self, "left_features", _freeze(lf))
        object.__setattr__(self, "right_features", _freeze(rf))
        object.__setattr__(self, "cluster_of_left", _freeze(cl))
        object.__setattr__(self, "cluster_of_right", _freeze(cr))

    @staticmethod
    def _check_cluster_map(cmap, size: int, what: str) -> np.ndarray | None:
        if cmap is None:
            return None
        arr = np.asarray(cmap, dtype=np.int64)
        if arr.shape != (size,):
            raise ValueError(f"{what} length mismatch")
        if size:
            step = arr[1:] - arr[:-1]
            if arr[0] != 0 or np.any((step < 0) | (step > 1)):
                raise ValueError(f"{what} must label consecutive ascending blocks")
        return arr

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def left_degrees(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.num_left)

    def right_degrees(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=self.num_right)

    def right_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every right node's neighbour run: the left neighbours of right node
        ``r``, ascending, are ``members[offsets[r]:offsets[r + 1]]``.

        A stable sort of the canonical edges by right endpoint, with offsets
        from the right degrees, as ``autodiff.incidence`` builds its rows.
        """
        order = np.argsort(self.edges[:, 1], kind="stable")
        offsets = np.zeros(self.num_right + 1, dtype=np.int64)
        np.cumsum(self.right_degrees(), out=offsets[1:])
        return self.edges[order, 0], offsets

    def same_topology(self, other: "BipartiteGraph") -> bool:
        return (
            self.num_left == other.num_left
            and self.num_right == other.num_right
            and self.edges.shape == other.edges.shape
            and bool(np.all(self.edges == other.edges))
        )


@dataclass(frozen=True)
class CliqueExpansion:
    """Weighted graph on hypergraph nodes; weight counts shared hyperedges."""

    num_nodes: int
    edges: np.ndarray = field(repr=False)  # (P, 2) with u < v, lex sorted
    weights: np.ndarray = field(repr=False)  # (P,) positive ints

    def __init__(self, num_nodes: int, edges, weights):
        num_nodes = int(num_nodes)
        earr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        warr = np.asarray(weights, dtype=np.int64).reshape(-1)
        if earr.shape[0] != warr.shape[0]:
            raise ValueError("edge/weight length mismatch")
        if earr.size:
            if np.any(earr[:, 0] >= earr[:, 1]):
                raise ValueError("clique edges must satisfy u < v")
            if earr.min() < 0 or earr.max() >= num_nodes:
                raise ValueError("clique edge endpoint out of range")
            order = np.lexsort((earr[:, 1], earr[:, 0]))
            earr, warr = earr[order], warr[order]
        if np.any(warr < 1):
            raise ValueError("clique weights must be positive")
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "edges", _freeze(earr))
        object.__setattr__(self, "weights", _freeze(warr))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def laplacian(self) -> np.ndarray:
        """Dense combinatorial Laplacian ``D - W``; its diagonal holds the
        weighted degrees."""
        W = np.zeros((self.num_nodes, self.num_nodes))
        W[self.edges[:, 0], self.edges[:, 1]] = self.weights
        W[self.edges[:, 1], self.edges[:, 0]] = self.weights
        return np.diag(W.sum(axis=1)) - W


def star_expand(h: Hypergraph) -> BipartiteGraph:
    """Build the bipartite incidence graph: nodes left, hyperedges right.

    Every left node starts with budget 1; features are carried over verbatim,
    a missing matrix as one of width 0.
    """
    edges = [
        (v, e_idx) for e_idx, he in enumerate(h.hyperedges) for v in he
    ]
    return BipartiteGraph(
        num_left=h.num_nodes,
        num_right=h.num_hyperedges,
        edges=edges,
        left_budgets=np.ones(h.num_nodes, dtype=np.int64),
        left_features=h.node_features,
        right_features=h.hyperedge_features,
    )


def clique_of_bipartite(b: BipartiteGraph) -> CliqueExpansion:
    """Weighted clique expansion of a level: left nodes are adjacent iff they
    share a right node; the weight counts shared right nodes.

    Of a hypergraph ``h`` this is ``clique_of_bipartite(star_expand(h))``,
    where the weight of {u, v} counts the hyperedges containing both.
    """
    members, offsets = b.right_runs()
    sizes = offsets[1:] - offsets[:-1]
    # Each run position pairs with every later position of its run: the
    # position of rank i in a run of size d opens d - 1 - i pairs.
    later = np.repeat(sizes - 1, sizes) - (np.arange(members.size) - np.repeat(offsets[:-1], sizes))
    first = np.repeat(np.arange(members.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    n = b.num_left
    keys, weights = np.unique(members[first] * n + members[second], return_counts=True)
    return CliqueExpansion(n, np.stack([keys // n, keys % n], axis=1), weights)


def collapse_bipartite(b: BipartiteGraph) -> Hypergraph:
    """Inverse of :func:`star_expand`; features of width 0 become None.

    Raises:
        ValueError: if some right node has no incident edge (it would encode
            an empty hyperedge).
    """
    members, offsets = b.right_runs()
    empty = np.flatnonzero(offsets[1:] == offsets[:-1])
    if empty.size:
        raise ValueError(f"right node {empty[0]} has no incident edges (empty hyperedge)")
    members, offsets = members.tolist(), offsets.tolist()
    return Hypergraph(
        num_nodes=b.num_left,
        hyperedges=[members[lo:hi] for lo, hi in zip(offsets, offsets[1:])],
        node_features=b.left_features,
        hyperedge_features=b.right_features,
    )


def is_connected(h: Hypergraph) -> bool:
    """Whether the incidence graph is one piece, so no node is isolated.

    Hyperedges are never empty, so this is also connectivity of the clique
    expansion.
    """
    b = star_expand(h)
    size = b.num_left + b.num_right
    adj = scipy.sparse.coo_matrix(
        (np.ones(b.num_edges), (b.edges[:, 0], b.num_left + b.edges[:, 1])), shape=(size, size)
    )
    return scipy.sparse.csgraph.connected_components(adj, directed=False)[0] == 1


def normalized_laplacian(b: BipartiteGraph) -> np.ndarray:
    """Symmetric normalized Laplacian of the bipartite graph.

    Node order is left block then right block.  Rows and columns of isolated
    nodes are zero, including the diagonal.
    """
    n = b.num_left + b.num_right
    A = np.zeros((n, n))
    if b.num_edges:
        li = b.edges[:, 0]
        ri = b.edges[:, 1] + b.num_left
        A[li, ri] = 1.0
        A[ri, li] = 1.0
    deg = A.sum(axis=1)
    nonzero = deg > 0
    inv_sqrt = np.zeros(n)
    inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])
    L = -A * inv_sqrt[:, None] * inv_sqrt[None, :]
    L[np.arange(n), np.arange(n)] = np.where(nonzero, 1.0, 0.0)
    return L


def _dense_nonzero_eigs(mat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > ZERO_EIGENVALUE_THRESHOLD
    vals, vecs = vals[keep], vecs[:, keep]
    return vals[:k], vecs[:, :k]


def smallest_nonzero_eigs(mat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs with eigenvalue above the zero threshold (1e-8).

    Returns (eigenvalues (k,), eigenvectors (n, k)) in ascending order.  Uses
    a dense solver below 512 rows and shifted Lanczos above.  If fewer than k
    qualifying eigenpairs exist, the result is zero-padded to width k.

    Raises:
        ValueError: on non-symmetric input or negative k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    n = mat.shape[0]
    if n and np.max(np.abs(mat - mat.T)) > 1e-10:
        raise ValueError("matrix must be symmetric")
    if k == 0 or n == 0:
        return np.zeros(0), np.zeros((n, 0))

    if n <= DENSE_EIG_CUTOFF:
        vals, vecs = _dense_nonzero_eigs(mat, k)
    else:
        vals = vecs = None
        request = min(n - 1, k + 8)
        sparse_mat = scipy.sparse.csr_matrix(mat)
        while True:
            try:
                w, v = scipy.sparse.linalg.eigsh(
                    sparse_mat, k=request, sigma=-1e-6, which="LM"
                )
            except Exception:
                vals, vecs = _dense_nonzero_eigs(mat, k)
                break
            order = np.argsort(w)
            w, v = w[order], v[:, order]
            keep = w > ZERO_EIGENVALUE_THRESHOLD
            if keep.sum() >= k or request >= n - 1:
                vals, vecs = w[keep][:k], v[:, keep][:, :k]
                break
            request = min(n - 1, request * 2)

    have = vals.shape[0]
    if have < k:
        vals = np.concatenate([vals, np.zeros(k - have)])
        vecs = np.concatenate([vecs, np.zeros((n, k - have))], axis=1)
    return vals, vecs


def _features_to_json(arr: np.ndarray | None):
    if arr is None:
        return None
    return [[float(x) for x in row] for row in arr]


def hypergraph_to_record(h: Hypergraph) -> dict:
    return {
        "n": h.num_nodes,
        "edges": [list(he) for he in h.hyperedges],
        "node_feat": _features_to_json(h.node_features),
        "edge_feat": _features_to_json(h.hyperedge_features),
    }


def record_to_hypergraph(rec: dict) -> Hypergraph:
    if "n" not in rec or "edges" not in rec:
        raise ValueError("record must carry 'n' and 'edges'")
    return Hypergraph(
        num_nodes=rec["n"],
        hyperedges=rec["edges"],
        node_features=rec.get("node_feat"),
        hyperedge_features=rec.get("edge_feat"),
    )


def write_graphs_jsonl(path: str | Path, graphs: Iterable[Hypergraph]) -> None:
    """One JSON object per line, UTF-8."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(json.dumps(hypergraph_to_record(g)) + "\n")


def read_graphs_jsonl(path: str | Path) -> list[Hypergraph]:
    graphs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no + 1}: invalid JSON ({exc})") from exc
            graphs.append(record_to_hypergraph(rec))
    return graphs
