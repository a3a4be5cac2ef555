"""Core hypergraph containers and spectral primitives.

A hypergraph is carried in two interchangeable forms: the node/hyperedge view
(:class:`Hypergraph`) and its star expansion (:class:`BipartiteGraph`), a
bipartite incidence graph whose left side holds nodes and whose right side
holds hyperedges.  All containers are immutable after construction; arrays are
stored read-only so accidental in-place edits fail loudly.

Data is checked once, where it enters the package.  A public constructor
checks everything its caller supplies, rejects non-integer counts instead of
truncating them, and stores copies, so the caller's arrays stay its own.
Graphs, clique expansions, expansion vectors and refinement decisions that the
package derives from containers it already checked are built by the private
``_derived`` constructors instead: they only put edges into canonical order
and mark the fresh arrays read-only in place.  The invariants those
derivations must keep (edges in range and unique, budgets >= 1, counts in
range, feature rows aligned) are guarded by property tests in
``tests/test_coarsening.py`` that pass every derived output through the public
constructor, not by run-time re-checks.

Only :class:`Hypergraph` compares by value; the array containers compare by
identity.  Work that depends only on an immutable graph is kept on the
object, outside its fields: a hypergraph keeps its :func:`star_expand`, and
coarsening keeps a level's contraction order on that level.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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


def _store(obj, *values) -> None:
    """Set every field of the frozen container ``obj``, in declaration order,
    marking each array read-only in place (no copy).  Every constructor,
    checking or derived, stores through here, so each array must belong to
    the container: a copy, a fresh derivation or an array already frozen."""
    for name, value in zip(obj.__dataclass_fields__, values, strict=True):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _derive(cls, *values):
    """A ``cls`` holding ``values`` as its fields, unchecked; see the module
    docstring for who may build one this way."""
    obj = object.__new__(cls)
    _store(obj, *values)
    return obj


def _check_features(arr: np.ndarray, rows: int, what: str) -> None:
    if arr.ndim != 2 or arr.shape[0] != rows:
        raise ValueError(f"{what} must have shape ({rows}, dim), got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contain non-finite entries")


def _as_float_features(arr, rows: int, what: str) -> np.ndarray:
    """A copy as a ``(rows, dim)`` float matrix; None is the ``(rows, 0)`` matrix."""
    if arr is None:
        return np.zeros((rows, 0))
    out = np.array(arr, dtype=np.float64)
    _check_features(out, rows, what)
    return out


def _same_features(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two stored feature matrices are equal; None only equals None."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _as_int(value, what: str) -> int:
    """``value`` as an int; a float, a string or a bool is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def _check_fields(config) -> None:
    """Check each field of dataclass ``config`` by its annotation: an ``int``
    through :func:`_as_int`, stored as a plain int; a ``float`` must be a real
    number and a ``bool`` a bool.  Raises ValueError naming the field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int":
            object.__setattr__(config, f.name, _as_int(value, f.name))  # config may be frozen
        elif f.type == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ValueError(f"{f.name} {value!r} is not a real number")
        elif f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} {value!r} is not a bool")


def _from_record(cls, record, what: str, **unrecorded):
    """The ``cls`` built from the fields that the record ``what`` names (a
    checkpoint's config record, or a command's options), other keys ignored;
    a field it leaves out comes from ``unrecorded``, else its default.
    Raises ValueError naming the record when it is not a JSON object."""
    if not isinstance(record, dict):
        raise ValueError(f"checkpoint record {what!r} is not a JSON object: {record!r:.60}")
    return cls(**{**unrecorded, **{f.name: record[f.name] for f in fields(cls) if f.name in record}})


def _as_int_array(values, what: str) -> np.ndarray:
    """A copy of ``values`` as an int64 array; an array of floats, bools or
    any other non-integer dtype is rejected, not truncated (an empty one is
    accepted)."""
    arr = np.array(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Hypergraph:
    """A featured hypergraph: nodes 0..n-1 plus a list of hyperedges.

    Hyperedges are stored as sorted tuples of distinct node indices.  Duplicate
    hyperedges are permitted in the container (they only ever merge inside
    coarsening).  Features are optional float matrices aligned with nodes and
    hyperedges respectively; an empty matrix is stored as None.  Graphs
    compare by value and hash by their node count and hyperedges.
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
        num_nodes = _as_int(num_nodes, "node count")
        if num_nodes < 1:
            raise ValueError("hypergraph needs at least one node")
        canon = []
        for he in hyperedges:
            members = tuple(sorted(_as_int(v, "hyperedge member") for v in he))
            if len(members) == 0:
                raise ValueError("empty hyperedge")
            if len(set(members)) != len(members):
                raise ValueError(f"hyperedge {members} repeats a node")
            if members[0] < 0 or members[-1] >= num_nodes:
                raise ValueError(f"hyperedge {members} out of range for n={num_nodes}")
            canon.append(members)
        nf = _as_float_features(node_features, num_nodes, "node features")
        ef = _as_float_features(hyperedge_features, len(canon), "hyperedge features")
        _store(self, num_nodes, tuple(canon), nf if nf.size else None, ef if ef.size else None)

    def __eq__(self, other):
        if other.__class__ is not Hypergraph:
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.hyperedges == other.hyperedges
            and _same_features(self.node_features, other.node_features)
            and _same_features(self.hyperedge_features, other.hyperedge_features)
        )

    def __hash__(self):
        return hash((self.num_nodes, self.hyperedges))

    def __reduce__(self):
        # unpickled through __init__, so a graph sent from another process is frozen too
        return Hypergraph, (self.num_nodes, self.hyperedges, self.node_features, self.hyperedge_features)

    @property
    def num_hyperedges(self) -> int:
        return len(self.hyperedges)

    @property
    def num_incidences(self) -> int:
        return sum(len(he) for he in self.hyperedges)


def _lex_order(edges: np.ndarray, num_right: int) -> tuple[np.ndarray, np.ndarray]:
    """``edges`` in ascending (left, right) order, with their keys; the
    stable sort runs only when they are not ascending already."""
    # One key per incidence orders pairs lexicographically.
    key = edges[:, 0] * num_right + edges[:, 1]
    if (key[1:] > key[:-1]).all():
        return edges, key
    order = key.argsort(kind="stable")
    return edges[order], key[order]


def _canonical_edges(edges, num_left: int, num_right: int) -> np.ndarray:
    arr = _as_int_array(edges, "edge endpoints")
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs (left, right)")
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    if lo[0] < 0 or hi[0] >= num_left:
        raise ValueError("left endpoint out of range")
    if lo[1] < 0 or hi[1] >= num_right:
        raise ValueError("right endpoint out of range")
    arr, key = _lex_order(arr, num_right)
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate incidence edge")
    return arr


@dataclass(frozen=True, eq=False)
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
        num_left = _as_int(num_left, "left count")
        num_right = _as_int(num_right, "right count")
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
            budgets = _as_int_array(left_budgets, "left budgets")
            if budgets.shape != (num_left,):
                raise ValueError("left_budgets length mismatch")
            if np.any(budgets < 1):
                raise ValueError("left budgets must be >= 1")
        lf = _as_float_features(left_features, num_left, "left features")
        rf = _as_float_features(right_features, num_right, "right features")
        cl = self._check_cluster_map(cluster_of_left, num_left, "cluster_of_left")
        cr = self._check_cluster_map(cluster_of_right, num_right, "cluster_of_right")
        _store(self, num_left, num_right, arr, budgets, lf, rf, cl, cr)

    @classmethod
    def _derived(
        cls, num_left, num_right, edges, left_budgets, left_features, right_features,
        cluster_of_left=None, cluster_of_right=None,
    ) -> "BipartiteGraph":
        """A graph from ``(E, 2)`` int64 edges, int64 budgets, float feature
        matrices and int64 cluster maps that the package derived from
        checked graphs.

        Only puts the edges into canonical order, with the stable key sort
        of the public constructor, so the fields equal what that
        constructor would store; nothing is checked or copied.
        """
        edges = _lex_order(edges, max(num_right, 1))[0]
        return _derive(
            cls, num_left, num_right, edges, left_budgets, left_features, right_features,
            cluster_of_left, cluster_of_right,
        )

    @staticmethod
    def _check_cluster_map(cmap, size: int, what: str) -> np.ndarray | None:
        if cmap is None:
            return None
        arr = _as_int_array(cmap, what)
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
        order = self.edges[:, 1].argsort(kind="stable")
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


@dataclass(frozen=True, eq=False)
class CliqueExpansion:
    """Weighted graph on hypergraph nodes; weight counts shared hyperedges."""

    num_nodes: int
    edges: np.ndarray = field(repr=False)  # (P, 2) with u < v, lex sorted
    weights: np.ndarray = field(repr=False)  # (P,) positive ints

    # from (P, 2) int64 edges already in ascending (u, v) order with u < v
    # and their positive int64 weights
    _derived = classmethod(_derive)

    def __init__(self, num_nodes: int, edges, weights):
        num_nodes = _as_int(num_nodes, "node count")
        earr = _as_int_array(edges, "clique edges").reshape(-1, 2)
        warr = _as_int_array(weights, "clique weights").reshape(-1)
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
        _store(self, num_nodes, earr, warr)

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

    The read-only result is built once per graph and kept on ``h``, so every
    later call returns the same object: one star expansion per graph, which
    shares its feature matrices with ``h``.  The cache is not a field, so
    equality, ``repr`` and pickling never see it.
    """
    star = h.__dict__.get("_star")
    if star is not None:
        return star
    sizes = np.fromiter(map(len, h.hyperedges), dtype=np.int64, count=h.num_hyperedges)
    members = np.fromiter(itertools.chain.from_iterable(h.hyperedges), dtype=np.int64, count=int(sizes.sum()))
    star = BipartiteGraph._derived(
        h.num_nodes,
        h.num_hyperedges,
        np.stack([members, np.repeat(np.arange(h.num_hyperedges, dtype=np.int64), sizes)], axis=1),
        np.ones(h.num_nodes, dtype=np.int64),
        np.zeros((h.num_nodes, 0)) if h.node_features is None else h.node_features,
        np.zeros((h.num_hyperedges, 0)) if h.hyperedge_features is None else h.hyperedge_features,
    )
    h.__dict__["_star"] = star
    return star


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
    later = (sizes - 1).repeat(sizes) - (np.arange(members.size) - offsets[:-1].repeat(sizes))
    first = np.arange(members.size).repeat(later)
    second = first + 1 + np.arange(first.size) - (later.cumsum() - later).repeat(later)
    n = b.num_left
    keys, weights = np.unique(members[first] * n + members[second], return_counts=True)
    return CliqueExpansion._derived(n, np.column_stack((keys // n, keys % n)), weights)


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


def _least_reachable(num_left: int, left: np.ndarray, hub: np.ndarray) -> np.ndarray:
    """The least left node that each of ``num_left`` left nodes reaches, where
    edge ``e`` joins left node ``left[e]`` to hub ``hub[e]``: labels propagate
    as minima between left nodes and hubs until they settle."""
    labels = np.arange(num_left)
    while True:
        hub_label = np.full(hub.max(initial=-1) + 1, num_left)
        np.minimum.at(hub_label, hub, labels[left])
        settled = labels.copy()
        np.minimum.at(settled, left, hub_label[hub])
        if np.array_equal(settled, labels):
            return labels
        labels = settled


def is_connected(h: Hypergraph) -> bool:
    """Whether the incidence graph is one piece, so no node is isolated: it
    is when every node reaches node 0 (:func:`_least_reachable`, with the
    hyperedges as hubs).  Hyperedges are never empty, so this is also
    connectivity of the clique expansion."""
    b = star_expand(h)
    return not _least_reachable(b.num_left, b.edges[:, 0], b.edges[:, 1]).any()


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
        import scipy.sparse  # imported here: no shipped dataset reaches the cutoff
        from scipy.sparse.linalg import eigsh

        vals = vecs = None
        request = min(n - 1, k + 8)
        sparse_mat = scipy.sparse.csr_matrix(mat)
        while True:
            try:
                w, v = eigsh(
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
    """The graphs of a file of one JSON record per line; blank lines are skipped.

    Raises:
        ValueError: naming ``path:line`` for a line that is not a JSON
            object, lacks ``n`` or ``edges``, or describes no valid graph.
    """
    graphs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{line_no}: expected a JSON object, got {line[:40]!r}")
            try:
                graphs.append(record_to_hypergraph(rec))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return graphs
