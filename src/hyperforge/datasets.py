"""Synthetic hypergraph generators, mesh ingestion, and dataset splits.

Three synthetic families (block-structured triples, ego-filtered random
hypergraphs, and tree-derived hyperedge groupings) plus OFF/OBJ triangle
mesh loading.  ``generate_dataset`` materializes train/val/test JSONL files
with a manifest; all generators are deterministic given their rng.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from itertools import combinations
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph, _check_fields, read_graphs_jsonl, write_graphs_jsonl

__all__ = [
    "DatasetSpec",
    "gen_sbm",
    "gen_ego",
    "gen_tree",
    "load_mesh",
    "save_obj",
    "generate_dataset",
    "load_dataset_split",
    "read_manifest",
]

SBM_NUM_NODES = 32
SBM_GROUP_SIZE = 16
SBM_P_WITHIN = 0.05
SBM_P_BETWEEN = 0.001

EGO_MIN_NODES = 150
EGO_MAX_NODES = 200
EGO_NUM_HYPEREDGES = 3000
EGO_MAX_SIZE = 5

TREE_NUM_NODES = 32
TREE_MAX_GROUP_NODES = 5

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one dataset directory.

    ``kind`` selects the generator; mesh datasets read files from
    ``mesh_dir`` instead of sampling.
    """

    kind: str
    train_count: int = 128
    val_count: int = 32
    test_count: int = 40
    seed: int = 0
    num_nodes: int = TREE_NUM_NODES
    mesh_dir: str | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in ("sbm", "ego", "tree", "mesh-dir"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if min(self.train_count, self.val_count, self.test_count) < 0:
            raise ValueError("split counts must be nonnegative")
        if self.kind == "mesh-dir" and not self.mesh_dir:
            raise ValueError("mesh-dir datasets need mesh_dir")
        if self.kind == "tree" and self.num_nodes < 2:
            raise ValueError("tree datasets need num_nodes >= 2: a smaller tree has no hyperedge")


def gen_sbm(rng: np.random.Generator) -> Hypergraph:
    """Two 16-node groups; every 3-node subset is a candidate hyperedge.

    Subsets inside one group appear with probability 0.05, mixed subsets
    with 0.001.  Redraws in the (vanishingly unlikely) event of an empty
    hypergraph so downstream coarsening always has work to do.
    """
    triples = np.array(list(combinations(range(SBM_NUM_NODES), 3)), dtype=np.int64)
    group = triples // SBM_GROUP_SIZE
    within = (group[:, 0] == group[:, 1]) & (group[:, 1] == group[:, 2])
    probs = np.where(within, SBM_P_WITHIN, SBM_P_BETWEEN)
    while True:
        mask = rng.random(len(triples)) < probs
        if mask.any():
            break
    edges = [tuple(t) for t in triples[mask]]
    return Hypergraph(SBM_NUM_NODES, edges)


def gen_ego(rng: np.random.Generator) -> Hypergraph:
    """Ego-filtered random hypergraph.

    A base graph of 150 to 200 nodes receives 3000 hyperedges of 2 to 5
    distinct nodes each; only hyperedges through a sampled ego node are
    kept, and surviving nodes are reindexed densely.
    """
    while True:
        n_base = int(rng.integers(EGO_MIN_NODES, EGO_MAX_NODES + 1))
        sizes = rng.integers(2, EGO_MAX_SIZE + 1, size=EGO_NUM_HYPEREDGES)
        edges = [tuple(sorted(rng.choice(n_base, size=s, replace=False))) for s in sizes]
        ego = int(rng.integers(n_base))
        kept = [e for e in edges if ego in e]
        if kept:
            break
    nodes = sorted({v for e in kept for v in e})
    remap = {v: i for i, v in enumerate(nodes)}
    reindexed = [tuple(sorted(remap[v] for v in e)) for e in kept]
    return Hypergraph(len(nodes), reindexed)


def gen_tree(rng: np.random.Generator, num_nodes: int = TREE_NUM_NODES) -> Hypergraph:
    """Random labeled tree with adjacent edges grouped into hyperedges.

    Tree edges are visited in shuffled order; each unused edge seeds a
    group that greedily absorbs later unused edges sharing a node, as long
    as the group's node set stays within 5 nodes.  Every tree edge lands in
    exactly one group, so the union of hyperedges covers the tree.
    """
    import networkx as nx  # imported here: only this generator uses it

    tree = nx.random_labeled_tree(num_nodes, seed=int(rng.integers(2**32)))
    edge_list = [tuple(e) for e in tree.edges()]
    order = rng.permutation(len(edge_list))
    edge_list = [edge_list[i] for i in order]
    used = [False] * len(edge_list)
    hyperedges = []
    for i, (u, v) in enumerate(edge_list):
        if used[i]:
            continue
        used[i] = True
        group_nodes = {u, v}
        for j in range(i + 1, len(edge_list)):
            if used[j]:
                continue
            a, b = edge_list[j]
            if (a in group_nodes or b in group_nodes) and len(group_nodes | {a, b}) <= TREE_MAX_GROUP_NODES:
                used[j] = True
                group_nodes |= {a, b}
        hyperedges.append(tuple(sorted(group_nodes)))
    return Hypergraph(num_nodes, hyperedges)


def _parse_off(lines: list[str]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    tokens: list[str] = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError("missing OFF header")
    tokens = tokens[1:]
    if len(tokens) < 3:
        raise ValueError("truncated OFF header")
    nv, nf = int(tokens[0]), int(tokens[1])
    if nv < 0 or nf < 0:
        raise ValueError("negative count in OFF header")
    tokens = tokens[3:]
    if len(tokens) < 3 * nv:
        raise ValueError("truncated vertex block")
    verts = np.array([float(t) for t in tokens[: 3 * nv]]).reshape(nv, 3)
    tokens = tokens[3 * nv :]
    faces = []
    pos = 0
    for _ in range(nf):
        if pos + 4 > len(tokens):
            raise ValueError("truncated face block")
        count = int(tokens[pos])
        if count != 3:
            raise ValueError(f"non-triangle face with {count} vertices rejected")
        face = tuple(int(t) for t in tokens[pos + 1 : pos + 4])
        pos += 4
        faces.append(face)
    if pos != len(tokens):
        raise ValueError("tokens after the last declared face")
    return verts, faces


def _parse_obj(lines: list[str]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    verts = []
    faces = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"malformed vertex line {body!r}")
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise ValueError(f"non-triangle face with {len(refs)} vertices rejected")
            idx = []
            for r in refs:
                head = r.split("/")[0]
                i = int(head)
                if i < 1:
                    raise ValueError(f"unsupported face index {r!r}")
                idx.append(i - 1)
            faces.append(tuple(idx))
    return np.array(verts, dtype=np.float64).reshape(-1, 3), faces


def load_mesh(path: str | Path) -> Hypergraph:
    """Read a triangle mesh (OFF or OBJ) as a 3-uniform hypergraph.

    Vertex positions become 3-d node features; duplicate faces are dropped
    (first occurrence wins).  Non-triangle faces raise.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    suffix = path.suffix.lower()
    if suffix not in (".off", ".obj"):
        raise ValueError(f"{path}: unsupported mesh format {suffix!r}")
    try:
        verts, faces = _parse_off(lines) if suffix == ".off" else _parse_obj(lines)
        nv = verts.shape[0]
        if any(min(face) < 0 or max(face) >= nv for face in faces):
            raise ValueError("face index out of range")
        deduped = list(dict.fromkeys(tuple(sorted(face)) for face in faces))
        if not deduped:
            raise ValueError("mesh has no faces")
        return Hypergraph(nv, deduped, node_features=verts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_obj(path: str | Path, h: Hypergraph) -> None:
    """Write a 3-uniform hypergraph with 3-d features as a Wavefront OBJ.

    Coordinates are written with shortest round-tripping decimals, so a
    write/read cycle reproduces positions bit-identically.
    """
    if h.node_features is None or h.node_features.shape[1] != 3:
        raise ValueError("OBJ export needs 3-d node features")
    lines = []
    for row in h.node_features:
        lines.append(f"v {float(row[0])!r} {float(row[1])!r} {float(row[2])!r}")
    for e in h.hyperedges:
        if len(e) != 3:
            raise ValueError("OBJ export needs 3-node hyperedges")
        lines.append(f"f {e[0] + 1} {e[1] + 1} {e[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def _generate_one(spec: DatasetSpec, rng: np.random.Generator) -> Hypergraph:
    if spec.kind == "sbm":
        return gen_sbm(rng)
    if spec.kind == "ego":
        return gen_ego(rng)
    if spec.kind == "tree":
        return gen_tree(rng, spec.num_nodes)
    raise ValueError(f"no sampler for kind {spec.kind!r}")


def generate_dataset(spec: DatasetSpec, out_dir: str | Path) -> dict:
    """Materialize train/val/test JSONL splits plus a manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts = {"train": spec.train_count, "val": spec.val_count, "test": spec.test_count}
    if spec.kind == "mesh-dir":
        files = sorted(
            p for p in Path(spec.mesh_dir).iterdir() if p.suffix.lower() in (".off", ".obj")
        )
        total = sum(counts.values())
        if len(files) < total:
            raise ValueError(f"mesh dir has {len(files)} meshes, need {total}")
        graphs = [load_mesh(p) for p in files[:total]]
        it = iter(graphs)
        splits = {name: [next(it) for _ in range(counts[name])] for name in SPLIT_NAMES}
    else:
        rng = np.random.default_rng(spec.seed)
        splits = {name: [_generate_one(spec, rng) for _ in range(counts[name])] for name in SPLIT_NAMES}
    for name in SPLIT_NAMES:
        write_graphs_jsonl(out / f"{name}.jsonl", splits[name])
    manifest = {"kind": spec.kind, "seed": spec.seed, "splits": counts, "spec": asdict(spec)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def read_manifest(data_dir: str | Path) -> dict:
    return json.loads((Path(data_dir) / "manifest.json").read_text())


def load_dataset_split(data_dir: str | Path, split: str) -> list[Hypergraph]:
    if split not in SPLIT_NAMES:
        raise ValueError(f"unknown split {split!r}")
    return read_graphs_jsonl(Path(data_dir) / f"{split}.jsonl")
