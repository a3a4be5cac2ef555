import json
import re

import numpy as np
import pytest

from hyperforge.datasets import (
    DatasetSpec,
    gen_ego,
    gen_sbm,
    gen_tree,
    generate_dataset,
    load_dataset_split,
    load_mesh,
    read_manifest,
    save_obj,
)
from hyperforge.metrics import validity

TET_OFF = """OFF
4 4 6
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""

TET_OBJ = """# tetrahedron
v 0.0 0.0 0.0
v 1.0 0.0 0.0
v 0.0 1.0 0.0
v 0.0 0.0 1.0
f 1 2 3
f 1 2 4
f 1 3 4
f 2 3 4
"""


def test_sbm_shape_and_structure():
    h = gen_sbm(np.random.default_rng(0))
    assert h.num_nodes == 32
    assert all(len(e) == 3 for e in h.hyperedges)
    assert h.num_hyperedges > 0


def test_sbm_within_group_expectation():
    # expected within-group hyperedges: 2 blocks x 0.05 x C(16,3) = 56
    rng = np.random.default_rng(1)
    counts = []
    for _ in range(200):
        h = gen_sbm(rng)
        within = sum(
            1
            for e in h.hyperedges
            if (max(e) < 16) or (min(e) >= 16)
        )
        counts.append(within)
    mean = np.mean(counts)
    assert abs(mean - 56.0) < 5.6


def test_sbm_validity_predicate_accepts_generator():
    rng = np.random.default_rng(2)
    hits = sum(validity("sbm", gen_sbm(rng)) for _ in range(20))
    assert hits >= 18


def test_ego_common_node_and_dense_indexing():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = gen_ego(rng)
        assert h.num_hyperedges >= 1
        common = set(h.hyperedges[0])
        for e in h.hyperedges:
            common &= set(e)
        assert common, "all hyperedges must share the ego node"
        seen = {v for e in h.hyperedges for v in e}
        assert seen == set(range(h.num_nodes))
        assert validity("ego", h)


def test_tree_covers_every_edge():
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = gen_tree(rng)
        assert h.num_nodes == 32
        total_incidences = sum(len(e) for e in h.hyperedges)
        assert total_incidences >= 31
        assert all(2 <= len(e) <= 5 for e in h.hyperedges)
        assert validity("tree", h)


def test_tree_custom_size():
    h = gen_tree(np.random.default_rng(5), num_nodes=12)
    assert h.num_nodes == 12
    assert validity("tree", h)


def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    h = load_mesh(path)
    assert h.num_nodes == 4
    assert h.num_hyperedges == 4
    assert all(len(e) == 3 for e in h.hyperedges)
    assert h.node_features.shape == (4, 3)
    assert np.allclose(h.node_features[1], [1.0, 0.0, 0.0])


def test_load_obj_tetrahedron(tmp_path):
    path = tmp_path / "tet.obj"
    path.write_text(TET_OBJ)
    h = load_mesh(path)
    assert h.num_nodes == 4
    assert h.num_hyperedges == 4


def test_load_obj_with_slash_refs(tmp_path):
    path = tmp_path / "slash.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n"
    )
    h = load_mesh(path)
    assert h.num_hyperedges == 1
    assert list(h.hyperedges[0]) == [0, 1, 2]


def test_load_mesh_dedups_faces(tmp_path):
    path = tmp_path / "dup.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3 2 1\n"
    )
    h = load_mesh(path)
    assert h.num_hyperedges == 1


def test_load_mesh_rejects_quads(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ValueError):
        load_mesh(path)


def test_load_off_rejects_truncated_last_face(tmp_path):
    """A face count of 3 followed by two indices is cut off, not a 2-node
    hyperedge."""
    path = tmp_path / "cut.off"
    path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 1\n")
    with pytest.raises(ValueError, match="truncated face block"):
        load_mesh(path)


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("count.off", "OFF\n4 x 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n", "invalid literal"),
        ("coord.off", "OFF\n3 1 0\n0 0 0\n1 q 0\n0 1 0\n3 0 1 2\n", "could not convert"),
        ("face.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 a 3\n", "invalid literal"),
        ("extra.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 7 7 7\n", "tokens after the last declared face"),
        ("negative.off", "OFF\n-1 1 0\n0 0 0\n1 0 0\n3 0 1 2\n", "negative count in OFF header"),
        ("quad.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n", "non-triangle face"),
    ],
)
def test_load_mesh_errors_name_the_file(tmp_path, name, text, message):
    """Every parse error starts with the file's path, once; tokens after the
    last declared OFF face are an error, not silently dropped."""
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}") as err:
        load_mesh(path)
    assert str(err.value).count(str(path)) == 1


def test_load_mesh_rejects_bad_index(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(ValueError):
        load_mesh(path)


def test_obj_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(6)
    src = tmp_path / "src.off"
    src.write_text(TET_OFF)
    h = load_mesh(src)
    # jitter so the positions exercise full double precision
    from hyperforge.hypergraph import Hypergraph

    h = Hypergraph(
        h.num_nodes,
        h.hyperedges,
        node_features=h.node_features + rng.normal(scale=0.37, size=(4, 3)),
    )
    out = tmp_path / "round.obj"
    save_obj(out, h)
    back = load_mesh(out)
    assert np.array_equal(back.node_features, h.node_features)
    assert sorted(map(tuple, back.hyperedges)) == sorted(map(tuple, h.hyperedges))


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(kind="nope")
    with pytest.raises(ValueError):
        DatasetSpec(kind="mesh-dir")  # needs mesh_dir


@pytest.mark.parametrize("num_nodes", [1, 0, -3])
def test_dataset_spec_rejects_trees_without_hyperedges(num_nodes):
    """One node makes graphs with no hyperedge to coarsen; none fails in networkx."""
    with pytest.raises(ValueError, match=re.escape("num_nodes >= 2")):
        DatasetSpec(kind="tree", num_nodes=num_nodes)
    assert DatasetSpec(kind="tree", num_nodes=2).num_nodes == 2


def test_generate_dataset_tree(tmp_path):
    spec = DatasetSpec(kind="tree", train_count=6, val_count=2, test_count=2, seed=9, num_nodes=12)
    manifest = generate_dataset(spec, tmp_path / "data")
    assert manifest["splits"] == {"train": 6, "val": 2, "test": 2}
    assert manifest["kind"] == "tree"
    on_disk = read_manifest(tmp_path / "data")
    assert on_disk == manifest
    train = load_dataset_split(tmp_path / "data", "train")
    assert len(train) == 6
    assert all(g.num_nodes == 12 for g in train)
    with open(tmp_path / "data" / "train.jsonl") as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 6
    json.loads(lines[0])


def test_generate_dataset_deterministic(tmp_path):
    spec = DatasetSpec(kind="tree", train_count=3, val_count=1, test_count=1, seed=11, num_nodes=10)
    generate_dataset(spec, tmp_path / "a")
    generate_dataset(spec, tmp_path / "b")
    assert (tmp_path / "a" / "train.jsonl").read_text() == (tmp_path / "b" / "train.jsonl").read_text()


def test_generate_dataset_mesh_dir(tmp_path):
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    for i in range(4):
        (meshes / f"m{i}.off").write_text(TET_OFF)
    spec = DatasetSpec(
        kind="mesh-dir", train_count=2, val_count=1, test_count=1, mesh_dir=str(meshes)
    )
    manifest = generate_dataset(spec, tmp_path / "out")
    assert manifest["splits"]["train"] == 2
    test = load_dataset_split(tmp_path / "out", "test")
    assert test[0].num_nodes == 4

    too_big = DatasetSpec(
        kind="mesh-dir", train_count=9, val_count=1, test_count=1, mesh_dir=str(meshes)
    )
    with pytest.raises(ValueError):
        generate_dataset(too_big, tmp_path / "out2")
