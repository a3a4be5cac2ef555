"""Golden seeded structure: sampled sizes and coarsening targets, pinned.

The zero-head model (every head has zero weights) outputs its biases
exactly, so what ``sample_one`` builds depends only on the seed and never on
the order of float operations.  Its split head outputs even splits, so the
odd sizes are the ones whose refined budgets show the rounding rule.  The same holds for the integer targets of a
coarsening.  The featured pins hash float bytes: the budget-weighted feature
means of every coarsening level of featured trees, and the noised input and
targets of ``prepare_step`` on one of them.  The sequence pins hash every
array of whole coarsening sequences of ego, SBM and adversarial hypergraphs,
plain and featured, and the generator state after them, so they also pin
the number of random draws.  The pins below are values of the
implementation at the time they were recorded; a change of seeded structure
or of featured float outputs fails here, stating the seed.
"""

import hashlib

import numpy as np
import pytest

import hyperforge.pipeline as pipeline
from hyperforge.coarsening import CoarseningParams, sample_coarsening_sequence
from hyperforge.datasets import gen_ego, gen_sbm, gen_tree
from hyperforge.denoiser import Denoiser, DenoiserConfig
from hyperforge.hypergraph import Hypergraph

ZERO_HEAD = DenoiserConfig(hidden_dim=8, num_layers=1, mlp_hidden=8, spectral_k=2)

# (N, seed) -> (node count, hyperedge sizes, iterations, budget sums)
SAMPLE_SIGNATURES = {
    (16, 0): (16, (16,), 9, (16,) * 9),
    (16, 1): (16, (16,), 9, (16,) * 9),
    (16, 2): (16, (16,), 10, (16,) * 10),
    (64, 0): (64, (64,), 15, (64,) * 15),
    (64, 1): (64, (64,), 18, (64,) * 18),
    (23, 0): (23, (23,), 11, (23,) * 11),
    (45, 1): (45, (45,), 17, (45,) * 17),
}

# (N, seed) -> sha256 of the left budgets of every refined level
REFINED_BUDGETS = {
    (16, 0): "efbe624209cf4b5bda19e45e2887cf763d3da838638d77ea719563c159991081",
    (16, 1): "efbe624209cf4b5bda19e45e2887cf763d3da838638d77ea719563c159991081",
    (16, 2): "f4abc09c7b4ab2377f589ae21eb990c8b785238092da5ddd63b575f4f50ca0db",
    (64, 0): "dfbb1490acd74eae52b14d6c5a3220b71ad7e50e57b1665cbb5050c6f422e285",
    (64, 1): "3e7717a0c91e9e5ef3e9e237d93cc1d5a1ca1b929200253dcb82a7a406b20d36",
    (23, 0): "b4a28a9208e8073ea826da9d631de00909fc4c7e38804e05ebdb158adaa14145",
    (45, 1): "6ebdf384c0742f3669ef8de8174d82bf54ed1d9afe788aef82ffd713f64c2d4b",
}

# tree seed -> (levels, sha256 of the expansion vectors, edge-keep masks and
# child budgets of every level)
COARSENING_TARGETS = {
    0: (7, "55053aa8661685c52131d29666ca18d9c33ad00fb0769e8d299b45271568fce4"),
    1: (8, "89de38991422f74d46652ce144724fc865db25178e41ba5b933e722a477195a6"),
    2: (7, "3184abb48a1194f5c7293fed7fb72bb62ed5416fdeca298ba74c99010e41d9dd"),
    3: (7, "fe4ae00c1418f80a3d15a8a0e412dbecc6bab4b2c21e6f17c51831930d62c7af"),
}

# tree seed -> (levels, sha256 of the node and hyperedge feature matrices of
# every level) for a tree with 3-d node and 2-d hyperedge features
FEATURED_COARSENING = {
    0: (7, "e430c1f39cf612e6c3fc70a028d4c1fe105b4e859656be3fb43ea84b2d1cae73"),
    1: (8, "ec4086c16bcb263f093cf789a5d2fe6276a5998cbfe3b101b024d35ffbad83a1"),
    2: (8, "a58c1702ebea9e767defdefe40ad4ea5d522c3072fca0673eea39c7cfde5cd10"),
    3: (6, "e96684fa1f2c368eda51340d47663e34927fe60628824960452a6cffeaf8fd99"),
}

# sha256 of every level's prepare_step input and targets, featured tree seed 0
FEATURED_STEP = "079054dbc77adb9c400e42dd3069c6bb95ecafbe4f8627ca8084fea6c0a7f9c9"

# (family, seed) -> (levels, sha256 of every array of the sequence and of the
# generator's next draws); "+f" marks the featured variant
SEQUENCES = {
    ("ego", 0): (32, "d3e283acc068171adefa5e6444d21eabb2f90caf3724e7ee056a599cbf11dc51"),
    ("ego", 1): (24, "ce40bb2e075f458aca3a0b0ba3096de8797f868812d4078cd97da32bb3ee2077"),
    ("ego+f", 2): (36, "6b1a4e7d4d194d64f4e343a357657cd312c303d85e6ca258dc85f91f53a64750"),
    ("sbm", 0): (11, "78a222a9eb6b5e4be4e2c3bb7a96bfadcc909f33259f9413aa98612d1fac8cfd"),
    ("sbm", 1): (11, "095dec52ebdc41d1db4caf42c6b3dde9ff531fb517ec9ad34d629f021762b43f"),
    ("sbm+f", 2): (11, "1227d2c680e88edbfb1d3b21800f445d3c4d2d5455e38ca3933dea60cc03d605"),
    ("adversarial", 0): (15, "516d905371f2dcf66909d06d253991283b3267df9e002c79006da57bee9934e4"),
    ("adversarial", 1): (16, "e81dfea91d24e5833cd2ac53f3bedf57f50861e4669212b61cb2f26e30afc31c"),
    ("adversarial", 2): (7, "bf6d7f3aa172121093df02b53b5126ee0231de7ca5ac9a93d073b68fe9ba0d4a"),
    ("adversarial", 3): (8, "46c3d340cbf8c4ddde3bd697595e79838951b7f1d0d69d4f8bdf5603c09876b9"),
    # four and five copies of one hyperedge
    ("adversarial", 6): (9, "dcd6f52d57d3d1784631ac91aeb8295ffd2754d3632a35515b0823b6a80b18de"),
    ("adversarial", 29): (9, "8d3983a688e27b69a65e39322b1a82a3deea211fdadb9ea0b5beffd5c7535a48"),
    ("adversarial+f", 4): (8, "339ae849ba65c535a9ebc808e32e9e1d95bfc6bc776dc7ebeb75861f7b0295a7"),
    ("adversarial+f", 5): (12, "e5d3ecf9f48382c187507adae4c63284cd5e0c07c4c8b03c17da592fc7a0b34c"),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _bytes_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def featured_tree(seed: int) -> tuple[Hypergraph, np.random.Generator]:
    rng = np.random.default_rng(seed)
    h = gen_tree(rng, num_nodes=16)
    h = Hypergraph(
        h.num_nodes,
        h.hyperedges,
        node_features=rng.normal(size=(h.num_nodes, 3)),
        hyperedge_features=rng.normal(size=(h.num_hyperedges, 2)),
    )
    return h, rng


def featured_coarsening(seed: int) -> tuple[int, str]:
    h, rng = featured_tree(seed)
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    arrays = []
    for level in seq.levels:
        arrays += [level.bipartite.left_features, level.bipartite.right_features]
    return seq.num_levels, _bytes_digest(arrays)


def featured_step() -> str:
    h, rng = featured_tree(0)
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    arrays = []
    for level in range(seq.num_levels):
        example = pipeline.build_training_example(seq, level, rng, pipeline.TrainConfig())
        inp, targets = pipeline.prepare_step(example, rng, 4)
        arrays += [
            inp.edges, inp.left_spectral, inp.right_spectral, inp.eigenvalues[0],
            inp.left_budgets, inp.left_parent_features, inp.right_parent_features,
            np.hstack([inp.state["left_expansion"], inp.state["left_split"]]), inp.state["right_expansion"],
            inp.state["edge_keep"], inp.state["left_features"], inp.state["right_features"],
            np.array([inp.t, inp.rho_hat[0], inp.total_left[0]]),
        ]
        arrays += [targets[name] for name in sorted(targets)]
    return _bytes_digest(arrays)


def adversarial(rng: np.random.Generator) -> Hypergraph:
    """A valid hypergraph outside every shipped family: duplicate and
    singleton hyperedges, isolated nodes and, often, several components."""
    n = int(rng.integers(4, 25))
    edges: list[tuple[int, ...]] = []
    for _ in range(int(rng.integers(1, 13))):
        r = rng.random()
        if edges and r < 0.25:
            edges.append(edges[int(rng.integers(len(edges)))])
        elif r < 0.4:
            edges.append((int(rng.integers(n)),))
        else:
            size = min(int(rng.integers(2, 6)), n)
            edges.append(tuple(int(v) for v in rng.choice(n, size=size, replace=False)))
    return Hypergraph(n, edges)


GENERATORS = {"ego": gen_ego, "sbm": gen_sbm, "adversarial": adversarial}


def sequence_digest(family: str, seed: int) -> tuple[int, str]:
    rng = np.random.default_rng([seed, 12])
    kind, featured = family.removesuffix("+f"), family.endswith("+f")
    h = GENERATORS[kind](rng)
    if featured:
        h = Hypergraph(
            h.num_nodes,
            h.hyperedges,
            node_features=rng.normal(size=(h.num_nodes, 3)),
            hyperedge_features=rng.normal(size=(h.num_hyperedges, 2)),
        )
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    arrays = []
    for level in seq.levels:
        b = level.bipartite
        arrays += [b.edges, b.left_budgets, b.left_features, b.right_features]
        if level.expansion is not None:
            rd = level.refinement
            arrays += [level.expansion.left, level.expansion.right, rd.edge_keep, rd.budget_split]
    arrays.append(rng.random(2))
    return seq.num_levels, _bytes_digest(arrays)


def sample_structure(n: int, seed: int, monkeypatch) -> tuple[tuple, str]:
    den = Denoiser(ZERO_HEAD, rng=np.random.default_rng(0))
    budgets = []
    refine = pipeline.refine

    def recording_refine(expanded, decision):
        out = refine(expanded, decision)
        budgets.append(out.left_budgets.copy())
        return out

    with monkeypatch.context() as m:
        m.setattr(pipeline, "refine", recording_refine)
        h, diag = pipeline.sample_one(den, n, np.random.default_rng(seed))
    signature = (
        h.num_nodes,
        tuple(len(e) for e in h.hyperedges),
        diag["iterations"],
        tuple(diag["budget_sums"]),
    )
    return signature, _digest(budgets)


def coarsening_targets(seed: int) -> tuple[int, str]:
    rng = np.random.default_rng(seed)
    seq = sample_coarsening_sequence(gen_tree(rng, num_nodes=16), CoarseningParams(), rng)
    arrays = []
    for finer, level in zip(seq.levels, seq.levels[1:]):
        arrays += [
            level.expansion.left,
            level.expansion.right,
            level.refinement.edge_keep,
            finer.bipartite.left_budgets,
        ]
    return seq.num_levels, _digest(arrays)


@pytest.mark.parametrize("n, seed", sorted(SAMPLE_SIGNATURES))
def test_zero_head_sample_structure_is_pinned(n, seed, monkeypatch):
    signature, budgets = sample_structure(n, seed, monkeypatch)
    assert signature == SAMPLE_SIGNATURES[n, seed]
    assert budgets == REFINED_BUDGETS[n, seed]


@pytest.mark.parametrize("seed", sorted(COARSENING_TARGETS))
def test_tree_coarsening_targets_are_pinned(seed):
    assert coarsening_targets(seed) == COARSENING_TARGETS[seed]


@pytest.mark.parametrize("seed", sorted(FEATURED_COARSENING))
def test_featured_tree_coarsening_features_are_pinned(seed):
    assert featured_coarsening(seed) == FEATURED_COARSENING[seed]


def test_featured_prepare_step_is_pinned():
    assert featured_step() == FEATURED_STEP


@pytest.mark.parametrize("family, seed", sorted(SEQUENCES))
def test_coarsening_sequences_are_pinned(family, seed):
    assert sequence_digest(family, seed) == SEQUENCES[family, seed]
