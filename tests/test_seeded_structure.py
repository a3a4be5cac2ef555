"""Golden seeded structure: sampled sizes and coarsening targets, pinned.

The zero-head model (every head has zero weights) outputs its biases
exactly, so what ``sample_one`` builds depends only on the seed and never on
the order of float operations.  Its split head outputs even splits, so the
odd sizes are the ones whose refined budgets show the rounding rule.  The same holds for the integer targets of a
coarsening.  The pins below are values of the implementation at the time they
were recorded; a change of seeded structure fails here, stating the seed.
"""

import hashlib

import numpy as np
import pytest

import hyperforge.pipeline as pipeline
from hyperforge.coarsening import CoarseningParams, sample_coarsening_sequence
from hyperforge.datasets import gen_tree
from hyperforge.denoiser import Denoiser, DenoiserConfig

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


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


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
