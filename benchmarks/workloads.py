"""The benchmark's workloads.

Each workload calls the same public entry points the CLI calls (``train``,
``sample``, ``sample_coarsening_sequence``) through their modules, so a
traced run sees the patched names.  A workload has three phases:

* ``setup`` makes the inputs from the seed (data, checkpoint, graph pool);
* ``op(i)`` runs operation ``i`` and returns its unit count and a small
  signature of its output; operation ``i`` depends only on the seed and
  ``i``, so a replay of the same indices repeats the same work;
* ``check`` verifies the outputs outside the timed section and returns
  the number of violations.

No workload keeps per-operation state beyond a few numbers, so a faster
commit does not raise peak memory by completing more operations.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hyperforge import coarsening, datasets, pipeline
from hyperforge.coarsening import CoarseningParams
from hyperforge.denoiser import Denoiser, DenoiserConfig
from hyperforge.expansion import reconstruct_finer
from hyperforge.hypergraph import Hypergraph


@dataclass
class OpResult:
    units: int
    signature: tuple


def op_seed(seed: int, i: int) -> int:
    """Seed of operation ``i``: a fixed function of the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class TrainTree16:
    """``train()`` on the criterion-9/10 toy tree set, default 64x4 model.

    One operation is one ``train()`` call of ``steps`` steps with a single
    validation at the end and the final checkpoint save.  Its units are
    training examples, counted as ``CoarseningCache.take`` calls.
    """

    name = "train-tree16"

    def __init__(self, seed: int, work_dir: Path, steps: int = 250):
        self.seed = seed
        self.work_dir = work_dir
        self.steps = steps
        self.units_per_op = steps
        self.data_dir = work_dir / "toytree16"
        self.takes = 0
        self.val_losses: list[float] = []
        self._count_takes()

    def _count_takes(self) -> None:
        # Counted with no timing, so a batched step counts every graph it trains on.
        cls = coarsening.CoarseningCache
        take = cls.take

        @functools.wraps(take)
        def counted_take(cache, *args, **kwargs):
            self.takes += 1
            return take(cache, *args, **kwargs)

        cls.take = counted_take

    def setup(self) -> None:
        spec = datasets.DatasetSpec(
            kind="tree", train_count=64, val_count=16, test_count=16, seed=100, num_nodes=16
        )
        datasets.generate_dataset(spec, self.data_dir)

    def _config(self, steps: int) -> pipeline.TrainConfig:
        run_dir = self.work_dir / "train"
        return pipeline.TrainConfig(
            data_dir=str(self.data_dir),
            max_steps=steps,
            seed=self.seed,
            val_every=steps,
            checkpoint_every=0,
            checkpoint_dir=str(run_dir),
            log_path=str(run_dir / "loss_log.csv"),
        )

    def op(self, i: int) -> OpResult:
        before = self.takes
        summary = pipeline.train(self._config(self.steps))
        return OpResult(self.takes - before, (summary["best_val_loss"], summary["checkpoint"]))

    def check(self, results: list[OpResult]) -> int:
        """Every call reproduces the same finite validation loss, trains
        ``steps`` examples, saves its checkpoint and beats the one-step model."""
        losses = [r.signature[0] for r in results]
        self.val_losses = losses
        violations = sum(1 for r in results if r.units != self.steps)
        violations += sum(1 for r in results if not Path(r.signature[1]).is_file())
        if not all(x is not None and np.isfinite(x) for x in losses):
            return violations + len(results)
        violations += sum(1 for x in losses if x != losses[0])
        baseline = pipeline.train(self._config(1))["best_val_loss"]
        if not losses[0] < baseline:
            violations += len(results)
        return violations

    def layer_metrics(self) -> dict[str, float]:
        return {"pipeline.train.val_loss": float(self.val_losses[0]) if self.val_losses else 0.0}


class SampleN:
    """``sample()`` of ``count`` graphs of ``n_nodes`` nodes per operation.

    The checkpoint is the default model at initialisation.  Its heads have
    zero weights and output their biases exactly, so the iterations and
    sizes of each graph depend only on the seed and on the per-iteration
    reduction fraction, drawn from ``rho``, never on the float order.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, n_nodes: int, count: int, rho: tuple[float, float]):
        self.name = name
        self.seed = seed
        self.n_nodes = n_nodes
        self.count = count
        self.rho = rho
        self.units_per_op = count
        self.checkpoint = work_dir / "init.hfck"

    def setup(self) -> None:
        den = Denoiser(DenoiserConfig(), rng=np.random.default_rng(self.seed))
        extras = {"steps": 25, "rho_min": self.rho[0], "rho_max": self.rho[1]}
        den.save(self.checkpoint, extra_config={"train": extras})

    def op(self, i: int) -> OpResult:
        req = pipeline.SampleRequest(
            checkpoint=str(self.checkpoint), n_nodes=self.n_nodes, count=self.count, seed=op_seed(self.seed, i)
        )
        graphs, diags = pipeline.sample(req)
        signature = tuple(
            (
                h.num_nodes,
                tuple(len(e) for e in h.hyperedges),
                d["iterations"],
                tuple(d["budget_sums"]),
            )
            for h, d in zip(graphs, diags)
        )
        return OpResult(len(graphs), signature)

    def check(self, results: list[OpResult]) -> int:
        """Every graph has exactly N nodes and every budget sum equals N."""
        n = self.n_nodes
        violations = 0
        for r in results:
            violations += abs(r.units - self.count)
            for num_nodes, _, _, budget_sums in r.signature:
                if num_nodes != n or not budget_sums or any(s != n for s in budget_sums):
                    violations += 1
        return violations

    def layer_metrics(self) -> dict[str, float]:
        return {}


def gen_arbitrary(rng: np.random.Generator) -> Hypergraph:
    """A valid hypergraph outside every shipped family.

    It has duplicate and singleton hyperedges, isolated nodes and, often,
    several components; some draws carry four or more copies of one
    hyperedge.
    """
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


def failure_reason(exc: Exception) -> str:
    text = str(exc)
    if "duplicate copies" in text:
        return "duplicate_copies"
    if "no legal contraction" in text:
        return "no_legal_contraction"
    return "other"


class CoarsenEgo:
    """``sample_coarsening_sequence`` over a fixed pool of ``gen_ego`` graphs.

    One operation coarsens every graph of the pool once, so each operation
    does the same mix of work.  Like the toy tree set of ``train-tree16``,
    the pool comes from a fixed dataset seed; the workload seed drives the
    coarsening streams.  With a
    pool drawn from the workload seed, its make-up alone spread throughput
    by ~10 % across seeds at 12 graphs and ~7 % at 48.  After the timed
    section a probe coarsens arbitrary valid hypergraphs
    (:func:`gen_arbitrary`, drawn from the workload seed) and counts the
    failures by reason.
    """

    name = "coarsen-ego"
    CHECK_EVERY = 8
    POOL_SEED = 100

    def __init__(self, seed: int, pool: int = 48, probe: int = 60):
        self.seed = seed
        self.pool_size = pool
        self.units_per_op = pool
        self.probe_size = probe
        self.params = CoarseningParams()
        self.kept: dict[int, coarsening.CoarseningSequence] = {}
        self.failures: Counter[str] = Counter()

    def setup(self) -> None:
        rng = np.random.default_rng(self.POOL_SEED)
        self.pool = [datasets.gen_ego(rng) for _ in range(self.pool_size)]
        rng = np.random.default_rng([self.seed, 3])
        self.arbitrary = [gen_arbitrary(rng) for _ in range(self.probe_size)]

    def op(self, i: int) -> OpResult:
        signature = []
        for j, h in enumerate(self.pool):
            seq = coarsening.sample_coarsening_sequence(h, self.params, np.random.default_rng([self.seed, 2, i, j]))
            if i == 0 and j % self.CHECK_EVERY == 0:
                self.kept[j] = seq
            top = seq.levels[-1].bipartite
            sizes = tuple((l.bipartite.num_left, l.bipartite.num_right, l.bipartite.num_edges) for l in seq.levels)
            signature.append((top.num_left, top.num_right, hash(sizes)))
        return OpResult(len(self.pool), tuple(signature))

    def probe(self) -> tuple:
        """Coarsen the arbitrary set; returns the (index, reason) failures."""
        failed = []
        for j, h in enumerate(self.arbitrary):
            try:
                coarsening.sample_coarsening_sequence(h, self.params, np.random.default_rng([self.seed, 4, j]))
            except Exception as exc:  # every failure is counted, by reason
                failed.append((j, failure_reason(exc)))
        self.failures = Counter(reason for _, reason in failed)
        return tuple(failed)

    def check(self, results: list[OpResult]) -> int:
        """Every sequence ends at one node and one hyperedge; a fixed
        subsample rebuilds exactly through ``reconstruct_finer``."""
        violations = sum(1 for r in results for top in r.signature if top[:2] != (1, 1))
        for seq in self.kept.values():
            if not _rebuilds_exactly(seq):
                violations += 1
        return violations

    def layer_metrics(self) -> dict[str, float]:
        failed = sum(self.failures.values())
        return {
            "coarsening.probe.fail_frac": failed / self.probe_size,
            "coarsening.failures.duplicate_copies": self.failures.get("duplicate_copies", 0),
            "coarsening.failures.no_legal_contraction": self.failures.get("no_legal_contraction", 0),
            "coarsening.failures.other": self.failures.get("other", 0),
        }


def _rebuilds_exactly(seq: coarsening.CoarseningSequence) -> bool:
    """The round-trip check of acceptance criterion 1."""
    for i in range(len(seq.levels) - 1, 0, -1):
        level = seq.levels[i]
        rebuilt = reconstruct_finer(level.bipartite, level.expansion, level.refinement)
        fine = seq.levels[i - 1].bipartite
        if not rebuilt.same_topology(fine) or not np.array_equal(rebuilt.left_budgets, fine.left_budgets):
            return False
        fa, fb = rebuilt.left_features, fine.left_features
        if (fa is None) != (fb is None) or (fa is not None and not np.array_equal(fa, fb)):
            return False
    return True


# Extra per-layer metrics the workloads report; zero where a workload has none.
WORKLOAD_METRIC_NAMES = (
    "pipeline.train.val_loss",
    "coarsening.probe.fail_frac",
    "coarsening.failures.duplicate_copies",
    "coarsening.failures.no_legal_contraction",
    "coarsening.failures.other",
)


def make(name: str, seed: int, work_dir: Path, tiny: bool = False):
    """Build workload ``name``; ``tiny`` shrinks it for the self-test."""
    if name == "train-tree16":
        return TrainTree16(seed, work_dir, steps=3 if tiny else 250)
    if name == "sample-n16":
        return SampleN(name, seed, work_dir, n_nodes=16, count=1 if tiny else 4, rho=(0.1, 0.3))
    if name == "sample-n256":
        # A fixed fraction gives every N=256 graph the same sizes: with only a
        # few graphs per run, a drawn one spread throughput by ~10% across seeds.
        return SampleN(name, seed, work_dir, n_nodes=24 if tiny else 256, count=1, rho=(0.2, 0.2))
    if name == "coarsen-ego":
        return CoarsenEgo(seed, pool=2 if tiny else 48, probe=8 if tiny else 60)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("train-tree16", "sample-n16", "sample-n256", "coarsen-ego")
