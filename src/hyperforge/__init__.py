"""hyperforge: hierarchical generation of feature-attributed hypergraphs.

Budgeted multi-scale coarsening of incidence structures, plus learned
expansion and refinement driven by endpoint-parameterized flow matching,
with dataset generators, metrics, and a CLI around them.
"""

from .hypergraph import (
    BipartiteGraph,
    CliqueExpansion,
    Hypergraph,
    clique_of_bipartite,
    collapse_bipartite,
    normalized_laplacian,
    read_graphs_jsonl,
    smallest_nonzero_eigs,
    star_expand,
    write_graphs_jsonl,
)
from .expansion import (
    ExpansionVectors,
    RefinementDecision,
    expand,
    perturb_expand,
    reconstruct_finer,
    refine,
    split_budgets,
)
from .coarsening import (
    CoarseningCache,
    CoarseningLevel,
    CoarseningParams,
    CoarseningSequence,
    dedup_right,
    merge_left,
    sample_coarsening_sequence,
)
from .flow import (
    endpoint_velocity,
    integrate,
    interpolate,
    ot_couple,
    project_split_groups,
    sample_prior,
    simplex_project,
)
from .denoiser import Denoiser, DenoiserConfig, DenoiserInput, sinusoidal_encoding, spectral_rows
from .datasets import DatasetSpec, gen_ego, gen_sbm, gen_tree, generate_dataset, load_mesh, save_obj
from .metrics import (
    MetricReport,
    chamfer_nearest,
    node_num_diff,
    spectral_mmd,
    validity,
    wasserstein_1d,
)
from .pipeline import SampleRequest, TrainConfig, evaluate, export, sample, sample_one, train

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "CliqueExpansion",
    "Hypergraph",
    "clique_of_bipartite",
    "collapse_bipartite",
    "normalized_laplacian",
    "read_graphs_jsonl",
    "smallest_nonzero_eigs",
    "star_expand",
    "write_graphs_jsonl",
    "ExpansionVectors",
    "RefinementDecision",
    "expand",
    "perturb_expand",
    "reconstruct_finer",
    "refine",
    "split_budgets",
    "CoarseningCache",
    "CoarseningLevel",
    "CoarseningParams",
    "CoarseningSequence",
    "dedup_right",
    "merge_left",
    "sample_coarsening_sequence",
    "endpoint_velocity",
    "integrate",
    "interpolate",
    "ot_couple",
    "project_split_groups",
    "sample_prior",
    "simplex_project",
    "Denoiser",
    "DenoiserConfig",
    "DenoiserInput",
    "sinusoidal_encoding",
    "spectral_rows",
    "DatasetSpec",
    "gen_ego",
    "gen_sbm",
    "gen_tree",
    "generate_dataset",
    "load_mesh",
    "save_obj",
    "MetricReport",
    "chamfer_nearest",
    "node_num_diff",
    "spectral_mmd",
    "validity",
    "wasserstein_1d",
    "SampleRequest",
    "TrainConfig",
    "evaluate",
    "export",
    "sample",
    "sample_one",
    "train",
    "__version__",
]
