"""Command-line interface.

Subcommands: gen-data, train, sample, eval, export, coarsen-demo.  Success
exits 0; any failure prints one machine-parsable JSON line to stderr and
exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit_error(exc: BaseException) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def _cmd_gen_data(args) -> int:
    from .datasets import DatasetSpec, generate_dataset
    from .hypergraph import _from_record

    spec = _from_record(DatasetSpec, vars(args), "options")
    manifest = generate_dataset(spec, args.out)
    print(json.dumps({"out": str(args.out), "kind": manifest["kind"], "splits": manifest["splits"]}))
    return 0


def _cmd_train(args) -> int:
    from .pipeline import TrainConfig, train

    cfg = TrainConfig.from_file(args.config)
    summary = train(cfg)
    print(json.dumps(summary))
    return 0


def _cmd_sample(args) -> int:
    from .hypergraph import _from_record, write_graphs_jsonl
    from .pipeline import SampleRequest, _sample_workers, sample

    req = _from_record(SampleRequest, vars(args), "options")
    graphs, diags = sample(req)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples_path = out / "samples.jsonl"
    write_graphs_jsonl(samples_path, graphs)
    report = {
        "n_nodes": req.n_nodes,
        "count": req.count,
        "seed": req.seed,
        "workers": _sample_workers(req.count),
        "samples": diags,
        "num_flagged_invalid": sum(1 for d in diags if not d["valid_structure"]),
    }
    report_path = out / "sample_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"samples": str(samples_path), "report": str(report_path)}))
    return 0


def _cmd_eval(args) -> int:
    from .pipeline import evaluate

    report = evaluate(args.gen, args.ref, args.kind)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_export(args) -> int:
    from .pipeline import _read_graph_source, export

    graphs = _read_graph_source(args.infile)
    out_dir = args.out
    if out_dir is None:
        src = Path(args.infile)
        out_dir = src if src.is_dir() else src.parent
    written = export(graphs, args.format, out_dir, stem="export")
    print(json.dumps({"written": [str(p) for p in written]}))
    return 0


def _cmd_coarsen_demo(args) -> int:
    import numpy as np

    from .coarsening import CoarseningParams, sample_coarsening_sequence
    from .expansion import reconstruct_finer
    from .hypergraph import read_graphs_jsonl

    graphs = read_graphs_jsonl(args.infile)
    if not 0 <= args.index < len(graphs):
        raise ValueError(f"record index {args.index} out of range (file has {len(graphs)})")
    h = graphs[args.index]
    rng = np.random.default_rng(args.seed)
    seq = sample_coarsening_sequence(h, CoarseningParams(), rng)
    for i, level in enumerate(seq.levels):
        b = level.bipartite
        print(f"level {i}: nodes={b.num_left} hyperedges={b.num_right} incidences={b.num_edges}")
    exact = True
    for i in range(len(seq.levels) - 1, 0, -1):
        rebuilt = reconstruct_finer(
            seq.levels[i].bipartite, seq.levels[i].expansion, seq.levels[i].refinement
        )
        fine = seq.levels[i - 1].bipartite
        same = rebuilt.same_topology(fine) and np.array_equal(rebuilt.left_budgets, fine.left_budgets)
        exact = exact and same
    print(f"round-trip exact: {str(exact).lower()}")
    if not exact:
        raise RuntimeError("stored targets failed to rebuild the finer levels")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperforge", description="Hierarchical hypergraph generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is absent from the namespace, so DatasetSpec supplies its default
    p = sub.add_parser(
        "gen-data", help="generate a synthetic dataset directory", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--kind", required=True, choices=["sbm", "ego", "tree", "mesh-dir"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--train", dest="train_count", type=int)
    p.add_argument("--val", dest="val_count", type=int)
    p.add_argument("--test", dest="test_count", type=int)
    p.add_argument("--num-nodes", type=int, help="tree size parameter")
    p.add_argument("--mesh-dir", help="source directory for mesh-dir datasets")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    # as for gen-data: SampleRequest supplies the default of an option left out
    p = sub.add_parser(
        "sample",
        help="sample hypergraphs from a checkpoint",
        argument_default=argparse.SUPPRESS,
        description="Sample hypergraphs from a checkpoint.  Every setting comes from the checkpoint's "
        "training record: the Euler steps per level, the reduction-fraction range, the perturbation and "
        "the connectivity repair.  The graphs are spread over the usable CPUs, "
        "W processes in all: process k (this one is 0, the W - 1 others are forked) draws graphs k, k + W, "
        "k + 2W, ... as one task and advances them together, one forward per Euler step.  Graph i depends "
        "only on --seed and i, so the output does not depend on how many CPUs there are.",
    )
    p.add_argument("--ckpt", dest="checkpoint", required=True)
    p.add_argument("--n-nodes", type=int, required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("eval", help="compare generated graphs against a reference set")
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--kind", required=True, choices=["sbm", "ego", "tree", "mesh", "mesh-dir"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("export", help="convert stored graphs to dot/obj/jsonl")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", required=True, choices=["dot", "obj", "jsonl"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("coarsen-demo", help="coarsen one stored hypergraph and verify round-trip")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_coarsen_demo)

    return parser


def main(argv=None) -> int:
    # Before any command loads numpy: BLAS threads gave no speed on these
    # small matrices, and train() splits each Adam update with a helper
    # process only while this process runs a single thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit_error(exc)
        return 2
    except SystemExit:
        raise
    except KeyboardInterrupt:
        _emit_error(RuntimeError("interrupted"))
        return 130
    except BaseException as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
