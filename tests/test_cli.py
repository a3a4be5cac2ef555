import json
import subprocess
import sys

import numpy as np
import pytest

from hyperforge.cli import main
from hyperforge.hypergraph import read_graphs_jsonl


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = main(
        [
            "gen-data",
            "--kind", "tree",
            "--out", str(out),
            "--seed", "17",
            "--train", "6",
            "--val", "2",
            "--test", "2",
            "--num-nodes", "10",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    ckpt_dir = tmp_path_factory.mktemp("cli_ckpt")
    cfg = ckpt_dir / "train.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"data_dir = {data_dir}",
                "hidden_dim = 16",
                "num_layers = 1",
                "mlp_hidden = 24",
                "spectral_k = 4",
                "max_steps = 25",
                "val_every = 10",
                "val_batches = 2",
                "checkpoint_every = 25",
                f"checkpoint_dir = {ckpt_dir}",
                f"log_path = {ckpt_dir}/loss.csv",
                "seed = 3",
            ]
        )
        + "\n"
    )
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    return ckpt_dir / "best.hfck"


def test_gen_data_outputs(data_dir, capsys):
    assert (data_dir / "manifest.json").exists()
    assert (data_dir / "train.jsonl").exists()
    graphs = read_graphs_jsonl(data_dir / "train.jsonl")
    assert len(graphs) == 6


def test_gen_data_prints_summary(tmp_path, capsys):
    rc = main(
        [
            "gen-data", "--kind", "tree", "--out", str(tmp_path / "d"),
            "--train", "2", "--val", "1", "--test", "1", "--num-nodes", "8",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["splits"] == {"train": 2, "val": 1, "test": 1}


def test_train_and_sample(checkpoint, tmp_path, capsys):
    assert checkpoint.exists()
    out = tmp_path / "samples"
    rc = main(
        [
            "sample",
            "--ckpt", str(checkpoint),
            "--n-nodes", "10",
            "--count", "2",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    graphs = read_graphs_jsonl(out / "samples.jsonl")
    assert len(graphs) == 2
    assert all(g.num_nodes == 10 for g in graphs)
    report = json.loads((out / "sample_report.json").read_text())
    assert report["count"] == 2
    assert len(report["samples"]) == 2
    assert "num_flagged_invalid" in report
    assert all("valid_structure" in d for d in report["samples"])


def test_eval_command(data_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(
        [
            "eval",
            "--gen", str(data_dir / "test.jsonl"),
            "--ref", str(data_dir),
            "--kind", "tree",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.strip())
    saved = json.loads(out_path.read_text())
    assert printed == saved
    # gen equals the preferred test.jsonl reference split exactly
    assert printed["node_num_diff"] == 0.0
    assert printed["degree_wasserstein"] == 0.0
    assert printed["validity_fraction"] == 1.0


def test_eval_rejects_unknown_kind(data_dir, tmp_path, capsys):
    from hyperforge.pipeline import evaluate

    rc = main(["eval", "--gen", str(data_dir / "test.jsonl"), "--ref", str(data_dir), "--kind", "treee"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "treee" in json.loads(captured.err)["message"]
    # the kind is checked before either path is read
    with pytest.raises(ValueError, match="unknown dataset kind 'treee'"):
        evaluate(tmp_path / "missing.jsonl", tmp_path / "missing", "treee")


def test_export_command(data_dir, tmp_path, capsys):
    rc = main(
        [
            "export",
            "--in", str(data_dir / "test.jsonl"),
            "--format", "dot",
            "--out", str(tmp_path / "dots"),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert len(out["written"]) == 2
    for p in out["written"]:
        text = open(p).read()
        assert text.startswith("graph ")


def test_coarsen_demo(data_dir, capsys):
    rc = main(["coarsen-demo", "--in", str(data_dir / "train.jsonl"), "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("level 0:")
    assert lines[-1] == "round-trip exact: true"


def test_coarsen_demo_bad_index(data_dir, capsys):
    rc = main(["coarsen-demo", "--in", str(data_dir / "train.jsonl"), "--index", "99"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "99" in err["message"]


def test_usage_error_is_single_json_line(capsys):
    rc = main(["sample", "--n-nodes", "4"])  # missing required --ckpt/--out
    assert rc == 2
    err_lines = capsys.readouterr().err.strip().split("\n")
    assert len(err_lines) == 1
    parsed = json.loads(err_lines[0])
    assert set(parsed) == {"error", "message"}


def test_unknown_subcommand(capsys):
    rc = main(["frobnicate"])
    assert rc == 2
    json.loads(capsys.readouterr().err.strip())


def test_missing_file_error(tmp_path, capsys):
    rc = main(["export", "--in", str(tmp_path / "nope.jsonl"), "--format", "dot"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"


def test_console_entry_point(tmp_path):
    """The installed hyperforge script behaves like main()."""
    proc = subprocess.run(
        [sys.executable, "-m", "hyperforge.cli", "gen-data", "--kind", "tree",
         "--out", str(tmp_path / "d"), "--train", "1", "--val", "1", "--test", "1",
         "--num-nodes", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "manifest.json").exists()
