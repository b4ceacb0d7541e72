import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starctr

from container_bytes import (
    edit_header,
    flip_payload_byte,
    header_length_past_eof,
    set_config,
)
from starctr import checkpoint
from starctr.cli import main
from starctr.datagen import default_gen_config, format_gen_config
from starctr.errors import CheckpointError
from starctr.gradcheck import tiny_model_config
from starctr.model import build_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data -> train -> artifacts, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    gen = default_gen_config(num_domains=3, seed=11, n_examples=5_000,
                             vocab_items=300, vocab_profiles=120,
                             vocab_contexts=12)
    gen_config = root / "gen.cfg"
    gen_config.write_text(format_gen_config(gen))
    data = root / "train.tsv"
    assert main(["gen-data", str(gen_config), str(data)]) == 0

    exp_config = root / "exp.cfg"
    exp_config.write_text(
        "domains=3\nvocab_items=300\nvocab_profiles=120\nvocab_contexts=12\n"
        "layers=16,8,1\nembed_dim=4\naux_embed_dim=4\naux_hidden=6\n"
        "batch_size=128\nepochs=1\nseed=0\n"
    )
    ckpt = root / "model.ckpt"
    assert main(["train", str(exp_config), str(data), str(ckpt)]) == 0
    return root, gen_config, exp_config, data, ckpt


def test_gen_data_writes_manifest(workspace):
    root, gen_config, _, data, _ = workspace
    manifest = json.loads((root / "train.tsv.manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert "seed" in manifest and "version" in manifest


def test_train_outputs(workspace):
    root, _, _, _, ckpt = workspace
    assert ckpt.exists()
    log = (root / "model.ckpt.log").read_text()
    assert "# epoch 1" in log
    manifest = json.loads((root / "model.ckpt.manifest.json").read_text())
    assert manifest["command"] == "train"


def test_manifest_hashes_the_effective_config(workspace, tmp_path):
    """``--set`` changes ``config_hash``; the config file's sha256 stays
    under ``inputs``; a rerun gives the same hash."""
    root, _, exp_config, data, _ = workspace
    hashes = {}
    for name, extra in (("a", []), ("b", ["--set", "variant=shared_bottom"]),
                        ("again", [])):
        out = tmp_path / f"{name}.ckpt"
        assert main(["train", str(exp_config), str(data), str(out)]
                    + extra) == 0
        manifest = json.loads((tmp_path / f"{name}.ckpt.manifest.json")
                              .read_text())
        hashes[name] = manifest["config_hash"]
        assert manifest["inputs"]["config"] == json.loads(
            (root / "model.ckpt.manifest.json").read_text()
        )["inputs"]["config"]
    assert hashes["a"] == hashes["again"] != hashes["b"]
    out = tmp_path / "grid.txt"
    assert main(["ablation", str(exp_config), str(data), "--out", str(out),
                 "--set", "variant=shared_bottom"]) == 0
    manifest = json.loads((tmp_path / "grid.txt.manifest.json").read_text())
    assert manifest["config_hash"] == hashes["b"]


@pytest.mark.parametrize("lr", ["nan", "1e400", "-1", "0"])
def test_bad_lr_exits_2(workspace, tmp_path, capsys, lr):
    _, _, exp_config, data, _ = workspace
    out = tmp_path / "m.ckpt"
    assert main(["train", str(exp_config), str(data), str(out),
                 "--set", f"lr={lr}"]) == 2
    assert "lr must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,rule", [
    ("embed_init_scale", "-1", "finite and >= 0"),
    ("embed_init_scale", "inf", "finite and >= 0"),
    ("momentum", "nan", "finite and in [0, 1]"),
    ("momentum", "2", "finite and in [0, 1]"),
    ("epsilon", "0", "finite and > 0"),
])
def test_bad_model_value_exits_2(workspace, tmp_path, capsys, key, value,
                                 rule):
    _, _, exp_config, data, _ = workspace
    out = tmp_path / "m.ckpt"
    assert main(["train", str(exp_config), str(data), str(out),
                 "--set", f"{key}={value}"]) == 2
    assert f"{key} must be {rule}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("key,value", [
    ("vocab_items", str(10**20)),
    ("embed_dim", str(10**20)),
    ("aux_hidden", str(10**20)),
    ("domains", str(10**20)),
    ("batch_size", str(10**20)),
    ("layers", f"{10**20},1"),
])
def test_oversized_value_exits_2(workspace, tmp_path, capsys, key, value):
    _, _, exp_config, data, _ = workspace
    out = tmp_path / "m.ckpt"
    assert main(["train", str(exp_config), str(data), str(out),
                 "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "ablation"])
def test_batch_larger_than_buffer_exits_2_before_reading_data(tmp_path,
                                                              capsys, command):
    # The data file does not exist: the config is rejected first.
    config = str(Path(__file__).resolve().parent.parent / "configs"
                 / "experiment_default.cfg")
    missing, out = str(tmp_path / "missing.tsv"), str(tmp_path / "out")
    argv = {"train": ["train", config, missing, out],
            "ablation": ["ablation", config, missing, "--out", out]}[command]
    assert main(argv + ["--set", "buffer_capacity=10"]) == 2
    assert capsys.readouterr().err == ("config error: batch_size 1024 exceeds "
                                       "buffer capacity 10\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lines", [0, 1])
def test_training_nothing_exits_3_and_writes_nothing(workspace, tmp_path,
                                                     capsys, lines):
    _, _, exp_config, data, _ = workspace
    with open(data) as fh:
        head = "".join(fh.readline() for _ in range(lines))
    short = tmp_path / "short.tsv"
    short.write_text(head)
    out = tmp_path / "m.ckpt"
    assert main(["train", str(exp_config), str(short), str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: nothing to train on")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.tsv"]


def test_divergence_exits_4_and_writes_nothing(workspace, tmp_path, capsys):
    _, _, exp_config, data, _ = workspace
    out = tmp_path / "m.ckpt"
    assert main(["train", str(exp_config), str(data), str(out),
                 "--set", "lr=1e300"]) == 4
    err = capsys.readouterr().err
    assert "check failure: loss nan at step" in err and "(domain" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_exploding_loss_exits_4_and_writes_nothing(workspace, tmp_path,
                                                  capsys):
    _, _, exp_config, data, _ = workspace
    out = tmp_path / "m.ckpt"
    assert main(["train", str(exp_config), str(data), str(out),
                 "--set", "lr=1e6"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("check failure: loss ")
    assert " at step " in err and "(domain" in err and "loss nan" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_train_eval_reproducible(workspace, tmp_path):
    root, _, exp_config, data, ckpt = workspace
    ckpt2 = tmp_path / "again.ckpt"
    assert main(["train", str(exp_config), str(data), str(ckpt2)]) == 0
    assert ckpt.read_bytes() == ckpt2.read_bytes()

    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["eval", str(ckpt), str(data), str(r1)]) == 0
    assert main(["eval", str(ckpt2), str(data), str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert json.loads((tmp_path / "r1.txt.json").read_text())["overall_auc"]


def test_eval_svg_and_checkpoint_untouched(workspace, tmp_path):
    _, _, _, data, ckpt = workspace
    before = ckpt.read_bytes()
    report = tmp_path / "rep.txt"
    svg = tmp_path / "pcoc.svg"
    assert main(["eval", str(ckpt), str(data), str(report),
                 "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    assert ckpt.read_bytes() == before


def test_fold_and_score(workspace, tmp_path):
    _, _, _, data, ckpt = workspace
    folded = tmp_path / "model.fold"
    preds = tmp_path / "preds.tsv"
    assert main(["fold", str(ckpt), str(folded)]) == 0
    assert main(["score", str(folded), str(data), str(preds)]) == 0
    lines = preds.read_text().splitlines()
    assert len(lines) == 5_000
    assert all(len(l.split("\t")) == 4 for l in lines[:50])


def test_score_unknown_domain_exits_3(workspace, tmp_path):
    _, _, _, data, ckpt = workspace
    folded = tmp_path / "m.fold"
    assert main(["fold", str(ckpt), str(folded)]) == 0
    bad_data = tmp_path / "bad.tsv"
    bad_data.write_text("9\t0\tbehavior:1\tprofile:1\titem:1\tctx:1\n")
    preds = tmp_path / "p.tsv"
    assert main(["score", str(folded), str(bad_data), str(preds)]) == 3


@pytest.mark.parametrize("command,extra", [
    ("train", ["--set", "normalizer=pn"]),
    ("train", ["--set", "normalizer=bn"]),
    ("train", ["--set", "normalizer=ln"]),
    ("eval", []),
    ("ablation", []),
], ids=["train_pn", "train_bn", "train_ln", "eval", "ablation"])
def test_unserved_domain_is_a_data_error(workspace, tmp_path, capsys, command,
                                         extra):
    """Rows of a domain past the config's three, in the training part of
    the ablation split: every command exits 3 and writes nothing."""
    _, _, exp_config, data, ckpt = workspace
    lines = data.read_text().splitlines(keepends=True)[:600]
    lines[200:240] = ["4" + line[line.index("\t"):] for line in lines[200:240]]
    bad_data = tmp_path / "bad.tsv"
    bad_data.write_text("".join(lines))
    out = tmp_path / "out"
    out.mkdir()
    argv = {"train": ["train", str(exp_config), str(bad_data),
                      str(out / "m.ckpt")],
            "eval": ["eval", str(ckpt), str(bad_data), str(out / "r.txt")],
            "ablation": ["ablation", str(exp_config), str(bad_data),
                         "--out", str(out / "grid.txt")]}[command]
    capsys.readouterr()
    assert main(argv + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: example 201: unknown domain 4 "
                          "(model serves 1..3)")
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_score_checks_ids_once(workspace, tmp_path, capsys, monkeypatch):
    from starctr import serve

    _, _, _, data, ckpt = workspace
    folded = tmp_path / "m.fold"
    assert main(["fold", str(ckpt), str(folded)]) == 0
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_ids(*args)

    validate_ids = serve.validate_ids
    monkeypatch.setattr(serve, "validate_ids", counted)
    assert main(["score", str(folded), str(data), str(tmp_path / "p.tsv")]) == 0
    assert len(calls) == 1
    bad_data = tmp_path / "bad.tsv"
    bad_data.write_text("1\t1\tbehavior:1,2\tprofile:1\titem:1\tctx:1\n"
                        "1\t0\tbehavior:1\tprofile:1\titem:99999\tctx:1\n")
    capsys.readouterr()
    assert main(["score", str(folded), str(bad_data), str(tmp_path / "q.tsv")]) == 3
    assert len(calls) == 2
    assert ("example 2: item id outside vocab: 99999 not in [0, 300)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval", "score"])
@pytest.mark.parametrize("bad_line,field", [
    ("1\t0\tbehavior:1\tprofile:1\titem:99999\tctx:1\n", "item"),
    ("1\t0\tbehavior:1\tprofile:-1\titem:-5\tctx:1\n", "item"),
    ("2\t1\tbehavior:3,-1\tprofile:2\titem:4\tctx:1\n", "item"),
    ("1\t0\tbehavior:1\tprofile:-1\titem:5\tctx:1\n", "profile"),
], ids=["item_past_vocab", "negative_profile_and_item", "negative_behavior",
        "negative_profile"])
def test_id_outside_vocab_exits_3(workspace, tmp_path, capsys, command,
                                  bad_line, field):
    _, _, _, _, ckpt = workspace
    model = ckpt
    if command == "score":
        model = tmp_path / "m.fold"
        assert main(["fold", str(ckpt), str(model)]) == 0
    bad_data = tmp_path / "bad.tsv"
    bad_data.write_text("1\t1\tbehavior:1,2\tprofile:1\titem:1\tctx:1\n"
                        + bad_line)
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main([command, str(model), str(bad_data), str(out)]) == 3
    assert f"example 2: {field} id outside vocab" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(workspace, tmp_path):
    root, _, _, data, _ = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed=0\nwat=1\n")
    assert main(["train", str(bad), str(data), str(tmp_path / "x.ckpt")]) == 2


@pytest.mark.parametrize("key,value", [
    ("examples", "abc"),
    ("domains", "x"),
    ("domain.1.traffic_share", "x"),
    ("latent_dim", "0"),
    ("vocab_items", "0"),
    ("domain_rank", "40"),
    ("behavior_mean_len", "-1"),
    ("behavior_max_len", "-1"),
    ("examples", "-5"),
    ("domain.1.traffic_share", "1.5"),
    ("domain.1.traffic_share", "-0.5"),
    # Past numpy's limits: a Poisson mean, an array dimension, a C long.
    ("behavior_mean_len", "1e19"),
    ("examples", str(10**20)),
    ("vocab_items", str(10**20)),
    ("behavior_max_len", str(10**20)),
    ("latent_dim", str(10**20)),
])
def test_bad_gen_config_value_exits_2(workspace, tmp_path, capsys, key,
                                      value):
    _, gen_config, _, _, _ = workspace
    # Each feature_shift holds latent_dim floats: without those lines only
    # latent_dim's own range can reject its value.
    lines = [line for line in gen_config.read_text().splitlines()
             if not line.startswith(key + "=")
             and not (key == "latent_dim" and ".feature_shift=" in line)]
    bad = tmp_path / "gen.cfg"
    bad.write_text("\n".join(lines + [f"{key}={value}"]) + "\n")
    out = tmp_path / "data.tsv"
    assert main(["gen-data", str(bad), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [line for line in lines
                    if not line.startswith("domain.2.base_ctr=")],
     "domain.2.base_ctr missing"),
    (lambda lines: ["domains=0"], "at least one domain profile required"),
    (lambda lines: ["=5"] + lines, "line 1: expected key=value, got '=5'"),
], ids=["missing_base_ctr", "zero_domains", "empty_key"])
def test_incomplete_gen_config_exits_2(workspace, tmp_path, capsys, edit,
                                       message):
    _, gen_config, _, _, _ = workspace
    bad = tmp_path / "gen.cfg"
    bad.write_text("\n".join(edit(gen_config.read_text().splitlines())))
    capsys.readouterr()
    assert main(["gen-data", str(bad), str(tmp_path / "data.tsv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.cfg"]


def test_set_without_equals_exits_2(workspace, tmp_path, capsys):
    _, _, exp_config, data, _ = workspace
    capsys.readouterr()
    assert main(["train", str(exp_config), str(data), str(tmp_path / "m.ckpt"),
                 "--set", "foo"]) == 2
    assert (capsys.readouterr().err
            == "config error: --set expects key=value, got 'foo'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line,extra,message", [
    ("", ["--set", "layers=64,,32,1"], "bad value for layers: '64,,32,1'"),
    ("", ["--set", "layers=64,32,1,"], "bad value for layers: '64,32,1,'"),
    ("layers=16,,1", [], "bad value for layers: '16,,1'"),
    ("=5", [], "line 12: expected key=value, got '=5'"),
    ("", ["--set", "=5"], "--set expects key=value, got '=5'"),
], ids=["set_inner", "set_trailing", "file_inner", "file_key", "set_key"])
def test_empty_int_entry_or_key_exits_2(workspace, tmp_path, capsys, line,
                                        extra, message):
    """An empty entry of an int list and an empty key are config errors
    that name the value, the line or the ``--set`` pair."""
    _, _, exp_config, data, _ = workspace
    config = tmp_path / "exp.cfg"
    config.write_text(exp_config.read_text() + line + "\n")
    capsys.readouterr()
    assert main(["train", str(config), str(data), str(tmp_path / "m.ckpt")]
                + extra) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("command", ["gen-data", "train", "ablation",
                                     "gradcheck"])
def test_non_utf8_config_exits_2(workspace, tmp_path, capsys, command):
    _, _, _, data, _ = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed=0\n\xff\n")
    out = str(tmp_path / "out")
    argv = {"gen-data": ["gen-data", str(bad), out],
            "train": ["train", str(bad), str(data), out],
            "ablation": ["ablation", str(bad), str(data), "--out", out],
            "gradcheck": ["gradcheck", str(bad)]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: not UTF-8 (")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


# Every input path of every command; DIR is a directory.
DIRECTORY_INPUTS = [
    ["gen-data", "DIR", "OUT"],
    ["train", "DIR", "DATA", "OUT"],
    ["train", "EXP", "DIR", "OUT"],
    ["eval", "DIR", "DATA", "OUT"],
    ["eval", "CKPT", "DIR", "OUT"],
    ["ablation", "DIR", "DATA", "--out", "OUT"],
    ["ablation", "EXP", "DIR", "--out", "OUT"],
    ["ablation", "EXP", "DATA", "--eval-data", "DIR", "--out", "OUT"],
    ["fold", "DIR", "OUT"],
    ["score", "DIR", "DATA", "OUT"],
    ["score", "FOLD", "DIR", "OUT"],
    ["gradcheck", "DIR"],
]


@pytest.mark.parametrize("argv", DIRECTORY_INPUTS, ids="-".join)
def test_directory_input_exits_3(workspace, tmp_path, capsys, argv):
    _, _, exp_config, data, ckpt = workspace
    folded = tmp_path / "m.fold"
    assert main(["fold", str(ckpt), str(folded)]) == 0
    paths = {"DIR": tmp_path / "dir", "OUT": tmp_path / "out",
             "EXP": exp_config, "DATA": data, "CKPT": ckpt, "FOLD": folded}
    paths["DIR"].mkdir()
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno 21] Is a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dir", "m.fold", "m.fold.manifest.json"]


def test_directory_output_exits_3_and_stays(workspace, tmp_path, capsys):
    _, _, _, _, ckpt = workspace
    out = tmp_path / "out.fold"
    out.mkdir()
    capsys.readouterr()
    assert main(["fold", str(ckpt), str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "data error: [Errno 21] Is a directory")
    assert out.is_dir() and list(out.iterdir()) == []
    assert [p.name for p in tmp_path.iterdir()] == ["out.fold"]


# Each command with an output it cannot write: OUT is ``tmp/out``, and the
# second item names the directory made under ``tmp`` (OUT itself, a file
# named after it, or its manifest); NO_PARENT has no parent and FILE_PARENT
# a file for one.
UNWRITABLE_OUTPUTS = [
    (["gen-data", "GEN", "OUT"], "out"),
    (["gen-data", "GEN", "OUT"], "out.manifest.json"),
    (["gen-data", "GEN", "NO_PARENT"], None),
    (["gen-data", "GEN", "FILE_PARENT"], None),
    (["train", "EXP", "DATA", "OUT"], "out"),
    (["train", "EXP", "DATA", "OUT"], "out.log"),
    (["train", "EXP", "DATA", "OUT"], "out.manifest.json"),
    (["train", "EXP", "DATA", "NO_PARENT"], None),
    (["eval", "CKPT", "DATA", "OUT"], "out"),
    (["eval", "CKPT", "DATA", "OUT"], "out.json"),
    (["eval", "CKPT", "DATA", "OUT", "--svg", "FILE_PARENT"], None),
    (["ablation", "EXP", "DATA", "--out", "OUT"], "out"),
    (["ablation", "EXP", "DATA", "--out", "FILE_PARENT"], None),
    (["fold", "CKPT", "OUT"], "out"),
    (["score", "FOLD", "DATA", "OUT"], "out"),
]


@pytest.mark.parametrize("argv,made", UNWRITABLE_OUTPUTS,
                         ids=[f"{argv[0]}-{made or argv[-1]}"
                              for argv, made in UNWRITABLE_OUTPUTS])
def test_unwritable_output_exits_3_before_reading_input(workspace, tmp_path,
                                                        capsys, monkeypatch,
                                                        argv, made):
    _, gen_config, exp_config, data, ckpt = workspace
    (tmp_path / "file").write_text("")
    if made:
        (tmp_path / made).mkdir()
    paths = {"OUT": tmp_path / "out", "NO_PARENT": tmp_path / "nope" / "x",
             "FILE_PARENT": tmp_path / "file" / "x", "GEN": gen_config,
             "EXP": exp_config, "DATA": data, "CKPT": ckpt,
             "FOLD": tmp_path / "m.fold"}
    before = sorted(tmp_path.iterdir())

    def read_input(*args, **kwargs):
        raise AssertionError("an input was read")

    for reader in ("load_gen_config", "load_experiment_config",
                   "read_dataset", "load_model", "load_folded"):
        monkeypatch.setattr(f"starctr.cli.{reader}", read_input)
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno ")
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_gen_data_to_a_directory_generates_nothing(workspace, tmp_path,
                                                  capsys, monkeypatch):
    _, gen_config, _, _, _ = workspace
    out = tmp_path / "out"
    out.mkdir()

    def generate_examples(config):
        raise AssertionError("generate_examples called")

    monkeypatch.setattr("starctr.datagen.generate_examples",
                        generate_examples)
    capsys.readouterr()
    assert main(["gen-data", str(gen_config), str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: [Errno 21] Is a directory: '{out}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(out.iterdir()) == []


def test_train_to_a_directory_reads_no_data(workspace, tmp_path, capsys,
                                           monkeypatch):
    _, _, exp_config, data, _ = workspace
    out = tmp_path / "m.ckpt"
    out.mkdir()
    reads = []
    monkeypatch.setattr("starctr.cli.read_dataset", reads.append)
    assert main(["train", str(exp_config), str(data), str(out)]) == 3
    assert reads == []
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_missing_data_exits_3(workspace, tmp_path):
    _, _, exp_config, _, _ = workspace
    rc = main(["train", str(exp_config), str(tmp_path / "nope.tsv"),
               str(tmp_path / "x.ckpt")])
    assert rc == 3


def test_malformed_data_exits_3(workspace, tmp_path):
    _, _, exp_config, _, _ = workspace
    bad = tmp_path / "garbage.tsv"
    bad.write_text("this is not a dataset\n")
    rc = main(["train", str(exp_config), str(bad), str(tmp_path / "x.ckpt")])
    assert rc == 3


def test_incompatible_checkpoint_version_exits_2(workspace, tmp_path):
    _, _, _, data, ckpt = workspace
    raw = bytearray(ckpt.read_bytes())
    raw[4] = 99
    stale = tmp_path / "stale.ckpt"
    stale.write_bytes(bytes(raw))
    assert main(["eval", str(stale), str(data), str(tmp_path / "r.txt")]) == 2


def test_bn_checkpoint_of_the_old_layout_exits_2(workspace, tmp_path,
                                                 capsys):
    # bn used to store moving statistics of shape (dim,) and a 0-d
    # populated flag; now it stores one partition: (1, dim) and (1,).
    _, _, _, data, _ = workspace
    model = build_model(tiny_model_config("base", "bn"))
    tensors = {name: getattr(owner, attr)
               for name, owner, attr in checkpoint._model_arrays(model)}
    for name in ("bn.moving_mean", "bn.moving_var", "bn.populated"):
        tensors[name] = tensors[name][0]
    old = tmp_path / "old_bn.ckpt"
    old.write_bytes(checkpoint.pack("model", model.config, tensors))
    with pytest.raises(CheckpointError, match=r"bn\.moving_mean: shape \[16\]"):
        checkpoint.load_model(str(old))
    capsys.readouterr()
    assert main(["eval", str(old), str(data), str(tmp_path / "r.txt")]) == 2
    err = capsys.readouterr().err
    assert "checkpoint error:" in err and "bn.moving_mean" in err
    assert "Traceback" not in err


# corruption -> (edit of the expected file's bytes, words of the error)
CORRUPTIONS = {
    "unknown_variant": (lambda raw: edit_header(
        raw, set_config("variant", "ensemble")), "unknown model variant"),
    "unknown_normalizer": (lambda raw: edit_header(
        raw, set_config("normalizer", "gn")), "unknown normalizer"),
    "unknown_aux": (lambda raw: edit_header(
        raw, set_config("aux_enabled", 2)), "aux_enabled: expected bool"),
    "payload_byte_flipped": (flip_payload_byte, "sha256"),
    "header_length_past_eof": (header_length_past_eof, "past the end"),
    "config_not_an_object": (lambda raw: edit_header(
        raw, lambda header: header.update(config=[])),
        "header config is not an object"),
    "tensors_not_an_object": (lambda raw: edit_header(
        raw, lambda header: header.update(tensors=[])),
        "header tensors is not an object"),
    "six_bytes": (lambda raw: raw[:6], "truncated header"),
    "wrong_kind": (None, "kind"),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("command", ["eval", "fold", "score"])
def test_corrupt_container_exits_2(workspace, tmp_path, capsys, command,
                                   corruption):
    _, _, _, data, ckpt = workspace
    fold_file = tmp_path / "m.fold"
    assert main(["fold", str(ckpt), str(fold_file)]) == 0
    if command == "score":
        expected, other = fold_file, ckpt
    else:
        expected, other = ckpt, fold_file
    corrupt_bytes, message = CORRUPTIONS[corruption]
    if corrupt_bytes is None:
        raw = other.read_bytes()
    else:
        raw = corrupt_bytes(expected.read_bytes())
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(raw)
    capsys.readouterr()
    args = {
        "eval": ["eval", str(corrupt), str(data), str(tmp_path / "r.txt")],
        "fold": ["fold", str(corrupt), str(tmp_path / "f.fold")],
        "score": ["score", str(corrupt), str(data), str(tmp_path / "p.tsv")],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "checkpoint error:" in err
    assert message in err
    assert "Traceback" not in err


def test_combine_key_is_unknown(workspace, tmp_path, capsys):
    _, _, exp_config, data, _ = workspace
    capsys.readouterr()
    assert main(["train", str(exp_config), str(data), str(tmp_path / "x.ckpt"),
                 "--set", "combine=elementwise_product"]) == 2
    assert "unknown config keys: combine" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["base", "shared_bottom"])
def test_fold_and_score_baseline_checkpoint(workspace, tmp_path, variant):
    _, _, exp_config, data, _ = workspace
    ckpt = tmp_path / f"{variant}.ckpt"
    folded = tmp_path / f"{variant}.fold"
    preds = tmp_path / "preds.tsv"
    assert main(["train", str(exp_config), str(data), str(ckpt),
                 "--set", f"variant={variant}"]) == 0
    assert main(["fold", str(ckpt), str(folded)]) == 0
    assert main(["score", str(folded), str(data), str(preds)]) == 0
    assert len(preds.read_text().splitlines()) == 5_000


def test_gradcheck_exits_0(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "FAIL" not in out


def test_ablation_ten_rows(workspace, tmp_path, capsys):
    _, _, exp_config, data, _ = workspace
    out_file = tmp_path / "ablation.tsv"
    rc = main(["ablation", str(exp_config), str(data), "--out", str(out_file),
               "--set", "epochs=1"])
    assert rc == 0
    rows = [l for l in out_file.read_text().splitlines() if l.strip()]
    assert len(rows) == 10


def test_ablation_checks_eval_data_before_training(workspace, tmp_path,
                                                   capsys, monkeypatch):
    from starctr import train
    from starctr.data import Dataset, read_dataset, write_dataset

    _, _, exp_config, data, _ = workspace
    rows = read_dataset(str(data))
    eval_data = tmp_path / "eval.tsv"
    write_dataset(Dataset.from_examples(list(rows[:50])
                                        + [rows[0]._replace(p=6)]),
                  str(eval_data))
    calls = []
    real = train.train_model
    monkeypatch.setattr(train, "train_model",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    out_file = tmp_path / "ablation.tsv"
    assert main(["ablation", str(exp_config), str(data), "--eval-data",
                 str(eval_data), "--out", str(out_file)]) == 3
    assert capsys.readouterr().err == ("data error: example 51: unknown "
                                       "domain 6 (model serves 1..3)\n")
    assert calls == []
    assert not out_file.exists()


def test_ablation_with_explicit_eval_data(workspace, tmp_path, capsys):
    _, _, exp_config, data, _ = workspace
    out_file = tmp_path / "ablation_eval.tsv"
    rc = main(["ablation", str(exp_config), str(data),
               "--eval-data", str(data), "--out", str(out_file),
               "--set", "epochs=1"])
    assert rc == 0
    rows = [l for l in out_file.read_text().splitlines() if l.strip()]
    assert len(rows) == 10


@pytest.fixture(scope="module")
def blas_thread_runs(tmp_path_factory):
    """``python -m starctr train`` of one default star/pn config on 3,000
    examples under each BLAS thread request, and once more with numpy
    imported before starctr; unpinned, 2 threads change this checkpoint's
    bytes."""
    root = tmp_path_factory.mktemp("blas")
    gen_config = root / "gen.cfg"
    gen_config.write_text(format_gen_config(
        default_gen_config(num_domains=5, seed=0, n_examples=3_000)))
    data = root / "train.tsv"
    assert main(["gen-data", str(gen_config), str(data)]) == 0
    exp_config = root / "exp.cfg"
    exp_config.write_text("seed=0\n")
    src = str(Path(starctr.__file__).parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        ckpt = root / f"threads{threads}.ckpt"
        subprocess.run([sys.executable, "-m", "starctr", "train",
                        str(exp_config), str(data), str(ckpt)],
                       env=env, check=True, capture_output=True,
                       timeout=300)
        runs[threads] = ckpt
    # numpy first, under the machine's default thread count: the package
    # pins the OpenBLAS numpy has loaded.
    env = {key: value for key, value in os.environ.items()
           if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")}
    ckpt = root / "numpy_first.ckpt"
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy, starctr\n"
         "from starctr.cli import main\n"
         "print(starctr.BLAS_THREADS)\n"
         "sys.exit(main(sys.argv[1:]))",
         "train", str(exp_config), str(data), str(ckpt)],
        env=dict(env, PYTHONPATH=src), check=True, capture_output=True,
        text=True, timeout=300)
    runs["numpy_first"] = ckpt
    runs["numpy_first_threads"] = child.stdout.splitlines()[0]
    return runs


def test_checkpoint_bytes_ignore_the_blas_thread_request(blas_thread_runs):
    one, two = (blas_thread_runs[t].read_bytes() for t in ("1", "2"))
    assert one == two


def test_numpy_imported_first_still_pins_blas(blas_thread_runs):
    assert blas_thread_runs["numpy_first_threads"] == "1"
    digests = {name: hashlib.sha256(blas_thread_runs[name].read_bytes())
               .hexdigest() for name in ("1", "numpy_first")}
    assert digests["numpy_first"] == digests["1"]


def test_manifest_names_the_blas_thread_setting(blas_thread_runs):
    manifest = json.loads(
        blas_thread_runs["2"].with_name("threads2.ckpt.manifest.json")
        .read_text())
    assert manifest["blas_threads"] == 1
    assert manifest["numpy"] == np.__version__
    assert manifest["blas"]
