"""The drift ledger: one sha256 per lifecycle output, at small sizes.

    PYTHONPATH=src python tests/golden/update.py   # rewrite ledger.json

``tests/test_ledger.py`` recomputes every entry in-process and names each
one that changed.  The lifecycle runs through the CLI in a temporary
directory: gen-data of both shipped generator configs (20,000 and 5,000
rows), train with ``configs/experiment_default.cfg``, eval with ``--svg``,
fold, score, and ``ablation --out`` on the holdout rows at batch 256; and a
second train at batch 128, whose ~156 steps put per-step lines in its log
(``LOG_EVERY``), of which only the log is an entry.  Then
all 27 variant x normalizer x aux (off, on, on over the features) cells
train on one ``BatchPlan`` of the first 5,000 training rows at batch 64.

Entries fall in two groups.  ``portable`` entries (config hashes and
printed generator configs) involve no matrix product, so they are compared
on every machine.  ``gemm`` entries are downstream of one, and BLAS kernels
may round a product differently across numpy builds, BLAS libraries and
thread counts; they are compared only where the ledger's recorded
``environment`` (numpy, BLAS, ``starctr.BLAS_THREADS``) matches.  The
gradient checks are one ``gemm`` entry: the exact ``repr`` of every error
``starctr gradcheck configs/experiment_default.cfg`` prints, so a change to
any backward pass, or to the checks, moves it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from starctr import cli   # before numpy: the package pins BLAS to one thread
from starctr.checkpoint import serialize
from starctr.config import config_hash, load_experiment_config, with_overrides
from starctr.datagen import format_gen_config, load_gen_config, read_dataset
from starctr.gradcheck import check_model, run_all, tiny_model_config
from starctr.model import NORMALIZERS, VARIANTS
from starctr.train import BatchPlan, train_model

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "configs"
LEDGER = Path(__file__).with_name("ledger.json")

GEN_ROWS = {"gen_default": ("train.tsv", 20_000),
            "gen_holdout": ("holdout.tsv", 5_000)}
CELL_ROWS = 5_000
AUX_SETTINGS = {"off": (False, False), "on": (True, False),
                "features": (True, True)}


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _portable() -> dict[str, str]:
    entries = {"config_hash experiment_default.cfg": config_hash(
        load_experiment_config(str(CONFIGS / "experiment_default.cfg")))}
    for name in GEN_ROWS:
        text = format_gen_config(load_gen_config(str(CONFIGS / f"{name}.cfg")))
        entries[f"format_gen_config {name}.cfg"] = _sha256(text.encode())
    return entries


def _run(*argv: str):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"starctr {' '.join(argv)} exited {code}")


def _lifecycle(work: Path) -> tuple[dict, dict[str, str]]:
    """(environment of the train manifest, sha256 of every output)."""
    experiment = str(CONFIGS / "experiment_default.cfg")
    for name, (out, rows) in GEN_ROWS.items():
        config = replace(load_gen_config(str(CONFIGS / f"{name}.cfg")),
                         n_examples=rows)
        (work / f"{name}.cfg").write_text(format_gen_config(config))
        _run("gen-data", str(work / f"{name}.cfg"), str(work / out))
    train, holdout = str(work / "train.tsv"), str(work / "holdout.tsv")
    ckpt, fold = str(work / "model.ckpt"), str(work / "model.fold")
    _run("train", experiment, train, ckpt)
    _run("train", experiment, train, str(work / "b128.ckpt"),
         "--set", "batch_size=128")
    _run("eval", ckpt, holdout, str(work / "report.txt"),
         "--svg", str(work / "pcoc.svg"))
    _run("fold", ckpt, fold)
    _run("score", fold, holdout, str(work / "predictions.tsv"))
    _run("ablation", experiment, holdout, "--out", str(work / "ablation.txt"),
         "--set", "batch_size=256")
    manifest = json.loads((work / "model.ckpt.manifest.json").read_text())
    environment = {key: manifest[key]
                   for key in ("numpy", "blas", "blas_threads")}
    outputs = ("train.tsv", "holdout.tsv", "model.ckpt", "model.ckpt.log",
               "report.txt", "report.txt.json", "pcoc.svg", "model.fold",
               "predictions.tsv", "ablation.txt", "b128.ckpt.log")
    return environment, {out: _sha256((work / out).read_bytes())
                         for out in outputs}


def _cells(train_path: Path) -> dict[str, str]:
    """Checkpoint sha256 of every variant x normalizer x aux cell, all
    trained on one plan."""
    config = with_overrides(
        load_experiment_config(str(CONFIGS / "experiment_default.cfg")),
        batch_size=64)
    plan = BatchPlan.build(config, read_dataset(str(train_path))[:CELL_ROWS])
    entries = {}
    for variant in VARIANTS:
        for normalizer in NORMALIZERS:
            for aux, (enabled, features) in AUX_SETTINGS.items():
                cell = with_overrides(config, variant=variant,
                                      normalizer=normalizer,
                                      aux_enabled=enabled,
                                      aux_use_features=features)
                model = train_model(cell, plan).model
                entries[f"cell {variant}.{normalizer}.aux={aux}"] = _sha256(
                    serialize(model))
    return entries


def _gradcheck(checks: dict[str, float]) -> dict[str, str]:
    """``checks``, the result of ``run_all()``, plus the model check that
    ``starctr gradcheck`` adds for the default experiment config, as in
    ``cli.cmd_gradcheck``."""
    config = load_experiment_config(str(CONFIGS / "experiment_default.cfg"))
    results = dict(checks)
    results[f"model_{config.variant}_{config.normalizer}"] = check_model(
        tiny_model_config(config.variant, config.normalizer,
                          config.aux_enabled))
    return {"gradcheck experiment_default.cfg":
            _sha256(repr(results).encode())}


def compute_ledger(checks: dict[str, float]) -> dict:
    """The ledger of the code as it is now, given ``checks``, the result
    of ``run_all()``."""
    with tempfile.TemporaryDirectory() as tmp:
        environment, gemm = _lifecycle(Path(tmp))
        gemm.update(_cells(Path(tmp) / "train.tsv"))
    gemm.update(_gradcheck(checks))
    return {"environment": environment, "portable": _portable(),
            "gemm": gemm}


def drift(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """``entry: old -> new`` for each entry that changed, appeared or
    went (None)."""
    return [f"{name}: {recorded.get(name)} -> {current.get(name)}"
            for name in sorted(set(recorded) | set(current))
            if recorded.get(name) != current.get(name)]


def main() -> int:
    ledger = compute_ledger(run_all())
    if LEDGER.exists():
        old = json.loads(LEDGER.read_text())
        for group in ("portable", "gemm"):
            for line in drift(old.get(group, {}), ledger[group]):
                print(f"{group} {line}")
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
