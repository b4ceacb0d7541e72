"""Command-line entry point for the full experiment lifecycle.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric/check failure.
Every command writes a ``<output>.manifest.json`` with the sha256 of its
input files, the seed, the package, numpy and BLAS versions and
``blas_threads`` (``starctr.BLAS_THREADS``) next to its primary output;
``train`` and ``ablation`` add ``config_hash``, the hash of the effective
configuration after ``--set``.  The same inputs plus seed always produce
byte-identical outputs.  Every path a command writes is checked before
any input is read, and one that is an input exits 2.  A training run that
diverges exits 4, and one that trains no batch exits 3; neither writes the
checkpoint or its log.  Each ``cmd_*`` imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import stat
import sys

import numpy as np

from . import BLAS_THREADS, __version__
from .config import ExperimentConfig, config_hash, load_experiment_config
from .data import write_atomic
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FoldError,
    NumericError,
    StarError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECK = 4

GRADCHECK_TOLERANCE = 1e-4


def _overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _blas_name() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):   # numpy < 1.25 has no mode="dicts"
        return None


def _check_outputs(inputs: tuple[str, ...], primary_output: str,
                   *others: str):
    """Before any input is read, raise the OSError that writing an output
    or the manifest would end in: the path is a directory, or its parent is
    missing or not a directory; and a ConfigError for an output that is
    one of the ``inputs``, which writing it would replace."""
    for path in (primary_output, *others, primary_output + ".manifest.json"):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        parent = os.path.dirname(path) or "."
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR), parent)
        for source in inputs:
            if (os.path.exists(path) and os.path.exists(source)
                    and os.path.samefile(path, source)):
                raise ConfigError(f"output {path} is the input {source}")


def _write_manifest(primary_output: str, command: str, seed,
                    inputs: dict[str, str], outputs: list[str],
                    config: ExperimentConfig | None = None):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": {name: _sha256_file(path) for name, path in inputs.items()},
        "outputs": sorted(outputs),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": BLAS_THREADS,
    }
    if config is not None:
        manifest["config_hash"] = config_hash(config)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic(primary_output + ".manifest.json", text.encode("utf-8"))


def cmd_gen_data(args) -> int:
    from .datagen import generate, load_gen_config
    _check_outputs((args.config,), args.out)
    config = load_gen_config(args.config)
    result = generate(config, args.out)
    _write_manifest(args.out, "gen-data", config.seed,
                    {"config": args.config}, [args.out])
    for p in sorted(result.realized_ctr):
        print(f"domain {p}: realized_ctr={result.realized_ctr[p]:.5f} "
              f"target={config.profiles[p - 1].base_ctr:.5f}")
    print(f"wrote {config.n_examples} examples to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .checkpoint import save_model
    from .data import read_dataset
    from .train import train_model
    log_path = args.checkpoint_out + ".log"
    _check_outputs((args.config, args.data), args.checkpoint_out, log_path)
    config = load_experiment_config(args.config, _overrides(args.set))
    examples = read_dataset(args.data)
    log = io.StringIO()
    result = train_model(config, examples, log=log)
    save_model(result.model, args.checkpoint_out)
    write_atomic(log_path, log.getvalue().encode("ascii"))
    _write_manifest(args.checkpoint_out, "train", config.seed,
                    {"config": args.config, "data": args.data},
                    [args.checkpoint_out, log_path], config)
    print(f"trained {result.steps} steps, final epoch mean loss "
          f"{result.final_epoch_loss:.6f}")
    print(f"checkpoint: {args.checkpoint_out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .checkpoint import load_model
    from .data import read_dataset
    from .metrics import pcoc_scatter_svg
    from .train import evaluate_model
    kv_path = args.report_out
    json_path = args.report_out + ".json"
    _check_outputs((args.checkpoint, args.data), kv_path, json_path,
                   *([args.svg] if args.svg else []))
    model = load_model(args.checkpoint)
    examples = read_dataset(args.data)
    report = evaluate_model(model, examples)
    write_atomic(kv_path, report.to_kv_text().encode("ascii"))
    write_atomic(json_path, report.to_json().encode("ascii"))
    outputs = [kv_path, json_path]
    if args.svg:
        write_atomic(args.svg,
                     pcoc_scatter_svg(report.per_domain_pcoc).encode("ascii"))
        outputs.append(args.svg)
    _write_manifest(kv_path, "eval", model.config.seed,
                    {"checkpoint": args.checkpoint, "data": args.data},
                    outputs)
    print(report.to_kv_text(), end="")
    return EXIT_OK


def cmd_ablation(args) -> int:
    from .data import read_dataset
    from .train import run_ablation
    if args.out:
        _check_outputs((args.config, args.data,
                        *([args.eval_data] if args.eval_data else [])),
                       args.out)
    config = load_experiment_config(args.config, _overrides(args.set))
    examples = read_dataset(args.data)
    if args.eval_data:
        eval_examples = read_dataset(args.eval_data)
        train_examples = examples
    else:
        split = int(len(examples) * 0.8)
        train_examples = examples[:split]
        eval_examples = examples[split:]
    rows = run_ablation(config, train_examples, eval_examples)
    lines = [row.format() for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text.encode("ascii"))
        inputs = {"config": args.config, "data": args.data}
        if args.eval_data:
            inputs["eval_data"] = args.eval_data
        _write_manifest(args.out, "ablation", config.seed, inputs, [args.out],
                        config)
    print(text, end="")
    return EXIT_OK


def cmd_fold(args) -> int:
    from .checkpoint import load_model
    from .serve import fold, save_folded
    _check_outputs((args.checkpoint,), args.folded_out)
    model = load_model(args.checkpoint)
    folded = fold(model)
    save_folded(folded, args.folded_out)
    _write_manifest(args.folded_out, "fold", model.config.seed,
                    {"checkpoint": args.checkpoint}, [args.folded_out])
    print(f"folded {folded.num_domains} domains into {args.folded_out}")
    return EXIT_OK


def cmd_score(args) -> int:
    from .serve import load_folded, score_file
    _check_outputs((args.folded, args.data), args.predictions_out)
    folded = load_folded(args.folded)
    summary = score_file(folded, args.data, args.predictions_out)
    _write_manifest(args.predictions_out, "score", None,
                    {"folded": args.folded, "data": args.data},
                    [args.predictions_out])
    print(summary.message())
    if summary.n_skipped:
        raise DataError(summary.message())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import check_model, run_all, tiny_model_config
    if args.set and not args.config:
        raise ConfigError("--set needs a config file to apply to")
    config = (load_experiment_config(args.config, _overrides(args.set))
              if args.config else None)
    results = run_all()
    if config is not None:
        name = f"model_{config.variant}_{config.normalizer}"
        results[name] = check_model(tiny_model_config(
            config.variant, config.normalizer, config.aux_enabled))
    worst = 0.0
    for name in sorted(results):
        err = results[name]
        worst = max(worst, err)
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name}\t{err:.3e}\t{status}")
    if worst >= GRADCHECK_TOLERANCE:
        raise NumericError(f"max gradient error {worst:.3e} >= "
                           f"{GRADCHECK_TOLERANCE}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starctr",
        description="Multi-domain CTR experiments: generate, train, evaluate, "
                    "ablate, fold, score, gradcheck.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("config")
    p.add_argument("out")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a dataset")
    p.add_argument("config")
    p.add_argument("data")
    p.add_argument("checkpoint_out")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("report_out")
    p.add_argument("--svg", help="also write a per-domain PCOC scatter SVG")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablation",
                       help="train and score the architecture/normalizer grid")
    p.add_argument("config")
    p.add_argument("data")
    p.add_argument("--eval-data")
    p.add_argument("--out")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("fold", help="pre-compute per-domain serving weights")
    p.add_argument("checkpoint")
    p.add_argument("folded_out")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("score", help="batch-score a dataset with a folded model")
    p.add_argument("folded")
    p.add_argument("data")
    p.add_argument("predictions_out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every backward pass")
    p.add_argument("config", nargs="?")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:    # a missing, unreadable or directory path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FoldError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except StarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
