"""Lifecycle benchmark of starctr, run through its public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every workload runs the whole lifecycle: generate -> train -> eval -> fold
-> score -> closed-loop requests.  Each command runs in a fresh child process
(`python -m starctr ...`), timed from spawn to exit with its peak RSS taken
from ``os.wait4``.  Workloads differ in shape and in which step is repeated
for ``--seconds`` of command time (at least twice):

  train_default      `starctr train` at paper scale: 200k examples, 5 domains,
                     batch 1024 (large-batch steps, trunk-heavy)
  ablation_grid      `starctr ablation` on 25k train / 12.5k holdout: ten
                     cells (base trunk, BN, LN, aux off), same data ten times;
                     set-up also trains and folds the star model it serves

Set-up (data generation, and the training and folding a workload's timed
step does not do) runs twice and must write the same bytes both times.  The
request client starts as soon as a folded model exists and runs blocks of
requests between the other commands, so latency samples the whole run.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` one repeat and every other starctr child run traced (see
tracer.py); the last line holds per-layer self times and calls summed over
those children, and a share table per command is printed above it.
Correctness gates run in both modes and count in ``attempted``/``failed``.
``--smoke`` shrinks every shape so every workload runs in seconds.
Work files go to ``.perfbench_runs/`` in the checkout; all but the logs and
``result.json`` are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPERIMENT_CONFIG = ROOT / "configs" / "experiment_default.cfg"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

RUN_BUDGET_S = 170.0          # every run ends within the 180 s the caller allows
SETUP_REPEATS = 2
MIN_REPEATS = 2
REQUEST_BLOCKS = 16            # at least, of REQUEST_BLOCK requests each
REQUEST_BLOCK = 500            # 50 samples beyond each block's p90
BLOCK_GAP_S = 0.5              # between the end of a block and the next one
SCORE_TOLERANCE = 1e-12
ABLATION_CELLS = 10
# One synthetic world for every run, the one configs/gen_*.cfg describe; the
# seed picks which examples are drawn from it.  Between worlds, AUC spreads
# by 0.1-0.2 of its median, which would hide any change in model quality.
WORLD_SEED = 0
DOMAINS = 5                   # configs/experiment_default.cfg's domains
HOLDOUT_SEED_OFFSET = 7700    # seed 0 gives configs/gen_holdout.cfg's sample_seed
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Spans that run on every workload (set-up included); BatchNorm, LayerNorm and
# run_ablation run on ablation_grid only and appear in its share table and in
# the layers.norm sum.
EVERYWHERE = [f"{m}.{q}" for m, q in tracer.TARGETS
              if not q.startswith(("BatchNorm.", "LayerNorm.")) and q != "run_ablation"]


@dataclass(frozen=True)
class Workload:
    kind: str                      # "train" or "ablation"
    n_train: int
    n_holdout: int
    overrides: tuple = ()

    def smoke(self) -> "Workload":
        return Workload(self.kind, 4000, 2000,
                        self.overrides + ("batch_size=64",))


WORKLOADS = {
    "train_default": Workload("train", 200_000, 25_000),
    # One epoch over 25k examples at batch 1024 would be only 25 steps per
    # model; batch 256 gives 98.
    "ablation_grid": Workload("ablation", 25_000, 12_500, ("batch_size=256",)),
}


class CommandFailed(Exception):
    pass


@dataclass
class Proc:
    label: str
    wall_s: float
    rss_mb: float


@dataclass
class Run:
    """State of one benchmark run: its directory, gates and child timings."""
    work: Workload
    seed: int
    seconds: float
    traced: bool
    block: int
    dir: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)      # (label, wall_s, npz path)
    client: "RequestClient | None" = None           # runs request blocks between commands

    def gate(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"GATE FAILED: {what}", file=sys.stderr)
        return ok

    # -- child processes ----------------------------------------------------

    def start(self, label: str, argv: list[str], trace: bool = False,
              pipes: bool = False) -> "Child":
        """Start one child; with ``trace`` it runs under perfbench/child.py."""
        npz = None
        if trace:
            npz = str(self.dir / f"trace-{len(self.traces):02d}-{label}.npz")
            argv = [str(HERE / "child.py"), "--trace", npz] + argv
        elif argv[0] == "cli":
            argv = ["-m", "starctr"] + argv[1:]
        else:
            argv = [str(HERE / "child.py")] + argv
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = self.dir / f"{label}.log"
        pipe = subprocess.PIPE if pipes else None
        with open(log, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdin=pipe,
                                    stdout=pipe or out, stderr=out, cwd=self.dir,
                                    env=env, text=True)
        killer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
        killer.start()
        return Child(label, proc, killer, t0, log, npz)

    def finish(self, child: "Child") -> Proc:
        """Wait for a child's exit; a non-zero exit is a failed gate and
        ends the run."""
        try:
            _, status, usage = os.wait4(child.proc.pid, 0)
        finally:
            child.killer.cancel()
        wall = time.perf_counter() - child.t0
        child.proc.returncode = code = os.waitstatus_to_exitcode(status)
        if not self.gate(code == 0, f"{child.label} exited {code} (log {child.log})"):
            raise CommandFailed(child.log.read_text(encoding="utf-8",
                                                    errors="replace")[-2000:])
        if child.npz:
            self.traces.append((child.label, wall, child.npz))
        return Proc(child.label, wall, usage.ru_maxrss / 1024.0)

    def spawn(self, label: str, argv: list[str], trace: bool = False) -> Proc:
        proc = self.finish(self.start(label, argv, trace))
        if self.client is not None and time.perf_counter() - self.client.last >= BLOCK_GAP_S:
            self.client.block()
        return proc

    def cli(self, label, *args, trace: bool = False) -> Proc:
        return self.spawn(label, ["cli"] + [str(a) for a in args], trace)

    def train_args(self) -> list[str]:
        sets = ("seed=%d" % self.seed,) + self.work.overrides
        return [arg for s in sets for arg in ("--set", s)]


@dataclass
class Child:
    label: str
    proc: subprocess.Popen
    killer: threading.Timer
    t0: float
    log: Path
    npz: str | None


class RequestClient:
    """The closed-loop request client (child.py requests), kept alive for
    the whole run so its blocks of requests can be spread between the other
    steps: latency is then sampled across the run, not in one burst."""

    def __init__(self, run: Run, folded: Path, holdout: Path):
        self.run, self.out, self.blocks = run, run.dir / "requests.npz", 0
        self.last = time.perf_counter()
        self.child = run.start("requests", ["requests", str(folded), str(holdout),
                                            str(run.block), str(run.seed), str(self.out)],
                               trace=run.traced, pipes=True)
        self._expect("ready")

    def _expect(self, word: str):
        line = self.child.proc.stdout.readline().strip()
        if line != word:
            self.child.proc.stdin.close()
            self.run.finish(self.child)
            self.run.gate(False, f"request client said {line!r}, expected {word!r}")
            raise CommandFailed(f"request client said {line!r}")

    def block(self):
        self.child.proc.stdin.write("block\n")
        self.child.proc.stdin.flush()
        self._expect("done")
        self.blocks += 1
        self.last = time.perf_counter()

    def close(self) -> tuple[Proc, dict]:
        self.child.proc.stdin.close()
        proc = self.run.finish(self.child)
        self.child.proc.stdout.close()
        with np.load(self.out) as data:
            return proc, {key: data[key] for key in data.files}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_gen_configs(run: Run, into: Path):
    from starctr.datagen import default_gen_config, format_gen_config

    w = run.work
    for name, n, sample_seed in (("train", w.n_train, run.seed),
                                 ("holdout", w.n_holdout, HOLDOUT_SEED_OFFSET + run.seed)):
        config = default_gen_config(DOMAINS, seed=WORLD_SEED, n_examples=n,
                                    sample_seed=sample_seed)
        (into / f"gen_{name}.cfg").write_text(format_gen_config(config), encoding="ascii")


# ---------------------------------------------------------------------------
# Lifecycle steps
# ---------------------------------------------------------------------------

def setup_once(run: Run, rep: int) -> tuple[dict[str, Path], float]:
    """Generate the data files (and, where the workload's timed step does not
    train, train and fold the model it serves); returns the files and the
    set-up time, which counts the commands and not the request blocks
    between them."""
    d, trace = run.dir / f"setup{rep}", run.traced
    d.mkdir()
    t0 = time.perf_counter()
    write_gen_configs(run, d)
    seconds = time.perf_counter() - t0
    files = {"train": d / "train.txt", "holdout": d / "holdout.txt"}
    procs = [run.cli(f"setup{rep}_gen_train", "gen-data", d / "gen_train.cfg",
                     files["train"], trace=trace),
             run.cli(f"setup{rep}_gen_holdout", "gen-data", d / "gen_holdout.cfg",
                     files["holdout"], trace=trace)]
    if run.work.kind == "ablation":
        files["checkpoint"] = d / "model.ckpt"
        files["folded"] = d / "model.fold"
        procs.append(run.cli(f"setup{rep}_train", "train", EXPERIMENT_CONFIG, files["train"],
                             files["checkpoint"], *run.train_args(), trace=trace))
        procs.append(run.cli(f"setup{rep}_fold", "fold", files["checkpoint"],
                             files["folded"], trace=trace))
    return files, seconds + sum(p.wall_s for p in procs)


def main_unit(run: Run, files: dict, rep: str, trace: bool = False):
    """One repetition of the workload's timed step; returns (examples,
    procs, outputs to compare across repetitions)."""
    w, d = run.work, run.dir / rep
    d.mkdir()
    if w.kind == "train":
        ckpt = d / "model.ckpt"
        p = run.cli(f"{rep}_train", "train", EXPERIMENT_CONFIG, files["train"], ckpt,
                    *run.train_args(), trace=trace)
        return w.n_train, [p], {"checkpoint": ckpt, "train log": Path(str(ckpt) + ".log")}
    out = d / "ablation.txt"
    p = run.cli(f"{rep}_ablation", "ablation", EXPERIMENT_CONFIG, files["train"],
                "--eval-data", files["holdout"], "--out", out, *run.train_args(),
                trace=trace)
    return ABLATION_CELLS * w.n_train, [p], {"ablation": out}


def compare_repeats(run: Run, reps):
    first = reps[0][2]
    for _, _, outputs in reps[1:]:
        for key, path in outputs.items():
            run.gate(sha256(path) == sha256(first[key]),
                     f"repeat wrote different {key} bytes"
                     + (" when traced" if run.traced else ""))


def parse_report(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in
                path.read_text(encoding="ascii").splitlines() if "=" in line)


ABLATION_ROW = re.compile(
    r"^(\w+)\t(\w+)\taux=(on|off)\toverall_auc=(?:np\.float64\((.+)\)|(.+))$")


def parse_ablation(text: str) -> list[tuple[str, str, bool, float]]:
    """Rows of `starctr ablation` output; the AUC may read ``0.61`` or, as
    numpy 2 prints a numpy scalar's repr, ``np.float64(0.61)``."""
    rows = []
    for line in text.splitlines():
        match = ABLATION_ROW.match(line)
        if not match:
            raise ValueError(f"unparsed ablation line {line!r}")
        variant, norm, aux, wrapped, plain = match.groups()
        rows.append((variant, norm, aux == "on", float(wrapped or plain)))
    return rows


def tail(run: Run, files: dict, reps) -> tuple[dict, Path, Path, dict]:
    """The rest of the lifecycle, outside the timed step: eval of the served
    checkpoint, score with its folded model and the unfolded reference
    scores; returns the report, the predictions file, the reference scores
    and the eval and score wall times."""
    w, d, trace = run.work, run.dir / "tail", run.traced
    d.mkdir()
    ckpt = reps[0][2]["checkpoint"] if w.kind == "train" else files["checkpoint"]
    report, preds, ref = d / "report.txt", d / "predictions.tsv", d / "reference.npy"
    walls = {"eval": run.cli("eval", "eval", ckpt, files["holdout"], report,
                             trace=trace).wall_s,
             "score": run.cli("score", "score", files["folded"], files["holdout"], preds,
                              trace=trace).wall_s}
    run.spawn("reference", ["reference", str(ckpt), str(files["holdout"]), str(ref)])
    return parse_report(report), preds, ref, walls


def check_predictions(run: Run, preds: Path, holdout: Path) -> np.ndarray:
    lines = preds.read_text(encoding="ascii").splitlines()
    n = sum(1 for line in holdout.read_text(encoding="ascii").splitlines() if line.strip())
    run.gate(len(lines) == n, f"predictions file has {len(lines)} lines for {n} examples")
    probs = np.array([float(line.split("\t")[2]) for line in lines])
    run.gate(bool(((probs > 0.0) & (probs < 1.0)).all()),
             "a predicted probability lies outside (0, 1)")
    return probs


def check_scores(run: Run, probs: np.ndarray, served: dict, ref: Path):
    ref_scores = np.load(ref)
    run.gate(ref_scores.shape == probs.shape and
             float(np.max(np.abs(ref_scores - probs))) <= SCORE_TOLERANCE,
             "folded scores differ from score_with_model by more than 1e-12")
    # Each request is an operation: all of them pass or fail this one gate.
    run.attempted += served["latency"].size - 1
    run.gate(float(np.max(np.abs(served["scores"] - probs[served["rows"]])))
             <= SCORE_TOLERANCE,
             "request scores differ from the predictions file by more than 1e-12")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def block_quantile(latency: np.ndarray, block: int, q: float) -> float:
    """Mean over request blocks of each block's ``q`` quantile.  Latency
    switches between discrete levels as the shared machine's speed changes,
    and a whole block tends to sit at one level; a mean moves with the share
    of slow blocks, where a median would jump from one level to the next."""
    return float(np.mean(np.quantile(latency.reshape(-1, block), q, axis=1)))


def end_to_end(run: Run, setup_times, reps, report, tail_walls, latency,
               req_proc) -> tuple[dict, dict]:
    w = run.work
    timed = [p for _, procs, _ in reps for p in procs] + [req_proc]
    if w.kind == "ablation":
        rows = parse_ablation((run.dir / "rep0" / "ablation.txt").read_text(encoding="ascii"))
        run.gate(len(rows) == ABLATION_CELLS and all(0.0 < r[3] < 1.0 for r in rows),
                 f"ablation printed {len(rows)} rows, expected {ABLATION_CELLS} AUCs in (0, 1)")
        auc = statistics.fmean(r[3] for r in rows)
    else:
        auc = float(report["overall_auc"])
    wauc = float(report["weighted_auc"]) if report.get("weighted_auc", "undefined") \
        != "undefined" else math.nan
    run.gate(all(math.isfinite(v) and 0.0 < v < 1.0 for v in (auc, wauc)),
             f"holdout AUCs out of range: {auc}, {wauc}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # Pooled over repeats, and the mean latency rather than p50, for the
        # reason given in block_quantile.
        "examples_per_s": (sum(n for n, _, _ in reps)
                           / sum(p.wall_s for _, procs, _ in reps for p in procs), "1/s"),
        "request_mean_ms": (float(np.mean(latency)) * 1e3, "ms"),
        "request_p90_ms": (block_quantile(latency, run.block, 0.90) * 1e3, "ms"),
        "holdout_auc": (auc, "auc"),
        "holdout_weighted_auc": (wauc, "auc"),
        "peak_rss_mb": (max(p.rss_mb for p in timed), "MB"),
    }
    walls = {}
    for _, procs, _ in reps:
        for p in procs:
            walls.setdefault(p.label.split("_", 1)[1], []).append(p.wall_s)
    info = {f"{cmd}_wall_s": statistics.median(v) for cmd, v in walls.items()}
    if w.kind == "train":
        info["train_examples_per_s"] = w.n_train / info["train_wall_s"]
    else:
        info["ablation_cells_per_s"] = ABLATION_CELLS / info["ablation_wall_s"]
    # One eval and one score per run, outside the timed step.
    for cmd, wall in tail_walls.items():
        info[f"{cmd}_examples_per_s"] = w.n_holdout / wall
    # p50 and p99 are reported here, not gated: on a shared 2-vCPU machine
    # their spread between runs exceeds any bound the benchmark may set
    # (see README.md).
    info["request_p50_ms"] = float(np.median(latency)) * 1e3
    info["request_p99_ms"] = float(np.quantile(latency, 0.99)) * 1e3
    info["request_count"] = int(latency.size)
    info["repeats"] = len(reps)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def per_layer(run: Run, reps) -> tuple[dict, list]:
    total: dict[str, dict] = {}
    counts: dict[str, int] = {}
    wait_s, tables = 0.0, []
    missing = set()
    for label, wall, path in run.traces:
        spans = tracer.load(path)
        summary = tracer.summarize(spans)
        tables.append((label, wall, spans, summary))
        wait_s += tracer.data_wait_s(spans)
        missing.update(spans["missing"])
        for name, s in summary.items():
            acc = total.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += s["self_s"]
            acc["calls"] += s["calls"]
        for key, n in spans["counts"].items():
            counts[key] = counts.get(key, 0) + n
    metrics = {}
    for name in EVERYWHERE:
        if name in missing:
            continue
        s = total.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_ms"] = (s["self_s"] * 1e3, "ms")
        metrics[f"{name}.calls"] = (s["calls"], "count")
    norm = [n for n in total if n.startswith(("layers.PartitionedNorm.", "layers.BatchNorm.",
                                              "layers.LayerNorm."))]
    metrics["layers.norm.self_ms"] = (sum(total[n]["self_s"] for n in norm) * 1e3, "ms")
    steps = total.get("optim.Adam.step", {"calls": 0})["calls"]
    untraced = sum(p.wall_s for p in reps[0][1])
    traced = sum(p.wall_s for p in reps[1][1])
    metrics.update({
        "train.steps": (steps, "count"),
        "train.skipped_batches": (counts.get("pipeline.stream_batches.yields", 0) - steps,
                                  "count"),
        "train.data_wait.self_ms": (wait_s * 1e3, "ms"),
        "train.data_wait.per_step_ms": (wait_s * 1e3 / max(steps, 1), "ms"),
        "layers.EmbeddingTable.ids": (counts.get("layers.EmbeddingTable.ids", 0), "count"),
        "optim.Adam.rows_updated": (counts.get("optim.Adam.rows_updated", 0), "count"),
        "serve.FoldedModel.score_batch.examples": (
            counts.get("serve.FoldedModel.score_batch.examples", 0)
            / max(total.get("serve.FoldedModel.score_batch", {"calls": 0})["calls"], 1),
            "count"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tables


PHASES = (
    ("plan+batch", ("pipeline.", "model.Batch.from_examples")),
    ("embedding", ("model.embed_and_pool", "model.embed_backward", "layers.EmbeddingTable.")),
    ("norm", ("layers.PartitionedNorm.", "layers.BatchNorm.", "layers.LayerNorm.")),
    ("trunk", ("model.StarFcn.",)),
    ("aux", ("model.AuxNet.", "layers.FcLayer.")),
    ("loss", ("optim.bce_loss",)),
    ("adam", ("optim.Adam.step",)),
    ("zero_grad", ("model._CtrNet.zero_grad",)),
)


def share_tables(tables) -> str:
    """Per traced command: each span's self ms and share of the command's
    wall time; for commands that train, the step phases' share of
    train_model time as well."""
    out = []
    for label, wall, spans, summary in tables:
        roots = spans["parent"] < 0
        inside = float((spans["end"] - spans["start"])[roots].sum())
        out.append(f"-- {label}: wall {wall * 1e3:.1f} ms --")
        out.append(f"{'span':44s} {'calls':>8s} {'self_ms':>10s} {'share':>7s}")
        rows = sorted(((n, s) for n, s in summary.items() if s["calls"]),
                      key=lambda kv: -kv[1]["self_s"])
        rows.append(("(outside spans: start-up, imports, idle)",
                     {"calls": 0, "self_s": wall - inside}))
        for name, s in rows:
            out.append(f"{name:44s} {s['calls']:8d} {s['self_s'] * 1e3:10.1f} "
                       f"{100 * s['self_s'] / wall:6.1f}%")
        train = summary.get("train.train_model")
        if train and train["calls"]:
            own = tracer.self_times(spans)
            under = _under(spans, spans["names"].index("train.train_model"))
            parts = []
            for phase, prefixes in PHASES:
                ids = [i for i, n in enumerate(spans["names"]) if n.startswith(prefixes)]
                phase_s = float(own[under & np.isin(spans["name"], ids)].sum())
                parts.append(f"{phase} {100 * phase_s / train['total_s']:.1f}%")
            out.append("step phases, share of train_model: " + ", ".join(parts))
    return "\n".join(out)


def _under(spans: dict, nid: int) -> np.ndarray:
    """Mask of spans that are ``nid`` or have it as an ancestor."""
    name, parent = spans["name"], spans["parent"]
    mask = np.zeros(name.size, dtype=bool)
    for i in range(name.size):          # parents precede their children
        mask[i] = name[i] == nid or (parent[i] >= 0 and mask[parent[i]])
    return mask


def machine() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             "python": platform.python_version(), "numpy": np.__version__,
             "blas": None, "blas_version": None,
             "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    return facts


# ---------------------------------------------------------------------------

def run_workload(run: Run) -> tuple[dict, dict, str]:
    """Set-up, timed repeats and the lifecycle tail.  The request client
    starts as soon as a folded model exists; from then on a block of requests
    runs between commands every BLOCK_GAP_S, so requests sample the whole
    run rather than one burst of it."""
    files, seconds = setup_once(run, 0)
    setup_times, reps = [seconds], []
    if "folded" not in files:       # train workloads serve what rep0 trained
        reps.append(main_unit(run, files, "rep0"))
        files["folded"] = run.dir / "rep0" / "model.fold"
        run.cli("fold", "fold", reps[0][2]["checkpoint"], files["folded"], trace=run.traced)
    run.client = RequestClient(run, files["folded"], files["holdout"])
    for rep in range(1, 1 if run.traced else SETUP_REPEATS):
        again, seconds = setup_once(run, rep)
        setup_times.append(seconds)
        for key, path in files.items():
            if key in again:
                run.gate(sha256(path) == sha256(again[key]),
                         f"set-up repeat wrote different {key} bytes")
    while len(reps) < MIN_REPEATS or (not run.traced and sum(
            p.wall_s for _, procs, _ in reps for p in procs) < run.seconds):
        trace = run.traced and len(reps) == 1
        reps.append(main_unit(run, files, f"rep{len(reps)}", trace=trace))
    compare_repeats(run, reps)
    report, preds, ref, tail_walls = tail(run, files, reps)
    client, run.client = run.client, None
    while client.blocks < REQUEST_BLOCKS:
        client.block()
    req_proc, served = client.close()
    check_scores(run, check_predictions(run, preds, files["holdout"]), served, ref)
    metrics, info = end_to_end(run, setup_times, reps, report, tail_walls,
                               served["latency"], req_proc)
    if not run.traced:
        return metrics, info, ""
    layer_metrics, tables = per_layer(run, reps)
    return layer_metrics, info, share_tables(tables)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="non-negative; picks the examples and the training seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes: all gates, seconds per workload")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "starctr" / "__init__.py").is_file() or not EXPERIMENT_CONFIG.is_file():
        print(f"perfbench: no starctr sources under {SRC} or no {EXPERIMENT_CONFIG}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    run = Run(work.smoke() if args.smoke else work, args.seed,
              0.0 if args.smoke else args.seconds, bool(args.trace),
              100 if args.smoke else REQUEST_BLOCK, run_dir,
              time.perf_counter() + RUN_BUDGET_S)
    facts = machine()
    print("machine: " + json.dumps(facts, sort_keys=True))
    metrics, info, error = {}, {}, None
    try:
        metrics, info, tables = run_workload(run)
        if tables:
            print(tables)
    except CommandFailed as exc:
        error = str(exc)
        print(error, file=sys.stderr)
    finally:
        if run.client is not None:          # a step failed while it was serving
            run.client.child.killer.cancel()
            run.client.child.proc.kill()
            run.client.child.proc.wait()
    print("info: " + json.dumps(info, sort_keys=True))
    result = {"correct": run.failed == 0 and error is None, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"result": result, "info": info, "machine": facts, "problems": run.problems},
        indent=1, sort_keys=True), encoding="utf-8")
    for bulky in run_dir.iterdir():
        if bulky.is_dir():
            shutil.rmtree(bulky)
        elif bulky.suffix not in (".json", ".log") or bulky.name.startswith("trace-"):
            bulky.unlink()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
