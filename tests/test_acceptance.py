"""Acceptance suite: one test per criterion, one pass/fail line each.

The directional criteria (4-7) share a grid of trained models over the
default synthetic config and seeds {0, 1, 2}; it is built once per session.
"""

import multiprocessing
import os
import time
from collections import Counter

import numpy as np
import pytest

from starctr import BLAS_THREADS
from starctr.checkpoint import deserialize, serialize
from starctr.config import ExperimentConfig, ModelConfig
from starctr.data import Dataset
from starctr.datagen import default_gen_config, generate_examples
from starctr.gradcheck import random_examples
from starctr.metrics import auc, pcoc, weighted_auc
from starctr.model import build_model
from starctr.optim import Adam
from starctr.pipeline import (
    ShuffleBuffer,
    iter_batches,
    batch_domain_mix,
    mean_tv_distance,
    stream_batches,
)
from starctr.serve import fold, score_with_model
from starctr.tensor import make_rng
from starctr.train import BatchPlan, evaluate_model, train_model, train_step

from prediction_rows import Prediction, columns
from test_metrics import eq9_oracle, pairwise_auc

SEEDS = (0, 1, 2)
SEED_SECONDS = 300.0    # the most one seed's grid may take

GRID = (
    ("star", "pn", True),
    ("star", "pn", False),
    ("star", "bn", True),
    ("star", "ln", True),
    ("base", "bn", True),
    ("base", "bn", False),
    ("shared_bottom", "bn", True),
    ("shared_bottom", "bn", False),
)


def check(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# The seed's plan and holdout, set before the pool forks its workers.
_SEED_DATA = {}


def _grid_cell(cell):
    variant, norm, aux, seed = cell
    plan, test = _SEED_DATA[seed]
    config = ExperimentConfig(variant=variant, normalizer=norm,
                              aux_enabled=aux, seed=seed)
    return evaluate_model(train_model(config, plan).model, test)


@pytest.fixture(scope="session")
def grid_reports():
    """MetricReports for every grid cell, plus wall time per seed.

    A seed's cells train in GRID order on a pool of forked workers, one per
    core up to two.  Each worker runs BLAS on the one thread the package
    pins, so a cell's report is the one a serial run gives, and a forked
    worker never inherits a BLAS thread pool; unpinned, the grid runs
    serially."""
    workers = min(2, len(os.sched_getaffinity(0))) if BLAS_THREADS == 1 else 1
    reports = {}
    seed_time = {}
    for seed in SEEDS:
        t0 = time.time()
        train = generate_examples(
            default_gen_config(num_domains=5, seed=seed, n_examples=200_000)
        ).examples
        test = generate_examples(
            default_gen_config(num_domains=5, seed=seed, n_examples=50_000,
                               sample_seed=seed + 7700)
        ).examples
        # Every cell trains on the same batches, planned once per seed as
        # the ablation grid does.
        plan = BatchPlan.build(ExperimentConfig(seed=seed), train)
        _SEED_DATA[seed] = (plan, test)
        cells = [cell + (seed,) for cell in GRID]
        if workers > 1:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                results = pool.map_async(_grid_cell, cells, chunksize=1).get(
                    timeout=SEED_SECONDS)
        else:
            results = list(map(_grid_cell, cells))
        reports.update(zip(cells, results))
        del _SEED_DATA[seed]
        seed_time[seed] = time.time() - t0
    return reports, seed_time


def grid_mean(reports, key, metric):
    return float(np.mean([getattr(reports[key + (s,)], metric)
                          for s in SEEDS]))


def test_criterion_01_gradient_correctness(gradient_checks):
    results, elapsed = gradient_checks
    worst = max(results.values())
    ok = worst < 1e-4 and elapsed < 30.0
    check(1, "gradient-correctness", ok,
          f"max_rel_err={worst:.2e} < 1e-4, runtime={elapsed:.1f}s < 30s")


def _served_star_model(num_domains=5, steps_per_domain=6):
    config = ModelConfig(
        variant="star", normalizer="pn", aux_enabled=True,
        aux_use_features=False, num_domains=num_domains, embed_dim=4,
        vocab_items=80, vocab_profiles=40, vocab_contexts=8,
        layer_widths=(16, 8, 1), aux_embed_dim=6, aux_hidden=8, seed=12,
    )
    model = build_model(config)
    opt = Adam(model.arena)
    for step in range(steps_per_domain * num_domains):
        domain = 1 + step % num_domains
        batch = random_examples(32, config, domain, seed=300 + step)
        train_step(model, opt, batch)
    return model


def test_criterion_02_fold_equivalence():
    t0 = time.time()
    model = _served_star_model(num_domains=5)
    examples = []
    for p in range(1, 6):
        examples.extend(random_examples(10_000, model.config, p, seed=40 + p))
    folded = fold(model)
    diff = np.abs(folded.score_examples(examples)
                  - score_with_model(model, Dataset.from_examples(examples))
                  ).max()
    elapsed = time.time() - t0
    ok = diff <= 1e-12 and elapsed < 30.0
    check(2, "fold-equivalence", ok,
          f"max_abs_diff={diff:.2e} <= 1e-12 over 1e4/domain x 5 domains, "
          f"runtime={elapsed:.1f}s < 30s")


def test_criterion_03_domain_isolation():
    model = _served_star_model(num_domains=3, steps_per_domain=2)
    before = deserialize(serialize(model))
    batch = random_examples(32, model.config, domain=1, seed=900)
    train_step(model, Adam(model.arena), batch)
    after = deserialize(serialize(model))

    unchanged = []
    for q in (2, 3):
        for sa, sb in zip(before.fcn.domain[q - 1], after.fcn.domain[q - 1]):
            unchanged.append(np.array_equal(sa.W.value, sb.W.value))
            unchanged.append(np.array_equal(sa.b.value, sb.b.value))
        i = q - 1
        unchanged.append(np.array_equal(before.norm.domain_gamma[i].value,
                                        after.norm.domain_gamma[i].value))
        unchanged.append(np.array_equal(before.norm.domain_beta[i].value,
                                        after.norm.domain_beta[i].value))
        unchanged.append(np.array_equal(before.norm.moving_mean[i],
                                        after.norm.moving_mean[i]))
        unchanged.append(np.array_equal(before.norm.moving_var[i],
                                        after.norm.moving_var[i]))
    moved = not np.array_equal(before.fcn.domain[0][0].W.value,
                               after.fcn.domain[0][0].W.value)
    ok = all(unchanged) and moved
    check(3, "domain-isolation", ok,
          f"{sum(unchanged)}/{len(unchanged)} domain-q tensors bitwise "
          f"unchanged after a domain-1 step; domain-1 moved={moved}")


def test_criterion_04_star_beats_base(grid_reports):
    reports, seed_time = grid_reports
    star = grid_mean(reports, ("star", "pn", True), "weighted_auc")
    base = grid_mean(reports, ("base", "bn", True), "weighted_auc")
    margin = star - base
    slowest = max(seed_time.values())
    ok = margin >= 0.005 and slowest < SEED_SECONDS
    check(4, "star-vs-base", ok,
          f"weighted_auc STAR(PN,aux)={star:.4f} vs Base(BN,aux)={base:.4f}, "
          f"margin={margin:+.4f} >= 0.005, slowest seed {slowest:.0f}s < "
          f"{SEED_SECONDS:.0f}s")


def test_criterion_05_normalizer_ordering(grid_reports):
    reports, _ = grid_reports
    pn = grid_mean(reports, ("star", "pn", True), "overall_auc")
    ln = grid_mean(reports, ("star", "ln", True), "overall_auc")
    bn = grid_mean(reports, ("star", "bn", True), "overall_auc")
    ok = (pn - ln) >= 0.002 and (pn - bn) >= 0.002
    check(5, "normalizer-ordering", ok,
          f"PN={pn:.4f} LN={ln:.4f} BN={bn:.4f}; PN-LN={pn - ln:+.4f} and "
          f"PN-BN={pn - bn:+.4f}, both >= 0.002")


def test_criterion_06_aux_direction(grid_reports):
    reports, _ = grid_reports
    margins = {}
    for variant, norm in (("base", "bn"), ("shared_bottom", "bn"),
                          ("star", "pn")):
        on = grid_mean(reports, (variant, norm, True), "overall_auc")
        off = grid_mean(reports, (variant, norm, False), "overall_auc")
        margins[variant] = on - off
    ok = (margins["base"] >= 0.0 and margins["shared_bottom"] >= 0.0
          and margins["star"] >= 0.001)
    check(6, "aux-direction", ok,
          f"aux margins base={margins['base']:+.4f} >= 0, "
          f"shared_bottom={margins['shared_bottom']:+.4f} >= 0, "
          f"star={margins['star']:+.4f} >= 0.001")


def test_criterion_07_calibration_dispersion(grid_reports):
    reports, _ = grid_reports
    star = grid_mean(reports, ("star", "pn", True), "pcoc_std")
    base = grid_mean(reports, ("base", "bn", True), "pcoc_std")
    ok = star < base
    check(7, "calibration-dispersion", ok,
          f"per-domain PCOC std STAR(PN)={star:.4f} < Base(BN)={base:.4f}")


def test_criterion_08_metric_oracles():
    rng = make_rng(800)
    auc_exact = 0
    for g in range(200):
        scores = rng.uniform(size=50)
        if g % 2:
            scores = np.round(scores, 1)  # tie-heavy groups
        labels = (rng.uniform(size=50) < 0.5).astype(int)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        if auc(scores, labels) == pairwise_auc(scores, labels):
            auc_exact += 1

    wauc_exact = 0
    for g in range(50):
        preds = [
            Prediction(int(rng.integers(0, 7)), 1,
                       float(np.round(rng.uniform(), 2)),
                       int(rng.integers(0, 2)))
            for _ in range(100)
        ]
        if weighted_auc(columns(preds)) == eq9_oracle(preds):
            wauc_exact += 1

    data = generate_examples(
        default_gen_config(num_domains=5, seed=5, n_examples=20_000,
                           vocab_items=500, vocab_profiles=200,
                           vocab_contexts=20)
    ).examples
    pcoc_exact = 0
    domains = sorted({ex.p for ex in data})
    for p in domains:
        y = np.array([ex.y for ex in data if ex.p == p], dtype=float)
        constant = np.full(y.size, y.mean())
        if pcoc(constant, y) == 1.0:
            pcoc_exact += 1

    ok = auc_exact == 200 and wauc_exact == 50 and pcoc_exact == len(domains)
    check(8, "metric-oracles", ok,
          f"auc exact {auc_exact}/200 groups, weighted_auc exact "
          f"{wauc_exact}/50 sets, constant-predictor PCOC exactly 1.0 in "
          f"{pcoc_exact}/{len(domains)} domains")


def test_criterion_09_pipeline_properties():
    examples = generate_examples(
        default_gen_config(num_domains=5, seed=6, n_examples=100_000,
                           vocab_items=500, vocab_profiles=200,
                           vocab_contexts=20)
    ).examples
    buffer = ShuffleBuffer(25_600, make_rng(60))
    emitted = [ex for b in stream_batches(examples, buffer, 512) for ex in b]
    conserved = Counter(emitted) == Counter(examples)

    sorted_stream = Dataset.from_examples(
        sorted(examples[:40_000], key=lambda ex: ex.p))
    counts = Counter(ex.p for ex in sorted_stream)
    global_mix = {p: c / len(sorted_stream) for p, c in counts.items()}
    buffered = list(stream_batches(sorted_stream,
                                   ShuffleBuffer(10 * 512, make_rng(61)), 512))
    chrono = list(iter_batches(sorted_stream, 512))
    tv_buf = mean_tv_distance(batch_domain_mix(buffered, 20), global_mix)
    tv_chrono = mean_tv_distance(batch_domain_mix(chrono, 20), global_mix)

    ok = conserved and tv_buf < tv_chrono
    check(9, "pipeline-properties", ok,
          f"conservation(permutation of 1e5)={conserved}, domain-mix TV "
          f"buffered={tv_buf:.3f} < chronological={tv_chrono:.3f}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    gen = default_gen_config(num_domains=3, seed=7, n_examples=8_000,
                             vocab_items=300, vocab_profiles=120,
                             vocab_contexts=12)
    train = generate_examples(gen).examples
    config = ExperimentConfig(num_domains=3, vocab_items=300,
                              vocab_profiles=120, vocab_contexts=12,
                              layer_widths=(16, 8, 1),
                              embed_dim=4, aux_embed_dim=4, aux_hidden=6,
                              batch_size=128, seed=0)
    run1 = serialize(train_model(config, train).model)
    run2 = serialize(train_model(config, train).model)
    checkpoints_identical = run1 == run2

    model = deserialize(run1)
    round_trip = serialize(model) == run1

    test = generate_examples(
        default_gen_config(num_domains=3, seed=7, n_examples=2_000,
                           sample_seed=123, vocab_items=300,
                           vocab_profiles=120, vocab_contexts=12)
    ).examples
    r1 = evaluate_model(deserialize(run1), test)
    r2 = evaluate_model(deserialize(run2), test)
    reports_identical = (r1.to_kv_text() == r2.to_kv_text()
                         and r1.to_json() == r2.to_json())

    ok = checkpoints_identical and round_trip and reports_identical
    check(10, "determinism-and-persistence", ok,
          f"checkpoints byte-identical={checkpoints_identical}, "
          f"save/load round-trip bitwise={round_trip}, "
          f"reports byte-identical={reports_identical}")
