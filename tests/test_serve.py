import hashlib
import time

import numpy as np
import pytest

from starctr import serve
from starctr.checkpoint import serialize
from starctr.datagen import Example, as_dataset, write_dataset
from starctr.errors import DataError, FoldError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import NORMALIZERS, VARIANTS, ModelConfig, build_model
from starctr.serve import (
    fold,
    load_folded,
    read_predictions,
    save_folded,
    score_file,
    score_with_model,
)

from reference_kernels import reference_score_examples, use_reference_kernels


def serving_config(normalizer="pn", aux=True, num_domains=5, variant="star",
                   aux_use_features=False):
    return ModelConfig(
        variant=variant, normalizer=normalizer, aux_enabled=aux,
        num_domains=num_domains, embed_dim=4, vocab_items=60,
        vocab_profiles=30, vocab_contexts=8, layer_widths=(12, 6, 1),
        aux_embed_dim=6, aux_hidden=8, aux_use_features=aux_use_features,
        seed=2,
    )


def small_trained_model(normalizer="pn", aux=True, num_domains=5,
                        variant="star", aux_use_features=False):
    """A briefly trained model with every domain's stats populated."""
    from starctr.model import Batch
    from starctr.optim import Adam
    from starctr.train import train_step

    config = serving_config(normalizer, aux, num_domains, variant,
                            aux_use_features)
    model = build_model(config)
    opt = Adam(model.arena)
    for step in range(4 * num_domains):
        domain = 1 + step % num_domains
        batch = Batch.from_examples(
            random_examples(16, config, domain, seed=100 + step))
        train_step(model, opt, batch)
    return model


def random_eval_examples(config, per_domain, seed=0):
    out = []
    for p in range(1, config.num_domains + 1):
        out.extend(random_examples(per_domain, config, p, seed=seed + p))
    return out


class TestFold:
    @pytest.mark.parametrize("normalizer", ["pn", "bn", "ln"])
    def test_fold_equivalence(self, normalizer):
        model = small_trained_model(normalizer)
        folded = fold(model)
        examples = random_eval_examples(model.config, 200)
        a = folded.score_examples(examples)
        b = score_with_model(model, examples)
        assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("normalizer", ["pn", "bn", "ln"])
    @pytest.mark.parametrize("variant", ["base", "shared_bottom"])
    def test_baseline_fold_equivalence(self, variant, normalizer):
        model = small_trained_model(normalizer, variant=variant)
        folded = fold(model)
        examples = random_eval_examples(model.config, 200)
        a = folded.score_examples(examples)
        b = score_with_model(model, examples)
        assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("normalizer", ["pn", "ln"])
    def test_folded_pool_matches_add_at_reference_bitwise(self, normalizer,
                                                          monkeypatch):
        folded = fold(small_trained_model(normalizer))
        examples = random_eval_examples(folded.config, 200)
        no_behavior = [ex._replace(behavior=()) for ex in examples]
        new = [folded.score_examples(examples),
               folded.score_examples(no_behavior)]
        use_reference_kernels(monkeypatch)
        assert new[0].tobytes() == folded.score_examples(examples).tobytes()
        assert new[1].tobytes() == folded.score_examples(no_behavior).tobytes()

    def test_identity_domain_folds_to_shared_weights(self):
        model = small_trained_model("bn")
        for layer in model.fcn.domain[0]:
            layer.W.value[:] = 1.0
            layer.b.value[:] = 0.0
        folded = fold(model)
        for (w, b), shared in zip(folded.domains[0].layers, model.fcn.shared):
            assert np.array_equal(w, shared.W.value)
            assert np.array_equal(b, shared.b.value)

    def test_fold_deterministic_outputs(self):
        model = small_trained_model()
        examples = random_eval_examples(model.config, 50)
        a = fold(model).score_examples(examples)
        b = fold(model).score_examples(examples)
        assert np.array_equal(a, b)

    def test_unpopulated_domain_stats_named(self):
        config = serving_config("pn")
        model = build_model(config)
        from starctr.model import Batch
        batch = Batch.from_examples(random_examples(8, config, 1, seed=3))
        model.forward(batch, mode="train")  # populate only domain 1
        with pytest.raises(FoldError, match="domain 2"):
            fold(model)

    @pytest.mark.parametrize("variant", ["base", "shared_bottom"])
    def test_fold_copies_single_factor_weights(self, variant):
        model = small_trained_model("bn", variant=variant)
        folded = fold(model)
        stack = model.fcn.shared if variant == "base" else model.fcn.domain[1]
        for (w, b), layer in zip(folded.domains[1].layers, stack):
            assert np.array_equal(w, layer.W.value)
            assert not np.shares_memory(w, layer.W.value)
            assert np.array_equal(b, layer.b.value)
            assert not np.shares_memory(b, layer.b.value)

    def test_scoring_does_not_mutate_model(self):
        model = small_trained_model()
        digest_before = hashlib.sha256(serialize(model)).hexdigest()
        examples = random_eval_examples(model.config, 100)
        folded = fold(model)
        folded.score_examples(examples)
        score_with_model(model, examples)
        assert hashlib.sha256(serialize(model)).hexdigest() == digest_before


AUX_SETTINGS = {"aux_off": (False, False), "aux_on": (True, False),
                "aux_features": (True, True)}
CELLS = [(v, n, a) for v in VARIANTS for n in NORMALIZERS for a in AUX_SETTINGS]


@pytest.mark.parametrize("variant,normalizer,aux", CELLS,
                         ids=["-".join(cell) for cell in CELLS])
def test_one_pass_scorer_matches_regrouping_reference(variant, normalizer,
                                                      aux):
    # The reference sorts and gathers every request and runs the aux net per
    # row.  Only the folded feature-free aux logit may move, by rounding.
    enabled, features = AUX_SETTINGS[aux]
    folded = fold(small_trained_model(normalizer, enabled, variant=variant,
                                      aux_use_features=features))
    config = folded.config
    one = random_examples(150, config, 3, seed=7)
    mixed = random_eval_examples(config, 30, seed=40)
    mixed = [mixed[i] for i in np.random.default_rng(5).permutation(len(mixed))]
    cases = {
        "one-domain list": (list(one[:100]), 4096),
        "one-domain Dataset": (one[:100], 4096),
        "mixed unsorted list": (mixed, 4096),
        "longer than batch_size": (list(one), 64),
        "n=1": (list(one[:1]), 4096),
        "n=0": ([], 4096),
    }
    tolerance = 1e-15 if aux == "aux_on" else 0.0
    for name, (examples, batch_size) in cases.items():
        got = folded.score_examples(examples, batch_size)
        want = reference_score_examples(folded, examples, batch_size)
        assert got.dtype == np.float64 and got.shape == (len(examples),), name
        assert not np.shares_memory(got, folded.score_examples(examples,
                                                                 batch_size))
        if tolerance:
            assert np.abs(got - want).max(initial=0.0) <= tolerance, name
        else:
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_feature_free_aux_net_folds_to_one_logit_per_domain(variant,
                                                             tmp_path):
    model = small_trained_model(variant=variant)
    folded = fold(model)
    assert folded.aux_logit.shape == (model.config.num_domains,)
    for p in range(1, model.config.num_domains + 1):
        per_row = model.aux.forward(np.zeros((64, 0)), p)
        assert np.abs(per_row - folded.aux_logit[p - 1]).max() <= 1e-15
    # The logit is derived on load, never written: a re-save of a loaded
    # file gives the same bytes.
    path, again = tmp_path / "m.fold", tmp_path / "again.fold"
    save_folded(folded, str(path))
    loaded = load_folded(str(path))
    save_folded(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()
    assert loaded.aux_logit.tobytes() == folded.aux_logit.tobytes()


@pytest.mark.parametrize("aux,features", [(False, False), (True, True)],
                         ids=["aux_off", "aux_features"])
def test_aux_net_with_features_or_off_has_no_folded_logit(aux, features):
    folded = fold(small_trained_model(aux=aux, aux_use_features=features))
    assert folded.aux_logit is None


def test_score_with_model_out_of_vocab_is_data_error():
    config = tiny_model_config("star", "ln", aux=False)
    model = build_model(config)
    with pytest.raises(DataError, match=r"item.*99.*12"):
        score_with_model(model, [Example((1,), 0, 99, 0, 0, 1)])


@pytest.mark.parametrize("example,error", [
    (Example((-3,), -1, -5, -2, 0, 1), "item id outside"),
    (Example((1,), 0, 4000, 0, 0, 1), "item id outside"),
    (Example((1,), 0, 4, 0, 0, 0), r"unknown domain 0 \(model serves 1..5\)"),
    (Example((1,), 0, 4, 0, 0, 6), r"unknown domain 6 \(model serves 1..5\)"),
], ids=["negative", "past_vocab", "domain_0", "domain_6"])
def test_scorers_check_ids(example, error):
    # Negative ids would wrap to the last embedding rows and score.
    model = small_trained_model()
    for score in (fold(model).score_examples,
                  lambda data: score_with_model(model, data)):
        with pytest.raises(DataError, match=f"example 1: {error}"):
            score([example])


class TestScoreFile:
    def test_empty_file(self, tmp_path):
        model = small_trained_model()
        data = tmp_path / "empty.tsv"
        data.write_text("")
        out = tmp_path / "preds.tsv"
        summary = score_file(fold(model), str(data), str(out))
        assert summary.n_scored == 0
        assert summary.n_skipped == 0
        assert out.read_text() == ""

    def test_deterministic_output_bytes(self, tmp_path):
        model = small_trained_model()
        examples = random_eval_examples(model.config, 80)
        data = tmp_path / "d.tsv"
        write_dataset(examples, str(data))
        folded = fold(model)
        o1, o2 = tmp_path / "p1.tsv", tmp_path / "p2.tsv"
        score_file(folded, str(data), str(o1))
        score_file(folded, str(data), str(o2))
        assert o1.read_bytes() == o2.read_bytes()

    def test_row_format_and_order(self, tmp_path):
        model = small_trained_model()
        examples = random_eval_examples(model.config, 10)
        data = tmp_path / "d.tsv"
        write_dataset(examples, str(data))
        out = tmp_path / "p.tsv"
        score_file(fold(model), str(data), str(out))
        rows = read_predictions(str(out))
        assert len(rows) == len(examples)
        for row, ex in zip(rows, examples):
            assert row[0] == ex.profile
            assert row[1] == ex.p
            assert row[3] == ex.y
            assert 0.0 < row[2] < 1.0
        # 17 significant digits recorded
        first_line = out.read_text().splitlines()[0]
        assert len(first_line.split("\t")[2].replace(".", "").lstrip("0")) >= 15

    def test_failing_partway_keeps_previous_output(self, tmp_path,
                                                  monkeypatch):
        model = small_trained_model()
        data = tmp_path / "d.tsv"
        write_dataset(random_eval_examples(model.config, 10), str(data))
        out = tmp_path / "p.tsv"
        out.write_bytes(b"previous\n")
        fmt = serve._PRED_FMT

        class FailingFormat:
            calls = 0

            def format(self, **row):
                self.calls += 1
                if self.calls == 3:
                    raise OSError("disk full")
                return fmt.format(**row)

        monkeypatch.setattr(serve, "_PRED_FMT", FailingFormat())
        with pytest.raises(OSError):
            score_file(fold(model), str(data), str(out))
        assert out.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv", "p.tsv"]

    def test_unknown_domain_counted(self, tmp_path):
        model = small_trained_model(num_domains=2)
        examples = random_eval_examples(model.config, 5)
        bad = examples[0]._replace(p=9)
        data = tmp_path / "d.tsv"
        write_dataset(examples + [bad], str(data))
        out = tmp_path / "p.tsv"
        summary = score_file(fold(model), str(data), str(out))
        assert summary.n_skipped == 1
        assert summary.n_scored == len(examples)
        assert "unknown domain 9" in summary.message()

    def test_folded_round_trip(self, tmp_path):
        for normalizer in ("pn", "ln", "bn"):
            model = small_trained_model(normalizer)
            folded = fold(model)
            path = tmp_path / f"{normalizer}.fold"
            save_folded(folded, str(path))
            loaded = load_folded(str(path))
            assert loaded.config.normalizer == normalizer
            examples = random_eval_examples(model.config, 40)
            assert np.array_equal(loaded.score_examples(examples),
                                  folded.score_examples(examples))

    @pytest.mark.parametrize("normalizer", ["pn", "bn", "ln"])
    @pytest.mark.parametrize("variant", ["base", "shared_bottom", "star"])
    def test_reloaded_fold_keeps_config_and_scores(self, tmp_path, variant,
                                                   normalizer):
        model = small_trained_model(normalizer, variant=variant)
        folded = fold(model)
        path = tmp_path / "m.fold"
        save_folded(folded, str(path))
        loaded = load_folded(str(path))
        assert loaded.config == folded.config == model.config
        examples = random_eval_examples(model.config, 40)
        assert (loaded.score_examples(examples).tobytes()
                == folded.score_examples(examples).tobytes())


class TestThroughput:
    def test_folded_not_slower_than_unfolded(self):
        # Folded scoring skips the per-batch weight fusion; compare best-of-7
        # wall times on the same examples, the two runs alternating so a
        # slow spell of the machine hits both sides.
        model = small_trained_model()
        examples = random_eval_examples(model.config, 1500)
        folded = fold(model)
        runs = (lambda: folded.score_examples(examples, 256),
                lambda: score_with_model(model, examples, 256))
        best = [float("inf")] * len(runs)
        for _ in range(7):
            for i, run in enumerate(runs):
                t0 = time.perf_counter()
                run()
                best[i] = min(best[i], time.perf_counter() - t0)
        t_folded, t_unfolded = best
        assert t_folded <= t_unfolded * 1.10
