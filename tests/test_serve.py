import hashlib
import time

import numpy as np
import pytest

from starctr import serve
from starctr.checkpoint import serialize
from starctr.config import NORMALIZERS, VARIANTS, ModelConfig
from starctr.data import Dataset, Example, check_rows, write_dataset
from starctr.errors import DataError, FoldError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import Batch, build_model
from starctr.serve import (
    fold,
    load_folded,
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
    from starctr.optim import Adam
    from starctr.train import train_step

    config = serving_config(normalizer, aux, num_domains, variant,
                            aux_use_features)
    model = build_model(config)
    opt = Adam(model.arena)
    for step in range(4 * num_domains):
        domain = 1 + step % num_domains
        batch = random_examples(16, config, domain, seed=100 + step)
        train_step(model, opt, batch)
    return model


def random_eval_examples(config, per_domain, seed=0):
    out = []
    for p in range(1, config.num_domains + 1):
        out.extend(random_examples(per_domain, config, p, seed=seed + p))
    return out


AUX_SETTINGS = {"aux_off": (False, False), "aux_on": (True, False),
                "aux_features": (True, True)}
CELLS = [(v, n, a) for v in VARIANTS for n in NORMALIZERS for a in AUX_SETTINGS]


def frozen_affine(norm, p):
    """Domain p's frozen bn/pn normalization ``z * scale + shift``."""
    i, gamma, beta = norm.affine(p)
    scale = gamma / np.sqrt(norm.moving_var[i] + norm.epsilon)
    return scale, beta - scale * norm.moving_mean[i]


def assert_first_layer_folds_affine(folded_layer, norm, p, w, b):
    """The folded first layer is ``(W, b)`` with domain p's frozen affine
    folded in, in new arrays."""
    scale, shift = frozen_affine(norm, p)
    fw, fb = folded_layer
    assert np.array_equal(fw, scale[:, None] * w)
    assert np.array_equal(fb, shift @ w + b)
    assert not np.shares_memory(fw, w) and not np.shares_memory(fb, b)


class TestFold:
    @pytest.mark.parametrize("normalizer", NORMALIZERS)
    def test_fold_equivalence(self, normalizer):
        # Every variant and aux setting of this normalizer.
        for variant in VARIANTS:
            for aux, (enabled, features) in AUX_SETTINGS.items():
                model = small_trained_model(normalizer, enabled,
                                            variant=variant,
                                            aux_use_features=features)
                examples = random_eval_examples(model.config, 200)
                a = fold(model).score_examples(examples)
                b = score_with_model(model, Dataset.from_examples(examples))
                assert np.abs(a - b).max() <= 1e-12, (variant, aux)

    @pytest.mark.parametrize("normalizer", ["pn", "bn", "ln"])
    @pytest.mark.parametrize("variant", ["base", "shared_bottom"])
    def test_baseline_fold_equivalence(self, variant, normalizer):
        model = small_trained_model(normalizer, variant=variant)
        folded = fold(model)
        examples = random_eval_examples(model.config, 200)
        a = folded.score_examples(examples)
        b = score_with_model(model, Dataset.from_examples(examples))
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
        # Without an aux net only the first layer differs from the shared
        # stack: it holds the frozen normalization.
        model = small_trained_model("bn", aux=False)
        for layer in model.fcn.domain[0]:
            layer.W.value[:] = 1.0
            layer.b.value[:] = 0.0
        folded = fold(model).domains[0].layers
        shared = model.fcn.shared
        assert_first_layer_folds_affine(folded[0], model.norm, 1,
                                        shared[0].W.value, shared[0].b.value)
        for (w, b), layer in zip(folded[1:], shared[1:]):
            assert np.array_equal(w, layer.W.value)
            assert np.array_equal(b, layer.b.value)

    def test_fold_deterministic_outputs(self):
        model = small_trained_model()
        examples = random_eval_examples(model.config, 50)
        a = fold(model).score_examples(examples)
        b = fold(model).score_examples(examples)
        assert np.array_equal(a, b)

    def test_unpopulated_domain_stats_named(self):
        config = serving_config("pn")
        model = build_model(config)
        batch = random_examples(8, config, 1, seed=3)
        model.forward(batch, mode="train")  # populate only domain 1
        with pytest.raises(FoldError, match="domain 2"):
            fold(model)

    @pytest.mark.parametrize("variant", ["base", "shared_bottom"])
    def test_fold_copies_single_factor_weights(self, variant):
        model = small_trained_model("bn", aux=False, variant=variant)
        folded = fold(model).domains[1].layers
        stack = model.fcn.shared if variant == "base" else model.fcn.domain[1]
        assert_first_layer_folds_affine(folded[0], model.norm, 2,
                                        stack[0].W.value, stack[0].b.value)
        for (w, b), layer in zip(folded[1:], stack[1:]):
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
        score_with_model(model, Dataset.from_examples(examples))
        assert hashlib.sha256(serialize(model)).hexdigest() == digest_before


@pytest.mark.parametrize("variant,normalizer,aux", CELLS,
                         ids=["-".join(cell) for cell in CELLS])
def test_one_pass_scorer_matches_regrouping_reference(variant, normalizer,
                                                      aux, monkeypatch):
    # The reference sorts and gathers every request and builds fresh arrays
    # at every step; the scores keep their bits.
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
        "longer than SCORE_BATCH": (list(one), 64),
        "n=1": (list(one[:1]), 4096),
        "n=0": ([], 4096),
    }
    for name, (examples, batch_size) in cases.items():
        monkeypatch.setattr(serve, "SCORE_BATCH", batch_size)
        got = folded.score_examples(examples)
        want = reference_score_examples(folded, examples, batch_size)
        assert got.dtype == np.float64 and got.shape == (len(examples),), name
        assert not np.shares_memory(got, folded.score_examples(examples))
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_feature_free_aux_net_folds_to_one_logit_per_domain(variant,
                                                             tmp_path):
    # Without features the aux net's output is one constant per domain,
    # added to the last bias of that domain's trunk.
    model = small_trained_model(variant=variant)
    folded = fold(model)
    for p in range(1, model.config.num_domains + 1):
        w, b = model.fcn.fused_params(p)[-1]
        const = model.aux.forward(np.zeros((1, 0)), p)
        dom = folded.domains[p - 1]
        assert np.array_equal(dom.layers[-1][0], w)
        assert np.abs(dom.layers[-1][1] - (b + const)).max() <= 1e-15
        assert dom.aux_layers == []
    path, again = tmp_path / "m.fold", tmp_path / "again.fold"
    save_folded(folded, str(path))
    save_folded(load_folded(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("aux,features", [(False, False), (True, True)],
                         ids=["aux_off", "aux_features"])
def test_aux_net_with_features_or_off_has_no_folded_logit(aux, features):
    # The last trunk layer is the fused one; an aux net over the features
    # is two layers of its own.
    model = small_trained_model(aux=aux, aux_use_features=features)
    config = model.config
    for p, dom in enumerate(fold(model).domains, start=1):
        for got, want in zip(dom.layers[-1], model.fcn.fused_params(p)[-1]):
            assert np.array_equal(got, want)
        shapes = [(w.shape, b.shape) for w, b in dom.aux_layers]
        assert shapes == ([((config.input_dim, config.aux_hidden),
                            (config.aux_hidden,)),
                           ((config.aux_hidden, 1), (1,))] if features else [])


def previous_layout_tensors(model):
    """A model's folded tensors as the earlier folded layout stored them:
    the fused trunk, then per domain the frozen bn/pn affine or ln's gamma
    and beta, then the raw aux net."""
    config = model.config
    tensors = {f"embed.{name}": t.weights for name, t in model.tables.items()}
    for p in range(1, config.num_domains + 1):
        for li, (w, b) in enumerate(model.fcn.fused_params(p)):
            tensors[f"d{p}.{li}.W"], tensors[f"d{p}.{li}.b"] = w, b
        if config.normalizer != "ln":
            tensors[f"d{p}.scale"], tensors[f"d{p}.shift"] = frozen_affine(
                model.norm, p)
    if config.normalizer == "ln":
        tensors["ln.gamma"] = model.norm.gamma.value
        tensors["ln.beta"] = model.norm.beta.value
    if model.aux is not None:
        a = model.aux
        tensors.update({"aux.embed": a.embed.weights,
                        "aux.fc1.W": a.fc1.W.value, "aux.fc1.b": a.fc1.b.value,
                        "aux.fc2.W": a.fc2.W.value, "aux.fc2.b": a.fc2.b.value})
    return tensors


@pytest.mark.parametrize("normalizer,aux,unknown", [
    ("pn", True, "aux.embed, aux.fc1.W, aux.fc1.b, aux.fc2.W, aux.fc2.b, "
                 "d1.scale, d1.shift, d2.scale, d2.shift"),
    ("ln", False, "ln.beta, ln.gamma"),
], ids=["pn-aux_on", "ln-aux_off"])
def test_previous_folded_layout_exits_2(tmp_path, capsys, normalizer, aux,
                                        unknown):
    from starctr.checkpoint import pack
    from starctr.cli import main

    model = small_trained_model(normalizer, aux, num_domains=2)
    old = tmp_path / "old.fold"
    old.write_bytes(pack("folded", model.config,
                         previous_layout_tensors(model)))
    data = tmp_path / "d.tsv"
    write_dataset(Dataset.from_examples(random_eval_examples(model.config, 5)),
                  str(data))
    out = tmp_path / "p.tsv"
    assert main(["score", str(old), str(data), str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"checkpoint error: unknown tensors: {unknown}\n"
    assert not out.exists()


def test_score_with_model_out_of_vocab_is_data_error():
    config = tiny_model_config("star", "ln", aux=False)
    model = build_model(config)
    with pytest.raises(DataError, match=r"item.*99.*12"):
        score_with_model(model,
                         Dataset.from_examples([Example((1,), 0, 99, 0, 0, 1)]))


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
                  lambda rows: score_with_model(model,
                                                Dataset.from_examples(rows))):
        with pytest.raises(DataError, match=f"example 1: {error}"):
            score([example])


@pytest.fixture(scope="module")
def folded_model():
    return fold(small_trained_model())


# One value outside serving_config's vocabularies (60 items, 30 profiles,
# 8 contexts) or domains (1..5) per field.
BAD_VALUES = {"item": {"item": 60}, "behavior": {"behavior": (1, -1)},
              "profile": {"profile": 30}, "context": {"context": -1},
              "domain": {"p": 6}}


@pytest.mark.parametrize("shape", ["one-domain", "mixed"])
@pytest.mark.parametrize("field", BAD_VALUES)
def test_bad_request_names_the_example_as_check_rows(folded_model, field,
                                                     shape):
    # The request path checks with one min and one max per column; the
    # text of its DataError is still check_rows' own.
    config = folded_model.config
    rows = list(random_examples(20, config, 3, seed=7))
    if shape == "mixed":
        rows += list(random_examples(20, config, 1, seed=8))
    spoiled = (range(len(rows)) if (field, shape) == ("domain", "one-domain")
               else [5, 9])
    for i in spoiled:
        rows[i] = rows[i]._replace(**BAD_VALUES[field])
    with pytest.raises(DataError) as want:
        check_rows(Dataset.from_examples(rows), config)
    with pytest.raises(DataError) as got:
        folded_model.score_examples(rows)
    assert str(got.value) == str(want.value)


def test_bad_id_after_bad_domain_is_named_first(folded_model):
    # check_rows checks ids before domains, whatever their order.
    rows = list(random_examples(20, folded_model.config, 3, seed=7))
    rows[2] = rows[2]._replace(p=0)
    rows[9] = rows[9]._replace(context=99)
    with pytest.raises(DataError, match="example 10: context id outside"):
        folded_model.score_examples(rows)


def test_clean_one_domain_request_builds_no_batch(folded_model, monkeypatch):
    rows = list(random_examples(100, folded_model.config, 2, seed=3))
    want = folded_model.score_examples(rows)

    def no_batch(self, rows):
        raise AssertionError("a clean one-domain request built a Batch")

    monkeypatch.setattr(Batch, "__init__", no_batch)
    assert folded_model.score_examples(rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["list behavior", "empty behavior",
                                  "Dataset", "n=1", "SCORE_BATCH + 1"])
def test_request_scores_equal_score_batch(folded_model, case, monkeypatch):
    # A request longer than SCORE_BATCH is scored in runs of SCORE_BATCH
    # rows; a one-row run may round differently from the same row inside a
    # longer batch (a matrix-vector product), so each run is compared with
    # score_batch of that run.
    monkeypatch.setattr(serve, "SCORE_BATCH", 64)
    rows = list(random_examples(64, folded_model.config, 4, seed=11))
    request = {
        "list behavior": [ex._replace(behavior=list(ex.behavior))
                          for ex in rows],
        "empty behavior": [ex._replace(behavior=()) for ex in rows],
        "Dataset": Dataset.from_examples(rows),
        "n=1": rows[1:2],
        "SCORE_BATCH + 1": rows + rows[:1],
    }[case]
    want = np.concatenate([
        folded_model.score_batch(Batch.from_examples(request[start:start + 64]))
        for start in range(0, len(request), 64)])
    assert folded_model.score_examples(request).tobytes() == want.tobytes()


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
        write_dataset(Dataset.from_examples(examples), str(data))
        folded = fold(model)
        o1, o2 = tmp_path / "p1.tsv", tmp_path / "p2.tsv"
        score_file(folded, str(data), str(o1))
        score_file(folded, str(data), str(o2))
        assert o1.read_bytes() == o2.read_bytes()

    def test_row_format_and_order(self, tmp_path):
        model = small_trained_model()
        examples = random_eval_examples(model.config, 10)
        data = tmp_path / "d.tsv"
        write_dataset(Dataset.from_examples(examples), str(data))
        out = tmp_path / "p.tsv"
        score_file(fold(model), str(data), str(out))
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        rows = [(int(u), int(p), float(yhat), int(y)) for u, p, yhat, y in rows]
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
        write_dataset(Dataset.from_examples(
            random_eval_examples(model.config, 10)), str(data))
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
        write_dataset(Dataset.from_examples(examples + [bad]), str(data))
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
    def test_folded_not_slower_than_unfolded(self, monkeypatch):
        # Folded scoring skips the per-batch weight fusion; compare best-of-7
        # wall times on the same examples, the two runs alternating so a
        # slow spell of the machine hits both sides.
        monkeypatch.setattr(serve, "SCORE_BATCH", 256)
        model = small_trained_model()
        examples = random_eval_examples(model.config, 1500)
        folded = fold(model)
        runs = (lambda: folded.score_examples(examples),
                lambda: score_with_model(model,
                                         Dataset.from_examples(examples)))
        best = [float("inf")] * len(runs)
        for _ in range(7):
            for i, run in enumerate(runs):
                t0 = time.perf_counter()
                run()
                best[i] = min(best[i], time.perf_counter() - t0)
        t_folded, t_unfolded = best
        assert t_folded <= t_unfolded * 1.10
