import io
from pathlib import Path

import numpy as np
import pytest

from starctr.config import (
    ExperimentConfig,
    config_hash,
    format_experiment_config,
    load_experiment_config,
    parse_experiment_config,
    with_overrides,
)
from starctr.data import Dataset
from starctr.datagen import default_gen_config, generate_examples
from starctr.errors import ConfigError, DataError, NumericError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import build_model
from starctr.optim import Adam, bce_loss
from starctr.train import (AblationRow, BatchPlan, evaluate_model,
                           run_ablation, train_model, train_step)

from reference_kernels import use_reference_kernels


@pytest.fixture(scope="module")
def tiny_data():
    gen = default_gen_config(num_domains=3, seed=4, n_examples=6_000,
                             vocab_items=300, vocab_profiles=120,
                             vocab_contexts=12)
    train = generate_examples(gen).examples
    gen_test = default_gen_config(num_domains=3, seed=4, n_examples=2_000,
                                  sample_seed=900, vocab_items=300,
                                  vocab_profiles=120, vocab_contexts=12)
    test = generate_examples(gen_test).examples
    return train, test


def tiny_config(**kw):
    defaults = dict(num_domains=3, vocab_items=300, vocab_profiles=120,
                    vocab_contexts=12, layer_widths=(16, 8, 1), embed_dim=4,
                    aux_embed_dim=4, aux_hidden=6, batch_size=128, epochs=1,
                    seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestTrainLoop:
    def test_training_produces_finite_scores(self, tiny_data):
        train, test = tiny_data
        result = train_model(tiny_config(), train)
        report = evaluate_model(result.model, test)
        assert 0.0 < report.overall_auc < 1.0
        assert result.steps > 0

    def test_log_format(self, tiny_data):
        train, _ = tiny_data
        log = io.StringIO()
        train_model(tiny_config(epochs=3), train, log=log)
        lines = log.getvalue().splitlines()
        steps = [l for l in lines if not l.startswith("#")]
        epochs = [l for l in lines if l.startswith("# epoch")]
        assert len(epochs) == 3
        for line in steps:
            step, loss = line.split("\t")
            assert int(step) % 100 == 0
            assert float(loss) > 0

    def test_deterministic_given_seed(self, tiny_data):
        from starctr.checkpoint import serialize
        train, _ = tiny_data
        a = train_model(tiny_config(), train).model
        b = train_model(tiny_config(), train).model
        assert serialize(a) == serialize(b)

    @pytest.mark.parametrize("variant,normalizer,aux", [
        ("star", "pn", True),
        ("star", "ln", False),
        ("base", "bn", True),
        ("shared_bottom", "pn", True),
    ])
    def test_checkpoint_equals_add_at_reference_bytes(self, tiny_data,
                                                      monkeypatch, variant,
                                                      normalizer, aux):
        from starctr.checkpoint import serialize
        train, _ = tiny_data
        config = tiny_config(variant=variant, normalizer=normalizer,
                             aux_enabled=aux, batch_size=64)
        new = serialize(train_model(config, train[:3000]).model)
        use_reference_kernels(monkeypatch)
        assert new == serialize(train_model(config, train[:3000]).model)

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1", "0"])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigError, match="lr must be finite and > 0"):
            parse_experiment_config(f"lr={lr}\n")

    def test_divergence_raises_numeric_error(self, tiny_data):
        from starctr.errors import NumericError
        train, _ = tiny_data
        log = io.StringIO()
        with pytest.raises(NumericError, match=r"step \d+ \(domain \d\)"):
            train_model(tiny_config(lr=1e300), train, log=log)

    def test_a_run_that_trains_nothing_is_a_data_error(self, tiny_data):
        train, _ = tiny_data
        config = tiny_config()
        for rows in (train[:0], train[:1]):
            for examples in (rows, BatchPlan.build(config, rows)):
                with pytest.raises(DataError, match="nothing to train on"):
                    train_model(config, examples)

    def test_vocab_validation(self, tiny_data):
        train, _ = tiny_data
        bad = tiny_config(vocab_items=10)
        from starctr.errors import DataError
        with pytest.raises(DataError):
            train_model(bad, train)

    def test_domain_validation(self, tiny_data):
        train, _ = tiny_data
        first = int((train.p > 2).argmax()) + 1
        for build in (train_model, BatchPlan.build):
            with pytest.raises(DataError, match=f"example {first}: unknown "
                                                f"domain 3 \\(model serves"):
                build(tiny_config(num_domains=2), train)


class TestTrainStep:
    def test_returns_the_loss_and_steps_adam(self):
        config = tiny_model_config()
        model = build_model(config)
        opt = Adam(model.arena, lr=0.01)
        batch = random_examples(8, config, domain=2)
        before = model.arena.values.copy()
        expected, _ = bce_loss(model.forward(batch, mode="train"), batch.y)
        assert train_step(model, opt, batch) == expected
        assert opt.t == 1
        assert (model.arena.values != before).any()

    def test_divergence_names_the_step_before_any_gradient(self):
        config = tiny_model_config(aux=False)
        model = build_model(config)
        opt = Adam(model.arena)
        batch = random_examples(8, config, domain=1)
        train_step(model, opt, batch)
        model.fcn.shared[-1].b.value[:] = 1e6
        before = model.arena.values.copy()
        with pytest.raises(NumericError, match=r"^loss .* at step 2 "
                                               r"\(domain 1\): training "
                                               r"diverged$"):
            train_step(model, opt, batch)
        assert opt.t == 1
        assert not model.arena.grads.any()
        assert model.arena.values.tobytes() == before.tobytes()


class TestAblation:
    def test_grid_has_ten_rows(self, tiny_data):
        train, test = tiny_data
        rows = run_ablation(tiny_config(), train[:3000], test[:1000])
        assert len(rows) == 10
        cells = {(r.variant, r.normalizer, r.aux) for r in rows}
        assert len(cells) == 10
        for r in rows:
            assert 0.0 <= r.overall_auc <= 1.0

    def test_rows_equal_cells_trained_one_by_one(self, tiny_data):
        """The shared batch plan changes no bit: each row's AUC is the AUC
        of the same cell streamed and trained on its own."""
        train, test = tiny_data
        config = tiny_config(epochs=2)
        rows = run_ablation(config, train[:3000], test[:1000])
        for row in rows:
            cell = with_overrides(config, variant=row.variant,
                                  normalizer=row.normalizer,
                                  aux_enabled=row.aux)
            alone = evaluate_model(train_model(cell, train[:3000]).model,
                                   test[:1000])
            assert repr(row.overall_auc) == repr(alone.overall_auc)

    def test_plan_of_another_setting_rejected(self, tiny_data):
        train, _ = tiny_data
        plan = BatchPlan.build(tiny_config(), train[:1000])
        assert train_model(tiny_config(variant="base", lr=0.01), plan).steps
        with pytest.raises(ConfigError, match="batch plan"):
            train_model(tiny_config(batch_size=64), plan)

    def test_empty_eval_rejected(self, tiny_data):
        from starctr.errors import DataError
        train, _ = tiny_data
        with pytest.raises(DataError, match="no evaluation examples"):
            run_ablation(tiny_config(), train[:1000],
                         Dataset.from_examples([]))

    def test_row_format(self, tiny_data):
        train, test = tiny_data
        rows = run_ablation(tiny_config(), train[:2000], test[:800])
        line = rows[0].format()
        assert line.count("\t") == 3
        assert "overall_auc=" in line

    def test_row_format_is_independent_of_numpy(self):
        # numpy 2 would print np.float64(0.6002247538455157).
        row = AblationRow("star", "pn", True, np.float64(0.6002247538455157))
        assert row.format() == "star\tpn\taux=on\toverall_auc=0.6002247538455157"
        row.overall_auc = None
        assert row.format().endswith("\taux=on\toverall_auc=None")


class TestExperimentConfig:
    def test_round_trip(self):
        config = tiny_config(variant="shared_bottom", normalizer="ln",
                             aux_enabled=False)
        parsed = parse_experiment_config(format_experiment_config(config))
        assert parsed == config

    def test_shipped_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs"
        assert (load_experiment_config(str(path / "experiment_default.cfg"))
                == ExperimentConfig())

    def test_batch_must_fit_an_explicit_buffer(self):
        config = ExperimentConfig()
        with pytest.raises(ConfigError, match="batch_size 1024 exceeds "
                                              "buffer capacity 10$"):
            with_overrides(config, buffer_capacity=10)
        assert with_overrides(config, buffer_capacity=1024).validate() is None

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="zap.*zip|zip.*zap"):
            parse_experiment_config("zip=1\nzap=2\n")

    def test_overrides_win(self):
        text = format_experiment_config(tiny_config())
        parsed = parse_experiment_config(text, {"epochs": "7", "lr": "0.01"})
        assert parsed.epochs == 7
        assert parsed.lr == 0.01

    def test_key_set_twice(self):
        with pytest.raises(ConfigError, match="^line 3: key 'lr' already set "
                                              "on line 1$"):
            parse_experiment_config("lr=0.5\nseed=1\n lr = 0.001\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_experiment_config("epochs=three\n")

    def test_invalid_variant(self):
        with pytest.raises(ConfigError, match="unknown model variant 'ensemble'"):
            parse_experiment_config("variant=ensemble\n")
        with pytest.raises(ConfigError, match="unknown normalizer 'gn'"):
            parse_experiment_config("normalizer=gn\n")

    def test_data_paths_are_not_config_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: "
                                              "eval_data, train_data"):
            parse_experiment_config("train_data=a.tsv\neval_data=b.tsv\n")

    def test_hash_stable_and_sensitive(self):
        a = config_hash(tiny_config())
        b = config_hash(tiny_config())
        c = config_hash(tiny_config(seed=1))
        assert a == b
        assert a != c

    def test_comments_and_blanks_ignored(self):
        parsed = parse_experiment_config("# a comment\n\nseed=5\n")
        assert parsed.seed == 5
