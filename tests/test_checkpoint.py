import numpy as np
import pytest

from starctr.checkpoint import deserialize, load_model, save_model, serialize
from starctr.errors import CheckpointError, VersionError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import Batch, build_model
from starctr.optim import Adam, bce_loss
from starctr.serve import fold, score_with_model


def trained_model(variant="star", normalizer="pn", aux=True, steps=3):
    config = tiny_model_config(variant, normalizer, aux)
    model = build_model(config)
    opt = Adam()
    for step in range(steps):
        domain = 1 + step % config.num_domains
        batch = Batch.from_examples(
            random_examples(6, config, domain, seed=40 + step))
        model.zero_grad()
        yhat = model.forward(batch, mode="train")
        _, dlogits = bce_loss(yhat, batch.y, logits=model.last_forward.logits)
        model.backward(dlogits)
        opt.step(model.params(), model.embedding_tables())
    return model


def assert_models_equal(a, b):
    assert a.config == b.config
    for pa, pb in zip(a.params(), b.params()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value), pa.name
    for ta, tb in zip(a.embedding_tables(), b.embedding_tables()):
        assert np.array_equal(ta.weights, tb.weights), ta.name
    if hasattr(a.norm, "moving_mean"):
        assert np.array_equal(a.norm.moving_mean, b.norm.moving_mean)
        assert np.array_equal(a.norm.moving_var, b.norm.moving_var)
        assert np.array_equal(np.asarray(a.norm.populated),
                              np.asarray(b.norm.populated))


@pytest.mark.parametrize("variant,normalizer,aux", [
    ("star", "pn", True),
    ("star", "bn", False),
    ("star", "ln", True),
    ("base", "bn", True),
    ("base", "pn", False),
    ("shared_bottom", "ln", False),
    ("base", "ln", True),
    ("shared_bottom", "bn", True),
    ("shared_bottom", "pn", False),
])
def test_round_trip_bitwise(tmp_path, variant, normalizer, aux):
    model = trained_model(variant, normalizer, aux)
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert_models_equal(model, loaded)
    # serialize(load(save(m))) is byte-identical to serialize(m)
    assert serialize(loaded) == serialize(model)


def test_save_is_deterministic(tmp_path):
    model = trained_model()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(model, str(p1))
    save_model(model, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_starts_file(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    assert path.read_bytes()[:4] == b"STAR"


def test_bad_magic_rejected():
    with pytest.raises(CheckpointError):
        deserialize(b"NOPE" + b"\x00" * 64)


def test_wrong_version_rejected(tmp_path):
    model = trained_model(steps=1)
    raw = bytearray(serialize(model))
    raw[4] = 99  # version u16 little-endian low byte
    with pytest.raises(VersionError):
        deserialize(bytes(raw))


def test_truncated_payload_rejected(tmp_path):
    raw = serialize(trained_model(steps=1))
    with pytest.raises(CheckpointError):
        deserialize(raw[:len(raw) // 2])


def test_trailing_bytes_rejected():
    raw = serialize(trained_model(steps=1))
    with pytest.raises(CheckpointError):
        deserialize(raw + b"\x00")


def test_loaded_model_scores_identically(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    config = model.config
    batch = Batch.from_examples(random_examples(8, config, domain=2, seed=77))
    a = model.forward(batch, mode="infer")
    b = loaded.forward(batch, mode="infer")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", ["base", "shared_bottom"])
def test_reloaded_baseline_folds_to_saved_scores(tmp_path, variant):
    model = trained_model(variant, "pn", aux=True)
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    config = model.config
    examples = (random_examples(20, config, domain=1, seed=81)
                + random_examples(20, config, domain=2, seed=82))
    scores = fold(loaded).score_examples(examples)
    assert np.array_equal(scores, fold(model).score_examples(examples))
    assert np.abs(scores - score_with_model(model, examples)).max() <= 1e-12
