import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from container_bytes import (
    edit_header,
    flip_payload_byte,
    header_length_past_eof,
    join,
    set_config,
    split,
)
from starctr.checkpoint import deserialize, load_model, save_model, serialize
from starctr.data import Dataset
from starctr.errors import CheckpointError, VersionError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import build_model
from starctr.optim import Adam
from starctr.serve import fold, save_folded, score_with_model
from starctr.train import train_step


def trained_model(variant="star", normalizer="pn", aux=True, steps=3):
    config = tiny_model_config(variant, normalizer, aux)
    model = build_model(config)
    opt = Adam(model.arena)
    for step in range(steps):
        domain = 1 + step % config.num_domains
        batch = random_examples(6, config, domain, seed=40 + step)
        train_step(model, opt, batch)
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
    batch = random_examples(8, config, domain=2, seed=77)
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
    examples = (list(random_examples(20, config, domain=1, seed=81))
                + list(random_examples(20, config, domain=2, seed=82)))
    scores = fold(loaded).score_examples(examples)
    assert np.array_equal(scores, fold(model).score_examples(examples))
    unfolded = score_with_model(model, Dataset.from_examples(examples))
    assert np.abs(scores - unfolded).max() <= 1e-12


def test_deserialize_then_serialize_reproduces_bytes():
    raw = serialize(trained_model("shared_bottom", "bn", aux=True))
    assert serialize(deserialize(raw)) == raw


def test_header_carries_the_whole_config():
    model = trained_model("base", "ln", aux=True)
    _, header, _ = split(serialize(model))
    assert header["kind"] == "model"
    config = model.config
    assert header["config"] == {
        f.name: (list(getattr(config, f.name)) if f.name == "layer_widths"
                 else getattr(config, f.name))
        for f in fields(config)}


def _drop_last_tensor(header, payload):
    name = max(header["tensors"], key=lambda n: header["tensors"][n]["offset"])
    offset = header["tensors"].pop(name)["offset"]
    return payload[:offset]


def _add_tensor(header, payload):
    header["tensors"]["extra"] = {"dtype": "<f8", "shape": [1],
                                  "offset": len(payload)}
    return payload + bytes(8)


def _first_two(header):
    by_offset = sorted(header["tensors"].values(), key=lambda e: e["offset"])
    return by_offset[0], by_offset[1]


def _transpose_first(header):
    first = _first_two(header)[0]
    first["shape"] = first["shape"][::-1]


def _shift_first(header):
    _first_two(header)[0]["offset"] += 4


def _overlap_second(header):
    _first_two(header)[1]["offset"] = 0


def _push_last_past_end(header):
    last = max(header["tensors"].values(), key=lambda e: e["offset"])
    last["offset"] += 8


def _header_edit(edit):
    return lambda raw: edit_header(raw, edit)


def _payload_edit(edit):
    def corrupt(raw):
        prefix, header, payload = split(raw)
        return join(prefix, header, edit(header, payload), rehash=True)
    return corrupt


def _raw_header(text):
    return lambda raw: raw[:8] + len(text).to_bytes(8, "little") + text


def _header_length(size):
    return lambda raw: raw[:8] + size.to_bytes(8, "little") + raw[16:]


def _rename_first(header):
    tensors = header["tensors"]
    tensors["renamed"] = tensors.pop(next(iter(tensors)))


def _tensor_dtype(header):
    header["tensors"]["pn.gamma"]["dtype"] = "<f4"


# case -> (edit of a checkpoint's bytes, pattern of the error)
CORRUPTIONS = {
    "header_past_eof": (header_length_past_eof, "past the end of the file"),
    "header_unaligned": (_header_length(12), "not a multiple of 8"),
    "header_not_json": (_raw_header(b'{"kind": nope}  '), "not valid JSON"),
    "header_not_utf8": (_raw_header(bytes(range(255, 247, -1))),
                        "not valid JSON"),
    "header_not_object": (_raw_header(b"[1, 2]  "), "exactly the keys"),
    "wrong_kind": (_header_edit(lambda h: h.update(kind="folded")),
                   "kind 'folded'"),
    "config_key_missing": (_header_edit(lambda h: h["config"].pop("seed")),
                           r"missing \['seed'\]"),
    "config_key_unknown": (
        _header_edit(set_config("combine", "elementwise_product")),
        r"unknown \['combine'\]"),
    "config_type": (_header_edit(set_config("embed_dim", 4.0)),
                    "embed_dim: expected int"),
    "config_widths_type": (
        _header_edit(set_config("layer_widths", [8, "4", 1])),
        "layer_widths: expected tuple"),
    "config_variant": (_header_edit(set_config("variant", "ensemble")),
                       "unknown model variant"),
    "config_invalid_widths": (
        _header_edit(set_config("layer_widths", [8, 4, 2])), "must end in 1"),
    "config_zero_vocab": (_header_edit(set_config("vocab_items", 0)),
                          r"vocab_items must be in \[1, 1000000000\]"),
    "config_negative_seed": (_header_edit(set_config("seed", -1)),
                             "seed must be >= 0"),
    "tensor_dtype": (_header_edit(_tensor_dtype), "bad entry"),
    "tensor_shape": (_header_edit(_transpose_first),
                     "shape .* the config implies"),
    "offset_misaligned": (_header_edit(_shift_first), "not 8-byte aligned"),
    "offset_overlap": (_header_edit(_overlap_second), "overlaps"),
    "offset_out_of_range": (_header_edit(_push_last_past_end),
                            "past the payload"),
    "tensor_missing": (_payload_edit(_drop_last_tensor), "missing tensor"),
    "tensor_renamed": (_header_edit(_rename_first), "missing tensor behavior"),
    "tensor_unknown": (_payload_edit(_add_tensor), "unknown tensors: extra"),
    "payload_not_covered": (
        _payload_edit(lambda header, payload: payload + bytes(8)),
        "belong to no tensor"),
    "payload_sha256": (flip_payload_byte, "sha256"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupt_container_rejected(case):
    corrupt, message = CORRUPTIONS[case]
    raw = serialize(trained_model(steps=2))
    with pytest.raises(CheckpointError, match=message):
        deserialize(corrupt(raw))


def test_edited_header_rejected_before_allocating():
    # The header asks for a 10**6-row item vocabulary: building that model
    # takes 256 MB, the file holds a few kilobytes.
    raw = edit_header(serialize(trained_model(steps=2)),
                      set_config("vocab_items", 10**6))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="the config implies"):
            deserialize(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class _HalfWrite:
    """A file whose write stores half the bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("save", [
    save_model, lambda model, path: save_folded(fold(model), path),
], ids=["model", "folded"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, save):
    path = tmp_path / "out.bin"
    save(trained_model(steps=2), str(path))
    before = path.read_bytes()
    monkeypatch.setattr("starctr.data.open",
                        lambda file, mode: _HalfWrite(open(file, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save(trained_model(steps=4), str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    monkeypatch.undo()
    save(trained_model(steps=4), str(path))
    assert path.read_bytes() != before
