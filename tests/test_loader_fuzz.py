"""Fuzzed data files and containers: the loaders raise only StarError.

Each case writes a mutated copy of a valid file and reads it back with
``read_dataset``, ``load_model`` or ``load_folded``.  A container is
mutated as raw bytes, through one edited header value, or through edited
payload bytes under a matching sha256, so the edit reaches the checks
behind the hash.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from container_bytes import join, split
from starctr.checkpoint import load_model, save_model
from starctr.data import read_dataset, write_dataset
from starctr.datagen import default_gen_config, generate_examples
from starctr.errors import StarError
from starctr.gradcheck import random_examples, tiny_model_config
from starctr.model import build_model
from starctr.optim import Adam
from starctr.serve import fold, load_folded, save_folded
from starctr.train import train_step

FUZZ = settings(max_examples=100, deadline=None)

PIECES = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"\t", b"\n", b"\r\n", b",", b":", b"-", b"0", b"9",
                     b" ", b"\x00", b"\xff", b"behavior:", b"profile:",
                     b"nan", b"1e5", b"99999999999999999999"]),
)
# (where in [0, 1], bytes cut, bytes inserted): a replace, delete or insert.
EDITS = st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 8), PIECES),
                 min_size=1, max_size=4)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=6)
DELETE = object()


def mutate(raw: bytes, edits) -> bytes:
    for where, cut, insert in edits:
        i = int(where * len(raw))
        raw = raw[:i] + insert + raw[i + cut:]
    return raw


def key_paths(node, path=()):
    """The path of every value in a JSON header, containers included."""
    if path:
        yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from key_paths(child, path + (key,))


def edit_value(raw: bytes, path, value, rehash: bool) -> bytes:
    prefix, header, payload = split(raw)
    node = header
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return join(prefix, header, payload, rehash)


def raises_only_star_errors(load, path, raw: bytes):
    path.write_bytes(raw)
    try:
        load(str(path))
    except StarError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid data file, checkpoint and folded model, and a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    gen = default_gen_config(num_domains=3, seed=4, n_examples=30,
                             vocab_items=50, vocab_profiles=20,
                             vocab_contexts=5)
    write_dataset(generate_examples(gen).examples, str(root / "data.tsv"))
    config = replace(tiny_model_config("star", "pn", aux=True),
                     aux_use_features=True)
    model = build_model(config)
    opt = Adam(model.arena)
    for domain in range(1, config.num_domains + 1):
        train_step(model, opt, random_examples(8, config, domain))
    save_model(model, str(root / "model.ckpt"))
    save_folded(fold(model), str(root / "model.folded"))
    raw = {name: (root / name).read_bytes()
           for name in ("data.tsv", "model.ckpt", "model.folded")}
    return raw, root / "mutated"


CONTAINERS = [("model.ckpt", load_model), ("model.folded", load_folded)]


@FUZZ
@given(edits=EDITS)
def test_read_dataset(files, edits):
    raw, scratch = files
    raises_only_star_errors(read_dataset, scratch,
                            mutate(raw["data.tsv"], edits))


@pytest.mark.parametrize("name,load", CONTAINERS)
@FUZZ
@given(edits=EDITS)
def test_container_bytes(files, name, load, edits):
    raw, scratch = files
    raises_only_star_errors(load, scratch, mutate(raw[name], edits))


@pytest.mark.parametrize("name,load", CONTAINERS)
@FUZZ
@given(data=st.data(), value=st.one_of(JSON_VALUES, st.just(DELETE)),
       rehash=st.booleans())
def test_container_header_value(files, name, load, data, value, rehash):
    raw, scratch = files
    path = data.draw(st.sampled_from(list(key_paths(split(raw[name])[1]))))
    raises_only_star_errors(load, scratch,
                            edit_value(raw[name], path, value, rehash))


@pytest.mark.parametrize("name,load", CONTAINERS)
@FUZZ
@given(edits=EDITS)
def test_container_payload_under_its_hash(files, name, load, edits):
    raw, scratch = files
    prefix, header, payload = split(raw[name])
    raises_only_star_errors(load, scratch, join(prefix, header,
                                                mutate(payload, edits),
                                                rehash=True))
