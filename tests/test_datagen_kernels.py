"""The generator's and the writer's kernels equal their references bit for
bit (``tests/reference_kernels.py``): guide-table draws against one
``searchsorted``, the bisection that stops when converged against all 80
steps, the array writer against ``format_example`` per row, and the grouped
generator against the generator that masked each domain's rows.  Both sides
of each comparison run in this process, on the same BLAS, so none of these
tests depends on the machine.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference_kernels import (
    reference_calibrate_bias,
    reference_draw_categorical,
    reference_format_lines,
    reference_generate_examples,
)
from starctr import datagen
from starctr.data import Dataset, Example, _format_lines, write_dataset
from starctr.datagen import (
    DomainProfile,
    GenConfig,
    default_gen_config,
    generate_examples,
    load_gen_config,
)
from starctr.errors import CalibrationError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
B = datagen._GUIDE_BUCKETS
FUZZ = settings(max_examples=100, deadline=None)


def draw(u, cum):
    return datagen._draw_categorical(u, cum, datagen._guide_table(cum))


# -- guide-table draws -------------------------------------------------------

PROBS = st.lists(st.one_of(st.just(0.0), st.floats(1e-320, 1e-300),
                           st.floats(0.0, 1.0)), min_size=1, max_size=60)


@st.composite
def cum_tables(draw_):
    """Cumulative probabilities: normalized draws (with zero and underflowing
    entries, so runs of equal values), optionally scaled below 1, or
    thousands of values crowded into one bucket."""
    if draw_(st.booleans()):
        probs = np.array(draw_(PROBS))
        if probs.sum() == 0.0:
            probs[-1] = 1.0
        cum = np.cumsum(probs / probs.sum())
        if draw_(st.booleans()):
            cum *= draw_(st.floats(0.5, 1.0))
        return cum
    bucket = draw_(st.integers(0, B - 1))
    count = draw_(st.integers(1, 3_000))
    crowd = bucket / B + np.arange(count) * (draw_(st.floats(0.0, 1.0)) / (B * count))
    return np.append(crowd, 1.0)


@st.composite
def uniforms(draw_, cum):
    """Uniforms in [0, 1): random, on bucket edges j / 2**16 and next to
    them, and on the table's own values and next to them."""
    edges = np.array(draw_(st.lists(st.integers(0, B - 1), max_size=40))) / B
    picks = cum[np.array(draw_(st.lists(st.integers(0, cum.size - 1),
                                        max_size=40)), dtype=np.int64)]
    near = np.concatenate([edges, picks])
    u = np.concatenate([
        np.array(draw_(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                max_size=40))),
        near, np.nextafter(near, 0.0), np.nextafter(near, 1.0),
        [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


@FUZZ
@given(st.data())
def test_draw_categorical_matches_searchsorted(data):
    cum = data.draw(cum_tables())
    u = data.draw(uniforms(cum))
    np.testing.assert_array_equal(draw(u, cum), reference_draw_categorical(u, cum))


@pytest.mark.parametrize("cum", [
    np.array([1.0]),
    np.array([0.0, 0.0, 0.5, 0.5, 1.0 - 2 ** -53]),
    np.arange(1, B + 1) / B,                         # a value on every edge
    np.cumsum(np.full(4_000, 1 / 4_000)),            # ends just past 1
], ids=["one", "repeats-short", "every-edge", "uniform-4000"])
def test_draw_categorical_on_every_bucket_edge(cum):
    u = np.concatenate([np.arange(B) / B, np.nextafter(np.arange(1, B + 1) / B, 0)])
    np.testing.assert_array_equal(draw(u, cum), reference_draw_categorical(u, cum))


# -- bisection ---------------------------------------------------------------

@FUZZ
@given(st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=200),
       st.floats(1e-6, 1.0 - 1e-6))
@example([0.0], 0.5)
@example([-70.0, 70.0], 0.5)
@example([1e-300], 0.3)
def test_calibrate_bias_matches_eighty_steps(raw, target):
    raw = np.array(raw)
    try:
        expected = reference_calibrate_bias(raw, target)
    except CalibrationError:
        with pytest.raises(CalibrationError):
            datagen._calibrate_bias(raw, target)
        return
    assert datagen._calibrate_bias(raw, target) == expected


# -- writer ------------------------------------------------------------------

IDS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(-20, 5_000),
                st.sampled_from([0, -1, 10 ** 17, 10 ** 18 - 1, 10 ** 18,
                                 -10 ** 18, 2 ** 63 - 1, -2 ** 63]))
ROWS = st.lists(st.builds(Example, st.lists(IDS, max_size=12).map(tuple), IDS,
                          IDS, IDS, st.integers(0, 1), st.integers(1, 10 ** 6)),
                min_size=1, max_size=40)


@FUZZ
@given(ROWS)
@example([Example((), 0, 0, 0, 0, 1)])
@example([Example((-1,), -2, -3, -4, 1, 7)])
def test_format_lines_matches_format_example(rows):
    data = Dataset.from_examples(rows)
    assert _format_lines(data) == reference_format_lines(data)


def test_write_dataset_chunks_as_views(tmp_path, monkeypatch):
    """Chunks cut from the columns as views write the rows' text once each,
    in order, whatever the chunk size."""
    data = generate_examples(default_gen_config(n_examples=3_001)).examples
    expected = reference_format_lines(data)
    for rows in (7, 1_000, 5_000):
        monkeypatch.setattr("starctr.data._WRITE_ROWS", rows)
        path = tmp_path / f"rows{rows}.tsv"
        write_dataset(data, str(path))
        assert path.read_bytes() == expected


# -- generator ---------------------------------------------------------------

def _shipped(name):
    return replace(load_gen_config(str(CONFIGS / f"{name}.cfg")),
                   n_examples=5_000)


GENERATOR_CASES = {
    "gen_default": lambda: _shipped("gen_default"),
    "gen_holdout": lambda: _shipped("gen_holdout"),
    "one_domain": lambda: default_gen_config(num_domains=1, n_examples=3_000),
    "empty_domain": lambda: GenConfig(
        profiles=[DomainProfile(0.7, 0.05), DomainProfile(0.0, 0.1),
                  DomainProfile(0.3, 0.02)],
        n_examples=4_000, seed=3),
    "rank_0": lambda: default_gen_config(n_examples=4_000, domain_rank=0),
    "one_row": lambda: default_gen_config(n_examples=1),
    "no_rows": lambda: default_gen_config(n_examples=0),
}


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generator_matches_masked_reference(case):
    config = GENERATOR_CASES[case]()
    got, want = generate_examples(config), reference_generate_examples(config)
    assert got.examples == want.examples
    np.testing.assert_array_equal(got.true_probs, want.true_probs)
    for name in ("latent_items", "latent_profiles", "latent_contexts",
                 "w_shared", "w_domain", "biases"):
        np.testing.assert_array_equal(getattr(got.truth, name),
                                      getattr(want.truth, name))
    assert got.realized_ctr == want.realized_ctr
    assert list(got.realized_ctr) == list(want.realized_ctr)


def test_empty_domain_case_draws_no_examples():
    result = generate_examples(GENERATOR_CASES["empty_domain"]())
    assert 2 not in result.realized_ctr
    assert result.truth.biases[1] == 0.0
