"""Fuzzed config text: the parsers raise only StarError subclasses, and
every config they accept prints to text that parses back to it."""

from hypothesis import given, settings, strategies as st

from starctr.config import (ExperimentConfig, format_experiment_config,
                            parse_experiment_config, parse_kv_text)
from starctr.datagen import (default_gen_config, format_gen_config,
                             parse_gen_config)
from starctr.errors import StarError

FUZZ = settings(max_examples=300, deadline=None)

GEN_TEXT = format_gen_config(default_gen_config(num_domains=3))
GEN_KEYS = sorted(parse_kv_text(GEN_TEXT)) + ["domain.4.base_ctr",
                                              "domain.0.specificity"]
EXPERIMENT_KEYS = sorted(parse_kv_text(
    format_experiment_config(ExperimentConfig())))

VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "true", "off",
                     "1,2", "64,32,1", ",", "star", "pn", "0", "-1", "²"]),
)


def raises_only_star_errors(parse, *args):
    try:
        return parse(*args)
    except StarError:
        return None


@FUZZ
@given(st.text())
def test_parse_kv_text(text):
    raises_only_star_errors(parse_kv_text, text)


@FUZZ
@given(st.dictionaries(st.one_of(st.sampled_from(GEN_KEYS),
                                 st.text(max_size=12)), VALUES, max_size=4),
       st.booleans())
def test_parse_gen_config(overrides, drop_domains):
    kv = parse_kv_text(GEN_TEXT)
    if drop_domains:
        kv.pop("domains")
    kv.update(overrides)
    text = "".join(f"{key}={value}\n" for key, value in kv.items())
    config = raises_only_star_errors(parse_gen_config, text)
    if config is not None:
        printed = format_gen_config(config)
        assert format_gen_config(parse_gen_config(printed)) == printed


@FUZZ
@given(st.text(), st.dictionaries(
    st.one_of(st.sampled_from(EXPERIMENT_KEYS), st.text(max_size=12)),
    VALUES, max_size=4))
def test_parse_experiment_config(text, overrides):
    config = raises_only_star_errors(parse_experiment_config, text, overrides)
    if config is not None:
        assert parse_experiment_config(
            format_experiment_config(config)) == config
