
import numpy as np
import pytest

from starctr.config import ModelConfig
from starctr.data import (
    Dataset,
    Example,
    _format_lines,
    atomic_open,
    format_example,
    parse_example,
    read_dataset,
    validate_ids,
    write_atomic,
    write_dataset,
)
from starctr.datagen import (
    DomainProfile,
    GenConfig,
    default_gen_config,
    format_gen_config,
    generate,
    generate_examples,
    parse_gen_config,
)
from starctr.errors import CalibrationError, ConfigError, DataError, ParseError


def small_config(**kw):
    defaults = dict(num_domains=5, seed=0, n_examples=20_000,
                    vocab_items=500, vocab_profiles=200, vocab_contexts=20)
    defaults.update(kw)
    return default_gen_config(**defaults)


class TestGenerator:
    def test_zero_specificity_no_shift_shares_one_ground_truth(self):
        profiles = [DomainProfile(0.5, 0.05, specificity=0.0),
                    DomainProfile(0.5, 0.05, specificity=0.0)]
        config = GenConfig(profiles=profiles, n_examples=5_000, seed=1,
                           vocab_items=200, vocab_profiles=100,
                           vocab_contexts=10)
        result = generate_examples(config)
        truth = result.truth
        w1 = truth.w_shared + 0.0 * truth.w_domain[0]
        w2 = truth.w_shared + 0.0 * truth.w_domain[1]
        assert np.array_equal(w1, w2)
        assert result.truth.biases[0] == pytest.approx(result.truth.biases[1],
                                                       abs=0.05)

    def test_realized_ctr_within_ten_percent_relative(self):
        # Targets include the extreme observed domain rates 1.27% and 12.03%.
        config = default_gen_config(num_domains=5, seed=0, n_examples=200_000)
        targets = {i + 1: p.base_ctr for i, p in enumerate(config.profiles)}
        assert 0.0127 in targets.values() and 0.1203 in targets.values()
        result = generate_examples(config)
        counts = {}
        for ex in result.examples:
            counts[ex.p] = counts.get(ex.p, 0) + 1
        for p, target in targets.items():
            if counts.get(p, 0) < 10_000:
                continue
            rel = abs(result.realized_ctr[p] - target) / target
            assert rel < 0.10, f"domain {p}: {result.realized_ctr[p]} vs {target}"

    def test_domain_counts_match_shares_within_3_sigma(self):
        config = small_config(n_examples=50_000)
        result = generate_examples(config)
        counts = np.zeros(config.num_domains)
        for ex in result.examples:
            counts[ex.p - 1] += 1
        n = config.n_examples
        for i, prof in enumerate(config.profiles):
            expected = n * prof.traffic_share
            sigma = np.sqrt(n * prof.traffic_share * (1 - prof.traffic_share))
            assert abs(counts[i] - expected) < 3 * sigma

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        config = small_config(n_examples=2_000)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        generate(config, str(p1))
        generate(config, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_seed_changes_draws_not_world(self):
        c1 = small_config(n_examples=2_000)
        c2 = small_config(n_examples=2_000, sample_seed=99)
        r1, r2 = generate_examples(c1), generate_examples(c2)
        assert np.array_equal(r1.truth.w_shared, r2.truth.w_shared)
        assert r1.examples != r2.examples

    def test_infeasible_ctr_target(self):
        profiles = [DomainProfile(1.0, 1.5)]
        config = GenConfig(profiles=profiles, n_examples=100,
                           vocab_items=50, vocab_profiles=20, vocab_contexts=5)
        with pytest.raises(CalibrationError):
            generate_examples(config)

    def test_shares_must_sum_to_one(self):
        config = GenConfig(profiles=[DomainProfile(0.6, 0.05),
                                     DomainProfile(0.6, 0.05)])
        with pytest.raises(ConfigError):
            config.validate()


class TestDatasetFormat:
    def test_round_trip_10k(self, tmp_path):
        examples = generate_examples(small_config(n_examples=10_000)).examples
        path = tmp_path / "data.tsv"
        write_dataset(examples, str(path))
        assert read_dataset(str(path)) == examples

    def test_line_format(self):
        ex = Example((3, 4), 7, 9, 2, 1, 5)
        assert format_example(ex) == "5\t1\tbehavior:3,4\tprofile:7\titem:9\tctx:2"

    def test_domain_zero_rejected(self):
        with pytest.raises(ParseError, match="1-based"):
            parse_example("0\t1\tbehavior:1\tprofile:1\titem:1\tctx:1", 12)

    def test_empty_behavior_round_trips(self):
        ex = Example((), 1, 2, 3, 0, 1)
        line = format_example(ex)
        assert "behavior:\t" in line + "\t"
        assert parse_example(line) == ex

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 42"):
            parse_example("not a record", 42)

    def test_bad_label_rejected(self):
        with pytest.raises(ParseError):
            parse_example("1\t7\tbehavior:\tprofile:1\titem:1\tctx:1", 1)

    def test_wrong_field_tag_rejected(self):
        with pytest.raises(ParseError, match="profile"):
            parse_example("1\t0\tbehavior:1\tuser:1\titem:1\tctx:1", 3)


class TestDatasetIndexing:
    """Every key but an int picks the rows ``np.arange(len)[key]`` picks."""

    ROWS = [Example((1, 2), 10, 20, 3, 1, 1), Example((), 11, 21, 4, 0, 2),
            Example((5,), 12, 22, 5, 1, 1)]

    @pytest.mark.parametrize("key,rows", [
        (np.array([True, False, True]), [0, 2]),
        ([False, True, False], [1]),
        (np.array([-1, 0]), [2, 0]),
        (slice(None, None, -1), [2, 1, 0]),
        (np.array([], dtype=np.int64), []),
    ], ids=["bool_array", "bool_list", "negative_ints", "reversed_slice",
            "empty"])
    def test_key_gathers_numpys_rows(self, key, rows):
        data = Dataset.from_examples(self.ROWS)
        assert list(data[key]) == [self.ROWS[i] for i in rows]

    @pytest.mark.parametrize("key", [np.array([3]), np.array([True, False]),
                                     np.array([-4])],
                             ids=["past_end", "short_mask", "before_start"])
    def test_bad_key_is_an_index_error(self, key):
        with pytest.raises(IndexError):
            Dataset.from_examples(self.ROWS)[key]


class TestAtomicWrites:
    """A write that raises partway leaves the previous file byte for byte
    and no ``<path>.tmp``."""

    def test_atomic_open_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError):
            with atomic_open(str(path)) as fh:
                fh.write(b"half of the new ")
                raise RuntimeError("disk full")
        assert path.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
        write_atomic(str(path), b"new\n")
        assert path.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_write_dataset_failing_partway(self, tmp_path, monkeypatch):
        examples = generate_examples(small_config(n_examples=2_000)).examples
        path = tmp_path / "d.tsv"
        write_dataset(examples, str(path))
        before = path.read_bytes()
        calls = []

        def failing(data):
            calls.append(len(data))
            if len(calls) == 2:
                raise OSError("disk full")
            return _format_lines(data)

        monkeypatch.setattr("starctr.data._WRITE_ROWS", 100)
        monkeypatch.setattr("starctr.data._format_lines", failing)
        with pytest.raises(OSError):
            write_dataset(examples[:500], str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv"]


class TestGenConfigFile:
    def test_round_trip(self):
        config = small_config()
        parsed = parse_gen_config(format_gen_config(config))
        assert parsed.n_examples == config.n_examples
        assert parsed.num_domains == config.num_domains
        for a, b in zip(parsed.profiles, config.profiles):
            assert a.traffic_share == b.traffic_share
            assert a.base_ctr == b.base_ctr
            assert a.specificity == b.specificity
            assert np.array_equal(a.feature_shift, b.feature_shift)

    def test_unknown_key_listed(self):
        text = format_gen_config(small_config()) + "bogus_knob=3\n"
        with pytest.raises(ConfigError, match="bogus_knob"):
            parse_gen_config(text)

    def test_key_set_twice(self):
        text = format_gen_config(small_config()) + "examples=10\n"
        with pytest.raises(ConfigError, match="key 'examples' already set on "
                                              "line 2$"):
            parse_gen_config(text)

    def test_missing_domains_key(self):
        with pytest.raises(ConfigError, match="domains"):
            parse_gen_config("examples=10\n")

    def test_domain_index_out_of_range(self):
        text = "domains=2\ndomain.3.base_ctr=0.1\n"
        with pytest.raises(ConfigError):
            parse_gen_config(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "1.5"])
    def test_base_ctr_outside_unit_interval_is_a_calibration_error(self,
                                                                    value):
        text = ("domains=1\ndomain.1.traffic_share=1.0\n"
                f"domain.1.base_ctr={value}\n")
        with pytest.raises(CalibrationError, match="base_ctr"):
            parse_gen_config(text)


def reference_read(path):
    """The per-line reader the columnar one replaced."""
    with open(path, "r", encoding="ascii") as fh:
        return [parse_example(line, lineno)
                for lineno, line in enumerate(fh, start=1) if line.strip()]


GOOD_LINE = "2\t1\tbehavior:3,4\tprofile:7\titem:9\tctx:2\n"
BAD_LINES = [
    "not a record",
    "0\t1\tbehavior:1\tprofile:1\titem:1\tctx:1",
    "1\t7\tbehavior:\tprofile:1\titem:1\tctx:1",
    "1\t0\tbehavior:1\tuser:1\titem:1\tctx:1",
    "1\t0\tbehavior:1,x\tprofile:1\titem:1\tctx:1",
    "1\t0\tbehavior:1\tprofile:1\titem:1\tctx:1\textra",
    "-1\t0\tbehavior:1\tprofile:1\titem:1\tctx:1",
]


class TestColumnarReader:
    def test_write_of_read_reproduces_bytes(self, tmp_path):
        path = tmp_path / "data.tsv"
        generate(small_config(n_examples=30_000), str(path))
        again = tmp_path / "again.tsv"
        write_dataset(read_dataset(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad", BAD_LINES)
    @pytest.mark.parametrize("lineno", [1, 3, 40_000])
    def test_bad_line_raises_same_parse_error(self, tmp_path, bad, lineno):
        # 40_000 lines of 40 bytes put the bad line past the first 1 MB.
        path = tmp_path / "data.tsv"
        path.write_text(GOOD_LINE * (lineno - 1) + bad + "\n" + GOOD_LINE * 3)
        with pytest.raises(ParseError) as expected:
            parse_example(bad, lineno)
        with pytest.raises(ParseError) as got:
            read_dataset(str(path))
        assert got.value.line_number == lineno
        assert str(got.value) == str(expected.value)

    def test_non_canonical_lines_still_accepted(self, tmp_path):
        path = tmp_path / "data.tsv"
        lines = [
            GOOD_LINE,
            "+5\t0\tbehavior:+1, 2\tprofile: 5\titem:007\tctx:3 \n",
            "\n",
            "   \n",
            "1\t0\tbehavior:\tprofile:-3\titem:1\tctx:1\r\n",
            "3\t1\tbehavior:99999999999999999\tprofile:1\titem:1\tctx:1\n",
            GOOD_LINE.rstrip("\n"),
        ]
        path.write_bytes("".join(lines).encode("ascii"))
        assert list(read_dataset(str(path))) == reference_read(str(path))

    def test_canonical_lines_skip_parse_example(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("starctr.data.parse_example",
                            lambda *a: calls.append(a) or parse_example(*a))
        path = tmp_path / "data.tsv"
        path.write_text(GOOD_LINE * 100 + "+1\t0\tbehavior:\tprofile:1\t"
                        "item:1\tctx:1\n" + GOOD_LINE * 100)
        assert len(read_dataset(str(path))) == 201
        assert len(calls) == 1

    def test_canonical_run_keeps_no_backtracking_state(self, tmp_path):
        """Matching a run of canonical lines allocates next to nothing, so
        the peak stays near the size of the columns."""
        import tracemalloc

        path = tmp_path / "data.tsv"
        generate(small_config(n_examples=50_000), str(path))
        tracemalloc.start()
        try:
            read_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

    def test_id_beyond_int64_is_a_parse_error(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text(GOOD_LINE + "1\t0\tbehavior:\tprofile:1\titem:1\t"
                        "ctx:99999999999999999999\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(str(path))

    def test_domain_beyond_int64_is_a_parse_error(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text(GOOD_LINE + "99999999999999999999\t0\tbehavior:\t"
                        "profile:1\titem:1\tctx:1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_dataset(str(path))

    @pytest.mark.parametrize("field,line", [
        ("item", "1\t0\tbehavior:1,500\tprofile:1\titem:1\tctx:1"),
        ("item", "1\t0\tbehavior:1\tprofile:1\titem:-1\tctx:1"),
        ("profile", "1\t0\tbehavior:1\tprofile:200\titem:1\tctx:1"),
        ("context", "1\t0\tbehavior:\tprofile:1\titem:1\tctx:20"),
    ])
    def test_out_of_vocab_names_example(self, tmp_path, field, line):
        path = tmp_path / "data.tsv"
        # The blank line makes the example number differ from the line's.
        path.write_text(GOOD_LINE * 4 + "\n" + line + "\n" + GOOD_LINE)
        with pytest.raises(DataError, match=f"example 5: {field} id"):
            validate_ids(read_dataset(str(path)),
                         ModelConfig(vocab_items=500, vocab_profiles=200,
                                     vocab_contexts=20))
