"""The one range check of ids and domains, ``data.first_outside``: its
edges, and every check built on it against the mask checks it replaced,
on small datasets with several faults at once."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_kernels import (
    reference_check_ids,
    reference_check_rows,
    reference_validate_ids,
)
from starctr.data import (
    Dataset,
    Example,
    check_rows,
    clean_domain,
    example_columns,
    first_outside,
    validate_ids,
)
from starctr.errors import DataError
from starctr.gradcheck import tiny_model_config
from starctr.model import make_tables

I64_MIN, I64_MAX = -2 ** 63, 2 ** 63 - 1
CONFIG = tiny_model_config()
TABLES = make_tables(CONFIG)
# The range [low, high) of each faultable field of an Example.
RANGES = {"behavior": (0, CONFIG.vocab_items),
          "profile": (0, CONFIG.vocab_profiles),
          "item": (0, CONFIG.vocab_items),
          "context": (0, CONFIG.vocab_contexts),
          "p": (1, CONFIG.num_domains + 1)}


@pytest.mark.parametrize("ids, low, high, expected", [
    ([], 0, 10, -1),
    ([0, 3, 9], 0, 10, -1),
    ([-1, 3, 10], 0, 10, 0),
    ([0, 3, 10], 0, 10, 2),
    ([4, 10, 9], 0, 10, 1),
    ([4, 0, 9], 1, 10, 1),
    ([4, I64_MIN, 9], 0, 10, 1),
    ([4, 9, I64_MAX], 0, 10, 2),
    ([I64_MIN, I64_MAX], I64_MIN, I64_MAX + 1, -1),
], ids=["empty", "all_inside", "offender_first", "offender_last",
        "equal_to_high", "equal_to_low_minus_1", "int64_min", "int64_max",
        "int64_extremes_inside"])
def test_first_outside_edges(ids, low, high, expected):
    assert first_outside(np.array(ids, dtype=np.int64), low, high) == expected


@st.composite
def faulty_rows(draw):
    """A few clean rows of the tiny config, then 0-3 faults: a field of a
    row set below its range or at or above its end (a behavior fault is
    one more id in the row's list).  Returns the rows and faulted fields."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = {name: draw(st.integers(low, high - 1))
               for name, (low, high) in RANGES.items()}
        row["behavior"] = draw(st.lists(st.integers(0, CONFIG.vocab_items - 1),
                                        max_size=3))
        rows.append(row)
    fields = draw(st.lists(st.sampled_from(sorted(RANGES)), max_size=3))
    for name in fields:
        low, high = RANGES[name]
        bad = draw(st.one_of(st.integers(I64_MIN, low - 1),
                             st.integers(high, I64_MAX)))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if name == "behavior":
            row[name].insert(draw(st.integers(0, len(row[name]))), bad)
        else:
            row[name] = bad
    return [Example(tuple(r["behavior"]), r["profile"], r["item"],
                    r["context"], draw(st.integers(0, 1)), r["p"])
            for r in rows], fields


def raised(check, *args):
    """The text of the DataError ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except DataError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(faulty_rows())
def test_checks_name_the_offender_of_the_mask_checks(case):
    rows, fields = case
    data = Dataset.from_examples(rows)
    ids_message = raised(validate_ids, data, CONFIG)
    rows_message = raised(check_rows, data, CONFIG)
    assert ids_message == raised(reference_validate_ids, data, CONFIG)
    assert rows_message == raised(reference_check_rows, data, CONFIG)
    assert (ids_message is None) == (set(fields) <= {"p"})
    assert (rows_message is None) == (not fields)
    for name, ids, offsets in (
            ("behavior", data.behavior_flat, data.behavior_offsets),
            ("profile", data.profile, None), ("item", data.item, None),
            ("context", data.context, None)):
        table = TABLES[name]
        assert (raised(table.pool, ids, offsets)
                == raised(reference_check_ids, table, ids))
    one_domain = rows_message is None and len(set(data.p.tolist())) == 1
    flat, _, scalars = example_columns(rows)
    assert clean_domain(flat, scalars, CONFIG) == (rows[0].p if one_domain
                                                   else 0)
