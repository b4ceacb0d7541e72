"""Examples in memory and on disk: the ``Example`` row, the columnar
``Dataset``, the dataset text format, atomic file writes and the id checks
against a model config's vocabularies.

The text format holds one example per line,

    p<TAB>y<TAB>behavior:id,id,...<TAB>profile:id<TAB>item:id<TAB>ctx:id

``write_dataset`` writes it and ``read_dataset`` reads it back as columns.
The id checks (``validate_ids``, ``check_rows``, ``clean_domain``) take any
config with the vocabulary and domain counts of a ``config.ModelConfig``.
``first_outside`` is the one range check of ids and domains: they, the
embedding tables and ``model.Batch`` all find their offender through it.
"""

from __future__ import annotations

import io
import os
import re
from contextlib import contextmanager
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParseError

FIELDS = ("behavior", "profile", "item", "context")


class Example(NamedTuple):
    behavior: tuple[int, ...]
    profile: int
    item: int
    context: int
    y: int
    p: int


class Dataset:
    """Examples as columns: behavior lists in CSR form, one array per field.

    Row ``i``'s behavior ids are
    ``behavior_flat[behavior_offsets[i]:behavior_offsets[i + 1]]``; the
    other fields hold one int64 per row.  Indexing with an int yields an
    ``Example``, iteration yields every row as one, and any other key (a
    slice, a boolean mask, an index array) gathers a new ``Dataset`` of the
    rows numpy's indexing of ``arange(len)`` picks.
    """

    __slots__ = ("behavior_flat", "behavior_offsets", "profile", "item",
                 "context", "y", "p")

    def __init__(self, behavior_flat, behavior_offsets, profile, item,
                 context, y, p):
        self.behavior_flat = behavior_flat
        self.behavior_offsets = behavior_offsets
        self.profile = profile
        self.item = item
        self.context = context
        self.y = y
        self.p = p

    @classmethod
    def from_examples(cls, rows: list[Example]) -> "Dataset":
        """The columns of ``Example`` rows (see ``example_columns``)."""
        return cls.from_columns(*example_columns(rows))

    @classmethod
    def from_columns(cls, behavior_flat: np.ndarray, counts: np.ndarray,
                     scalars: np.ndarray) -> "Dataset":
        """The Dataset of ``example_columns`` output; its scalar columns
        are views of the rows of ``scalars``."""
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(behavior_flat, offsets, *scalars)

    def __len__(self) -> int:
        return self.p.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            lo, hi = self.behavior_offsets[i:i + 2].tolist()
            return Example(tuple(self.behavior_flat[lo:hi].tolist()),
                           int(self.profile[i]), int(self.item[i]),
                           int(self.context[i]), int(self.y[i]),
                           int(self.p[i]))
        return self.take(np.arange(len(self))[key])

    def __iter__(self):
        flat = self.behavior_flat.tolist()
        offsets = self.behavior_offsets.tolist()
        columns = zip(self.profile.tolist(), self.item.tolist(),
                      self.context.tolist(),
                      self.y.astype(np.int64, copy=False).tolist(),
                      self.p.tolist())
        for lo, hi, row in zip(offsets, offsets[1:], columns):
            yield Example(tuple(flat[lo:hi]), *row)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in Dataset.__slots__)

    __hash__ = None

    def take(self, rows) -> "Dataset":
        """Gather the given rows, in the given order, into a new Dataset."""
        rows = np.asarray(rows, dtype=np.int64)
        flat_rows, offsets = _flat_rows(self.behavior_offsets, rows)
        return Dataset(self.behavior_flat[flat_rows], offsets,
                       self.profile[rows], self.item[rows],
                       self.context[rows], self.y[rows], self.p[rows])

    def row_range(self, start: int, stop: int) -> "Dataset":
        """Rows ``start:stop`` as views of these columns; only the offsets
        are new."""
        offsets = self.behavior_offsets[start:stop + 1]
        return Dataset(self.behavior_flat[offsets[0]:offsets[-1]],
                       offsets - offsets[0], self.profile[start:stop],
                       self.item[start:stop], self.context[start:stop],
                       self.y[start:stop], self.p[start:stop])


def example_columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transpose ``Example`` rows into int64 id columns, one pass per field:
    the one place where rows become columns.

    Returns ``(behavior_flat, counts, scalars)``: every row's behavior ids
    in row order, each row's number of them, and a ``(5, len(rows))``
    block whose rows are the profile, item, context, y and p columns
    (``Example._fields[1:]``)."""
    if not rows:
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros((5, 0), dtype=np.int64)
    behavior, *scalars = zip(*rows)
    counts = np.fromiter(map(len, behavior), dtype=np.int64, count=len(rows))
    flat = np.fromiter(chain.from_iterable(behavior), dtype=np.int64)
    return flat, counts, np.array(scalars, dtype=np.int64)


def _flat_rows(offsets: np.ndarray, rows: np.ndarray):
    """Where the behavior ids of ``rows``, in that order, sit in a flat CSR
    array with ``offsets``; and the offsets of the gathered lists."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    gathered = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=gathered[1:])
    flat_rows = np.repeat(starts - gathered[:-1], lens)
    flat_rows += np.arange(gathered[-1], dtype=np.int64)
    return flat_rows, gathered


def format_example(ex: Example) -> str:
    beh = ",".join(str(b) for b in ex.behavior)
    return (f"{ex.p}\t{ex.y}\tbehavior:{beh}\tprofile:{ex.profile}"
            f"\titem:{ex.item}\tctx:{ex.context}")


# Every line holds the tokens p, y, behavior ids..., profile, item, ctx.  The
# reader and the writer move between these tokens and the Dataset columns.
_SCALAR_COLUMNS = ("p", "y", "profile", "item", "context")


def _token_layout(lens: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Token positions of each line's scalar fields (in ``_SCALAR_COLUMNS``
    order), and a mask of the tokens that are behavior ids."""
    end = np.cumsum(lens + 5)
    start = end - (lens + 5)
    slots = (start, start + 1, end - 3, end - 2, end - 1)
    is_behavior = np.ones(int(end[-1]) if end.size else 0, dtype=bool)
    for pos in slots:
        is_behavior[pos] = False
    return slots, is_behavior


# The text written before each scalar token, in ``_SCALAR_COLUMNS`` order;
# "\tbehavior:" follows y, and "," separates behavior ids.  A line's leading
# "\n" ends the previous line; the writer drops the first and adds a last.
_SCALAR_PREFIXES = (b"\n", b"\t", b"\tprofile:", b"\titem:", b"\tctx:")
_BEHAVIOR_TAG = b"\tbehavior:"
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.uint64)
_WRITE_ROWS = 16_384


def _put(out: np.ndarray, at: np.ndarray, text: bytes):
    """Write ``text`` into ``out`` at each of the positions ``at``."""
    for j, byte in enumerate(text):
        out[at + j] = byte


def _format_lines(data: Dataset) -> bytes:
    """The text lines of ``data`` (non-empty), built as one byte array."""
    lens = np.diff(data.behavior_offsets)
    slots, is_behavior = _token_layout(lens)
    digits = np.empty(is_behavior.size, dtype=np.int64)
    width = np.ones(digits.size, dtype=np.int64)    # "," or a prefix
    for name, pos, text in zip(_SCALAR_COLUMNS, slots, _SCALAR_PREFIXES):
        digits[pos] = getattr(data, name)
        width[pos] = len(text)
    digits[is_behavior] = data.behavior_flat
    # The tag comes before the token after y: the profile, or a first
    # behavior id, whose "," it replaces.
    width[slots[1] + 1] += len(_BEHAVIOR_TAG) - (lens > 0)
    negative = digits < 0
    # Unsigned, so the magnitude of -2**63 is 2**63.
    digits = np.abs(digits, out=digits).view(np.uint64)
    ndigits = np.ones(digits.size, dtype=np.int64)
    for power in _POWERS_OF_TEN:
        longer = digits >= power
        if not longer.any():
            break
        ndigits += longer
    width += negative
    width += ndigits
    end = np.cumsum(width)
    first = end - ndigits    # each token's first digit
    # Every byte left as "," lies between two behavior ids.
    out = np.full(int(end[-1]) + 1, ord(","), dtype=np.uint8)
    for pos, text in zip(slots, _SCALAR_PREFIXES):
        _put(out, first[pos] - negative[pos] - len(text), text)
    _put(out, end[slots[1]], _BEHAVIOR_TAG)
    out[first[negative] - 1] = ord("-")
    # Digit d of every token, counted from its last digit, written for the
    # largest d first.  A token with fewer than d + 1 digits writes its
    # digit d, a "0", at its first digit (the clamp), where its leading
    # digit, written later, replaces it.
    chars = []
    for _ in range(int(ndigits.max())):
        quotient = digits // 10
        chars.append((digits - 10 * quotient).astype(np.uint8))
        digits = quotient
    for d in reversed(range(len(chars))):
        chars[d] += ord("0")
        out[np.maximum(end - (d + 1), first)] = chars[d]
    out[-1] = ord("\n")
    return out[1:].tobytes()


@contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write ``<path>.tmp`` and rename it to ``path``; if the block raises,
    remove it and leave ``path`` as it was.  Every output goes through here."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_atomic(path: str, raw: bytes):
    with atomic_open(path) as fh:
        fh.write(raw)


def write_dataset(data: Dataset, path: str):
    with atomic_open(path) as fh:
        for start in range(0, len(data), _WRITE_ROWS):
            fh.write(_format_lines(data.row_range(start, start + _WRITE_ROWS)))


def _parse_tagged(part: str, tag: str, lineno: int) -> str:
    prefix = tag + ":"
    if not part.startswith(prefix):
        raise ParseError(f"expected '{tag}:' field, got {part!r}", lineno)
    return part[len(prefix):]


def parse_example(line: str, lineno: int = 0) -> Example:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ParseError(f"expected 6 tab-separated fields, got {len(parts)}",
                         lineno)
    try:
        p = int(parts[0])
        y = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad domain/label: {exc}", lineno) from None
    if p < 1:
        raise ParseError(f"domain {p} invalid: domains are 1-based", lineno)
    if y not in (0, 1):
        raise ParseError(f"label {y} outside {{0, 1}}", lineno)
    beh_raw = _parse_tagged(parts[2], "behavior", lineno)
    try:
        behavior = tuple(int(t) for t in beh_raw.split(",")) if beh_raw else ()
        profile = int(_parse_tagged(parts[3], "profile", lineno))
        item = int(_parse_tagged(parts[4], "item", lineno))
        context = int(_parse_tagged(parts[5], "ctx", lineno))
    except ValueError as exc:
        raise ParseError(f"bad id: {exc}", lineno) from None
    return Example(behavior, profile, item, context, y, p)


# Lines exactly as write_dataset formats them, with values parse_example
# accepts and numbers that fit in int64.  Runs of such lines are parsed as
# arrays; every other line goes through parse_example.
_CANONICAL_LINE = (rb"[1-9]\d{0,17}\t[01]\tbehavior:(?:\d{1,18}(?:,\d{1,18})*)?"
                   rb"\tprofile:\d{1,18}\titem:\d{1,18}\tctx:\d{1,18}\n")
# Possessive: a run never gives lines back, so ``re`` keeps no backtracking
# state per line matched.
_CANONICAL_RUN = re.compile(rb"(?:" + _CANONICAL_LINE + rb")*+")
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))
_READ_BYTES = 1 << 20
_INT64 = range(-2 ** 63, 2 ** 63)


def _parse_canonical(buf: bytes) -> Dataset:
    """Columns of a run of canonical lines."""
    text = np.frombuffer(buf, dtype=np.uint8)
    line_ends = np.flatnonzero(text == ord("\n"))
    commas = np.searchsorted(np.flatnonzero(text == ord(",")), line_ends)
    behavior_tags = np.flatnonzero(text == ord(":"))[0::4]
    lens = np.diff(commas, prepend=0) + (text[behavior_tags + 1] != ord("\t"))
    tokens = np.fromstring(buf.translate(_DIGITS_ONLY), dtype=np.int64,
                           sep=" ")
    slots, is_behavior = _token_layout(lens)
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    p, y, profile, item, context = (tokens[pos] for pos in slots)
    return Dataset(tokens[is_behavior], offsets, profile, item, context, y, p)


def _parse_other(raw: bytes, lineno: int, rows: list[Example]) -> int:
    """Parse one non-canonical line the way a text-mode read sees it (it may
    hold several lines split at a bare CR); returns the last line number."""
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ParseError("non-ASCII byte", lineno + 1) from None
    for line in io.StringIO(text, newline=None):
        lineno += 1
        if not line.strip():
            continue
        ex = parse_example(line, lineno)
        if not all(v in _INT64 for v in (*ex.behavior, ex.profile, ex.item,
                                         ex.context, ex.p)):
            raise ParseError("id or domain outside the 64-bit integer range",
                             lineno)
        rows.append(ex)
    return lineno


def _concat(pieces: list[Dataset]) -> Dataset:
    if not pieces:
        return Dataset.from_examples([])
    shifts = np.cumsum([0] + [piece.behavior_flat.size for piece in pieces])
    offsets = [pieces[0].behavior_offsets[:1]] + [
        piece.behavior_offsets[1:] + shift
        for piece, shift in zip(pieces, shifts)
    ]
    return Dataset(np.concatenate([piece.behavior_flat for piece in pieces]),
                   np.concatenate(offsets),
                   *(np.concatenate([getattr(piece, name) for piece in pieces])
                     for name in ("profile", "item", "context", "y", "p")))


def read_dataset(path: str) -> Dataset:
    """Read a dataset file, about 1 MB of text at a time.

    Blank lines are skipped; a malformed line raises ParseError with its
    1-based line number.  Memory stays near the size of the columns.
    """
    pieces: list[Dataset] = []
    others: list[Example] = []
    lineno = 0
    tail = b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_READ_BYTES)
            buf = tail + block
            if not block and buf and not buf.endswith(b"\n"):
                buf += b"\n"
            cut = buf.rfind(b"\n") + 1
            buf, tail = buf[:cut], buf[cut:]
            pos = 0
            while pos < len(buf):
                end = _CANONICAL_RUN.match(buf, pos).end()
                if end > pos:
                    if others:
                        pieces.append(Dataset.from_examples(others))
                        others = []
                    pieces.append(_parse_canonical(buf[pos:end]))
                    lineno += len(pieces[-1])
                if end == len(buf):
                    break
                pos = buf.index(b"\n", end) + 1
                lineno = _parse_other(buf[end:pos], lineno, others)
            if not block:
                break
    if others:
        pieces.append(Dataset.from_examples(others))
    return _concat(pieces)


def validate_ids(data: Dataset, config):
    """Raise DataError naming the first example (1-based) whose ids fall
    outside the vocabularies of the model config ``config``, and its first
    such id (a behavior id counts as an item id, after the row's item id).
    Clean data costs one min and one max per column."""
    vocabs = (("item", config.vocab_items), ("profile", config.vocab_profiles),
              ("context", config.vocab_contexts))
    bad_rows = [first_outside(getattr(data, name), 0, vocab)
                for name, vocab in vocabs]
    j = first_outside(data.behavior_flat, 0, config.vocab_items)
    if j >= 0:
        bad_rows.append(int(np.searchsorted(data.behavior_offsets, j,
                                            side="right")) - 1)
    i = min((r for r in bad_rows if r >= 0), default=-1)
    if i < 0:
        return
    lo, hi = data.behavior_offsets[i:i + 2]
    row = {"item": [data.item[i], *data.behavior_flat[lo:hi]],
           "profile": [data.profile[i]], "context": [data.context[i]]}
    for name, vocab in vocabs:
        bad = [int(v) for v in row[name] if not 0 <= v < vocab]
        if bad:
            raise DataError(f"example {i + 1}: {name} id outside "
                            f"vocab: {bad[0]} not in [0, {vocab})")


def check_rows(data: Dataset, config):
    """Raise DataError naming the first example (1-based) whose ids fall
    outside the vocabularies of the model config ``config``, or whose
    domain is outside ``1..config.num_domains``."""
    validate_ids(data, config)
    i = first_outside(data.p, 1, config.num_domains + 1)
    if i >= 0:
        raise DataError(f"example {i + 1}: unknown domain {data.p[i]} "
                        f"(model serves 1..{config.num_domains})")


def clean_domain(behavior_flat: np.ndarray, scalars: np.ndarray,
                 config) -> int:
    """The domain of the non-empty ``example_columns`` output
    ``(behavior_flat, _, scalars)`` when ``check_rows`` would accept it
    and all its rows share that domain; 0 otherwise.  One min and one max
    per column, and no mask."""
    low = scalars.min(axis=1).tolist()
    high = scalars.max(axis=1).tolist()
    p = low[4]
    vocabs = (config.vocab_profiles, config.vocab_items, config.vocab_contexts)
    if (p == high[4] and 1 <= p <= config.num_domains and min(low[:3]) >= 0
            and all(h < v for h, v in zip(high, vocabs))
            and first_outside(behavior_flat, 0, config.vocab_items) < 0):
        return p
    return 0


def first_outside(ids: np.ndarray, low: int, high: int) -> int:
    """The index of the first id outside ``[low, high)``, or -1.  Ids all
    inside cost one min and one max (none for an empty array); the mask is
    built only to find the offender."""
    if ids.size == 0 or (low <= ids.min() and ids.max() < high):
        return -1
    return int(np.argmax((ids < low) | (ids >= high)))
