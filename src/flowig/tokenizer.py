"""Closed-vocabulary tokenizer for serialized flows.

Feature names get one token each and values are split into digit-level
tokens, so every non-special token belongs to exactly one feature span and
attributions can be mapped back to features without heuristics.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationError, DataError
from .flow_data import FeatureSchema

PAD = "[PAD]"
CLS = "[CLS]"
SEP = "[SEP]"
IS = "[IS]"
SPECIALS = (PAD, CLS, SEP, IS)

# sign, digits, decimal point, exponent marker
NUMBER_TOKENS = tuple("0123456789") + (".", "e", "-", "+")


@dataclass(frozen=True)
class Vocab:
    id_of: dict[str, int]
    feature_names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.id_of)

    @property
    def pad_id(self) -> int:
        return self.id_of[PAD]

    @functools.cached_property
    def value_ids(self) -> np.ndarray:
        """Each ASCII character's number-token id, or -1 if it is none."""
        table = np.full(128, -1, np.int64)
        table[[ord(c) for c in NUMBER_TOKENS]] = [self.id_of[c] for c in NUMBER_TOKENS]
        return table


@dataclass(frozen=True, eq=False)
class TokenizedExample:
    """One `TokenBatch` row, unpadded; its value lengths fix its `feature_spans`."""
    ids: np.ndarray            # (n,) int64
    value_lengths: np.ndarray  # (features,) int64
    label: int | None = None   # the class index

    @property
    def attention_mask(self) -> tuple[int, ...]:
        """All ones: a row carries no padding."""
        return (1,) * len(self.ids)


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """Examples as one id matrix: row i is `ids[i, :lengths[i]]`, laid out
    as `tokenize` lays out one example, then PAD (id 0) up to the longest
    row. Feature f's value takes `value_lengths[i, f]` tokens, which fixes
    each feature's span; `labels` holds class indices, or is None."""
    ids: np.ndarray            # (N, L_max) int64
    lengths: np.ndarray        # (N,) int64
    value_lengths: np.ndarray  # (N, features) int64
    labels: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.lengths)

    def example(self, i: int) -> TokenizedExample:
        """Row i, unpadded: views into the batch's arrays."""
        return TokenizedExample(self.ids[i, :self.lengths[i]], self.value_lengths[i],
                                None if self.labels is None else int(self.labels[i]))


def feature_spans(value_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's [FEAT][IS][value...] span, as its start and its end
    (exclusive, at the feature's [SEP]), from value lengths (..., features):
    a span starts at 1 + the sum of 3 + v over the features before it and
    takes 2 + v tokens. A row's length is its last end + 1."""
    ends = np.cumsum(3 + value_lengths, axis=-1)
    return ends - 2 - value_lengths, ends


def build_vocab(schema: FeatureSchema) -> Vocab:
    id_of: dict[str, int] = {}
    for tok in SPECIALS:
        id_of[tok] = len(id_of)
    for name in schema.names:
        if name in id_of or name in NUMBER_TOKENS:  # a shared id would merge two tokens
            raise ConfigError(f"feature name collides with a reserved token: {name!r}")
        id_of[name] = len(id_of)
    for tok in NUMBER_TOKENS:
        id_of[tok] = len(id_of)
    return Vocab(id_of=id_of, feature_names=schema.names)


# rows checked and mapped to ids at a time, so that only one block's joined
# values and per-character arrays are alive at once
_BLOCK_ROWS = 1024


def _value_tokens(
    flows: list[tuple[str, ...]], first: int, vocab: Vocab, max_seq_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """The flows' value lengths (rows, features) and their value characters'
    ids in one array, rows in order; flow r here is flow `first + r` of the
    split."""
    names = vocab.feature_names
    d = len(names)
    r = next((r for r, flow in enumerate(flows) if len(flow) != d), None)
    if r is not None:
        raise DataError(f"flow {first + r} does not hold one value for each of the"
                        f" schema's {d} features")
    values = list(itertools.chain.from_iterable(flows))
    chars = np.frombuffer("".join(values).encode("utf-32-le", "surrogatepass"), "<u4")
    value_ids = vocab.value_ids[np.minimum(chars, 127)]
    if (value_ids < 0).any():
        raise DataError(f"value character {chr(chars[np.argmax(value_ids < 0)])!r}"
                        " not in vocabulary")
    value_lens = np.fromiter(map(len, values), np.int64, len(values)).reshape(-1, d)
    _, ends = feature_spans(value_lens)
    too_long = np.flatnonzero(ends[:, -1] + 1 > max_seq_len)
    if too_long.size:
        r = too_long[0]
        fi = int(np.argmax(ends[r] >= max_seq_len))  # its first [SEP] past the limit
        raise TruncationError(f"sequence of {ends[r, -1] + 1} tokens exceeds"
                              f" max_seq_len={max_seq_len} (first past it: feature {names[fi]!r})")
    return value_lens, value_ids.astype(np.min_scalar_type(vocab.size))


def tokenize_rows(
    flows: Iterable[tuple[str, ...]],
    vocab: Vocab,
    max_seq_len: int,
    labels: Iterable[int] | None = None,
) -> TokenBatch:
    """Every flow laid out as `tokenize` lays one out, in one padded batch.

    A flow is its formatted values, as `serialize` returns them for the
    schema that the vocabulary was built from. The flows are read in blocks
    of rows, and each block's characters are checked and mapped to ids in a
    few whole-array steps: its values are joined into one string and read
    as code points. A block is refused at its first flow that does not hold
    one value per feature, then at a value character that is not a number
    token, then at its first flow longer than `max_seq_len`; blocks are
    read in input order, so the first too-long flow is the one named.
    """
    names, id_of = vocab.feature_names, vocab.id_of
    flows = iter(flows)
    blocks = [_value_tokens(part, k * _BLOCK_ROWS, vocab, max_seq_len)
              for k, part in enumerate(iter(lambda: list(itertools.islice(flows, _BLOCK_ROWS)), []))]
    value_lens = np.concatenate([np.zeros((0, len(names)), np.int64), *(v for v, _ in blocks)])
    value_ids = np.concatenate([np.zeros(0, np.uint8), *(v for _, v in blocks)])
    del blocks

    n = len(value_lens)
    starts, ends = feature_spans(value_lens)  # each feature's name and [SEP] positions
    lengths = ends[:, -1] + 1
    ids = np.zeros((n, lengths.max(initial=0)), np.int64)
    at = np.arange(n)[:, None]
    ids[:, :1] = id_of[CLS]
    ids[at, starts] = [id_of[name] for name in names]
    ids[at, starts + 1] = id_of[IS]
    ids[at, ends] = id_of[SEP]
    # the positions still PAD before each row's end are its values', in order
    ids[(ids == 0) & (np.arange(ids.shape[1]) < lengths[:, None])] = value_ids
    if labels is not None:
        labels = np.fromiter(labels, np.int64, n)
    return TokenBatch(ids, lengths, value_lens, labels)


def tokenize(
    flow: tuple[str, ...],
    vocab: Vocab,
    max_seq_len: int,
    label: int | None = None,
) -> TokenizedExample:
    """[CLS] then per feature [FEAT][IS][value chars...][SEP], unpadded: row 0
    of `tokenize_rows`, so one flow and a split follow the same rules."""
    return tokenize_rows([flow], vocab, max_seq_len, None if label is None else [label]).example(0)


def reconstruct_values(example: TokenizedExample, vocab: Vocab) -> list[tuple[str, str]]:
    """Recover (feature name, formatted value string) per span; the round-trip check."""
    inverse = {tid: tok for tok, tid in vocab.id_of.items()}
    tokens = [inverse[t] for t in example.ids.tolist()]
    out = []
    for name, start, end in zip(vocab.feature_names, *feature_spans(example.value_lengths)):
        assert tokens[start] == name
        out.append((name, "".join(tokens[start + 2 : end])))
    return out
