"""Closed-vocabulary tokenizer for serialized flows.

Feature names get one token each and values are split into digit-level
tokens, so every non-special token belongs to exactly one feature span and
attributions can be mapped back to features without heuristics.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, TruncationError, DataError
from .flow_data import CoarseLabel, FeatureSchema
from .textualize import TextFlow, clause_prefixes

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


@dataclass(frozen=True)
class TokenizedExample:
    ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    # (feature_index, tok_start, tok_end) end exclusive; covers [FEAT][IS][value...]
    feature_token_spans: tuple[tuple[int, int, int], ...]
    label: CoarseLabel | None = None


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


def tokenize(
    flow: TextFlow,
    vocab: Vocab,
    max_seq_len: int,
    label: CoarseLabel | None = None,
) -> TokenizedExample:
    """[CLS] then per feature [FEAT][IS][value chars...][SEP], unpadded;
    batches are padded where they are built (`training._stack`)."""
    id_of = vocab.id_of
    is_id, sep_id = id_of[IS], id_of[SEP]
    prefixes = clause_prefixes(vocab.feature_names)
    ids = [id_of[CLS]]
    spans = []
    for fi, clause in enumerate(flow.clauses):
        name, prefix = vocab.feature_names[fi], prefixes[fi]
        if not clause.startswith(prefix):
            raise DataError(f"span {fi} does not match schema feature {name!r}")
        tok_start = len(ids)
        ids += (id_of[name], is_id)
        try:
            ids += map(id_of.__getitem__, clause[len(prefix):])
        except KeyError as e:
            raise DataError(f"value character {e.args[0]!r} not in vocabulary") from None
        spans.append((fi, tok_start, len(ids)))
        ids.append(sep_id)
    if len(ids) > max_seq_len:
        fi = next(fi for fi, _, end in spans if end >= max_seq_len)  # first [SEP] past it
        raise TruncationError(f"sequence of {len(ids)} tokens exceeds max_seq_len={max_seq_len}"
                              f" (first past it: feature {vocab.feature_names[fi]!r})")
    return TokenizedExample(
        ids=tuple(ids),
        attention_mask=(1,) * len(ids),
        feature_token_spans=tuple(spans),
        label=label,
    )


def reconstruct_values(example: TokenizedExample, vocab: Vocab) -> list[tuple[str, str]]:
    """Recover (feature name, formatted value string) per span; the round-trip check."""
    inverse = {tid: tok for tok, tid in vocab.id_of.items()}
    out = []
    for fi, start, end in example.feature_token_spans:
        name = inverse[example.ids[start]]
        value = "".join(inverse[t] for t in example.ids[start + 2 : end])
        assert name == vocab.feature_names[fi]
        out.append((name, value))
    return out
