"""Class-weighted cross-entropy training with seeded Adam and early stopping."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .encoder import EncoderConfig, Params
from .errors import ConfigError, DataError, NumericError, check_fields
from .evaluation import confusion, metrics
from .flow_data import CLASS_NAMES
from .tokenizer import TokenBatch

# Adam's moment decay rates and denominator epsilon
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "train ", {"epochs": 1, "batch_size": 1, "patience": 1})
        # JSON reads NaN and Infinity, which no comparison with 0 alone refuses
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"train learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_macro_f1: float
    val_accuracy: float


@dataclass
class TrainingLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_macro_f1: float = -1.0


def class_weights(
    counts: tuple[int, ...], clip: tuple[float, float] = (0.25, 10.0)
) -> tuple[float, ...]:
    """w_c proportional to 1/sqrt(n_c), mean-normalized to 1, then clipped."""
    arr = np.asarray(counts, dtype=np.float64)
    if (arr <= 0).any():
        missing = [CLASS_NAMES[i] for i in np.where(arr <= 0)[0]]
        raise DataError(f"class absent from training data: {', '.join(missing)}")
    inv = 1.0 / np.sqrt(arr)
    return tuple(float(v) for v in np.clip(inv / inv.mean(), *clip))


def _loss_rows(
    logits: np.ndarray, labels: np.ndarray, w: np.ndarray, batch_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's weighted CE and its rows of d(batch loss)/dlogits, where the
    batch loss is the mean of the CE over a batch of `batch_size` rows, of
    which these rows may be a chunk."""
    rows = np.arange(len(logits))
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logp = logits - lse
    wl = w[labels]
    grad = np.exp(logp) * wl[:, None]
    grad[rows, labels] -= wl
    return -(wl * logp[rows, labels]), grad / batch_size


def _rows(batch: TokenBatch, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids and mask of the batch's `rows`, cut to the longest of them,
    with the PAD id (0) and mask 0 past each row's end."""
    lengths = batch.lengths[rows]
    mask = (np.arange(lengths.max()) < lengths[:, None]).astype(np.float64)
    return batch.ids[rows, : mask.shape[1]], mask


def evaluate_examples(
    params: Params,
    config: EncoderConfig,
    batch: TokenBatch,
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode logits and predicted class indices (the argmax, ties to the
    lower index) for a batch's rows, labeled or not, in row order.

    Chunks are cut from the rows stably sorted by length, as many rows as
    the encoder's budget takes at a chunk's longest row (see
    `encoder.map_chunks`), so each chunk, cut to that row (see `_rows`),
    carries almost no padding.
    """
    order = np.argsort(batch.lengths, kind="stable")

    def chunk_logits(part):
        ids, mask = _rows(batch, order[part])
        return encoder.forward_batch(params, config, ids, mask)[0]

    logits = np.empty((len(batch), config.n_classes))
    parts = encoder.row_chunks(batch.lengths[order].tolist(), config.d_model)
    for part, chunk in encoder.map_chunks(chunk_logits, parts, config):
        logits[order[part]] = chunk
    return logits, logits.argmax(axis=1)


def _batch_grads(
    params: Params,
    config: EncoderConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    dropout: encoder.Dropout | None,
) -> tuple[float, Params]:
    """One batch's mean loss and parameter gradients, in encoder row chunks
    (see `encoder.map_chunks`). A chunk takes its rows of the batch's dlogits
    (divided by the batch's row count) and of its dropout masks and builds
    its own gradients, which are added here in chunk order, so the sum
    differs from one whole-batch call by rounding only."""
    B, L = ids.shape

    def chunk_grads(part):
        drop = None if dropout is None else [(a[part], f[part]) for a, f in dropout]
        logits, trace = encoder.forward_batch(params, config, ids[part], mask[part], drop)
        losses, dlogits = _loss_rows(logits, labels[part], w, B)
        return (losses, *encoder.backward(params, trace, dlogits))

    losses = np.empty(B)
    grads = encoder.zero_grads_like(params)
    parts = encoder.row_chunks([L] * B, config.d_model)
    for part, (chunk_losses, chunk, demb) in encoder.map_chunks(chunk_grads, parts, config):
        losses[part] = chunk_losses
        for k, g in chunk.items():
            grads[k] += g
        encoder.accumulate_embedding_grads(grads, ids[part], demb)
    return float(losses.mean()), grads


def train(
    params: Params,
    config: EncoderConfig,
    train_batch: TokenBatch,
    val_batch: TokenBatch,
    weights: tuple[float, ...],
    train_config: TrainConfig = TrainConfig(),
) -> tuple[Params, TrainingLog]:
    """Adam training; returns the checkpoint with best validation macro-F1.

    Class weights enter the loss only; validation metrics are unweighted.
    Each batch is cut to its longest row (see `_rows`).
    """
    if not train_batch:
        raise DataError("training split is empty")
    if not val_batch:
        raise DataError("validation split is empty")
    params = {k: v.copy() for k, v in params.items()}
    w_arr = np.asarray(weights)
    rng = np.random.default_rng(train_config.seed)
    m_state = encoder.zero_grads_like(params)
    v_state = encoder.zero_grads_like(params)
    keys = sorted(params)
    t = 0

    log = TrainingLog()
    best_params = {k: v.copy() for k, v in params.items()}
    since_best = 0

    n = len(train_batch)

    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n)
        dropout_rng = np.random.default_rng(
            np.random.SeedSequence([train_config.seed, epoch])
        )
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, train_config.batch_size):
            sel = order[start : start + train_config.batch_size]
            ids, mask = _rows(train_batch, sel)
            labels = train_batch.labels[sel]
            dropout = encoder.dropout_masks(dropout_rng, config, *ids.shape)
            loss, grads = _batch_grads(params, config, ids, mask, labels, w_arr, dropout)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}"
                )
            t += 1
            lr = train_config.learning_rate
            for k in keys:
                g = grads[k]
                m_state[k] = _BETA1 * m_state[k] + (1 - _BETA1) * g
                v_state[k] = _BETA2 * v_state[k] + (1 - _BETA2) * g * g
                mhat = m_state[k] / (1 - _BETA1**t)
                vhat = v_state[k] / (1 - _BETA2**t)
                params[k] -= lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)
            epoch_loss += loss
            n_batches += 1

        _, preds = evaluate_examples(params, config, val_batch)
        report = metrics(confusion(preds, val_batch.labels))
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / max(n_batches, 1),
            val_macro_f1=report.macro_f1,
            val_accuracy=report.accuracy,
        )
        log.epochs.append(record)

        if report.macro_f1 > log.best_val_macro_f1:
            log.best_val_macro_f1 = report.macro_f1
            log.best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_config.patience:
                break

    return best_params, log
