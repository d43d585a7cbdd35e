"""Small encoder-only transformer with exact analytical gradients.

Everything runs in float64 numpy so finite-difference checks and the
attribution completeness identity are meaningful. Two attention variants:
standard scaled dot-product with absolute position embeddings, and a
disentangled variant that scores content-content, content-position and
position-content terms over clipped relative distances.

Every function takes and returns batched (B, ...) arrays; the batch
dimension is also how integration-path gradient evaluations are vectorized.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericError
from .tokenizer import TokenizedExample

ABSOLUTE = "absolute"
DISENTANGLED = "disentangled"

_LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    max_seq_len: int = 256
    layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_ff: int = 128
    n_classes: int = 3
    attention_variant: str = ABSOLUTE
    rel_window: int = 16
    dropout_rate: float = 0.1
    use_final_norm: bool = True
    seed: int = 0

    def __post_init__(self):
        lows = {"vocab_size": 1, "max_seq_len": 1, "layers": 0, "heads": 1,
                "d_model": 1, "d_ff": 1, "rel_window": 0}
        for name, low in lows.items():
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"encoder {name} must be >= {low}, got {value}")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by heads={self.heads}"
            )
        if self.n_classes != 3:
            raise ConfigError("the classification head is fixed at 3 classes")
        if self.attention_variant not in (ABSOLUTE, DISENTANGLED):
            raise ConfigError(f"unknown attention variant {self.attention_variant!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def rel_size(self) -> int:
        return 2 * self.rel_window + 1


Params = dict[str, np.ndarray]


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization order."""
    D, F, C = config.d_model, config.d_ff, config.n_classes
    shapes = {"tok_emb": (config.vocab_size, D)}
    if config.attention_variant == ABSOLUTE:
        shapes["pos_emb"] = (config.max_seq_len, D)
    else:
        shapes["rel_emb"] = (config.rel_size, D)
    for i in range(config.layers):
        pre = f"layers.{i}."
        shapes[pre + "ln1.g"] = shapes[pre + "ln1.b"] = (D,)
        shapes.update({pre + "attn." + name: (D, D) for name in ("wq", "wk", "wv", "wo")})
        shapes.update({pre + "attn." + name: (D,) for name in ("bq", "bk", "bv", "bo")})
        shapes[pre + "ln2.g"] = shapes[pre + "ln2.b"] = (D,)
        shapes[pre + "ffn.w1"], shapes[pre + "ffn.b1"] = (D, F), (F,)
        shapes[pre + "ffn.w2"], shapes[pre + "ffn.b2"] = (F, D), (D,)
    shapes["ln_f.g"] = shapes["ln_f.b"] = (D,)
    shapes["head.w"], shapes["head.b"] = (D, C), (C,)
    return shapes


def init_params(config: EncoderConfig) -> Params:
    """Seeded init: matrices ~ N(0, 1/fan_in), classifier zeroed for uniform logits.

    The fan-in of an embedding table is d_model, of a weight matrix its row
    count; layer-norm gains start at 1 and every bias at 0.
    """
    rng = np.random.default_rng(config.seed)
    p: Params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            p[name] = np.ones(shape)
        elif len(shape) == 1 or name == "head.w":
            p[name] = np.zeros(shape)
        else:
            fan_in = shape[1] if name.endswith("_emb") else shape[0]
            p[name] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)
    return p


def zero_grads_like(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# primitive layers

def _ln_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * ivar
    return g * xhat + b, (xhat, ivar, g)


def _ln_backward(dy, cache):
    xhat, ivar, g = cache
    dxhat = dy * g
    return ivar * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def _ln_param_grads(grads: Params, prefix: str, dy, cache) -> None:
    xhat = cache[0]
    axes = tuple(range(dy.ndim - 1))
    grads[prefix + "g"] += (dy * xhat).sum(axis=axes)
    grads[prefix + "b"] += dy.sum(axis=axes)


def _gelu_forward(a):
    phi = 0.5 * (1.0 + erf(a * _INV_SQRT2))
    return a * phi, phi


def _gelu_backward(da_out, a, phi):
    return da_out * (phi + a * np.exp(-0.5 * a * a) * _INV_SQRT2PI)


def _split_heads(x, heads):
    B, L, D = x.shape
    return x.reshape(B, L, heads, D // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, H * dh)


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over batch and sequence of outer products: (B,L,D),(B,L,E) -> (D,E)."""
    B, L, D = a.shape
    return a.reshape(B * L, D).T @ b.reshape(B * L, -1)


@functools.lru_cache(maxsize=4)
def _rel_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rel_idx (n, n) and its one-hot (n, n, 2k+1); rel_idx depends
    only on i - j, so the tables for any L <= n are their [:L, :L] slices."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    idx = np.clip(i - j, -k, k) + k
    onehot = np.zeros((n, n, 2 * k + 1))
    onehot[i, j, idx] = 1.0
    idx.setflags(write=False)
    onehot.setflags(write=False)
    return idx, onehot


def attention_scores_disentangled(q, k_content, qr, kr, rel_idx):
    """Disentangled attention logits for one batch of heads.

    q: (B, H, Lq, dh), the first Lq <= L query rows; k_content: (B, H, L, dh);
    qr, kr: (H, R, dh) projected relative-position embeddings; rel_idx (L, L)
    indexes the clipped relative distance from query i to key j. Scale is
    1/sqrt(3*dh) because three score terms are summed.
    """
    B, H, Lq, dh = q.shape
    L, R = k_content.shape[2], kr.shape[1]
    scores = q @ k_content.swapaxes(-1, -2)
    qkr = (q @ kr.swapaxes(-1, -2)).reshape(B * H, Lq * R)  # broadcasts over the batch
    kqr = (k_content @ qr.swapaxes(-1, -2)).reshape(B * H, L * R)
    # flat[i, j] = i*R + rel_idx[i, j] picks qkr[b, h, i, rel_idx[i, j]] (c2p);
    # its transpose picks kqr[b, h, j, rel_idx[j, i]] (p2c)
    flat = np.arange(L)[:, None] * R + rel_idx
    scores += np.take(qkr, flat[:Lq], axis=1).reshape(B, H, Lq, L)
    scores += np.take(kqr, flat.T[:Lq], axis=1).reshape(B, H, Lq, L)
    scores /= math.sqrt(3.0 * dh)
    return scores


def _key_mask_bias(mask):
    """Additive score bias (B, 1, 1, L) from a (B, L) key mask: 0 = attend, -inf = not."""
    return np.where(mask[:, None, None, :] > 0, 0.0, -np.inf)


def _masked_softmax(scores, bias):
    # a row with an attended key (CLS always is) has a finite max, so the
    # -inf entries of masked keys exponentiate to exactly 0
    s = scores + bias
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


@dataclass
class ForwardTrace:
    config: EncoderConfig
    mask: np.ndarray                 # (B, L)
    layer_caches: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    logits: np.ndarray | None = None


def _check_finite(x, where: str):
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values produced in {where}")


def forward_from_embeddings(
    params: Params,
    config: EncoderConfig,
    embeddings: np.ndarray,
    attention_mask: np.ndarray,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Pre-norm encoder stack from raw embeddings to class logits.

    Takes (B, L, D) embeddings and a (B, L) mask with L <= max_seq_len and
    returns (B, 3) logits. A sequence shorter than max_seq_len runs as the
    first L positions, so trailing padding can be trimmed off.

    The head reads only the CLS position, so the last layer computes keys
    and values at every position but its queries, attention row, FFN and
    the final norm at position 0 alone.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    mask = np.asarray(attention_mask, dtype=np.float64)
    if (x.ndim != 3 or mask.shape != x.shape[:2]
            or x.shape[1] > config.max_seq_len or x.shape[2] != config.d_model):
        raise ConfigError(
            f"embedding shape {x.shape} with mask shape {mask.shape} does not fit"
            f" max_seq_len={config.max_seq_len}, d_model={config.d_model}"
        )
    B, L, D = x.shape
    if training and config.dropout_rate > 0 and dropout_rng is None:
        raise ConfigError("training-mode forward with dropout requires dropout_rng")

    trace = ForwardTrace(config, mask)
    H, dh = config.heads, config.d_head
    keep = 1.0 - config.dropout_rate
    bias = _key_mask_bias(mask)
    if config.attention_variant == DISENTANGLED:
        rel_idx = _rel_tables(config.max_seq_len, config.rel_window)[0][:L, :L]
    # dropout masks are drawn at full length and sliced, so a trimmed batch
    # consumes the same random stream as its padded form
    drop_shape = (B, config.max_seq_len, D)

    for li in range(config.layers):
        pre = f"layers.{li}."
        Lq = 1 if li == config.layers - 1 else L  # query rows this layer computes
        cache: dict = {"pre": pre}
        h1, cache["ln1"] = _ln_forward(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        cache["h1"] = h1
        q = _split_heads(h1[:, :Lq] @ params[pre + "attn.wq"] + params[pre + "attn.bq"], H)
        k = _split_heads(h1 @ params[pre + "attn.wk"] + params[pre + "attn.bk"], H)
        v = _split_heads(h1 @ params[pre + "attn.wv"] + params[pre + "attn.bv"], H)
        cache["q"], cache["k"], cache["v"] = q, k, v
        if config.attention_variant == DISENTANGLED:
            rel = params["rel_emb"]
            # no bias on the positional projections so a zero table ablates cleanly
            kr = (rel @ params[pre + "attn.wk"]).reshape(config.rel_size, H, dh).transpose(1, 0, 2)
            qr = (rel @ params[pre + "attn.wq"]).reshape(config.rel_size, H, dh).transpose(1, 0, 2)
            cache["kr"], cache["qr"] = kr, qr
            scores = attention_scores_disentangled(q, k, qr, kr, rel_idx)
        else:
            scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(dh)
        attn = _masked_softmax(scores, bias)
        cache["attn"] = attn
        o = _merge_heads(attn @ v)
        cache["o"] = o
        out = o @ params[pre + "attn.wo"] + params[pre + "attn.bo"]
        if training and config.dropout_rate > 0:
            dm = (dropout_rng.random(drop_shape)[:, :Lq] >= config.dropout_rate) / keep
            cache["attn_drop"] = dm
            out = out * dm
        x = x[:, :Lq] + out
        h2, cache["ln2"] = _ln_forward(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        cache["h2"] = h2
        a = h2 @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"]
        g, phi = _gelu_forward(a)
        cache["a"], cache["phi"], cache["g"] = a, phi, g
        y = g @ params[pre + "ffn.w2"] + params[pre + "ffn.b2"]
        if training and config.dropout_rate > 0:
            dm = (dropout_rng.random(drop_shape)[:, :Lq] >= config.dropout_rate) / keep
            cache["ffn_drop"] = dm
            y = y * dm
        x = x + y
        _check_finite(x, f"encoder layer {li}")
        trace.layer_caches.append(cache)

    x = x[:, :1]  # only the CLS row reaches the head
    if config.use_final_norm:
        hf, trace.final["ln_f"] = _ln_forward(x, params["ln_f.g"], params["ln_f.b"])
    else:
        hf = x
    trace.final["cls"] = hf[:, 0, :]
    logits = trace.final["cls"] @ params["head.w"] + params["head.b"]
    _check_finite(logits, "classification head")
    trace.logits = logits
    return logits, trace


def embed(params: Params, config: EncoderConfig, example: TokenizedExample) -> np.ndarray:
    """One example's (L, D) embeddings."""
    return embed_ids(params, config, np.array([example.ids], dtype=np.int64))[0]


def embed_ids(params: Params, config: EncoderConfig, ids: np.ndarray) -> np.ndarray:
    """Token embedding lookup for an id batch (B, L); absolute positions added here."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ConfigError("token id out of vocabulary range")
    x = params["tok_emb"][ids]
    if config.attention_variant == ABSOLUTE:
        x = x + params["pos_emb"][None, : ids.shape[1], :]
    return x


def forward(
    params: Params,
    config: EncoderConfig,
    example: TokenizedExample,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """One example as a batch of one: logits (1, 3)."""
    ids = np.array([example.ids], dtype=np.int64)
    mask = np.array([example.attention_mask], dtype=np.float64)
    return forward_batch(params, config, ids, mask, training, dropout_rng)


def forward_batch(
    params: Params,
    config: EncoderConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    emb = embed_ids(params, config, ids)
    return forward_from_embeddings(params, config, emb, mask, training, dropout_rng)


def backward(
    params: Params,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    param_grads: bool = True,
) -> tuple[Params | None, np.ndarray]:
    """Exact reverse-mode gradients for all parameters and the input embeddings.

    With param_grads=False only the embedding gradient is built and the
    parameter gradients come back as None; the embedding gradient is
    bit-identical either way.
    """
    config = trace.config
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != trace.logits.shape:
        raise ConfigError(
            f"dlogits shape {dlogits.shape} does not match logits {trace.logits.shape}"
        )
    grads = zero_grads_like(params) if param_grads else None
    H, dh = config.heads, config.d_head
    B, L = trace.mask.shape

    if grads is not None:
        grads["head.w"] += trace.final["cls"].T @ dlogits
        grads["head.b"] += dlogits.sum(axis=0)
    dhf = (dlogits @ params["head.w"].T)[:, None, :]  # (B, 1, D): the CLS row
    if config.use_final_norm:
        dx = _ln_backward(dhf, trace.final["ln_f"])
        if grads is not None:
            _ln_param_grads(grads, "ln_f.", dhf, trace.final["ln_f"])
    else:
        dx = dhf

    for cache in reversed(trace.layer_caches):
        pre = cache["pre"]
        # FFN block
        dy = dx * cache["ffn_drop"] if "ffn_drop" in cache else dx
        if grads is not None:
            grads[pre + "ffn.w2"] += _sum_outer(cache["g"], dy)
            grads[pre + "ffn.b2"] += dy.sum(axis=(0, 1))
        dg_act = dy @ params[pre + "ffn.w2"].T
        da = _gelu_backward(dg_act, cache["a"], cache["phi"])
        if grads is not None:
            grads[pre + "ffn.w1"] += _sum_outer(cache["h2"], da)
            grads[pre + "ffn.b1"] += da.sum(axis=(0, 1))
        dh2 = da @ params[pre + "ffn.w1"].T
        dx2 = _ln_backward(dh2, cache["ln2"])
        if grads is not None:
            _ln_param_grads(grads, pre + "ln2.", dh2, cache["ln2"])
        dx = dx + dx2  # residual

        # attention block
        dout = dx * cache["attn_drop"] if "attn_drop" in cache else dx
        if grads is not None:
            grads[pre + "attn.wo"] += _sum_outer(cache["o"], dout)
            grads[pre + "attn.bo"] += dout.sum(axis=(0, 1))
        do = dout @ params[pre + "attn.wo"].T
        do_h = _split_heads(do, H)
        attn, v = cache["attn"], cache["v"]
        dattn = do_h @ v.swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ do_h
        # softmax backward; masked columns have attn == 0 so their dscores vanish
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))

        q, k = cache["q"], cache["k"]
        Lq = q.shape[2]
        if config.attention_variant == DISENTANGLED:
            scale = 1.0 / math.sqrt(3.0 * dh)
            ds = dscores * scale
            kr, qr = cache["kr"], cache["qr"]
            onehot = _rel_tables(config.max_seq_len, config.rel_window)[1][:L, :L]
            dq = ds @ k
            dk = ds.swapaxes(-1, -2) @ q
            # content-to-position: score += q[i] . kr[rel(i,j)]
            dqkr = (ds.transpose(2, 0, 1, 3).reshape(Lq, B * H, L) @ onehot[:Lq])
            dqkr = dqkr.reshape(Lq, B, H, -1).transpose(1, 2, 0, 3)  # (B,H,Lq,R)
            dq += dqkr @ kr
            # position-to-content: score += k[j] . qr[rel(j,i)]
            dkqr = (ds.transpose(3, 0, 1, 2).reshape(L, B * H, Lq) @ onehot[:, :Lq])
            dkqr = dkqr.reshape(L, B, H, -1).transpose(1, 2, 0, 3)  # (B,H,L,R)
            dk += dkqr @ qr
            if grads is not None:
                dkr = (dqkr.transpose(1, 3, 0, 2).reshape(H, config.rel_size, B * Lq)
                       @ q.transpose(1, 0, 2, 3).reshape(H, B * Lq, dh))
                dqr = (dkqr.transpose(1, 3, 0, 2).reshape(H, config.rel_size, B * L)
                       @ k.transpose(1, 0, 2, 3).reshape(H, B * L, dh))
                dkr_flat = dkr.transpose(1, 0, 2).reshape(config.rel_size, config.d_model)
                dqr_flat = dqr.transpose(1, 0, 2).reshape(config.rel_size, config.d_model)
                grads[pre + "attn.wk"] += params["rel_emb"].T @ dkr_flat
                grads[pre + "attn.wq"] += params["rel_emb"].T @ dqr_flat
                grads["rel_emb"] += dkr_flat @ params[pre + "attn.wk"].T
                grads["rel_emb"] += dqr_flat @ params[pre + "attn.wq"].T
        else:
            ds = dscores / math.sqrt(dh)
            dq = ds @ k
            dk = ds.swapaxes(-1, -2) @ q

        dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        if grads is not None:
            h1 = cache["h1"]
            grads[pre + "attn.wq"] += _sum_outer(h1[:, :Lq], dq_m)
            grads[pre + "attn.bq"] += dq_m.sum(axis=(0, 1))
            grads[pre + "attn.wk"] += _sum_outer(h1, dk_m)
            grads[pre + "attn.bk"] += dk_m.sum(axis=(0, 1))
            grads[pre + "attn.wv"] += _sum_outer(h1, dv_m)
            grads[pre + "attn.bv"] += dv_m.sum(axis=(0, 1))
        dh1 = dk_m @ params[pre + "attn.wk"].T + dv_m @ params[pre + "attn.wv"].T
        dh1[:, :Lq] += dq_m @ params[pre + "attn.wq"].T
        dx1 = _ln_backward(dh1, cache["ln1"])
        if grads is not None:
            _ln_param_grads(grads, pre + "ln1.", dh1, cache["ln1"])
        dx1[:, :Lq] += dx  # residual
        dx = dx1

    if dx.shape[1] < L:  # no layers: only the CLS row has a gradient
        dx = np.pad(dx, ((0, 0), (0, L - 1), (0, 0)))
    return grads, dx


def accumulate_embedding_grads(
    grads: Params, config: EncoderConfig, ids: np.ndarray, demb: np.ndarray
) -> None:
    """Scatter (B, L, D) embedding gradients back to the lookup tables."""
    np.add.at(grads["tok_emb"], np.asarray(ids, dtype=np.int64), demb)
    if config.attention_variant == ABSOLUTE:
        grads["pos_emb"][: demb.shape[1]] += demb.sum(axis=0)
