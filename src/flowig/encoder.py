"""Small encoder-only transformer with exact analytical gradients.

Everything runs in float64 numpy so finite-difference checks and the
attribution completeness identity are meaningful. Both attention variants
add absolute position embeddings at the input and score scaled dot
products; the disentangled one also scores content-position and
position-content terms over clipped relative distances.

Every function takes and returns batched (B, ...) arrays; the batch
dimension is also how integration-path gradient evaluations are vectorized.

The FFN's GELU is the exact a·Φ(a). Φ is numpy arithmetic on Cephes' ndtr.c
coefficients (W. J. Cody's rational forms for erf and erfc), within 2⁻⁵² of
½(1 + `math.erf`(a/√2)); see `_normal_cdf`.
"""
from __future__ import annotations

import itertools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, check_fields
from .flow_data import CLASS_NAMES
from .tokenizer import TokenizedExample

ABSOLUTE = "absolute"
DISENTANGLED = "disentangled"

_LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c, highest power first, with the monic U's and Q's leading 1:
# erf(x) = x·T(x²)/U(x²) for |x| <= 1, erfc(x) = exp(-x²)·P(x)/Q(x) beyond
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _folded(coeffs, halvings: float, scale: float = 1.0) -> tuple[float, ...]:
    """A polynomial in x = v·2^-halvings as one in v, times `scale`."""
    top = len(coeffs) - 1
    return tuple(scale * c * 0.5 ** (halvings * (top - i)) for i, c in enumerate(coeffs))


# Φ(a) - ½ = a·T/U over v = a², and ½·erfc(|a|/√2) = exp(-a²/2)·P/Q over v = |a|
_PHI_T, _PHI_U = _folded(_ERF_T, 1.0, 0.5 * _INV_SQRT2), _folded(_ERF_U, 1.0)
_PHI_P, _PHI_Q = _folded(_ERFC_P, 0.5, 0.5), _folded(_ERFC_Q, 0.5)
# Φ is exactly 0 or 1 well inside |a| = 12; the cap keeps a² and the polynomials finite
_PHI_CAP = 12.0


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    max_seq_len: int = 256
    layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_ff: int = 128
    attention_variant: str = ABSOLUTE
    rel_window: int = 16
    dropout_rate: float = 0.1
    use_final_norm: bool = True
    seed: int = 0

    def __post_init__(self):
        # a checkpoint header's JSON may hold 2.0 or true where a count belongs
        check_fields(self, "encoder ", {"vocab_size": 1, "max_seq_len": 1, "layers": 0, "heads": 1,
                                        "d_model": 1, "d_ff": 1, "rel_window": 0})
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by heads={self.heads}"
            )
        if self.attention_variant not in (ABSOLUTE, DISENTANGLED):
            raise ConfigError(f"unknown attention variant {self.attention_variant!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def n_classes(self) -> int:   # the head is fixed at the coarse labels
        return len(CLASS_NAMES)

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def rel_size(self) -> int:
        return 2 * self.rel_window + 1


Params = dict[str, np.ndarray]
Dropout = list[tuple[np.ndarray, np.ndarray]]

# float64 per encoder call (rows x length x d_model), whichever thread makes
# it: one chunk per worker, as L2 is per core. IG's path, training batches and
# evaluation all go through the encoder in row chunks within it, so memory
# does not grow with the batch. It is 800 positions at d_model 64, the top of
# the 500-800 at which IG ran best on 2 vCPUs (1 BLAS thread). At L=49 a 32-row
# training batch is 16+16 rows, which took 13-22% less train-disentangled bench
# wall time than 512 positions' 10+10+10+2. The cut does not depend on the
# worker count, so neither do the sums' rounding and the bits
_CHUNK_FLOATS = 51200

# one worker per usable CPU; numpy and BLAS release the GIL inside each op
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="flowig-chunk")


def row_chunks(lengths, d_model: int):
    """Slices that cut rows of nondecreasing `lengths` into encoder calls, each
    as many rows as fit `_CHUNK_FLOATS` at its longest (last) row, at least
    one. Once the rows left share one length, they are cut into the fewest
    calls the budget allows, whose row counts differ by at most one."""
    lo, n = 0, len(lengths)
    while lo < n:
        hi = lo + 1
        while hi < n and (hi + 1 - lo) * lengths[hi] * d_model <= _CHUNK_FLOATS:
            hi += 1
        if lengths[lo] == lengths[n - 1]:  # hi - lo rows fit: cut the rest evenly
            m, k = n - lo, -(-(n - lo) // (hi - lo))
            yield from (slice(lo + i * m // k, lo + (i + 1) * m // k) for i in range(k))
            return
        yield slice(lo, hi)
        lo = hi


def map_chunks(fn, parts, config: EncoderConfig):
    """Yield `(part, fn(part))` for each of `parts`, in order.

    An encoder with a full-length layer (`layers >= 2`) runs up to `_WORKERS`
    parts at once on the pool; a 1-layer encoder's ops are too small to
    overlap well, so it runs them in turn. A part is usually one of
    `row_chunks(...)`, and each encoder call that `fn` makes must fit the
    whole budget. `fn` must not depend on which parts ran before it, so
    callers that sum the results in the order yielded get the same bits
    either way. If a part raises, the parts not started are cancelled and
    the running ones finish before the error reaches the caller.
    """
    workers = _WORKERS if config.layers >= 2 else 1
    parts = iter(parts)
    if workers == 1:
        for part in parts:
            yield part, fn(part)
        return
    pending = deque()
    try:
        for part in itertools.islice(parts, workers):
            pending.append((part, _POOL.submit(fn, part)))
        while pending:
            part, future = pending.popleft()
            result = future.result()
            for nxt in itertools.islice(parts, 1):  # any value, None too, is a part
                pending.append((nxt, _POOL.submit(fn, nxt)))
            yield part, result
    finally:
        for _, future in pending:
            future.cancel()
        wait([future for _, future in pending])


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization order."""
    D, F, C = config.d_model, config.d_ff, config.n_classes
    shapes = {"tok_emb": (config.vocab_size, D), "pos_emb": (config.max_seq_len, D)}
    if config.attention_variant == DISENTANGLED:
        shapes["rel_emb"] = (config.rel_size, D)
    for i in range(config.layers):
        pre = f"layers.{i}."
        shapes[pre + "ln1.g"] = shapes[pre + "ln1.b"] = (D,)
        shapes.update({pre + "attn." + name: (D, D) for name in ("wq", "wk", "wv", "wo")})
        # a key bias adds q_i . bk to every score of row i, which the softmax
        # cancels; only the disentangled variant's p2c term, k_j . qr, reads it
        biases = "qkvo" if config.attention_variant == DISENTANGLED else "qvo"
        shapes.update({pre + "attn.b" + n: (D,) for n in biases})
        shapes[pre + "ln2.g"] = shapes[pre + "ln2.b"] = (D,)
        shapes[pre + "ffn.w1"], shapes[pre + "ffn.b1"] = (D, F), (F,)
        shapes[pre + "ffn.w2"], shapes[pre + "ffn.b2"] = (F, D), (D,)
    shapes["ln_f.g"] = shapes["ln_f.b"] = (D,)
    shapes["head.w"], shapes["head.b"] = (D, C), (C,)
    return shapes


def init_params(config: EncoderConfig) -> Params:
    """Seeded init: matrices ~ N(0, 1/fan_in), classifier zeroed for uniform logits.

    The fan-in of an embedding table is d_model, of a weight matrix its row
    count; layer-norm gains start at 1 and every bias at 0. A tensor whose
    size numpy cannot represent is refused as out of memory.
    """
    rng = np.random.default_rng(config.seed)
    p: Params = {}
    for name, shape in param_shapes(config).items():
        if math.prod(shape) > np.iinfo(np.intp).max // 8:  # float64 bytes past numpy's intp
            raise MemoryError(f"{name} of shape {shape} is too big for numpy to represent")
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


def dropout_masks(
    rng: np.random.Generator, config: EncoderConfig, B: int, L: int
) -> Dropout | None:
    """A training batch's dropout keep-masks (None at rate 0): per layer, an
    (attention, FFN) pair of (B, Lq, D) bool arrays, Lq = L, or 1 in the
    CLS-only last layer, each from one uniform draw, in layer order."""
    rate = config.dropout_rate
    if rate == 0:
        return None
    return [tuple(rng.random((B, 1 if li == config.layers - 1 else L, config.d_model)) >= rate
                  for _ in range(2))
            for li in range(config.layers)]


def _dropout(x, keep, rate: float):
    """Inverted dropout: x / (1 - rate) where `keep`, a zero of x's sign
    elsewhere; x itself when `keep` is None."""
    return x if keep is None else x * (1 / (1 - rate)) * keep


# ---------------------------------------------------------------------------
# primitive layers

def _row_means(x):
    """The means over x's last axis, (..., 1), as one BLAS product with a
    column of 1/D: on rows of a few dozen floats it takes a fraction of the
    time of `x.mean(axis=-1)`, and differs from it by rounding only."""
    D = x.shape[-1]
    return (x.reshape(-1, D) @ np.full((D, 1), 1.0 / D)).reshape(*x.shape[:-1], 1)


def _ln_forward(x, g, b):
    xhat = x - _row_means(x)
    y = xhat * xhat
    ivar = _row_means(y)
    ivar += _LN_EPS
    np.sqrt(ivar, out=ivar)
    np.divide(1.0, ivar, out=ivar)
    xhat *= ivar
    np.multiply(xhat, g, out=y)
    y += b
    return y, (xhat, ivar, g)


def _ln_backward(dy, cache, grads: Params | None = None, prefix: str = ""):
    xhat, ivar, g = cache
    if grads is not None:
        axes = tuple(range(dy.ndim - 1))
        grads[prefix + "g"] += (dy * xhat).sum(axis=axes)
        grads[prefix + "b"] += dy.sum(axis=axes)
    dxhat = dy * g
    t = dxhat * xhat
    np.multiply(xhat, _row_means(t), out=t)
    dxhat -= _row_means(dxhat)
    dxhat -= t
    dxhat *= ivar
    return dxhat


def _ln_output(params: Params, prefix: str, cache, grads: Params | None):
    """`_ln_forward`'s output, the same bits, rebuilt from its cache for the
    parameter gradients; None when `grads` is, as nothing else reads it."""
    return None if grads is None else cache[0] * cache[2] + params[prefix + "b"]


def _linear(params: Params, pre: str, n: str, x):
    """x @ W + b with W, b the parameters `{pre}w{n}`, `{pre}b{n}`; no b if the
    layout has none."""
    y = x @ params[f"{pre}w{n}"]
    b = params.get(f"{pre}b{n}")
    if b is not None:
        y += b
    return y


def _linear_backward(params: Params, grads: Params | None, pre: str, n: str, x, dy):
    """The input gradient of `_linear`; adds dW and db to `grads` unless it is None."""
    if grads is not None:
        grads[f"{pre}w{n}"] += _sum_outer(x, dy)
        if f"{pre}b{n}" in grads:
            grads[f"{pre}b{n}"] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    return dy @ params[f"{pre}w{n}"].T


def _horner(v, coeffs):
    """The polynomial in v with `coeffs`, highest power first."""
    y = v * coeffs[0]
    for c in coeffs[1:-1]:
        y += c
        y *= v
    y += coeffs[-1]
    return y


def _normal_cdf(a):
    """Φ(a) = ½(1 + erf(a/√2)), within 2⁻⁵² of that formula with `math.erf`.

    With x = a/√2, the |x| <= 1 form runs over the whole array, and the erfc
    form overwrites the entries beyond it as ½ ± (½ - ½·erfc(|x|)), with a's
    sign: erf = 1 - erfc there, as in Cephes, so Φ is exactly 0 or 1 once
    erfc falls below the rounding of 1.
    """
    x = np.clip(a, -_PHI_CAP, _PHI_CAP).ravel()
    # a tiny |a| underflows a² and a·T/U, which leaves Φ = ½ as it should be
    with np.errstate(under="ignore"):
        z = x * x
        phi = _horner(z, _PHI_T)
        phi /= _horner(z, _PHI_U)
        phi *= x
    phi += 0.5
    tail = np.flatnonzero(z > 2.0)
    t = x[tail]
    s = np.abs(t)
    c = _horner(s, _PHI_P)
    c /= _horner(s, _PHI_Q)
    s *= s
    s *= -0.5
    np.exp(s, out=s)
    c *= s
    np.subtract(0.5, c, out=c)
    np.copysign(c, t, out=c)
    c += 0.5
    phi[tail] = c
    return phi.reshape(a.shape)


def _gelu_forward(a):
    phi = _normal_cdf(a)
    return a * phi, phi


def _gelu_backward(da_out, a, phi):
    d = a * a
    d *= -0.5
    np.exp(d, out=d)
    d *= a
    d *= _INV_SQRT2PI
    d += phi
    d *= da_out
    return d


def _split_heads(x, heads):
    B, L, D = x.shape
    return x.reshape(B, L, heads, D // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, H * dh)


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over every leading axis of outer products: (..., D), (..., E) -> (D, E)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _rel_index(n: int, k: int) -> np.ndarray:
    """The (n, n) clipped relative distance i - j, shifted into [0, 2k]; it
    depends only on i - j, so the index for any L <= n is its [:L, :L] slice."""
    i = np.arange(n)
    return np.clip(i[:, None] - i[None, :], -k, k) + k


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


def _disentangled_scores_backward(ds, q, k_content, qr, kr, rel_idx, params: Params,
                                  grads: Params | None, pre: str):
    """The q and k_content gradients of `attention_scores_disentangled`, given
    its rel_idx and the score gradient `ds`, which is scaled in place. Unless
    `grads` is None, also adds the gradients through qr = rel_emb @ wq and
    kr = rel_emb @ wk of layer `pre`."""
    B, H, Lq, dh = q.shape
    L, R = k_content.shape[2], kr.shape[1]
    ds *= 1.0 / math.sqrt(3.0 * dh)
    dq = ds @ k_content
    dk = ds.swapaxes(-1, -2) @ q
    # the adjoint of the forward's gathers: each score gradient is added back
    # into the bin it was read from, flat[:Lq] of qkr (c2p) and flat.T[:Lq] of
    # kqr (p2c), each batch-head row's bins offset past the row before. Each
    # (B, H, Lq, L) bin index lives only for its own bincount
    flat = np.arange(L)[:, None] * R + rel_idx
    rows = np.arange(B * H)[:, None, None]
    dqkr = np.bincount((rows * (Lq * R) + flat[:Lq]).ravel(), ds.ravel(),
                       minlength=B * H * Lq * R).reshape(B, H, Lq, R)
    dq += dqkr @ kr
    p2c = np.ascontiguousarray(flat.T[:Lq])  # a contiguous operand adds faster
    dkqr = np.bincount((rows * (L * R) + p2c).ravel(), ds.ravel(),
                       minlength=B * H * L * R).reshape(B, H, L, R)
    dk += dkqr @ qr
    if grads is not None:
        dkr = (dqkr.transpose(1, 3, 0, 2).reshape(H, R, B * Lq)
               @ q.transpose(1, 0, 2, 3).reshape(H, B * Lq, dh))
        dqr = (dkqr.transpose(1, 3, 0, 2).reshape(H, R, B * L)
               @ k_content.transpose(1, 0, 2, 3).reshape(H, B * L, dh))
        dkr = dkr.transpose(1, 0, 2).reshape(R, H * dh)
        dqr = dqr.transpose(1, 0, 2).reshape(R, H * dh)
        grads[pre + "attn.wk"] += params["rel_emb"].T @ dkr
        grads[pre + "attn.wq"] += params["rel_emb"].T @ dqr
        grads["rel_emb"] += dkr @ params[pre + "attn.wk"].T
        grads["rel_emb"] += dqr @ params[pre + "attn.wq"].T
    return dq, dk


def _key_mask_bias(mask):
    """Additive score bias (B, 1, 1, L) from a (B, L) key mask: 0 = attend,
    -inf = not; None when every key is attended."""
    if np.all(mask > 0):
        return None
    return np.where(mask[:, None, None, :] > 0, 0.0, -np.inf)


def _masked_softmax(scores, bias):
    # a row with an attended key (CLS always is) has a finite max, so the
    # -inf entries of masked keys exponentiate to exactly 0; an all-zero
    # bias changes no bit of the result, so None skips that pass
    if bias is None:
        s = scores - scores.max(axis=-1, keepdims=True)
    else:
        s = scores + bias
        s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_backward(attn, dattn):
    """The score gradient, written over `dattn`."""
    # masked columns have attn == 0, so their score gradients vanish
    dattn -= np.einsum("...j,...j->...", dattn, attn)[..., None]
    dattn *= attn
    return dattn


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
    dropout: Dropout | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Pre-norm encoder stack from raw embeddings to class logits.

    Takes (B, L, D) embeddings and a (B, L) mask with L <= max_seq_len and
    returns (B, n_classes) logits. A sequence shorter than max_seq_len runs
    as the first L positions, so trailing padding can be trimmed off. Dropout
    runs if and only if `dropout` holds the rows' masks (see `dropout_masks`).

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
    trace = ForwardTrace(config, mask)
    H, dh, rate = config.heads, config.d_head, config.dropout_rate
    bias = _key_mask_bias(mask)
    if config.attention_variant == DISENTANGLED:
        rel_idx = _rel_index(L, config.rel_window)

    for li in range(config.layers):
        pre = f"layers.{li}."
        Lq = 1 if li == config.layers - 1 else L  # query rows this layer computes
        cache: dict = {"pre": pre}
        h1, cache["ln1"] = _ln_forward(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        cache["q"] = q = _split_heads(_linear(params, pre + "attn.", "q", h1[:, :Lq]), H)
        cache["k"] = k = _split_heads(_linear(params, pre + "attn.", "k", h1), H)
        cache["v"] = v = _split_heads(_linear(params, pre + "attn.", "v", h1), H)
        del h1  # the backward rebuilds h1, h2 and g, for the parameter gradients alone
        if config.attention_variant == DISENTANGLED:
            rel = params["rel_emb"]
            # no bias on the positional projections so a zero table ablates cleanly
            kr = (rel @ params[pre + "attn.wk"]).reshape(config.rel_size, H, dh).transpose(1, 0, 2)
            qr = (rel @ params[pre + "attn.wq"]).reshape(config.rel_size, H, dh).transpose(1, 0, 2)
            cache["kr"], cache["qr"] = kr, qr
            scores = attention_scores_disentangled(q, k, qr, kr, rel_idx)
        else:
            scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(dh)
        cache["attn"] = attn = _masked_softmax(scores, bias)
        del scores
        cache["o"] = o = _merge_heads(attn @ v)
        cache["attn_drop"], cache["ffn_drop"] = dropout[li] if dropout else (None, None)
        x = x[:, :Lq] + _dropout(_linear(params, pre + "attn.", "o", o), cache["attn_drop"], rate)
        h2, cache["ln2"] = _ln_forward(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        cache["a"] = a = _linear(params, pre + "ffn.", "1", h2)
        del h2
        g, cache["phi"] = _gelu_forward(a)
        x = x + _dropout(_linear(params, pre + "ffn.", "2", g), cache["ffn_drop"], rate)
        del g
        _check_finite(x, f"encoder layer {li}")
        trace.layer_caches.append(cache)

    x = x[:, :1]  # only the CLS row reaches the head
    if config.use_final_norm:
        hf, trace.final["ln_f"] = _ln_forward(x, params["ln_f.g"], params["ln_f.b"])
    else:
        hf = x
    trace.final["cls"] = hf[:, 0, :]
    logits = _linear(params, "head.", "", trace.final["cls"])
    _check_finite(logits, "classification head")
    trace.logits = logits
    return logits, trace


def embed(params: Params, config: EncoderConfig, example: TokenizedExample) -> np.ndarray:
    """One example's (L, D) embeddings."""
    return embed_ids(params, config, np.array([example.ids], dtype=np.int64))[0]


def embed_ids(params: Params, config: EncoderConfig, ids: np.ndarray) -> np.ndarray:
    """Token embedding lookup for an id batch (B, L), plus the position
    embeddings, which both variants add here."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ConfigError("token id out of vocabulary range")
    return params["tok_emb"][ids] + params["pos_emb"][None, : ids.shape[1], :]


def forward(
    params: Params,
    config: EncoderConfig,
    example: TokenizedExample,
    dropout: Dropout | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """One example as a batch of one: logits (1, n_classes)."""
    return forward_batch(params, config, example.ids[None], np.ones((1, len(example.ids))), dropout)


def forward_batch(
    params: Params,
    config: EncoderConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    dropout: Dropout | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    emb = embed_ids(params, config, ids)
    return forward_from_embeddings(params, config, emb, mask, dropout)


def backward(
    params: Params,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    param_grads: bool = True,
) -> tuple[Params | None, np.ndarray]:
    """Exact reverse-mode gradients for all parameters and the input embeddings.

    With param_grads=False only the embedding gradient is built and the
    parameter gradients come back as None; the embedding gradient is
    bit-identical either way. The trace is spent: each layer's cache is
    dropped once its last reader has run, and a second call on the same
    trace raises ConfigError.
    """
    config = trace.config
    if "cls" not in trace.final:
        raise ConfigError("forward trace already backpropagated; run the forward pass again")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != trace.logits.shape:
        raise ConfigError(
            f"dlogits shape {dlogits.shape} does not match logits {trace.logits.shape}"
        )
    grads = zero_grads_like(params) if param_grads else None
    L, rate = trace.mask.shape[1], config.dropout_rate
    if config.attention_variant == DISENTANGLED:
        rel_idx = _rel_index(L, config.rel_window)

    dhf = _linear_backward(params, grads, "head.", "", trace.final.pop("cls"), dlogits)[:, None, :]
    dx = (_ln_backward(dhf, trace.final.pop("ln_f"), grads, "ln_f.") if config.use_final_norm
          else dhf)

    while trace.layer_caches:
        cache = trace.layer_caches.pop()
        pre = cache["pre"]
        # FFN block; its input h2 and output g are rebuilt for the parameter gradients
        d = _dropout(dx, cache.pop("ffn_drop"), rate)
        d = _linear_backward(params, grads, pre + "ffn.", "2",
                             None if grads is None else cache["a"] * cache["phi"], d)
        d = _gelu_backward(d, cache.pop("a"), cache.pop("phi"))
        d = _linear_backward(params, grads, pre + "ffn.", "1",
                             _ln_output(params, pre + "ln2.", cache["ln2"], grads), d)
        dx = dx + _ln_backward(d, cache.pop("ln2"), grads, pre + "ln2.")  # residual

        # attention block
        d = _dropout(dx, cache.pop("attn_drop"), rate)
        do = _split_heads(_linear_backward(params, grads, pre + "attn.", "o", cache.pop("o"), d),
                          config.heads)
        attn = cache.pop("attn")
        dv = attn.swapaxes(-1, -2) @ do
        dscores = _softmax_backward(attn, do @ cache.pop("v").swapaxes(-1, -2))
        del attn, do
        q, k = cache.pop("q"), cache.pop("k")
        if config.attention_variant == DISENTANGLED:
            dq, dk = _disentangled_scores_backward(dscores, q, k, cache.pop("qr"), cache.pop("kr"),
                                                   rel_idx, params, grads, pre)
        else:
            dscores /= math.sqrt(config.d_head)
            dq, dk = dscores @ k, dscores.swapaxes(-1, -2) @ q
        del dscores

        # wq and wk take their relative terms (above) before their content terms,
        # an order that fixes how the gradient sums round
        h1, Lq = _ln_output(params, pre + "ln1.", cache["ln1"], grads), q.shape[2]
        dh1 = _linear_backward(params, grads, pre + "attn.", "k", h1, _merge_heads(dk))
        dh1 += _linear_backward(params, grads, pre + "attn.", "v", h1, _merge_heads(dv))
        dh1[:, :Lq] += _linear_backward(params, grads, pre + "attn.", "q",
                                        h1 if h1 is None else h1[:, :Lq], _merge_heads(dq))
        dx1 = _ln_backward(dh1, cache.pop("ln1"), grads, pre + "ln1.")
        del d, dv, dq, dk, q, k, h1, dh1  # so none of them lives on into the next layer
        dx1[:, :Lq] += dx  # residual
        dx = dx1

    if dx.shape[1] < L:  # no layers: only the CLS row has a gradient
        dx = np.pad(dx, ((0, 0), (0, L - 1), (0, 0)))
    return grads, dx


def accumulate_embedding_grads(grads: Params, ids: np.ndarray, demb: np.ndarray) -> None:
    """Scatter (B, L, D) embedding gradients back to the lookup tables."""
    np.add.at(grads["tok_emb"], np.asarray(ids, dtype=np.int64), demb)
    grads["pos_emb"][: demb.shape[1]] += demb.sum(axis=0)
