"""Transformer track-history summarizer with hand-written backprop.

A track (sequence of appearance embeddings) is projected into the model
dimension, a learnable track token is prepended, and the sequence runs through
pre-norm encoder layers (multi-head self-attention + feed-forward).  The
output at the token position, passed through a single linear output layer, is
the track's summary embedding.  No positional encodings exist anywhere, so the summary is
a function of the *multiset* of track elements; in deterministic mode the
input rows are sorted canonically first, which makes the permutation
invariance bit-exact.

Tracks are evaluated in packs (``summarize_tracks``; ``forward_summarize`` is
the one-track case): the rows of a pack's tracks are stacked for every
row-wise layer, and attention runs once per bucket of equal-length tracks.  A
track's summary is bit-identical whatever it is packed with.

Everything is float64 numpy.  Gradients are exact analytic derivatives of the
multi-positive contrastive objective

    L = log(1 + sum_{p} sum_{n} exp(z.z_n - z.z_p))

evaluated on L2-normalized summaries with the dots divided by a training
temperature (bounded similarities anchor the absolute matching threshold; the
temperature restores trainable dynamic range).  The standalone
``contrastive_loss`` op is the plain formula on raw inputs.  All gradients are
validated against central finite differences in the test suite.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

_LN_EPS = 1e-6
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Rows per packed forward in ``summarize_tracks``.  Without a cache a pack's
# working set peaks near 24 KB per row at model_dim 64, so this bounds it near
# 6 MB.  A clip of short histories still fits in one pack, and 1000-row packs
# were no faster.
_PACK_ROWS = 256

WEIGHTS_MAGIC = b"CTSUMRZ1"
WEIGHTS_VERSION = 1

# Field order is the serialization order and the flatten order; do not reorder.
LAYER_FIELDS = (
    "ln1_g", "ln1_b",
    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
    "ln2_g", "ln2_b",
    "w1", "b1", "w2", "b2",
)
HEAD_FIELDS = ("w_out", "b_out")


@dataclass(frozen=True)
class SummarizerConfig:
    input_dim: int
    model_dim: int = 64
    n_layers: int = 3
    n_heads: int = 8
    ffn_dim: int = 0  # 0 resolves to 4 * model_dim

    def __post_init__(self):
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.model_dim)
        if self.model_dim % self.n_heads != 0:
            raise ValueError("model_dim must be divisible by n_heads")
        if min(self.input_dim, self.model_dim, self.n_layers, self.n_heads, self.ffn_dim) < 1:
            raise ValueError("all summarizer dimensions must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads


@dataclass
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class SummarizerWeights:
    config: SummarizerConfig
    w_in: np.ndarray
    b_in: np.ndarray
    token: np.ndarray
    layers: list[LayerWeights]
    w_out: np.ndarray
    b_out: np.ndarray

    def arrays(self):
        """All parameter arrays in the fixed documented order."""
        yield self.w_in
        yield self.b_in
        yield self.token
        for layer in self.layers:
            for name in LAYER_FIELDS:
                yield getattr(layer, name)
        for name in HEAD_FIELDS:
            yield getattr(self, name)

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def copy(self) -> "SummarizerWeights":
        return _map_arrays(self, np.copy)

    def zeros_like(self) -> "SummarizerWeights":
        return _map_arrays(self, np.zeros_like)

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self.arrays())


def _map_arrays(weights: SummarizerWeights, fn) -> SummarizerWeights:
    layers = [
        LayerWeights(**{name: fn(getattr(layer, name)) for name in LAYER_FIELDS})
        for layer in weights.layers
    ]
    return SummarizerWeights(
        weights.config,
        fn(weights.w_in),
        fn(weights.b_in),
        fn(weights.token),
        layers,
        fn(weights.w_out),
        fn(weights.b_out),
    )


def _array_shapes(cfg: SummarizerConfig) -> list[tuple[int, ...]]:
    cm, f = cfg.model_dim, cfg.ffn_dim
    shapes = [(cfg.input_dim, cm), (cm,), (cm,)]
    layer = [
        (cm,), (cm,),
        (cm, cm), (cm,), (cm, cm), (cm,), (cm, cm), (cm,), (cm, cm), (cm,),
        (cm,), (cm,),
        (cm, f), (f,), (f, cm), (cm,),
    ]
    for _ in range(cfg.n_layers):
        shapes.extend(layer)
    shapes.extend([(cm, cm), (cm,)])
    return shapes


def weights_from_flat(cfg: SummarizerConfig, flat: np.ndarray) -> SummarizerWeights:
    shapes = _array_shapes(cfg)
    arrays = []
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(np.asarray(flat[pos : pos + size], dtype=np.float64).reshape(shape))
        pos += size
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {pos}")
    return _assemble(cfg, arrays)


def _assemble(cfg: SummarizerConfig, arrays: list[np.ndarray]) -> SummarizerWeights:
    it = iter(arrays)
    w_in, b_in, token = next(it), next(it), next(it)
    layers = []
    for _ in range(cfg.n_layers):
        layers.append(LayerWeights(**{name: next(it) for name in LAYER_FIELDS}))
    w_out, b_out = next(it), next(it)
    return SummarizerWeights(cfg, w_in, b_in, token, layers, w_out, b_out)


def init_weights(cfg: SummarizerConfig, seed: int) -> SummarizerWeights:
    """Seeded gaussian init: matrices scaled by 1/sqrt(fan_in), zero biases,
    unit layer-norm gains.

    Query projections start at zero so attention is exactly uniform at first:
    the initial summary behaves like a learned projection of the track mean
    (the classical pooling baseline) and training refines from there.  Keys
    stay random, which is what routes gradient back into the queries.
    """
    from .rng import SplitMix64

    rng = SplitMix64(seed)

    def matrix(shape):
        scale = 1.0 / math.sqrt(shape[0])
        return np.array(
            [[rng.gauss(0.0, scale) for _ in range(shape[1])] for _ in range(shape[0])]
        )

    arrays = []
    for shape in _array_shapes(cfg):
        if len(shape) == 2:
            arrays.append(matrix(shape))
        else:
            arrays.append(np.zeros(shape))
    w = _assemble(cfg, arrays)
    w.token[:] = [rng.gauss(0.0, 1.0 / math.sqrt(cfg.model_dim)) for _ in range(cfg.model_dim)]
    for layer in w.layers:
        layer.ln1_g[:] = 1.0
        layer.ln2_g[:] = 1.0
        layer.wq[:] = 0.0
    return w


# --- forward / backward ------------------------------------------------------


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form GELU of ``x``, and the tanh it evaluates (the backward reuses it).

    The cube is ``x * x * x``: ``x**3`` goes through ``pow`` and costs ~40x more.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc**2).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)

def _layer_norm_backward(dout, g, cache):
    xhat, inv = cache
    dg = (dout * xhat).sum(axis=0)
    db = dout.sum(axis=0)
    dxhat = dout * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dg, db


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    t, cm = x.shape
    return x.reshape(t, n_heads, cm // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def canonical_order(track: np.ndarray) -> np.ndarray:
    """Lexicographic row order; makes the set-function evaluation canonical."""
    return track[np.lexsort(track.T[::-1])]


@dataclass
class _Pack:
    """Forward cache of a pack of tracks.

    The rows of all tracks, each track led by its token row, are stacked in
    order of ascending track length, so the tracks of one length form a
    contiguous bucket.  ``place[i]`` is (token row, bucket, position in bucket)
    of input track ``i``.  Per layer, ``rows`` holds the stacked row-wise
    activations and ``heads`` one (qh, kh, vh, a) tuple per bucket, each of
    shape (tracks, heads, rows per track, ...).
    """

    tracks: list[np.ndarray]
    place: list[tuple[int, int, int]]
    layers: list[tuple[tuple[np.ndarray, ...], list[tuple[np.ndarray, ...]]]]
    z: np.ndarray


def _forward(weights: SummarizerWeights, tracks: list[np.ndarray], keep_cache: bool = True):
    """Summaries (n, model_dim) of a nonempty list of track matrices, and the
    cache for ``_backward`` (None unless ``keep_cache``).

    Every row-wise layer runs once over the stacked rows and attention once per
    bucket of equal-length tracks.  A track's summary does not depend on its
    pack-mates: products only ever stack whole rows, and a 1-row product (a
    length-1 track's input projection, the output projection) stays a vector
    product, since a stacked gemm row can differ from gemv in the last bit.
    """
    cfg = weights.config
    cm, n_heads, dh = cfg.model_dim, cfg.n_heads, cfg.head_dim
    order = sorted(range(len(tracks)), key=lambda i: len(tracks[i]))
    place = [(0, 0, 0)] * len(tracks)
    buckets = []  # (first row, tracks, rows per track)
    row = 0
    for length, group in itertools.groupby(order, key=lambda i: len(tracks[i]) + 1):
        group = list(group)
        for j, i in enumerate(group):
            place[i] = (row + j * length, len(buckets), j)
        buckets.append((row, group, length))
        row += len(group) * length

    z = np.empty((row, cm))
    for r0, group, length in buckets:
        zb = z[r0 : r0 + len(group) * length].reshape(len(group), length, cm)
        zb[:, 0] = weights.token
        if length == 2:  # length-1 tracks: keep each input projection a vector product
            for j, i in enumerate(group):
                zb[j, 1] = tracks[i] @ weights.w_in + weights.b_in
        else:
            x = np.concatenate([tracks[i] for i in group]) @ weights.w_in + weights.b_in
            zb[:, 1:] = x.reshape(len(group), length - 1, cm)

    scale = 1.0 / math.sqrt(dh)
    layers = []
    for layer in weights.layers:
        y1, (xhat1, inv1) = _layer_norm(z, layer.ln1_g, layer.ln1_b)
        q = y1 @ layer.wq + layer.bq
        k = y1 @ layer.wk + layer.bk
        v = y1 @ layer.wv + layer.bv
        mh = np.empty_like(q)
        heads = []
        for r0, group, length in buckets:
            r1 = r0 + len(group) * length
            qh, kh, vh = (
                m[r0:r1].reshape(len(group), length, n_heads, dh).transpose(0, 2, 1, 3)
                for m in (q, k, v)
            )
            s = qh @ kh.transpose(0, 1, 3, 2) * scale
            s -= s.max(axis=-1, keepdims=True)
            a = np.exp(s)
            a /= a.sum(axis=-1, keepdims=True)
            mh[r0:r1] = (a @ vh).transpose(0, 2, 1, 3).reshape(r1 - r0, cm)
            if keep_cache:
                heads.append((qh, kh, vh, a))
        z_mid = z + mh @ layer.wo + layer.bo
        y2, (xhat2, inv2) = _layer_norm(z_mid, layer.ln2_g, layer.ln2_b)
        u = y2 @ layer.w1 + layer.b1
        gact, t = _gelu(u)
        z = z_mid + gact @ layer.w2 + layer.b2
        if keep_cache:
            layers.append(((y1, xhat1, inv1, mh, y2, xhat2, inv2, u, gact, t), heads))
    outs = np.stack([z[r] @ weights.w_out + weights.b_out for r, _, _ in place])
    return outs, _Pack(tracks, place, layers, z) if keep_cache else None


def _backward(
    weights: SummarizerWeights, pack: _Pack, i: int, dout: np.ndarray, grads: SummarizerWeights
):
    """Accumulate into ``grads`` the gradient of ``dout . summary`` of track ``i`` of ``pack``."""
    cfg = weights.config
    track = pack.tracks[i]
    r0, bucket, j = pack.place[i]
    r1 = r0 + len(track) + 1
    t0 = pack.z[r0]
    scale = 1.0 / math.sqrt(cfg.head_dim)

    grads.w_out += np.outer(t0, dout)
    grads.b_out += dout
    dz = np.zeros((r1 - r0, cfg.model_dim))
    dz[0] = weights.w_out @ dout

    for layer, layer_grads, (rows, heads) in zip(
        reversed(weights.layers), reversed(grads.layers), reversed(pack.layers)
    ):
        y1, xhat1, inv1, mh, y2, xhat2, inv2, u, gact, t = (m[r0:r1] for m in rows)
        qh, kh, vh, a = (m[j] for m in heads[bucket])
        # feed-forward block
        df = dz
        layer_grads.w2 += gact.T @ df
        layer_grads.b2 += df.sum(axis=0)
        du = (df @ layer.w2.T) * _gelu_grad(u, t)
        layer_grads.w1 += y2.T @ du
        layer_grads.b1 += du.sum(axis=0)
        dy2 = du @ layer.w1.T
        dz_ln2, dg2, db2 = _layer_norm_backward(dy2, layer.ln2_g, (xhat2, inv2))
        layer_grads.ln2_g += dg2
        layer_grads.ln2_b += db2
        dz_mid = dz + dz_ln2
        # attention block
        do = dz_mid
        layer_grads.wo += mh.T @ do
        layer_grads.bo += do.sum(axis=0)
        doh = _split_heads(do @ layer.wo.T, cfg.n_heads)
        da = doh @ vh.transpose(0, 2, 1)
        dvh = a.transpose(0, 2, 1) @ doh
        ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
        dqh = ds @ kh
        dkh = ds.transpose(0, 2, 1) @ qh
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)
        layer_grads.wq += y1.T @ dq
        layer_grads.bq += dq.sum(axis=0)
        layer_grads.wk += y1.T @ dk
        layer_grads.bk += dk.sum(axis=0)
        layer_grads.wv += y1.T @ dv
        layer_grads.bv += dv.sum(axis=0)
        dy1 = dq @ layer.wq.T + dk @ layer.wk.T + dv @ layer.wv.T
        dz_ln1, dg1, db1 = _layer_norm_backward(dy1, layer.ln1_g, (xhat1, inv1))
        layer_grads.ln1_g += dg1
        layer_grads.ln1_b += db1
        dz = dz_mid + dz_ln1

    grads.token += dz[0]
    dx = dz[1:]
    grads.w_in += track.T @ dx
    grads.b_in += dx.sum(axis=0)


def _as_track_matrix(weights: SummarizerWeights, track, deterministic: bool) -> np.ndarray:
    m = np.asarray(track, dtype=np.float64)
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("track must be a nonempty sequence of embeddings")
    if m.shape[1] != weights.config.input_dim:
        raise ValueError(
            f"track dimension {m.shape[1]} does not match summarizer input dim "
            f"{weights.config.input_dim}"
        )
    return canonical_order(m) if deterministic else m


def summarize_tracks(weights: SummarizerWeights, tracks, deterministic: bool = True) -> np.ndarray:
    """Summary embeddings (n, model_dim) of a list of tracks, in packed forwards.

    Row ``i`` is bit-identical to ``forward_summarize`` of ``tracks[i]`` alone.
    Tracks are packed in order of length, at most ``_PACK_ROWS`` rows (track
    rows plus one token row each) to a pack, unless one track alone has more.
    """
    mats = [_as_track_matrix(weights, t, deterministic) for t in tracks]
    outs = np.empty((len(mats), weights.config.model_dim))
    pack, rows = [], 0
    for i in sorted(range(len(mats)), key=lambda i: len(mats[i])):
        if pack and rows + len(mats[i]) + 1 > _PACK_ROWS:
            outs[pack] = _forward(weights, [mats[j] for j in pack], keep_cache=False)[0]
            pack, rows = [], 0
        pack.append(i)
        rows += len(mats[i]) + 1
    if pack:
        outs[pack] = _forward(weights, [mats[j] for j in pack], keep_cache=False)[0]
    return outs


def forward_summarize(weights: SummarizerWeights, track, deterministic: bool = True) -> np.ndarray:
    """Summary embedding (model_dim,) of a track's embedding sequence."""
    return summarize_tracks(weights, [track], deterministic)[0]


def l2_normalize(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


# --- contrastive objective ----------------------------------------------------


def contrastive_loss(anchor: np.ndarray, positives, negatives) -> float:
    """log(1 + sum over positives x negatives of exp(z.z- - z.z+)), overflow-safe."""
    positives = list(positives)
    negatives = list(negatives)
    if not positives:
        raise ValueError("contrastive loss requires at least one positive")
    if not negatives:
        return 0.0
    a = np.asarray(anchor, dtype=np.float64)
    pos = np.array([a @ np.asarray(p, dtype=np.float64) for p in positives])
    neg = np.array([a @ np.asarray(n, dtype=np.float64) for n in negatives])
    x = (neg[None, :] - pos[:, None]).ravel()
    m = max(0.0, float(x.max()))
    return m + math.log(math.exp(-m) + np.exp(x - m).sum())


def _is_junk(sample) -> bool:
    """Tracks whose well-localized elements are in the minority no longer
    carry a dominant identity; they act as pure negatives (the corruption they
    simulate must not be matched), never as anchors or positives."""
    tags = getattr(sample, "tags", None)
    if tags is None:
        return False
    positive = sum(1 for t in tags if t == "positive")
    return positive * 2 < len(tags)


def _anchor_structure(samples) -> list[tuple[int, list[int], list[int]]]:
    """(anchor, positives, negatives) index triples; anchors need >= 1 positive."""
    keys = [(s.video, s.identity) for s in samples]
    junk = [_is_junk(s) for s in samples]
    anchors = []
    for i, key in enumerate(keys):
        if junk[i]:
            continue
        pos = [j for j, k in enumerate(keys) if j != i and k == key and not junk[j]]
        if not pos:
            continue
        neg = [j for j, k in enumerate(keys) if k != key or junk[j]]
        anchors.append((i, pos, neg))
    return anchors


def _loss_terms(z: list[np.ndarray], anchors, inv_temperature: float = 1.0):
    """Per-anchor losses and the softmax-style pair weights used by backprop.

    The weights already include the inverse-temperature factor, so backprop
    can use them directly as d(loss)/d(dot difference).
    """
    losses = []
    weights = []
    for i, pos, neg in anchors:
        if not neg:
            losses.append(0.0)
            weights.append(None)
            continue
        p = np.array([z[i] @ z[j] for j in pos]) * inv_temperature
        n = np.array([z[i] @ z[j] for j in neg]) * inv_temperature
        x = n[None, :] - p[:, None]
        m = max(0.0, float(x.max()))
        loss = m + math.log(math.exp(-m) + np.exp(x - m).sum())
        losses.append(loss)
        weights.append(np.exp(x - loss) * inv_temperature)  # stable exp(x)/(1+sum)
    return losses, weights


def batch_loss(
    weights: SummarizerWeights,
    samples,
    deterministic: bool = True,
    loss_temperature: float = 0.1,
) -> float:
    """Mean contrastive loss over all anchors, on temperature-scaled cosines.

    Summaries are L2-normalized and their dot products divided by the
    temperature before entering the pairwise exponents.  Bounded similarities
    anchor the absolute operating point (the inference gate is an absolute
    cosine threshold) while the temperature restores the dynamic range that
    makes the objective trainable.
    """
    anchors = _anchor_structure(samples)
    if not anchors:
        raise ValueError("no sample in the batch has a same-identity positive")
    z = [
        l2_normalize(u)
        for u in summarize_tracks(weights, [s.track for s in samples], deterministic)
    ]
    losses, _ = _loss_terms(z, anchors, 1.0 / loss_temperature)
    return float(np.mean(losses))


def gradient(
    weights: SummarizerWeights,
    samples,
    deterministic: bool = True,
    loss_temperature: float = 0.1,
) -> tuple[SummarizerWeights, float]:
    """Exact analytic gradient of the mean anchor loss; returns (grads, loss)."""
    anchors = _anchor_structure(samples)
    if not anchors:
        raise ValueError("no sample in the batch has a same-identity positive")

    outs, pack = _forward(
        weights, [_as_track_matrix(weights, s.track, deterministic) for s in samples]
    )
    norms = [float(np.linalg.norm(u)) for u in outs]
    z = [u / n for u, n in zip(outs, norms)]

    losses, pair_w = _loss_terms(z, anchors, 1.0 / loss_temperature)
    loss = float(np.mean(losses))

    dz = [np.zeros_like(z[0]) for _ in samples]
    inv_a = 1.0 / len(anchors)
    for (i, pos, neg), w in zip(anchors, pair_w):
        if w is None:
            continue
        w_per_neg = w.sum(axis=0)  # over positives
        w_per_pos = w.sum(axis=1)  # over negatives
        acc = np.zeros_like(z[i])
        for jn, wn in zip(neg, w_per_neg):
            acc += wn * z[jn]
            dz[jn] += inv_a * wn * z[i]
        for jp, wp in zip(pos, w_per_pos):
            acc -= wp * z[jp]
            dz[jp] -= inv_a * wp * z[i]
        dz[i] += inv_a * acc

    grads = weights.zeros_like()
    for s_idx, g in enumerate(dz):
        if not g.any():
            continue
        du = (g - (g @ z[s_idx]) * z[s_idx]) / norms[s_idx]
        _backward(weights, pack, s_idx, du, grads)
    return grads, loss


# --- serialization -------------------------------------------------------------


def save_weights(weights: SummarizerWeights, path) -> None:
    cfg = weights.config
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(
            struct.pack(
                "<6I", WEIGHTS_VERSION, cfg.input_dim, cfg.model_dim, cfg.n_layers,
                cfg.n_heads, cfg.ffn_dim,
            )
        )
        for a in weights.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_weights(path) -> SummarizerWeights:
    with open(path, "rb") as fh:
        magic = fh.read(len(WEIGHTS_MAGIC))
        if magic != WEIGHTS_MAGIC:
            raise ValueError(f"not a summarizer weights file: bad magic {magic!r}")
        version, c_in, cm, n_layers, n_heads, ffn = struct.unpack("<6I", fh.read(24))
        if version != WEIGHTS_VERSION:
            raise ValueError(f"unsupported weights version {version}")
        cfg = SummarizerConfig(c_in, cm, n_layers, n_heads, ffn)
        arrays = []
        for shape in _array_shapes(cfg):
            size = math.prod(shape)
            buf = fh.read(8 * size)
            if len(buf) != 8 * size:
                raise ValueError("truncated weights file")
            arrays.append(np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape))
        if fh.read(1):
            raise ValueError("trailing bytes in weights file")
    return _assemble(cfg, arrays)
