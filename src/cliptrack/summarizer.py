"""Transformer track-history summarizer with hand-written backprop.

A track (sequence of appearance embeddings) is projected into the model
dimension, a learnable track token is prepended, and the sequence runs through
pre-norm encoder layers (multi-head self-attention + feed-forward).  The
output at the token position, passed through a single linear output layer, is
the track's summary embedding.  No positional encodings exist anywhere, so the summary is
a function of the *multiset* of track elements; the input rows are always
sorted canonically first, which makes the permutation invariance bit-exact.

Tracks are evaluated in packs (``summarize_tracks``; ``forward_summarize`` is
the one-track case): the rows of a pack's tracks are stacked for every
row-wise layer, and attention runs once per bucket of equal-length tracks.
Every stacked product is padded to a multiple of ``_ROW_QUANTUM`` rows, so a
track's summary is bit-identical whatever it is packed with, on every OpenBLAS
kernel.  Inference writes every activation into one workspace per
``summarize_tracks`` call, reused by all its packs, and runs the top layer
past its attention on the token rows alone, the only rows the output layer
reads.  ``gradient`` backpropagates its whole batch in one pass over one pack:
each weight gradient is one sum over all rows of the batch.  Its last bits
differ from those of a backward run per track, for two reasons: the sums run
in another order, and OpenBLAS rounds a product with a transposed operand
differently at a few rows than inside a stacked product.

The parameters live in one float64 vector, ``SummarizerWeights.flat``, laid
out once by ``_layout``; every named parameter is a view into it.  Gradients,
the SGD step and the weights file all use that same vector.

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
import os
import struct
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

_LN_EPS = 1e-6
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Rows per packed forward in ``summarize_tracks``.  Its workspace holds about
# 12.4 KB per row at input_dim 16 and model_dim 64 (the input, eight
# model_dim-wide and four ffn_dim-wide buffers), plus the largest bucket's
# attention scores, so this bounds it near 3.6 MB.  A clip of short histories
# still fits in one pack, and 1000-row packs were no faster.
_PACK_ROWS = 256

# Stacked products run on row counts padded to a multiple of this.  OpenBLAS
# kernels such as Haswell and Nehalem round the rows past a gemm's last full
# block differently, and a 1-row product (gemv) differs on every kernel; 2, 4
# and 8 rows left a row's bits depending on its pack-mates on some x86 kernel.
_ROW_QUANTUM = 16

WEIGHTS_MAGIC = b"CTSUMRZ1"
WEIGHTS_VERSION = 1


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
        for name in ("input_dim", "model_dim", "n_layers", "n_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.model_dim % self.n_heads != 0:
            raise ValueError("model_dim must be divisible by n_heads")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads


def _layout(cfg: SummarizerConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in the order they take in the flat
    vector and in a weights file; do not reorder.  ``layers.<i>.<field>`` is
    field ``<field>`` of encoder layer ``i``."""
    cm, f = cfg.model_dim, cfg.ffn_dim
    layer = [
        ("ln1_g", (cm,)), ("ln1_b", (cm,)),
        ("wq", (cm, cm)), ("bq", (cm,)), ("wk", (cm, cm)), ("bk", (cm,)),
        ("wv", (cm, cm)), ("bv", (cm,)), ("wo", (cm, cm)), ("bo", (cm,)),
        ("ln2_g", (cm,)), ("ln2_b", (cm,)),
        ("w1", (cm, f)), ("b1", (f,)), ("w2", (f, cm)), ("b2", (cm,)),
    ]
    return (
        [("w_in", (cfg.input_dim, cm)), ("b_in", (cm,)), ("token", (cm,))]
        + [(f"layers.{i}.{name}", shape) for i in range(cfg.n_layers) for name, shape in layer]
        + [("w_out", (cm, cm)), ("b_out", (cm,))]
    )


def _n_params(cfg: SummarizerConfig) -> int:
    # from the layouts of one and two layers, so that sizing a weights file
    # whose header claims billions of layers builds no layout of that length
    one, two = (sum(math.prod(s) for _, s in _layout(replace(cfg, n_layers=k))) for k in (1, 2))
    return one + (cfg.n_layers - 1) * (two - one)


class SummarizerWeights:
    """All parameters in one float64 vector ``flat``, laid out by ``_layout``.

    ``w_in``, ``b_in``, ``token``, ``w_out``, ``b_out`` and each
    ``layers[i].<field>`` are views into ``flat``: writing through one writes
    ``flat``, and an in-place update of ``flat`` updates them all.
    """

    def __init__(self, config: SummarizerConfig, flat: np.ndarray):
        n = _n_params(config)
        if flat.shape != (n,):
            raise ValueError(f"flat vector has {flat.size} entries, expected {n}")
        self.config = config
        self.flat = flat
        self.layers = [SimpleNamespace() for _ in range(config.n_layers)]
        pos = 0
        for name, shape in _layout(config):
            size = math.prod(shape)
            *path, field = name.split(".")
            owner = self.layers[int(path[1])] if path else self
            setattr(owner, field, flat[pos : pos + size].reshape(shape))
            pos += size

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def zeros_like(self) -> "SummarizerWeights":
        return SummarizerWeights(self.config, np.zeros_like(self.flat))


def weights_from_flat(cfg: SummarizerConfig, flat: np.ndarray) -> SummarizerWeights:
    return SummarizerWeights(cfg, np.ascontiguousarray(flat, dtype=np.float64))


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
    flat = np.concatenate([
        rng.gauss_vector(math.prod(shape), 1.0 / math.sqrt(shape[0]))
        if len(shape) == 2 else np.zeros(math.prod(shape))
        for _, shape in _layout(cfg)
    ])
    w = SummarizerWeights(cfg, flat)
    w.token[:] = rng.gauss_vector(cfg.model_dim, 1.0 / math.sqrt(cfg.model_dim))
    for layer in w.layers:
        layer.ln1_g[:] = 1.0
        layer.ln2_g[:] = 1.0
        layer.wq[:] = 0.0
    return w


# --- forward / backward ------------------------------------------------------


def _fresh(_role: str, *shape: int) -> np.ndarray:
    """The allocator of a forward without workspace: a new array per request."""
    return np.empty(shape)


class _Workspace:
    """Activation buffers of the no-cache forward, shared by the packs of one
    ``summarize_tracks`` call.

    ``ws(role, *shape)`` returns a view of the start of the role's buffer,
    which grows to the largest request made of it.  Requests of one role share
    memory, so the forward asks for a role again only once its last value is
    dead.  Reusing the buffers spares each pack the page faults of fresh
    pack-sized temporaries, most of them above glibc's mmap threshold.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def __call__(self, role: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(role)
        if buf is None or buf.size < size:
            buf = self._bufs[role] = np.empty(size)
        return buf[:size].reshape(shape)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x @ w + b``, written into ``out``."""
    np.matmul(x, w, out=out)
    out += b
    return out


def _gelu(x: np.ndarray, buf=_fresh) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form GELU of ``x``, and the tanh it evaluates (the backward reuses it).

    The cube is ``x * x * x``: ``x**3`` goes through ``pow`` and costs ~40x more.
    Every step runs in place in buffers from ``buf``, in the operation order of
    ``t = tanh(C * (x + A * (x * x * x)))`` and ``0.5 * x * (1 + t)``.
    """
    t = np.multiply(x, x, out=buf("t", *x.shape))
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(x, 0.5, out=buf("gact", *x.shape))
    out *= np.add(t, 1.0, out=buf("gelu", *x.shape))
    return out, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU'(x) from ``x`` and the tanh ``t`` that ``_gelu`` kept, written over
    ``t``; ``x`` is overwritten too.  The bits are those of
    ``0.5 * (1 + t) + 0.5 * x * (1 - t**2) * C * (1 + 3 * A * x**2)``, with two
    temporaries besides ``x`` and ``t``."""
    s = np.square(x)
    s *= 3.0 * _GELU_A
    s += 1.0
    h = np.square(t)
    np.subtract(1.0, h, out=h)
    t += 1.0
    t *= 0.5
    x *= 0.5
    x *= h
    x *= _GELU_C
    x *= s
    t += x
    return t


def _layer_norm(x, g, b, buf):
    """Per-row layer norm ``g * xhat + b``; returns (y, xhat, inv), where
    ``xhat = (x - mean) * inv`` and ``inv = 1 / sqrt(var + eps)``."""
    n, width = x.shape
    inv = np.mean(x, axis=-1, keepdims=True, out=buf("inv", n, 1))  # the mean, until inv
    xhat = np.subtract(x, inv, out=buf("xhat", n, width))
    y = np.square(xhat, out=buf("y", n, width))
    np.mean(y, axis=-1, keepdims=True, out=inv)
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(g, xhat, out=y)
    y += b
    return y, xhat, inv


def _layer_norm_backward(dout, g, cache):
    xhat, inv = cache
    dg = (dout * xhat).sum(axis=0)
    db = dout.sum(axis=0)
    dxhat = dout * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dg, db


def canonical_order(track: np.ndarray) -> np.ndarray:
    """Lexicographic row order; makes the set-function evaluation canonical."""
    return track[np.lexsort(track.T[::-1])]


@dataclass
class _Pack:
    """Forward cache of a pack of tracks.

    The rows of all tracks, each track led by its token row, are stacked in
    order of ascending track length, so the tracks of one length form a
    contiguous bucket; padding rows follow.  ``buckets`` holds (first row,
    track indices, rows per track) of each bucket, ``tokens[i]`` the token row
    of input track ``i``, and ``x`` the input, zero at token and padding rows.
    Per layer, ``layers`` holds the stacked row-wise activations and one (qh,
    kh, vh, a) tuple per bucket, each of shape (tracks, heads, rows per track,
    ...).

    ``_backward`` walks the whole pack once, popping each layer's cache as it
    passes it.  Its weight gradients are sums over all rows of the pack, so
    they differ in the last bits from sums taken per track and then added.
    """

    tracks: list[np.ndarray]
    x: np.ndarray
    tokens: list[int]
    buckets: list[tuple[int, list[int], int]]
    layers: list[tuple[tuple[np.ndarray, ...], list[tuple[np.ndarray, ...]]]]
    z: np.ndarray


def _padded(rows: int) -> int:
    return -(-rows // _ROW_QUANTUM) * _ROW_QUANTUM


def _take_rows(m: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of ``m`` at the head of ``out``, its padding rows zeroed."""
    np.take(m, rows, axis=0, out=out[: len(rows)])
    out[len(rows) :] = 0.0
    return out


def _forward(weights: SummarizerWeights, tracks: list[np.ndarray], ws: _Workspace | None = None):
    """Summaries (n, model_dim) of a nonempty list of track matrices, and the
    cache for ``_backward`` (None when a workspace ``ws`` is given).

    Every row-wise layer runs once over the stacked rows and attention once per
    bucket of equal-length tracks.  A track's summary does not depend on its
    pack-mates: products only ever stack whole rows, padded to a multiple of
    ``_ROW_QUANTUM`` rows.  The padding rows stay finite and are never read.
    One product projects the input ``x``, laid out like the activations with
    zero token rows, and the token rows are written over its output.

    Without a workspace every activation is a new array, kept for the
    backward.  With one, every activation is written into its buffers, and the
    top layer stops at the token rows: after its attention, which needs every
    row's keys and values, only the (padded) token rows go on to ``w_out``.
    The summaries are the same bit for bit either way.
    """
    cfg = weights.config
    cm, n_heads, dh = cfg.model_dim, cfg.n_heads, cfg.head_dim
    buf = _fresh if ws is None else ws
    order = sorted(range(len(tracks)), key=lambda i: len(tracks[i]))
    tokens = [0] * len(tracks)
    buckets = []
    row = 0
    for length, group in itertools.groupby(order, key=lambda i: len(tracks[i]) + 1):
        group = list(group)
        for j, i in enumerate(group):
            tokens[i] = row + j * length
        buckets.append((row, group, length))
        row += len(group) * length

    x = buf("x", _padded(row), cfg.input_dim)
    x[:] = 0.0
    for r, track in zip(tokens, tracks):
        x[r + 1 : r + 1 + len(track)] = track
    z = _affine(x, weights.w_in, weights.b_in, buf("z", len(x), cm))
    z[tokens] = weights.token

    scale = 1.0 / math.sqrt(dh)
    layers = []
    for depth, layer in enumerate(weights.layers, 1):
        n = len(z)
        y1, xhat1, inv1 = _layer_norm(z, layer.ln1_g, layer.ln1_b, buf)
        q, k, v = (
            _affine(y1, w, b, buf(role, n, cm))
            for role, w, b in (("q", layer.wq, layer.bq), ("k", layer.wk, layer.bk),
                               ("v", layer.wv, layer.bv))
        )
        mh = buf("mh", n, cm)
        mh[row:] = 0.0  # padding rows: garbage from np.empty could be inf or NaN
        heads = []
        for r0, group, length in buckets:
            g, r1 = len(group), r0 + len(group) * length
            qh, kh, vh = (
                m[r0:r1].reshape(g, length, n_heads, dh).transpose(0, 2, 1, 3)
                for m in (q, k, v)
            )
            a = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=buf("scores", g, n_heads, length, length))
            a *= scale
            m = np.max(a, axis=-1, keepdims=True, out=buf("rowmax", g, n_heads, length, 1))
            a -= m
            np.exp(a, out=a)
            a /= np.sum(a, axis=-1, keepdims=True, out=m)
            np.matmul(a, vh, out=mh[r0:r1].reshape(g, length, n_heads, dh).transpose(0, 2, 1, 3))
            if ws is None:
                heads.append((qh, kh, vh, a))
        if ws is not None and depth == cfg.n_layers:  # only the token rows reach w_out
            n = _padded(len(tokens))
            z = _take_rows(z, tokens, buf("top", n, cm))
            mh = _take_rows(mh, tokens, buf("mhtop", n, cm))
        z += np.matmul(mh, layer.wo, out=buf("proj", n, cm))
        z += layer.bo
        y2, xhat2, inv2 = _layer_norm(z, layer.ln2_g, layer.ln2_b, buf)
        u = _affine(y2, layer.w1, layer.b1, buf("u", n, cfg.ffn_dim))
        gact, t = _gelu(u, buf)
        z += np.matmul(gact, layer.w2, out=buf("proj", n, cm))
        z += layer.b2
        if ws is None:
            layers.append(((y1, xhat1, inv1, mh, y2, xhat2, inv2, u, gact, t), heads))
    top = z if ws is not None else _take_rows(z, tokens, buf("top", _padded(len(tokens)), cm))
    outs = _affine(top, weights.w_out, weights.b_out, buf("out", len(top), cm))[: len(tracks)]
    return outs, _Pack(tracks, x, tokens, buckets, layers, z) if ws is None else None


def _backward(weights: SummarizerWeights, pack: _Pack, dout: np.ndarray, grads: SummarizerWeights):
    """Accumulate into ``grads`` the gradient of ``sum_i dout[i] . summary_i``
    over the tracks of ``pack``, in one pass; consumes ``pack.layers``."""
    cfg = weights.config
    cm, n_heads, dh = cfg.model_dim, cfg.n_heads, cfg.head_dim
    scale = 1.0 / math.sqrt(dh)

    grads.w_out += pack.z[pack.tokens].T @ dout
    grads.b_out += dout.sum(axis=0)
    dz = np.zeros_like(pack.z)
    # With a transposed operand, OpenBLAS rounds a product of a few rows
    # differently from the same rows inside a stacked product, so this pass
    # cannot match a per-track backward bit for bit, whatever its sum order.
    dz[pack.tokens] = dout @ weights.w_out.T

    for layer, layer_grads in zip(reversed(weights.layers), reversed(grads.layers)):
        (y1, xhat1, inv1, mh, y2, xhat2, inv2, u, gact, t), heads = pack.layers.pop()
        # feed-forward block
        df = dz
        layer_grads.w2 += gact.T @ df
        layer_grads.b2 += df.sum(axis=0)
        # GELU'(u) over t, formed before du so that fewer (rows, ffn_dim)
        # arrays are alive at once; u and t are dropped once du exists
        dgelu = _gelu_grad(u, t)
        du = df @ layer.w2.T
        du *= dgelu
        del u, gact, t, dgelu
        layer_grads.w1 += y2.T @ du
        layer_grads.b1 += du.sum(axis=0)
        dy2 = du @ layer.w1.T
        dz_ln2, dg2, db2 = _layer_norm_backward(dy2, layer.ln2_g, (xhat2, inv2))
        layer_grads.ln2_g += dg2
        layer_grads.ln2_b += db2
        dz_mid = dz + dz_ln2
        # attention block, once per bucket of equal-length tracks
        do = dz_mid
        layer_grads.wo += mh.T @ do
        layer_grads.bo += do.sum(axis=0)
        dmh = do @ layer.wo.T
        dq, dk, dv = (np.zeros_like(dmh) for _ in range(3))
        for (r0, group, length), (qh, kh, vh, a) in zip(pack.buckets, heads):
            r1 = r0 + len(group) * length
            doh = dmh[r0:r1].reshape(len(group), length, n_heads, dh).transpose(0, 2, 1, 3)
            da = doh @ vh.transpose(0, 1, 3, 2)
            dvh = a.transpose(0, 1, 3, 2) @ doh
            ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
            for m, gh in ((dq, ds @ kh), (dk, ds.transpose(0, 1, 3, 2) @ qh), (dv, dvh)):
                m[r0:r1] = gh.transpose(0, 2, 1, 3).reshape(r1 - r0, cm)
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

    grads.token += dz[pack.tokens].sum(axis=0)
    dz[pack.tokens] = 0.0  # padding rows are zero already
    grads.w_in += pack.x.T @ dz
    grads.b_in += dz.sum(axis=0)


def _as_track_matrix(weights: SummarizerWeights, track) -> np.ndarray:
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
    return canonical_order(m)


def summarize_tracks(weights: SummarizerWeights, tracks) -> np.ndarray:
    """Summary embeddings (n, model_dim) of a list of tracks, in packed forwards.

    Row ``i`` is bit-identical to ``forward_summarize`` of ``tracks[i]`` alone.
    Tracks are packed in order of length, at most ``_PACK_ROWS`` rows (track
    rows plus one token row each) to a pack, unless one track alone has more.
    """
    mats = [_as_track_matrix(weights, t) for t in tracks]
    outs = np.empty((len(mats), weights.config.model_dim))
    ws = _Workspace()
    pack, rows = [], 0
    for i in sorted(range(len(mats)), key=lambda i: len(mats[i])):
        if pack and rows + len(mats[i]) + 1 > _PACK_ROWS:
            outs[pack] = _forward(weights, [mats[j] for j in pack], ws)[0]
            pack, rows = [], 0
        pack.append(i)
        rows += len(mats[i]) + 1
    if pack:
        outs[pack] = _forward(weights, [mats[j] for j in pack], ws)[0]
    return outs


def forward_summarize(weights: SummarizerWeights, track) -> np.ndarray:
    """Summary embedding (model_dim,) of a track's embedding sequence."""
    return summarize_tracks(weights, [track])[0]


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
    a = np.asarray(anchor, dtype=np.float64)
    pos = np.array([a @ np.asarray(p, dtype=np.float64) for p in positives])
    neg = np.array([a @ np.asarray(n, dtype=np.float64) for n in negatives])
    return _anchor_loss(pos, neg)[0]


def _anchor_loss(pos: np.ndarray, neg: np.ndarray) -> tuple[float, np.ndarray]:
    """log(1 + sum_ij exp(neg_j - pos_i)), overflow-safe, and its pair weights
    exp(neg_j - pos_i) / (1 + sum), the loss's derivative per dot difference.
    Without negatives the loss is 0 and the weights are empty."""
    x = neg[None, :] - pos[:, None]
    m = float(x.max(initial=0.0))
    loss = m + math.log(math.exp(-m) + np.exp(x - m).sum())
    return loss, np.exp(x - loss)


def _anchor_structure(samples) -> list[tuple[int, list[int], list[int]]]:
    """(anchor, positives, negatives) index triples; anchors need >= 1 positive,
    and a batch needs one anchor."""
    keys = [(s.video, s.identity) for s in samples]
    # Tracks whose well-localized elements are in the minority no longer carry
    # a dominant identity; they act as pure negatives (the corruption they
    # simulate must not be matched), never as anchors or positives.
    junk = [not s.dominant for s in samples]
    anchors = []
    for i, key in enumerate(keys):
        if junk[i]:
            continue
        pos = [j for j, k in enumerate(keys) if j != i and k == key and not junk[j]]
        if not pos:
            continue
        neg = [j for j, k in enumerate(keys) if k != key or junk[j]]
        anchors.append((i, pos, neg))
    if not anchors:
        raise ValueError("no sample in the batch has a same-identity positive")
    return anchors


def _loss_terms(z, anchors, inv_temperature: float = 1.0):
    """Per-anchor losses and pair weights, from one product ``z @ z.T`` of the
    summaries (rows of ``z``); the weights already include the inverse-temperature
    factor, so backprop uses them as d(loss)/d(dot difference)."""
    z = np.asarray(z)
    dots = (z @ z.T) * inv_temperature
    terms = [_anchor_loss(dots[i, pos], dots[i, neg]) for i, pos, neg in anchors]
    return [loss for loss, _ in terms], [w * inv_temperature for _, w in terms]


def batch_loss(
    weights: SummarizerWeights,
    samples,
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
    z = [l2_normalize(u) for u in summarize_tracks(weights, [s.track for s in samples])]
    losses, _ = _loss_terms(z, anchors, 1.0 / loss_temperature)
    return float(np.mean(losses))


def gradient(
    weights: SummarizerWeights,
    samples,
    loss_temperature: float = 0.1,
) -> tuple[SummarizerWeights, float]:
    """Exact analytic gradient of the mean anchor loss; returns (grads, loss)."""
    anchors = _anchor_structure(samples)
    outs, pack = _forward(weights, [_as_track_matrix(weights, s.track) for s in samples])
    norms = np.array([float(np.linalg.norm(u)) for u in outs])
    z = outs / norms[:, None]

    losses, pair_w = _loss_terms(z, anchors, 1.0 / loss_temperature)
    loss = float(np.mean(losses))

    # g[i, j]: d(loss of anchor i) / d(z_i . z_j)
    g = np.zeros((len(z), len(z)))
    for (i, pos, neg), w in zip(anchors, pair_w):
        g[i, neg] = w.sum(axis=0)
        g[i, pos] = -w.sum(axis=1)
    dz = (g + g.T) @ z / len(anchors)

    grads = weights.zeros_like()
    # rows of samples outside every anchor's loss stay zero
    dout = (dz - np.einsum("ij,ij->i", dz, z)[:, None] * z) / norms[:, None]
    _backward(weights, pack, dout, grads)
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
        fh.write(weights.flat.astype("<f8").tobytes())


def load_weights(path) -> SummarizerWeights:
    with open(path, "rb") as fh:
        magic = fh.read(len(WEIGHTS_MAGIC))
        if magic != WEIGHTS_MAGIC:
            raise ValueError(f"{path}: not a summarizer weights file: bad magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated weights file header")
        version, c_in, cm, n_layers, n_heads, ffn = struct.unpack("<6I", header)
        if version != WEIGHTS_VERSION:
            raise ValueError(f"{path}: unsupported weights version {version}")
        try:
            cfg = SummarizerConfig(c_in, cm, n_layers, n_heads, ffn)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        size, left = 8 * _n_params(cfg), os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:
            what = "truncated weights file" if left < size else "trailing bytes in weights file"
            raise ValueError(f"{path}: {what}: {left} parameter bytes, the header implies {size}")
        buf = fh.read(size)
    flat = np.frombuffer(buf, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        layout = _layout(cfg)
        ends = np.cumsum([math.prod(shape) for _, shape in layout])
        name = layout[int(np.searchsorted(ends, bad[0], side="right"))][0]
        raise ValueError(f"{path}: parameter {name} holds a non-finite value ({flat[bad[0]]})")
    return SummarizerWeights(cfg, flat)
