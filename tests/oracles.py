"""Independent brute-force references the test suite checks the library against.

Everything here is written for clarity over speed and deliberately avoids the
library's own algorithmic code paths, except two earlier forms of library
code.  ``reference_evaluate`` is the scorer in its three-walk form; it shares
the library's IoU and solvers, so its reports must match ``metrics.evaluate``
exactly.  ``reference_gradient`` is the summarizer gradient with one backward
per track; it shares the library's forward and loss, and matches
``summarizer.gradient`` up to the last bits of its sums.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from cliptrack.core import iou, solve_assignment, solve_cost_limited
from cliptrack.summarizer import (
    _anchor_structure,
    _as_track_matrix,
    _forward,
    _gelu_grad,
    _layer_norm_backward,
    _loss_terms,
)


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm embedding")
    return float(np.dot(a, b)) / (na * nb)


def brute_force_assignment(cost, max_cost):
    """Exhaustive gated matching: max cardinality, then min exact total cost,
    then lexicographically smallest pair list.  Returns (pairs, total_cost)."""
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    allowed = np.isfinite(c) & (c <= max_cost)

    ints = [[0] * m for _ in range(n)]
    max_shift = 0
    for i in range(n):
        for j in range(m):
            if allowed[i, j]:
                f = Fraction(float(c[i, j]))
                max_shift = max(max_shift, f.denominator.bit_length() - 1)
    for i in range(n):
        for j in range(m):
            if allowed[i, j]:
                f = Fraction(float(c[i, j]))
                ints[i][j] = f.numerator << (max_shift - (f.denominator.bit_length() - 1))

    best = None
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            pairs = tuple((i, j) for i, j in enumerate(cols) if allowed[i, j])
            total = sum(ints[i][j] for i, j in pairs)
            key = (-len(pairs), total, pairs)
            if best is None or key < best:
                best = key
    else:
        for rows in itertools.permutations(range(n), m):
            pairs = tuple(sorted((i, j) for j, i in enumerate(rows) if allowed[i, j]))
            total = sum(ints[i][j] for i, j in pairs)
            key = (-len(pairs), total, pairs)
            if best is None or key < best:
                best = key
    pairs = best[2]
    exact_total = sum(Fraction(float(c[i, j])) for i, j in pairs)
    return pairs, exact_total


def brute_force_cost_limited(cost, max_cost):
    """Exhaustive matching that minimizes the exact total of cost - max_cost
    over matched allowed pairs; ties go to the lexicographically smallest
    vector of each row's column, an unmatched row ranking after every column.
    Returns (pairs, total)."""
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    gate = Fraction(float(max_cost))
    gain = {
        (i, j): Fraction(float(c[i, j])) - gate
        for i in range(n)
        for j in range(m)
        if math.isfinite(c[i, j]) and c[i, j] <= max_cost
    }
    best = None
    if n <= m:
        candidates = (tuple(enumerate(cols)) for cols in itertools.permutations(range(m), n))
    else:
        candidates = (
            tuple(sorted((i, j) for j, i in enumerate(rows)))
            for rows in itertools.permutations(range(n), m)
        )
    for full in candidates:
        pairs = tuple(p for p in full if p in gain and gain[p] <= 0)
        by_row = dict(pairs)
        key = (sum(gain[p] for p in pairs), tuple(by_row.get(i, math.inf) for i in range(n)))
        if best is None or key < best[0]:
            best = (key, pairs)
    return best[1], best[0][0]


def naive_single_linkage(detections, merge_threshold):
    """Cubic agglomerative clustering over detections with same-frame exclusion.

    Detections are indexed in the order given; singleton clusters take those
    indices as ids and merged clusters take fresh increasing ids.  Cluster
    distance is the minimum pairwise embedding distance (1 - cosine), pairs
    sharing a frame are infinitely far, and clusters whose frame sets overlap
    can never merge.  Returns the final partition as a set of frozensets of
    detection indices.
    """
    n = len(detections)
    base = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if detections[i].frame != detections[j].frame:
                d = 1.0 - cosine_similarity(detections[i].embedding, detections[j].embedding)
                base[i][j] = base[j][i] = d

    members = {i: {i} for i in range(n)}
    frames = {i: {detections[i].frame} for i in range(n)}
    next_id = n
    while True:
        best = None
        for a, b in itertools.combinations(sorted(members), 2):
            if frames[a] & frames[b]:
                continue
            d = min(base[i][j] for i in members[a] for j in members[b])
            if math.isinf(d):
                continue
            key = (d, a, b)
            if best is None or key < best:
                best = key
        if best is None or best[0] > merge_threshold:
            break
        d, a, b = best
        members[next_id] = members.pop(a) | members.pop(b)
        frames[next_id] = frames.pop(a) | frames.pop(b)
        next_id += 1
    return {frozenset(v) for v in members.values()}


def finite_difference_gradient(loss_fn, params: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function of a flat parameter vector."""
    grad = np.zeros_like(params)
    for k in range(params.size):
        p = params.copy()
        p[k] += step
        hi = loss_fn(p)
        p[k] -= 2 * step
        lo = loss_fn(p)
        grad[k] = (hi - lo) / (2 * step)
    return grad


def best_identity_bijection_overlap(overlap: np.ndarray) -> int:
    """Exhaustive max-total-overlap injective mapping of rows to columns."""
    n, m = overlap.shape
    best = 0
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            best = max(best, sum(int(overlap[i, j]) for i, j in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n), m):
            best = max(best, sum(int(overlap[i, j]) for j, i in enumerate(rows)))
    return best


# The scorer as it was before the one-pass rewrite of ``metrics.evaluate``: a
# per-frame matching walk, a G x P x F overlap count, and a per-gt switch walk.


def _frame_matching(gt, pred, gate: float):
    """Per-frame optimal gated matching: frame -> {gt id -> pred id}."""
    frames = sorted(
        {f for track in gt.values() for f in track}
        | {f for track in pred.values() for f in track}
    )
    gt_ids = sorted(gt)
    pred_ids = sorted(pred)
    per_frame: dict[int, dict[int, int]] = {}
    counts = {"fp": 0, "fn": 0}
    for f in frames:
        g_here = [i for i in gt_ids if f in gt[i]]
        p_here = [i for i in pred_ids if f in pred[i]]
        matches: dict[int, int] = {}
        if g_here and p_here:
            cost = np.array(
                [[1.0 - iou(gt[gi][f], pred[pi][f]) for pi in p_here] for gi in g_here]
            )
            assignment = solve_assignment(cost, 1.0 - gate)
            matches = {g_here[r]: p_here[c] for r, c in assignment.pairs}
        per_frame[f] = matches
        counts["fn"] += len(g_here) - len(matches)
        counts["fp"] += len(p_here) - len(matches)
    return per_frame, counts


def _identity_overlap(gt, pred, gate: float) -> np.ndarray:
    """overlap[g, p]: frames where both exist and their boxes pass the gate."""
    gt_ids = sorted(gt)
    pred_ids = sorted(pred)
    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    for gi, g in enumerate(gt_ids):
        for pi, p in enumerate(pred_ids):
            overlap[gi, pi] = sum(
                1 for f, box in gt[g].items() if f in pred[p] and iou(box, pred[p][f]) >= gate
            )
    return overlap


def reference_evaluate(gt, pred, iou_gate: float = 0.5) -> dict:
    """The three-walk scorer's report, as ``asdict(EvalReport)``."""
    n_gt = sum(len(t) for t in gt.values())
    n_pred = sum(len(t) for t in pred.values())

    idtp = 0
    if gt and pred:
        overlap = _identity_overlap(gt, pred, iou_gate)
        assignment = solve_cost_limited(np.where(overlap > 0, -overlap, np.inf), 0.0)
        idtp = int(sum(overlap[r, c] for r, c in assignment.pairs))
    idfn = n_gt - idtp
    idfp = n_pred - idtp
    idf1 = 2.0 * idtp / (2.0 * idtp + idfp + idfn)

    per_frame, counts = _frame_matching(gt, pred, iou_gate)

    id_switches = 0
    fragmentations = 0
    for g in sorted(gt):
        last_pred = None
        matched_before = False
        prev_matched = False
        for f in sorted(gt[g]):
            pred_id = per_frame.get(f, {}).get(g)
            if pred_id is not None:
                if last_pred is not None and pred_id != last_pred:
                    id_switches += 1
                if matched_before and not prev_matched:
                    fragmentations += 1
                last_pred = pred_id
                matched_before = True
                prev_matched = True
            else:
                prev_matched = False

    mota_raw = 1.0 - (counts["fn"] + counts["fp"] + id_switches) / n_gt
    return dict(
        idf1=idf1,
        mota=max(0.0, mota_raw),
        mota_raw=mota_raw,
        id_switches=id_switches,
        fragmentations=fragmentations,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        fp=counts["fp"],
        fn=counts["fn"],
        n_gt_boxes=n_gt,
        n_pred_boxes=n_pred,
    )


# The summarizer's backward as it was before it ran once per pack: one pass per
# track, over that track's rows and its slice of its bucket's attention cache.
# It reuses the library's forward, loss terms and layer-norm and GELU backward.


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    t, cm = x.shape
    return x.reshape(t, n_heads, cm // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def _backward(weights, pack, place, i: int, dout: np.ndarray, grads):
    """Accumulate into ``grads`` the gradient of ``dout . summary`` of track ``i`` of ``pack``."""
    cfg = weights.config
    track = pack.tracks[i]
    r0, bucket, j = place[i]
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


def reference_gradient(weights, samples, loss_temperature: float = 0.1):
    """``summarizer.gradient`` with one backward per sample; returns (grads, loss)."""
    anchors = _anchor_structure(samples)
    if not anchors:
        raise ValueError("no sample in the batch has a same-identity positive")

    outs, pack = _forward(weights, [_as_track_matrix(weights, s.track) for s in samples])
    # (token row, bucket, position in bucket) of each input track
    place = [None] * len(samples)
    for b, (r0, group, length) in enumerate(pack.buckets):
        for j, i in enumerate(group):
            place[i] = (r0 + j * length, b, j)
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
        _backward(weights, pack, place, s_idx, du, grads)
    return grads, loss
