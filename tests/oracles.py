"""Independent brute-force references the test suite checks the library against.

Everything here is written for clarity over speed and deliberately avoids the
library's own algorithmic code paths, except ``reference_evaluate``: the scorer
in its earlier three-walk form, which shares the library's IoU and solvers so
that its reports must match ``metrics.evaluate`` exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from cliptrack.core import iou, solve_assignment, solve_cost_limited


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
