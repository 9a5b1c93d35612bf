"""Independent brute-force references the test suite checks the library against.

Everything here is written for clarity over speed and deliberately avoids the
library's own algorithmic code paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


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
