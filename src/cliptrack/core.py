"""Domain types, geometry and similarity primitives, and the assignment solver.

Every assignment in the package (intra-clip association, inter-clip matching,
the per-frame scorer and the IDF1 bijection) goes through one exact solve path:
the allowed pairs are split into connected components, and each component is
solved alone, with an "unmatched" slot for every row.  A slot costs
``max_cost`` in ``solve_cost_limited``, and more than one more pair can add in
``solve_assignment``, which therefore maximizes the pair count first.

Embeddings are plain 1-D float64 numpy arrays throughout the package; the
helpers here validate them at construction boundaries.  All operations are
pure; values are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Embedding = np.ndarray


def as_embedding(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("embedding entries must be finite")
    return v


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box, top-left origin, positive extent."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box {name} must be finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError("box width and height must be positive")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True, eq=False)
class Detection:
    """One frame-level observation: box, confidence, appearance embedding."""

    frame: int
    box: BoundingBox
    score: float
    embedding: Embedding
    source_index: int

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError("frame index must be >= 0")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        object.__setattr__(self, "embedding", as_embedding(self.embedding))


@dataclass(frozen=True, eq=False)
class Tracklet:
    """Clip-local track: ordered detections of one identity within one clip."""

    local_id: int
    entries: tuple[Detection, ...]
    clip_range: tuple[int, int]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("tracklet must be nonempty")
        frames = [d.frame for d in self.entries]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("tracklet frames must be strictly increasing")
        lo, hi = self.clip_range
        if frames[0] < lo or frames[-1] > hi:
            raise ValueError("tracklet entries must lie within the clip range")

    def frames(self) -> list[int]:
        return [d.frame for d in self.entries]

    def embeddings(self) -> np.ndarray:
        return np.stack([d.embedding for d in self.entries])


@dataclass(eq=False)
class GlobalTrack:
    """Video-level track with a bounded buffer of recent embeddings.

    ``extend`` (append newer detections) and ``absorb`` (fold another track in)
    are the only writers of ``entries``, ``embedding_buffer`` and
    ``last_added``.  The last two are derived: ``embedding_buffer`` holds
    (frame, embedding) of the last ``buffer_size`` entries, ``last_added`` the
    embeddings appended by the latest nonempty ``extend`` (the two-clip history
    view); ``absorb`` keeps those of the track that ends later.  ``last_frame``
    is read from ``entries``.
    """

    id: int
    entries: list[Detection] = field(default_factory=list)
    embedding_buffer: list[tuple[int, Embedding]] = field(default_factory=list)
    last_added: list[Embedding] = field(default_factory=list)

    @property
    def last_frame(self) -> int:
        return self.entries[-1].frame if self.entries else -1

    def extend(self, detections: list[Detection], buffer_size: int) -> None:
        """Append ``detections``, in frame order and beyond ``last_frame``.

        An empty list changes nothing, ``last_added`` included."""
        if not detections:
            return
        self.entries.extend(detections)
        self.last_added = [d.embedding for d in detections]
        self._rebuffer(buffer_size)

    def absorb(self, other: "GlobalTrack", buffer_size: int) -> list[Detection]:
        """Fold ``other``'s entries in; on a frame both hold, this track's stays.

        Returns the entries of ``other`` that were dropped."""
        kept = {d.frame: d for d in self.entries}
        dropped = [d for d in other.entries if kept.setdefault(d.frame, d) is not d]
        if other.last_frame > self.last_frame:
            self.last_added = other.last_added
        self.entries = [kept[f] for f in sorted(kept)]
        self._rebuffer(buffer_size)
        return dropped

    def _rebuffer(self, buffer_size: int) -> None:
        self.embedding_buffer = [(d.frame, d.embedding) for d in self.entries[-buffer_size:]]

    def frames(self) -> list[int]:
        return [d.frame for d in self.entries]

    def box_at(self, frame: int) -> BoundingBox | None:
        for d in self.entries:
            if d.frame == frame:
                return d.box
        return None


@dataclass(frozen=True)
class Assignment:
    """Partial bipartite matching: matched pairs plus the leftovers of each side."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]

    @staticmethod
    def all_unmatched(n_rows: int, n_cols: int) -> "Assignment":
        return Assignment((), tuple(range(n_rows)), tuple(range(n_cols)))


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Areas are computed from the rounded edge coordinates so that
    iou(a, a) == 1.0 holds exactly.
    """
    ax2, ay2, bx2, by2 = a.x2, a.y2, b.x2, b.y2
    iw = min(ax2, bx2) - max(a.x, b.x)
    ih = min(ay2, by2) - max(a.y, b.y)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - a.x) * (ay2 - a.y)
    area_b = (bx2 - b.x) * (by2 - b.y)
    return inter / (area_a + area_b - inter)


def bisoftmax_affinity(
    queries: Sequence[Embedding], refs: Sequence[Embedding], temperature: float = 0.1
) -> np.ndarray:
    """Bi-directional softmax affinity between query and reference embeddings.

    Scaled dot products are softmax-normalized once over the references (per
    query) and once over the queries (per reference); the affinity is the mean
    of the two, so every entry lies in (0, 1].
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    q = np.stack([np.asarray(e, dtype=np.float64) for e in queries]) if len(queries) else None
    r = np.stack([np.asarray(e, dtype=np.float64) for e in refs]) if len(refs) else None
    if q is None or r is None:
        raise ValueError("bisoftmax affinity requires nonempty queries and refs")
    if q.shape[1] != r.shape[1]:
        raise ValueError("query/ref dimension mismatch")
    scores = q @ r.T / temperature
    row = np.exp(scores - scores.max(axis=1, keepdims=True))
    row /= row.sum(axis=1, keepdims=True)
    col = np.exp(scores - scores.max(axis=0, keepdims=True))
    col /= col.sum(axis=0, keepdims=True)
    return 0.5 * (row + col)


# --- assignment solver -------------------------------------------------------
#
# Pairs with cost > max_cost (or non-finite cost) are forbidden.  Both entry
# points run one routine.  It splits the allowed pairs into connected
# components, which share no row or column and so are solved alone; rows and
# columns without an allowed pair stay unmatched.  A component with one row or
# one column takes its cheapest pair, the first index on a tie.  Any other
# component of k rows and l columns is solved as a k x (l + k) grid: row a holds
# its allowed pairs and, in column l + a, its own "unmatched" slot, priced as
# leaving both a row and a column unmatched:
#
# - cost-limited (``solve_cost_limited``): ``max_cost``, i.e. ``max_cost / 2``
#   for the row and as much for the column;
# - cardinality-first (``solve_assignment``): pair costs are shifted so the
#   smallest is 0, and the slot costs ``min(k, l) * pmax + 1``, more than one
#   more pair can add to any matching, so one more pair always pays.
#
# Every float is a dyadic rational, so the costs are scaled to exact integers
# on a common power-of-two denominator, and each row's cells get one tie-break
# bit, real columns before the row's slot.  Among optimal matchings this picks
# the lexicographically smallest sorted (row, col) pair list.  The result is
# bit-reproducible across platforms and agrees with exhaustive search.


def solve_assignment(cost, max_cost: float) -> Assignment:
    """Gated minimum-cost bipartite matching with exact deterministic tie-breaks."""
    return _solve(cost, max_cost, cost_limited=False)


def solve_cost_limited(cost, max_cost: float) -> Assignment:
    """Gated matching that takes a pair only where it beats leaving both unmatched.

    Minimizes the total of ``cost - max_cost`` over matched pairs, so a pair
    under the gate is never displaced to make room for an extra, weaker one
    (``solve_assignment`` maximizes the pair count first).  Posed by giving
    every row and column that has an allowed pair a private "unmatched" slot
    at ``max_cost / 2``; a pair replaces two such slots.  A pair costing
    exactly ``max_cost`` ties with leaving both sides unmatched; the
    lexicographic tie-break, which ranks every real column before the slots,
    settles it.
    """
    return _solve(cost, max_cost, cost_limited=True)


def _solve(cost, max_cost: float, cost_limited: bool) -> Assignment:
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if cost_limited and not math.isfinite(max_cost):
        raise ValueError("max cost must be finite")
    n, m = c.shape
    ii, jj = np.nonzero(np.isfinite(c) & (c <= max_cost))
    cells = list(zip(ii.tolist(), jj.tolist()))
    costs = dict(zip(cells, c[ii, jj].tolist()))
    slot = max_cost / 2
    pairs = []
    for component in _components(cells, n, m):
        rows = sorted({i for i, _ in component})
        cols = sorted({j for _, j in component})
        k, l = len(rows), len(cols)
        if k == 1 or l == 1:
            best, i, j = min((costs[cell], *cell) for cell in component)
            if not cost_limited or best <= slot + slot:
                pairs.append((i, j))
            continue

        values = [costs[cell] for cell in component] + ([slot + slot] if cost_limited else [])
        ratios = [float(x).as_integer_ratio() for x in values]
        shift = max(d.bit_length() for _, d in ratios)
        ints = [num << (shift - d.bit_length()) for num, d in ratios]
        low = min(ints)
        ints = [x - low for x in ints]
        if cost_limited:
            *ints, unmatched = ints
        else:
            unmatched = min(k, l) * max(ints) + 1

        # Row a's cells: its allowed pairs, then its own slot column l + a.
        width = l + 1
        bits = k * width
        base = 1 << bits
        forbid = k * (max(ints + [unmatched]) + 1) * base
        grid = [[forbid] * (l + k) for _ in range(k)]
        row_at = {i: a for a, i in enumerate(rows)}
        col_at = {j: b for b, j in enumerate(cols)}
        for (i, j), x in zip(component, ints):
            a, b = row_at[i], col_at[j]
            grid[a][b] = (x + 1) * base - (1 << (bits - 1 - a * width - b))
        for a in range(k):
            grid[a][l + a] = (unmatched + 1) * base - (1 << (bits - 1 - a * width - l))
        col_to_row = _jv(grid, k, l + k)
        pairs += [(rows[col_to_row[b]], cols[b]) for b in range(l) if col_to_row[b] >= 0]

    pairs.sort()
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    return Assignment(
        tuple(pairs),
        tuple(i for i in range(n) if i not in matched_rows),
        tuple(j for j in range(m) if j not in matched_cols),
    )


def _components(
    cells: list[tuple[int, int]], n_rows: int, n_cols: int
) -> list[list[tuple[int, int]]]:
    """Connected components of the bipartite graph of ``cells`` (allowed
    (row, col) pairs), each as the list of its cells in the given order."""
    parent = list(range(n_rows + n_cols))  # column j is node n_rows + j

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in cells:
        parent[root(n_rows + j)] = root(i)
    components: dict[int, list[tuple[int, int]]] = {}
    for cell in cells:
        components.setdefault(root(cell[0]), []).append(cell)
    return list(components.values())


def _jv(a: list[list[int]], n: int, m: int) -> list[int]:
    """Shortest-augmenting-path assignment on a dense n x m integer matrix, n <= m.

    Returns col -> row (-1 for a column left free) of an optimal matching that
    covers every row.  Potentials and path costs stay integers, so every
    comparison is exact.
    """
    inf = math.inf
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)  # p[j]: row matched to column j, 1-based; 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = a[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [p[j] - 1 for j in range(1, m + 1)]
