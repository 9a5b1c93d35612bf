"""Association of detections within a single clip into tracklets.

Two interchangeable matchers:

* directional -- frames are swept left to right, detections are assigned to
  open tracks by bi-softmax affinity plus gated minimum-cost matching, and
  briefly lost tracks are kept revivable for a bounded number of frames.
* direction-free -- frame order is ignored and detections are merged by
  single linkage by a sorted sweep over sub-threshold pairs, ties by cluster
  id, with same-frame pairs never joined and frame-overlapping clusters
  unmergeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Detection,
    Tracklet,
    bisoftmax_affinity,
    solve_assignment,
)


@dataclass(frozen=True, eq=False)
class Clip:
    """A contiguous window of frames and their detections."""

    start_frame: int
    end_frame: int
    detections_per_frame: tuple[tuple[Detection, ...], ...]

    def __post_init__(self):
        if self.end_frame < self.start_frame:
            raise ValueError("clip end before start")
        if len(self.detections_per_frame) != self.end_frame - self.start_frame + 1:
            raise ValueError("one detection list per frame required")

    def __len__(self) -> int:
        return self.end_frame - self.start_frame + 1

    @property
    def detections(self) -> list[Detection]:
        return [d for frame in self.detections_per_frame for d in frame]


@dataclass
class _OpenTrack:
    local_id: int
    entries: list[Detection]
    misses: int = 0


def associate_directional(
    clip: Clip,
    init_score: float = 0.5,
    match_threshold: float = 0.5,
    patience: int | None = None,
    temperature: float = 0.1,
) -> list[Tracklet]:
    """Sweep the clip left to right, matching detections to open tracks.

    Only detections with score >= init_score take part.  A track missing from
    more than ``patience`` consecutive frames is finalized and can no longer be
    revived; ``patience`` defaults to the clip length, i.e. tracks stay
    revivable for the whole clip.
    """
    if patience is None:
        patience = len(clip)
    open_tracks: list[_OpenTrack] = []
    done: list[_OpenTrack] = []
    next_local = 0

    for offset, frame_dets in enumerate(clip.detections_per_frame):
        frame = clip.start_frame + offset
        dets = [d for d in frame_dets if d.score >= init_score]

        matched_tracks: set[int] = set()
        matched_dets: set[int] = set()
        if open_tracks and dets:
            affinity = bisoftmax_affinity(
                [t.entries[-1].embedding for t in open_tracks],
                [d.embedding for d in dets],
                temperature,
            )
            assignment = solve_assignment(1.0 - affinity, 1.0 - match_threshold)
            for r, c in assignment.pairs:
                track = open_tracks[r]
                det = dets[c]
                track.entries.append(det)
                track.misses = 0
                matched_tracks.add(r)
                matched_dets.add(c)

        survivors = []
        for r, track in enumerate(open_tracks):
            if r in matched_tracks:
                survivors.append(track)
                continue
            track.misses += 1
            if track.misses > patience:
                done.append(track)
            else:
                survivors.append(track)
        open_tracks = survivors

        for c, det in enumerate(dets):
            if c in matched_dets:
                continue
            open_tracks.append(_OpenTrack(next_local, [det]))
            next_local += 1

    done.extend(open_tracks)
    done.sort(key=lambda t: t.local_id)
    span = (clip.start_frame, clip.end_frame)
    return [Tracklet(t.local_id, tuple(t.entries), span) for t in done]


def associate_direction_free(clip: Clip, merge_threshold: float = 0.4) -> list[Tracklet]:
    """Cluster the clip's detections into tracklets ignoring frame order.

    Single linkage over embedding distances (1 - cosine similarity) by a sorted
    sweep over the sub-threshold pairs: pairs in one frame never join, and a
    pair whose clusters share a frame is skipped.  Among pairs at equal
    distance the clusters with the lowest (lower, higher) cluster id pair merge
    first; detections take ids 0..n-1 and each merged cluster the next id.
    """
    if math.isnan(merge_threshold):
        raise ValueError("merge_threshold must not be NaN")
    dets = clip.detections
    n = len(dets)
    if n == 0:
        return []

    _, frames = np.unique([d.frame for d in dets], return_inverse=True)
    emb = np.stack([np.asarray(d.embedding, dtype=np.float64) for d in dets])
    norms = np.linalg.norm(emb, axis=1)
    cross = frames[:, None] != frames[None, :]
    if np.any(cross[norms == 0.0]):
        raise ValueError("cosine similarity undefined for zero-norm embedding")
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = 1.0 - (emb @ emb.T) / np.outer(norms, norms)
    ii, jj = np.nonzero(np.triu(cross & (dist <= merge_threshold), k=1))
    pair_d = dist[ii, jj]
    order = np.argsort(pair_d, kind="stable")  # nonzero gives (i, j) in row-major order
    pair_d, ii, jj = pair_d[order].tolist(), ii[order].tolist(), jj[order].tolist()

    root = list(range(n))
    cluster_id = list(range(n))
    frame_mask = [1 << f for f in frames.tolist()]
    next_id = n

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    def mergeable(pair: tuple[int, int]) -> bool:
        a, b = find(pair[0]), find(pair[1])
        return a != b and not frame_mask[a] & frame_mask[b]

    def id_pair(pair: tuple[int, int]) -> tuple[int, int]:
        ids = cluster_id[find(pair[0])], cluster_id[find(pair[1])]
        return min(ids), max(ids)

    start = 0
    while start < len(pair_d):
        stop = start + 1
        while stop < len(pair_d) and pair_d[stop] == pair_d[start]:
            stop += 1
        pending = list(zip(ii[start:stop], jj[start:stop]))
        start = stop
        while pending := [p for p in pending if mergeable(p)]:
            a, b = (find(i) for i in min(pending, key=id_pair))
            root[b] = a
            frame_mask[a] |= frame_mask[b]
            cluster_id[a] = next_id
            next_id += 1

    groups: dict[int, list[Detection]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(dets[i])
    span = (clip.start_frame, clip.end_frame)
    return [
        Tracklet(local_id, tuple(sorted(members, key=lambda d: d.frame)), span)
        for local_id, members in enumerate(groups.values())
    ]
