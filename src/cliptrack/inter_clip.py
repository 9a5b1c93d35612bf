"""Matching clip tracklets against global video-level tracks, and merging.

One ``match`` runs every matcher.  A matcher only decides how a track-tracklet
pair is scored:

* ``iou_chain``: ``1 - IoU`` of the boxes in the earliest overlap frame; a
  track or tracklet absent from that frame matches nothing;
* ``temporal_average``: ``1 - cosine`` of the L2-normalized means of the
  track's history view and of the tracklet's embeddings;
* ``clip_tracker``: ``1 - cosine`` of the L2-normalized learned summaries of
  the same, all evaluated in one packed ``summarize_tracks`` call.

History views (two_clip, moving_average, feature_bank) combine freely with
the embedding matchers.  ``match`` returns an Assignment whose rows are the
store's tracks in ascending id order and whose columns are the given
tracklets in order.

Matching objective, shared by every matcher: a track-tracklet pair is allowed
when its cost is at most the gate (``1 - threshold``), and the matching
minimizes the total of ``cost - gate`` over matched pairs
(``core.solve_cost_limited``).  A pair is taken only where it costs less than
leaving both sides unmatched, so a strong pair is never traded for an extra
weak one.

Merging gives every input detection, keyed by ``(frame, source_index)``, at
most one owning track; see ``merge``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Assignment,
    Detection,
    Embedding,
    GlobalTrack,
    Tracklet,
    iou,
    solve_cost_limited,
)
# bench/harness.py traces ``inter_clip.forward_summarize`` by name, so it stays imported.
from .summarizer import (  # noqa: F401
    SummarizerWeights,
    forward_summarize,
    l2_normalize,
    summarize_tracks,
)

MANAGEMENT_STRATEGIES = ("two_clip", "moving_average", "feature_bank")
MATCHERS = ("iou_chain", "temporal_average", "clip_tracker")


DetectionKey = tuple[int, int]  # (frame, source_index): unique per input detection


def detection_key(det: Detection) -> DetectionKey:
    return (det.frame, det.source_index)


@dataclass
class GlobalTrackStore:
    """Single-writer collection of global tracks; ids are never reused.

    ``owner`` maps each stored detection to the id of the one track holding it.
    """

    buffer_size: int = 10
    management: str = "feature_bank"
    momentum: float = 0.8
    tracks: dict[int, GlobalTrack] = field(default_factory=dict)
    next_id: int = 1
    owner: dict[DetectionKey, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.management not in MANAGEMENT_STRATEGIES:
            raise ValueError(f"unknown management strategy {self.management!r}")
        if self.buffer_size < 1:
            raise ValueError("buffer size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")

    def ordered_tracks(self) -> list[GlobalTrack]:
        return [self.tracks[i] for i in sorted(self.tracks)]


def history_representation(
    track: GlobalTrack, strategy: str, momentum: float = 0.8
) -> list[Embedding]:
    """The embedding history a matcher sees for one global track.

    two_clip: only the embeddings appended by the most recent extending merge;
    moving_average: a single exponentially smoothed embedding folded over every
    appended embedding; feature_bank: the full recency buffer.
    """
    if not track.entries:
        raise ValueError("history representation of an empty track")
    if strategy == "two_clip":
        return list(track.last_added)
    if strategy == "moving_average":
        m = track.entries[0].embedding
        for det in track.entries[1:]:
            m = momentum * m + (1.0 - momentum) * det.embedding
        return [m]
    if strategy == "feature_bank":
        return [emb for _, emb in track.embedding_buffer]
    raise ValueError(f"unknown management strategy {strategy!r}")


def mean_embedding(embeddings: list[Embedding]) -> Embedding:
    """L2-normalized mean of a list of embeddings."""
    return l2_normalize(np.mean(np.stack(embeddings), axis=0))


def cosine_cost(reps: list[Embedding], clip_reps: list[Embedding]) -> np.ndarray:
    """``1 - cosine`` of unit rows against unit columns, one ``np.dot`` per pair.

    A matrix product would change the last bit of some cells."""
    return np.array([[1.0 - float(np.dot(a, b)) for b in clip_reps] for a in reps])


def _iou_cost(rows: list[GlobalTrack], tracklets: list[Tracklet], frame: int) -> np.ndarray:
    """``1 - IoU`` in one frame; ``inf`` where either side has no box there."""
    boxes = [next((d.box for d in t.entries if d.frame == frame), None) for t in tracklets]
    cost = np.full((len(rows), len(tracklets)), np.inf)
    for r, track in enumerate(rows):
        track_box = track.box_at(frame)
        if track_box is None:
            continue
        for c, box in enumerate(boxes):
            if box is not None:
                cost[r, c] = 1.0 - iou(track_box, box)
    return cost


def match(
    store: GlobalTrackStore,
    tracklets: list[Tracklet],
    matcher: str,
    threshold: float,
    overlap_frames=(),
    weights: SummarizerWeights | None = None,
) -> Assignment:
    """Match the clip's tracklets against the store's tracks.

    A pair is allowed at IoU or cosine >= ``threshold`` and taken under the
    module's shared objective.  ``iou_chain`` needs at least one overlap
    frame, ``clip_tracker`` needs summarizer weights.
    """
    if matcher not in MATCHERS:
        raise ValueError(f"unknown matcher {matcher!r}")
    if matcher == "iou_chain" and not overlap_frames:
        raise ValueError("IoU chaining requires at least one overlapping frame")
    if matcher == "clip_tracker" and weights is None:
        raise ValueError("clip_tracker matching requires summarizer weights")
    rows = store.ordered_tracks()
    if not rows or not tracklets:
        return Assignment.all_unmatched(len(rows), len(tracklets))
    if matcher == "iou_chain":
        return solve_cost_limited(_iou_cost(rows, tracklets, min(overlap_frames)), 1.0 - threshold)
    histories = [history_representation(t, store.management, store.momentum) for t in rows]
    clip_embeddings = [[d.embedding for d in t.entries] for t in tracklets]
    if matcher == "temporal_average":
        reps = [mean_embedding(e) for e in histories + clip_embeddings]
    else:
        tracks = [np.stack(e) for e in histories + clip_embeddings]
        reps = [l2_normalize(u) for u in summarize_tracks(weights, tracks)]
    return solve_cost_limited(cosine_cost(reps[: len(rows)], reps[len(rows) :]), 1.0 - threshold)


def merge(
    store: GlobalTrackStore, assignment: Assignment, tracklets: list[Tracklet]
) -> GlobalTrackStore:
    """Fold the clip's tracklets into the store; each detection gets one owner.

    Overlapping clips hand the same input detection to two tracklets, so
    ownership is explicit: a detection already held by some track is never
    written into another one.

    * A matched tracklet that carries detections held by a track *not*
      matched in this clip shows that the two tracks are one identity: that
      track is folded into the matched one and its id retired.  The union of
      frames survives; on a frame both tracks hold, the matched track keeps its
      own entry and the other one is dropped.  Retired ids are never reused.
    * A matched track then appends the tracklet's unowned entries strictly
      beyond its last stored frame.
    * An unmatched tracklet opens a new track with a fresh id from its unowned
      entries, if it has any.
    * Other unmatched tracks persist untouched.

    The embedding buffer keeps the most recent ``buffer_size`` frames.
    """
    rows = store.ordered_tracks()
    matched_ids = {rows[r].id for r, _ in assignment.pairs}
    for r, c in assignment.pairs:
        track = rows[r]
        held_by = {store.owner.get(detection_key(d)) for d in tracklets[c].entries}
        for other_id in sorted(held_by - matched_ids - {None}):
            other = store.tracks.pop(other_id)
            dropped = track.absorb(other, store.buffer_size)
            store.owner.update((detection_key(d), track.id) for d in other.entries)
            for d in dropped:
                del store.owner[detection_key(d)]
        last_frame = track.last_frame
        fresh = [
            d
            for d in tracklets[c].entries
            if d.frame > last_frame and detection_key(d) not in store.owner
        ]
        track.extend(fresh, store.buffer_size)
        store.owner.update((detection_key(d), track.id) for d in fresh)
    for c in assignment.unmatched_cols:
        fresh = [d for d in tracklets[c].entries if detection_key(d) not in store.owner]
        if not fresh:
            continue
        track = GlobalTrack(id=store.next_id)
        store.next_id += 1
        store.tracks[track.id] = track
        track.extend(fresh, store.buffer_size)
        store.owner.update((detection_key(d), track.id) for d in fresh)
    return store
