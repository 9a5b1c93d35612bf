"""Matching clip tracklets against global video-level tracks, and merging.

Three matchers (IoU chaining in the shared overlap frame, temporally averaged
feature matching, learned track-summary matching) and three history views
(two_clip, moving_average, feature_bank) combine freely.  All matchers return
an Assignment whose rows are the store's tracks in ascending id order and
whose columns are the given tracklets in order.

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


@dataclass(frozen=True)
class MatchConfig:
    """Which inter-clip matcher to run and its gate."""

    matcher: str = "temporal_average"
    match_threshold: float = 0.5

    def __post_init__(self):
        if self.matcher not in MATCHERS:
            raise ValueError(f"unknown matcher {self.matcher!r}")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ValueError("match threshold must lie in [0, 1]")


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


def _mean_embedding(embeddings: list[Embedding]) -> Embedding:
    return l2_normalize(np.mean(np.stack(embeddings), axis=0))


def match_iou_chain(
    store: GlobalTrackStore,
    tracklets: list[Tracklet],
    overlap_frames,
    iou_threshold: float = 0.5,
) -> Assignment:
    """Chain tracks through box overlap in the earliest shared frame.

    Only pairs with boxes in that exact frame can match; tracks or tracklets
    absent from it stay unmatched.  A pair is allowed at IoU >= iou_threshold
    and taken under the module's shared objective, with cost ``1 - IoU``.
    Not applicable without overlap frames.
    """
    overlap = sorted(overlap_frames)
    if not overlap:
        raise ValueError("IoU chaining requires at least one overlapping frame")
    frame = overlap[0]
    rows = store.ordered_tracks()
    if not rows or not tracklets:
        return Assignment.all_unmatched(len(rows), len(tracklets))
    cost = np.full((len(rows), len(tracklets)), np.inf)
    for r, track in enumerate(rows):
        track_box = track.box_at(frame)
        if track_box is None:
            continue
        for c, tracklet in enumerate(tracklets):
            det = next((d for d in tracklet.entries if d.frame == frame), None)
            if det is None:
                continue
            cost[r, c] = 1.0 - iou(track_box, det.box)
    return solve_cost_limited(cost, 1.0 - iou_threshold)


def match_temporal_average(
    store: GlobalTrackStore, tracklets: list[Tracklet], threshold: float = 0.5
) -> Assignment:
    """Match mean-pooled, L2-normalized embeddings of histories and tracklets.

    Cost is ``1 - cosine``, allowed at cosine >= threshold and taken under the
    module's shared objective.
    """
    rows = store.ordered_tracks()
    if not rows or not tracklets:
        return Assignment.all_unmatched(len(rows), len(tracklets))
    reps = [
        _mean_embedding(history_representation(t, store.management, store.momentum))
        for t in rows
    ]
    clip_reps = [_mean_embedding([d.embedding for d in t.entries]) for t in tracklets]
    cost = np.array([[1.0 - float(np.dot(a, b)) for b in clip_reps] for a in reps])
    return solve_cost_limited(cost, 1.0 - threshold)


def match_clip_tracker(
    store: GlobalTrackStore,
    tracklets: list[Tracklet],
    weights: SummarizerWeights,
    threshold: float = 0.5,
) -> Assignment:
    """Match learned summaries of track histories against tracklet summaries.

    Cost is ``1 - cosine`` of the L2-normalized summaries, allowed at cosine
    >= threshold and taken under the module's shared objective.  All histories
    and tracklets are summarized together, in packed forwards.
    """
    rows = store.ordered_tracks()
    if not rows or not tracklets:
        return Assignment.all_unmatched(len(rows), len(tracklets))
    histories = [np.stack(history_representation(t, store.management, store.momentum)) for t in rows]
    summaries = [
        l2_normalize(u)
        for u in summarize_tracks(weights, histories + [t.embeddings() for t in tracklets])
    ]
    reps, clip_reps = summaries[: len(rows)], summaries[len(rows) :]
    cost = np.array([[1.0 - float(np.dot(a, b)) for b in clip_reps] for a in reps])
    return solve_cost_limited(cost, 1.0 - threshold)


def match(
    store: GlobalTrackStore,
    tracklets: list[Tracklet],
    cfg: MatchConfig,
    overlap_frames=(),
    weights: SummarizerWeights | None = None,
) -> Assignment:
    """Dispatch to the configured matcher."""
    if cfg.matcher == "iou_chain":
        return match_iou_chain(store, tracklets, overlap_frames, cfg.match_threshold)
    if cfg.matcher == "temporal_average":
        return match_temporal_average(store, tracklets, cfg.match_threshold)
    if weights is None:
        raise ValueError("clip_tracker matching requires summarizer weights")
    return match_clip_tracker(store, tracklets, weights, cfg.match_threshold)


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
            _fold(store, track, store.tracks.pop(other_id))
        fresh = [
            d
            for d in tracklets[c].entries
            if d.frame > track.last_frame and detection_key(d) not in store.owner
        ]
        _append(store, track, fresh)
    for c in assignment.unmatched_cols:
        fresh = [d for d in tracklets[c].entries if detection_key(d) not in store.owner]
        if not fresh:
            continue
        track = GlobalTrack(id=store.next_id)
        store.next_id += 1
        store.tracks[track.id] = track
        _append(store, track, fresh)
    return store


def _append(store: GlobalTrackStore, track: GlobalTrack, fresh: list[Detection]) -> None:
    if not fresh:
        return
    track.entries.extend(fresh)
    track.last_frame = fresh[-1].frame
    track.embedding_buffer.extend((d.frame, d.embedding) for d in fresh)
    if len(track.embedding_buffer) > store.buffer_size:
        del track.embedding_buffer[: len(track.embedding_buffer) - store.buffer_size]
    track.last_added = [d.embedding for d in fresh]
    for d in fresh:
        store.owner[detection_key(d)] = track.id


def _fold(store: GlobalTrackStore, track: GlobalTrack, other: GlobalTrack) -> None:
    """Move ``other``'s entries into ``track``; on a frame both hold, ``track``'s stays."""
    kept = {d.frame: d for d in track.entries}
    for d in other.entries:
        if kept.setdefault(d.frame, d) is d:
            store.owner[detection_key(d)] = track.id
        else:
            del store.owner[detection_key(d)]
    if other.last_frame > track.last_frame:
        track.last_added = other.last_added
    track.entries = [kept[f] for f in sorted(kept)]
    track.last_frame = track.entries[-1].frame
    track.embedding_buffer = [
        (d.frame, d.embedding) for d in track.entries[-store.buffer_size :]
    ]
