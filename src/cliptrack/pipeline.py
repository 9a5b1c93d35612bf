"""Clip-level tracking driver: sample clips, associate within, merge between.

Clips of ``clip_size`` frames start every ``clip_interval`` frames (overlap
allowed, gaps not); each clip is associated into tracklets, matched against
the global track store, and merged.  With clip size and interval 1 and the
two-clip history this reduces exactly to a sequential frame-by-frame tracker;
that baseline is implemented here too and the equivalence is bitwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .core import Assignment, Detection, GlobalTrack, solve_cost_limited
from .inter_clip import (
    MANAGEMENT_STRATEGIES,
    MATCHERS,
    GlobalTrackStore,
    cosine_cost,
    match,
    mean_embedding,
    merge,
)
from .intra_clip import Clip, associate_direction_free, associate_directional
from .metrics import EvalReport, Tracks, evaluate, tracks_from_global
from .summarizer import SummarizerWeights

INTRA_VARIANTS = ("directional", "direction_free")


@dataclass(frozen=True)
class PipelineConfig:
    clip_size: int = 10
    clip_interval: int = 5
    intra: str = "directional"
    inter: str = "temporal_average"
    management: str = "feature_bank"
    buffer_size: int = 30
    init_score: float = 0.5
    match_threshold: float = 0.5
    merge_threshold: float = 0.4
    iou_threshold: float = 0.5
    temperature: float = 0.1
    patience: int | None = None  # None: stay revivable for the whole clip
    momentum: float = 0.8
    weights_path: str | None = None

    def __post_init__(self):
        if self.clip_size < 1:
            raise ValueError("clip size must be >= 1")
        if not 1 <= self.clip_interval <= self.clip_size:
            raise ValueError("clip interval must lie in [1, clip size]; gapped clips are not supported")
        if self.intra not in INTRA_VARIANTS:
            raise ValueError(f"unknown intra variant {self.intra!r}")
        if self.inter not in MATCHERS:
            raise ValueError(f"unknown inter matcher {self.inter!r}")
        if self.management not in MANAGEMENT_STRATEGIES:
            raise ValueError(f"unknown management strategy {self.management!r}")
        for name in ("init_score", "match_threshold", "iou_threshold"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not (math.isfinite(self.merge_threshold) and self.merge_threshold >= 0.0):
            raise ValueError("merge_threshold must be finite and >= 0")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be > 0")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.inter == "iou_chain" and self.clip_interval == self.clip_size:
            raise ValueError(
                "inter 'iou_chain' needs an overlap frame: clip_interval must be < clip_size"
            )

    @staticmethod
    def high_fps(**overrides) -> "PipelineConfig":
        base = PipelineConfig(clip_size=10, clip_interval=5, buffer_size=30)
        return replace(base, **overrides)

    @staticmethod
    def low_fps(**overrides) -> "PipelineConfig":
        base = PipelineConfig(clip_size=6, clip_interval=3, buffer_size=10)
        return replace(base, **overrides)


def _associate_clip(clip: Clip, cfg: PipelineConfig):
    if cfg.intra == "directional":
        return associate_directional(
            clip,
            init_score=cfg.init_score,
            match_threshold=cfg.match_threshold,
            patience=cfg.patience,
            temperature=cfg.temperature,
        )
    return associate_direction_free(clip, merge_threshold=cfg.merge_threshold)


def run(
    detections: list[list[Detection]],
    cfg: PipelineConfig,
    weights: SummarizerWeights | None = None,
    on_clip_end=None,
) -> list[GlobalTrack]:
    """Track a whole detection stream; returns the store's tracks by id."""
    if cfg.inter == "clip_tracker" and weights is None:
        raise ValueError("clip_tracker matching requires summarizer weights")
    n = len(detections)
    store = GlobalTrackStore(
        buffer_size=cfg.buffer_size, management=cfg.management, momentum=cfg.momentum
    )
    if n == 0:
        return []

    processed_end = 0
    start = 0
    while start < n:
        end = min(start + cfg.clip_size, n)
        clip = Clip(start, end - 1, tuple(tuple(f) for f in detections[start:end]))
        tracklets = _associate_clip(clip, cfg)

        overlap = range(start, min(processed_end, end))
        if not store.tracks:
            assignment = Assignment.all_unmatched(0, len(tracklets))
        else:
            threshold = cfg.iou_threshold if cfg.inter == "iou_chain" else cfg.match_threshold
            assignment = match(store, tracklets, cfg.inter, threshold, overlap, weights)
        merge(store, assignment, tracklets)

        processed_end = max(processed_end, end)
        if on_clip_end is not None:
            on_clip_end(store)
        if end == n:
            break
        start += cfg.clip_interval
    return store.ordered_tracks()


def frame_by_frame_baseline(
    detections: list[list[Detection]], cfg: PipelineConfig
) -> list[GlobalTrack]:
    """Sequential tracking-by-detection reference.

    Per frame: detections above init_score are matched to each track's most
    recent embedding by cosine similarity gated at match_threshold, under the
    inter-clip matching objective (a pair is taken only where ``1 - cosine``
    beats the gate; ``core.solve_cost_limited``); leftovers open new tracks.
    It shares the temporal-average matcher's mean and cost helpers, so its
    arithmetic is that path's exactly.
    """
    tracks: dict[int, GlobalTrack] = {}
    next_id = 1
    for frame_dets in detections:
        dets = [d for d in frame_dets if d.score >= cfg.init_score]
        ids = sorted(tracks)
        matched_cols: set[int] = set()
        if ids and dets:
            reps = [mean_embedding([tracks[i].entries[-1].embedding]) for i in ids]
            det_reps = [mean_embedding([d.embedding]) for d in dets]
            assignment = solve_cost_limited(
                cosine_cost(reps, det_reps), 1.0 - cfg.match_threshold
            )
            for r, c in assignment.pairs:
                tracks[ids[r]].extend([dets[c]], cfg.buffer_size)
                matched_cols.add(c)
        for c, det in enumerate(dets):
            if c in matched_cols:
                continue
            track = GlobalTrack(id=next_id)
            next_id += 1
            tracks[track.id] = track
            track.extend([det], cfg.buffer_size)
    return [tracks[i] for i in sorted(tracks)]


def sweep(
    detections: list[list[Detection]],
    gt_tracks: Tracks,
    grid: list[tuple[int, int]],
    base_cfg: PipelineConfig,
    weights: SummarizerWeights | None = None,
) -> list[dict]:
    """Run each (clip size, clip interval) cell and score it.

    Per-cell failures do not abort the sweep; the row carries the error text.
    """
    rows: list[dict] = []
    for clip_size, clip_interval in grid:
        cell = {
            "clip_size": clip_size,
            "clip_interval": clip_interval,
            "intra": base_cfg.intra,
            "inter": base_cfg.inter,
            "management": base_cfg.management,
        }
        try:
            cfg = replace(base_cfg, clip_size=clip_size, clip_interval=clip_interval)
            tracks = run(detections, cfg, weights)
            report = evaluate(gt_tracks, tracks_from_global(tracks), base_cfg.iou_threshold)
            cell.update(status="ok", **asdict(report))
        except ValueError as err:
            cell.update(status=f"error: {err}")
        rows.append(cell)
    return rows


SWEEP_COLUMNS = [
    "clip_size", "clip_interval", "intra", "inter", "management", "status",
    *[f.name for f in EvalReport.__dataclass_fields__.values()],
]
