"""Clip-based multi-object tracking: associate detections within short clips,
then merge clip tracklets into global tracks with appearance histories."""

__version__ = "0.1.0"

from .core import (
    Assignment,
    BoundingBox,
    Detection,
    GlobalTrack,
    Tracklet,
    bisoftmax_affinity,
    cosine_similarity,
    iou,
    solve_assignment,
)
from .inter_clip import (
    GlobalTrackStore,
    history_representation,
    match_clip_tracker,
    match_iou_chain,
    match_temporal_average,
    merge,
)
from .intra_clip import Clip, associate_direction_free, associate_directional
from .metrics import EvalReport, evaluate, tracks_from_global
from .pipeline import PipelineConfig, frame_by_frame_baseline, run, sweep
from .scenario import (
    GroundTruth,
    Interruption,
    ScenarioConfig,
    build_proposal_pool,
    generate,
    jittered_proposals,
)
from .summarizer import (
    SummarizerConfig,
    SummarizerWeights,
    contrastive_loss,
    forward_summarize,
    gradient,
    init_weights,
    load_weights,
    save_weights,
    summarize_tracks,
)
from .training import (
    AugmentConfig,
    TrainConfig,
    TrainSample,
    build_track_samples,
    track_mixup,
    train,
)
