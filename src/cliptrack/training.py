"""Training data synthesis and the SGD loop for the track summarizer.

Track samples are assembled order-free from jittered proposal pools: a sample
may repeat frames and mix quality bands.  Three sample types exist (positive
only, negative only, hybrid), drawn with configurable probabilities, and track
mixup swaps a bounded run of elements with a foreign identity's elements to
imitate drifted tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64
from .scenario import GroundTruth, ProposalPool, ScenarioConfig, build_proposal_pool, generate
from .summarizer import (
    SummarizerConfig,
    SummarizerWeights,
    gradient,
    init_weights,
)

TAG_POSITIVE = "positive"
TAG_NEGATIVE = "negative"
TAG_MIXED = "mixed_in"
POOL_PER_FRAME = 2  # proposals drawn per identity, frame and quality band


@dataclass(frozen=True, eq=False)
class TrainSample:
    """One training track: embeddings with per-element provenance tags."""

    track: np.ndarray  # (L, input_dim)
    tags: tuple[str, ...]
    identity: int
    video: int

    def __post_init__(self):
        if self.track.ndim != 2 or self.track.shape[0] < 1:
            raise ValueError("sample track must be a nonempty (L, dim) array")
        if len(self.tags) != self.track.shape[0]:
            raise ValueError("one tag per track element required")

    @property
    def dominant(self) -> bool:
        """Whether well-localized (positive) elements are at least half the track."""
        return 2 * sum(1 for t in self.tags if t == TAG_POSITIVE) >= len(self.tags)


@dataclass(frozen=True)
class AugmentConfig:
    positive_iou: float = 0.7
    negative_band: tuple[float, float] = (0.3, 0.5)
    track_type_probs: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)  # pos, neg, hybrid
    mixup_bound: float = 0.3

    def __post_init__(self):
        lo, hi = self.negative_band
        if not lo < hi:
            raise ValueError("negative band low must be below high")
        if any(p < 0 for p in self.track_type_probs):
            raise ValueError("track type probabilities must be >= 0")
        if abs(sum(self.track_type_probs) - 1.0) > 1e-9:
            raise ValueError("track type probabilities must sum to 1")
        if not 0.0 <= self.mixup_bound <= 1.0:
            raise ValueError("mixup bound must lie in [0, 1]")

    @staticmethod
    def positives_only() -> "AugmentConfig":
        return AugmentConfig(track_type_probs=(1.0, 0.0, 0.0), mixup_bound=0.0)

    @staticmethod
    def with_negatives() -> "AugmentConfig":
        return AugmentConfig(mixup_bound=0.0)

    @staticmethod
    def full() -> "AugmentConfig":
        return AugmentConfig()


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-3
    epochs: int = 40
    steps_per_epoch: int = 8
    videos_per_batch: int = 4
    tracks_per_video: int = 8
    momentum: float = 0.9
    seed: int = 0
    track_len_min: int = 2
    track_len_max: int = 10
    sample_span: int = 10  # frames one sample may draw from
    frame_window: int = 30  # max offset between group members' spans; 0 disables windowing
    group_size: int = 4  # same-identity samples drawn consecutively
    loss_temperature: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        for name in (
            "epochs", "steps_per_epoch", "videos_per_batch", "tracks_per_video",
            "sample_span", "group_size",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.frame_window < 0:
            raise ValueError("frame_window must be >= 0 (0 disables windowing)")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.loss_temperature > 0.0:
            raise ValueError("loss_temperature must be > 0")
        if not 1 <= self.track_len_min <= self.track_len_max:
            raise ValueError("bad track length range")


def build_track_samples(
    gt: GroundTruth,
    pool: ProposalPool,
    aug: AugmentConfig,
    cfg: TrainConfig,
    seed: int,
    video: int = 0,
) -> list[TrainSample]:
    """Assemble ``cfg.tracks_per_video`` track samples from the proposal pool,
    order-free over frames, each ``cfg.track_len_min`` to ``cfg.track_len_max``
    elements long.

    Identities are drawn in groups of ``cfg.group_size`` consecutive samples
    so every identity in the batch has same-identity partners (its contrastive
    positives).  Each sample draws frames from a ``cfg.sample_span``-frame
    window; later group members start their windows up to ``cfg.frame_window``
    frames after the group's first, so positive pairs rehearse
    re-identification across the temporal gaps the matcher faces after an
    interruption.  ``cfg.frame_window == 0`` draws from all frames.
    """
    rng = SplitMix64(seed)
    identities = [
        i
        for i in range(gt.config.identities)
        if pool.positives.get(i) or pool.negatives.get(i)
    ]
    if not identities:
        raise ValueError("proposal pool is empty")

    samples: list[TrainSample] = []
    for s_idx in range(cfg.tracks_per_video):
        window = None
        if s_idx % cfg.group_size == 0:
            identity = identities[rng.randint(len(identities))]
            if cfg.frame_window:
                group_start = rng.randint(max(1, gt.config.frames - cfg.sample_span + 1))
                window = (group_start, group_start + cfg.sample_span)
        elif cfg.frame_window:
            # Alternate near and far offsets so positive pairs cover the whole
            # gap range instead of clustering at small gaps.
            w = max(2, cfg.frame_window)
            if s_idx % 2 == 1:
                gap = rng.randint(w // 2)
            else:
                gap = w // 2 + rng.randint(w - w // 2)
            window = (group_start + gap, group_start + gap + cfg.sample_span)
        pos = _in_window(pool.positives.get(identity, []), window)
        neg = _in_window(pool.negatives.get(identity, []), window)
        if not pos and not neg:
            pos = pool.positives.get(identity, [])
            neg = pool.negatives.get(identity, [])
        available = []
        if pos:
            available.append(0)
        if neg:
            available.append(1)
        if pos and neg:
            available.append(2)
        usable = [t for t in available if aug.track_type_probs[t] > 0]
        if not usable:
            raise ValueError(f"no usable track type for identity {identity}")

        while True:
            u = rng.uniform()
            p_pos, p_neg, _ = aug.track_type_probs
            track_type = 0 if u < p_pos else 1 if u < p_pos + p_neg else 2
            if track_type in usable:
                break

        rows = []
        tags = []
        for _ in range(_draw_length(rng, cfg)):
            if track_type == 0:
                pick_pos = True
            elif track_type == 1:
                pick_pos = False
            else:
                pick_pos = rng.uniform() < 0.5
            bucket = pos if pick_pos else neg
            proposal = bucket[rng.randint(len(bucket))]
            rows.append(proposal.embedding)
            tags.append(TAG_POSITIVE if pick_pos else TAG_NEGATIVE)
        samples.append(TrainSample(np.stack(rows), tuple(tags), identity, video))
        if (cfg.group_size >= 2 and aug.track_type_probs[0] > 0
                and (s_idx + 1) % cfg.group_size == 0):
            _ensure_group_anchors(samples, s_idx + 1 - cfg.group_size, pos, rng, cfg)
    return samples


def _draw_length(rng: SplitMix64, cfg: TrainConfig) -> int:
    return cfg.track_len_min + rng.randint(cfg.track_len_max - cfg.track_len_min + 1)


def _ensure_group_anchors(samples, first, pos_pool, rng, cfg: TrainConfig) -> None:
    """Contrastive anchors need same-identity partners whose identity
    dominates; rebuild group members (``samples[first:]``) as positive-only
    tracks until at least two such samples exist."""
    if not pos_pool:
        return
    group = list(range(first, len(samples)))
    lacking = 2 - sum(1 for g in group if samples[g].dominant)
    for g in group:
        if lacking <= 0:
            break
        if samples[g].dominant:
            continue
        length = _draw_length(rng, cfg)
        rows = [pos_pool[rng.randint(len(pos_pool))].embedding for _ in range(length)]
        samples[g] = TrainSample(
            np.stack(rows), (TAG_POSITIVE,) * length, samples[g].identity, samples[g].video
        )
        lacking -= 1


def _in_window(proposals, window):
    if window is None:
        return proposals
    lo, hi = window
    return [p for p in proposals if lo <= p.frame < hi]


def track_mixup(sample: TrainSample, donor: TrainSample, bound: float, seed: int) -> TrainSample:
    """Replace a bounded run of the sample's elements with donor elements.

    The replaced span covers max(1, floor(u*L)) elements for u drawn in
    (0, bound]; the sample keeps its identity label and replaced elements are
    tagged mixed_in.  Mixup is skipped when the span would cover the whole
    track (the original identity must stay dominant).
    """
    if (donor.video, donor.identity) == (sample.video, sample.identity):
        raise ValueError("mixup donor must be a different identity")
    if bound <= 0.0:
        return sample
    rng = SplitMix64(seed)
    length = sample.track.shape[0]
    u = bound * (1.0 - rng.uniform())  # (0, bound]
    k = max(1, math.floor(u * length))
    if k >= length:
        return sample
    track = sample.track.copy()
    tags = list(sample.tags)
    offset = rng.randint(length - k + 1)
    donor_pool = [i for i, tag in enumerate(donor.tags) if tag == TAG_POSITIVE]
    if not donor_pool:
        donor_pool = list(range(donor.track.shape[0]))
    for t in range(offset, offset + k):
        j = donor_pool[rng.randint(len(donor_pool))]
        track[t] = donor.track[j]
        tags[t] = TAG_MIXED
    return TrainSample(track, tuple(tags), sample.identity, sample.video)


def apply_mixup(samples: list[TrainSample], aug: AugmentConfig, seed: int) -> list[TrainSample]:
    """Mix every sample with a randomly chosen foreign-identity donor."""
    if aug.mixup_bound <= 0.0:
        return samples
    rng = SplitMix64(seed)
    out = []
    for i, sample in enumerate(samples):
        donors = [
            s for j, s in enumerate(samples)
            if j != i and (s.video, s.identity) != (sample.video, sample.identity)
        ]
        if not donors:
            out.append(sample)
            continue
        donor = donors[rng.randint(len(donors))]
        out.append(track_mixup(sample, donor, aug.mixup_bound, rng.next_u64()))
    return out


def scenario_sample_source(
    scenario_configs: list[ScenarioConfig],
    aug: AugmentConfig,
    train_cfg: TrainConfig,
    pool_per_frame: int = POOL_PER_FRAME,
):
    """Batch sampler over a family of scenarios; one scenario acts as one video.

    Proposal pools are synthesized once per scenario, video ``v``'s from seed
    ``7 + v``.  The returned callable maps a batch seed to a list of
    TrainSamples with mixup already applied.
    """
    prepared = []
    for v, cfg in enumerate(scenario_configs):
        gt, _ = generate(cfg)
        pool = build_proposal_pool(
            gt,
            positive_iou=aug.positive_iou,
            negative_band=aug.negative_band,
            per_frame=pool_per_frame,
            seed=7 + v,
        )
        prepared.append((gt, pool))

    def source(batch_seed: int) -> list[TrainSample]:
        rng = SplitMix64(batch_seed)
        batch: list[TrainSample] = []
        for _ in range(train_cfg.videos_per_batch):
            v = rng.randint(len(prepared))
            gt, pool = prepared[v]
            batch.extend(build_track_samples(gt, pool, aug, train_cfg, rng.next_u64(), v))
        return apply_mixup(batch, aug, rng.next_u64())

    return source


def train(
    sample_source,
    model_cfg: SummarizerConfig,
    cfg: TrainConfig,
    init_seed: int | None = None,
) -> tuple[SummarizerWeights, list[float]]:
    """Plain SGD with momentum over batches ``sample_source(batch_seed)``;
    returns weights and the per-epoch mean loss history.  Raises on non-finite
    loss, naming the epoch.
    """
    weights = init_weights(model_cfg, cfg.seed if init_seed is None else init_seed)
    velocity = np.zeros_like(weights.flat)
    step = np.empty_like(weights.flat)  # lr * velocity, without a temporary per step
    schedule = SplitMix64(cfg.seed ^ 0xB10C5EED)

    history: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for _step in range(cfg.steps_per_epoch):
            batch = sample_source(schedule.next_u64())
            grads, loss = gradient(weights, batch, loss_temperature=cfg.loss_temperature)
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at epoch {epoch}: loss is not finite")
            velocity *= cfg.momentum
            velocity += grads.flat
            weights.flat -= np.multiply(velocity, cfg.learning_rate, out=step)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return weights, history

