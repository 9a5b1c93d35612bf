"""Workload inputs: test scenes, the training family and the tracking cells.

Every input comes from the program's seeded scenario generator, with scenario
seeds derived from the workload seed, so one seed always gives the same inputs.
All three workloads run the same round (train, track every cell, score); they
differ in their scenes and in how much of each operation a round holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from cliptrack.pipeline import PipelineConfig
from cliptrack.scenario import Interruption, ScenarioConfig
from cliptrack.summarizer import SummarizerConfig
from cliptrack.training import TrainConfig

# (intra variant, inter matcher) per tracking cell, in the order they run.
CELLS = (
    ("directional", "iou_chain"),
    ("directional", "temporal_average"),
    ("directional", "clip_tracker"),
    ("direction_free", "temporal_average"),
)

SUITE_SCENES = 8
CROWD_FRAMES = 60
CROWD_IDENTITIES = 24
FAMILY_VIDEOS = 6
STEPS_PER_EPOCH = 4
# Summarizer init seed, fixed so that no workload's weights depend on --seed.
INIT_SEED = 11


def cell_name(intra: str, inter: str) -> str:
    return f"{intra}.{inter}"


def suite_scene(k: int) -> ScenarioConfig:
    """TAO-like: the acceptance suite's k-th interruption scenario (5 identities,
    100 frames, 16-dim embeddings, two long occlusions, 10% clutter)."""
    first = 18 + k % 3
    second = 55 + k % 4
    return ScenarioConfig(
        frames=100,
        identities=5,
        embedding_dim=16,
        embedding_noise=0.2,
        drift_rate=0.045,
        box_jitter=0.5,
        fp_rate=0.10,
        fn_rate=0.03,
        interruptions=(
            Interruption("occlusion", first, first + 13 + k % 5, (k % 5,)),
            Interruption("occlusion", second, second + 15, ((k + 2) % 5,)),
        ),
        seed=10_000 + k,
    )


def crowd_scene(seed: int) -> ScenarioConfig:
    """MOT17-like: one crowded stream with an occlusion, a camera jump and a
    light change.  The light change is at half the generator's default
    strength: at full strength some seeds fragment every identity for a whole
    clip, and one inter-clip solve then takes over a minute (see CHANGES.md)."""
    return ScenarioConfig(
        frames=CROWD_FRAMES,
        identities=CROWD_IDENTITIES,
        embedding_dim=32,
        embedding_noise=0.12,
        drift_rate=0.01,
        box_jitter=1.0,
        fp_rate=0.3,
        fn_rate=0.05,
        light_strength=0.4,
        interruptions=(
            Interruption("occlusion", 10, 30, (0, 1, 2)),
            Interruption("camera_jump", 20, 24),
            Interruption("light_change", 40, 49),
        ),
        seed=500_000 + seed,
    )


def family_scene(k: int) -> ScenarioConfig:
    """Training family of the acceptance protocol: suite statistics without
    interruptions; tracks are sampled from ground truth."""
    return ScenarioConfig(
        frames=60,
        identities=5,
        embedding_dim=16,
        embedding_noise=0.2,
        drift_rate=0.045,
        box_jitter=0.5,
        seed=1_000 + k,
    )


# The acceptance protocol: 64-dim model, 3 layers, 8 heads, batches of
# 3 videos x 8 tracks, full augmentation.
MODEL = SummarizerConfig(input_dim=16, model_dim=64, n_layers=3, n_heads=8)
TRAIN = TrainConfig(
    learning_rate=0.05,
    momentum=0.0,
    epochs=1,
    steps_per_epoch=STEPS_PER_EPOCH,
    videos_per_batch=3,
    tracks_per_video=8,
    seed=0,
    track_len_min=2,
    track_len_max=10,
    sample_span=10,
    frame_window=30,
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple[ScenarioConfig, ...]
    profile: PipelineConfig
    family: tuple[ScenarioConfig, ...]
    train: TrainConfig
    # clip_tracker runs with the weights trained in the same round; otherwise
    # with seeded initial weights, so that tracking does not depend on training.
    tracker_uses_trained_weights: bool

    @property
    def steps(self) -> int:
        return self.train.epochs * self.train.steps_per_epoch

    @property
    def frames(self) -> int:
        return sum(s.frames for s in self.scenes)

    def cell_config(self, intra: str, inter: str, weights_path: str | None) -> PipelineConfig:
        return replace(
            self.profile,
            intra=intra,
            inter=inter,
            weights_path=weights_path if inter == "clip_tracker" else None,
        )


WORKLOADS = ("suite", "crowd", "train")


def make_workload(name: str, seed: int) -> Workload:
    """The inputs of one workload for one seed."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    family = tuple(family_scene(FAMILY_VIDEOS * seed + i) for i in range(FAMILY_VIDEOS))
    if name == "suite":
        scenes = tuple(suite_scene(SUITE_SCENES * seed + i) for i in range(SUITE_SCENES))
        return Workload(name, scenes, PipelineConfig.low_fps(), family,
                        replace(TRAIN, epochs=3, seed=seed), False)
    if name == "crowd":
        return Workload(name, (crowd_scene(seed),), PipelineConfig.high_fps(), family,
                        replace(TRAIN, epochs=3, seed=seed), False)
    if name == "train":
        # A fixed held-out pair of suite scenes validates the trained weights;
        # the seed drives the training family and the batch schedule.
        scenes = (suite_scene(0), suite_scene(1))
        return Workload(name, scenes, PipelineConfig.low_fps(), family,
                        replace(TRAIN, epochs=10, seed=seed), True)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
