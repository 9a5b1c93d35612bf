"""Seeded synthetic video scenarios: ground-truth tracks plus noisy detections.

A scenario is fully determined by its config (including the seed).  All
randomness flows through one SplitMix64 stream in a fixed documented order:

1. identity latents (rejection-sampled for minimum angular separation),
2. per identity: drift axis, box size, start position, heading,
3. per interruption: camera-jump offset / light-change bias,
4. per identity per frame: turn noise,
5. per frame, identities ascending: miss draw, box jitter (4 gaussians),
   embedding noise (dim gaussians); then one clutter draw per frame
   (plus box and embedding draws when clutter fires).

Interruption kinds: ``occlusion`` removes the affected identities' boxes in
the window, ``camera_jump`` shifts all boxes by a fixed offset inside the
window, ``light_change`` adds a shared bias to all embeddings in the window.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import BoundingBox, Detection, iou
from .rng import SplitMix64, unit_vector

KINDS = ("occlusion", "camera_jump", "light_change")


@dataclass(frozen=True)
class Interruption:
    kind: str
    start: int
    end: int  # inclusive
    identities: tuple[int, ...] | None = None  # None applies to all identities

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interruption kind {self.kind!r}")
        if self.end < self.start:
            raise ValueError("interruption window end before start")

    def affects(self, identity: int) -> bool:
        return self.identities is None or identity in self.identities


@dataclass(frozen=True)
class ScenarioConfig:
    frames: int = 100
    identities: int = 5
    arena_w: float = 640.0
    arena_h: float = 480.0
    speed: float = 3.0
    turn_sigma: float = 0.1
    embedding_dim: int = 16
    min_separation_deg: float = 75.0
    box_jitter: float = 0.0
    embedding_noise: float = 0.0
    drift_rate: float = 0.0  # radians of latent rotation per frame
    modulation_amp: float = 0.0  # per-channel multiplicative appearance wobble
    modulation_period: float = 40.0  # mean wobble period in frames
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    fp_similarity: float = 0.0  # 0: clutter looks random; near 1: mimics an identity
    confusable_pairs: int = 0  # leading identity pairs drawn as near-duplicates
    confusable_angle_deg: float = 30.0
    interruptions: tuple[Interruption, ...] = ()
    box_size_min: float = 20.0
    box_size_max: float = 40.0
    fp_score: float = 0.6
    light_strength: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1 or self.identities < 1:
            raise ValueError("frames and identities must be >= 1")
        for name in ("fp_rate", "fn_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("turn_sigma", "box_jitter", "embedding_noise", "drift_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be >= 2")
        if not self.modulation_period > 0:
            raise ValueError("modulation_period must be > 0")


@dataclass
class GroundTruth:
    latents: np.ndarray  # (identities, dim), unit rows
    drift_axes: np.ndarray  # (identities, dim), unit rows orthogonal to latents
    trajectories: list[dict[int, BoundingBox]]  # identity -> frame -> box
    config: ScenarioConfig
    mod_freq: np.ndarray | None = None  # (identities, dim) wobble frequencies
    mod_phase: np.ndarray | None = None  # (identities, dim) wobble phases
    light_windows: tuple[tuple[int, int, tuple[float, ...]], ...] = ()  # (start, end, bias)

    def latent_at(self, identity: int, frame: int) -> np.ndarray:
        """Identity appearance at a frame: the latent rotated in its drift
        plane, channels modulated by the identity's appearance wobble."""
        angle = self.config.drift_rate * frame
        lat = math.cos(angle) * self.latents[identity] + math.sin(angle) * self.drift_axes[identity]
        if self.config.modulation_amp > 0 and self.mod_freq is not None:
            mod = 1.0 + self.config.modulation_amp * np.sin(
                self.mod_freq[identity] * frame + self.mod_phase[identity]
            )
            lat = lat * mod
        return lat

    def bias_at(self, frame: int) -> np.ndarray:
        """Shared illumination bias active at a frame (zero outside windows)."""
        bias = np.zeros(self.latents.shape[1])
        for start, end, vec in self.light_windows:
            if start <= frame <= end:
                bias = bias + np.asarray(vec)
        return bias

    def as_tracks(self) -> dict[int, dict[int, BoundingBox]]:
        return {i: dict(traj) for i, traj in enumerate(self.trajectories) if traj}


def _separated_latents(
    rng: SplitMix64, count: int, dim: int, min_deg: float,
    confusable_pairs: int = 0, confusable_deg: float = 30.0,
) -> np.ndarray:
    """Unit latents pairwise separated by at least ``min_deg``, except that the
    first ``confusable_pairs`` pairs of identities (0,1), (2,3), ... are
    near-duplicates ``confusable_deg`` apart (lookalike objects)."""
    if 2 * confusable_pairs > count:
        raise ValueError("more confusable pairs than identities allow")
    max_cos = math.cos(math.radians(min_deg))
    tilt = math.radians(confusable_deg)
    latents: list[np.ndarray] = []

    def far_from_all(v, others):
        return all(abs(float(np.dot(v, u))) <= max_cos for u in others)

    for pair in range(confusable_pairs):
        others = latents[: 2 * pair]
        for _attempt in range(2000):
            base = unit_vector(rng, dim)
            if not far_from_all(base, others):
                continue
            off = unit_vector(rng, dim)
            off = off - float(np.dot(off, base)) * base
            n = float(np.linalg.norm(off))
            if n < 1e-9:
                continue
            partner = math.cos(tilt) * base + math.sin(tilt) * (off / n)
            if far_from_all(partner, others):
                latents.extend([base, partner])
                break
        else:
            raise ValueError("cannot place confusable pair with the required separation")
    for _ in range(count - 2 * confusable_pairs):
        for _attempt in range(1000):
            v = unit_vector(rng, dim)
            if far_from_all(v, latents):
                latents.append(v)
                break
        else:
            raise ValueError(
                f"cannot place {count} identities with {min_deg} deg separation in dim {dim}"
            )
    return np.stack(latents)


def _reflect(pos: float, vel: float, low: float, high: float) -> tuple[float, float]:
    if pos < low:
        return 2 * low - pos, -vel
    if pos > high:
        return 2 * high - pos, -vel
    return pos, vel


def generate(config: ScenarioConfig) -> tuple[GroundTruth, list[list[Detection]]]:
    """Build ground truth and the per-frame detection stream for a config."""
    rng = SplitMix64(config.seed)
    k, dim = config.identities, config.embedding_dim

    latents = _separated_latents(
        rng, k, dim, config.min_separation_deg,
        config.confusable_pairs, config.confusable_angle_deg,
    )

    axes = []
    sizes = []
    positions = []
    headings = []
    # Drift axes are orthogonal to every latent and to each other (dimension
    # permitting, each identity drifts in its own plane): appearance change
    # then never makes two identities collide.  An orthonormal basis of the
    # occupied span keeps the projections exact.
    basis: list[np.ndarray] = []

    def _residual(u: np.ndarray) -> np.ndarray:
        for b in basis:
            u = u - float(np.dot(u, b)) * b
        return u

    for lat in latents:
        r = _residual(lat)
        n = float(np.linalg.norm(r))
        if n > 1e-9:
            basis.append(r / n)
    for i in range(k):
        axis = None
        for _attempt in range(50):
            r = _residual(unit_vector(rng, dim))
            n = float(np.linalg.norm(r))
            if n > 1e-6:
                axis = r / n
                basis.append(axis)
                break
        if axis is None:  # not enough room; orthogonal to own latent only
            while True:
                u = unit_vector(rng, dim)
                u = u - float(np.dot(u, latents[i])) * latents[i]
                n = float(np.linalg.norm(u))
                if n > 1e-9:
                    axis = u / n
                    break
        axes.append(axis)
        w = rng.uniform(config.box_size_min, config.box_size_max)
        h = rng.uniform(config.box_size_min, config.box_size_max)
        sizes.append((w, h))
        positions.append(
            (rng.uniform(0.0, config.arena_w - w), rng.uniform(0.0, config.arena_h - h))
        )
        headings.append(rng.uniform(0.0, 2.0 * math.pi))

    mod_freq = np.zeros((k, dim))
    mod_phase = np.zeros((k, dim))
    for i in range(k):
        for j in range(dim):
            period = rng.uniform(0.5 * config.modulation_period, 1.5 * config.modulation_period)
            mod_freq[i, j] = 2.0 * math.pi / period
            mod_phase[i, j] = rng.uniform(0.0, 2.0 * math.pi)

    jump_offsets: dict[int, tuple[float, float]] = {}
    light_biases: dict[int, np.ndarray] = {}
    gain_direction = np.ones(dim) / math.sqrt(dim)  # global illumination axis
    for idx, intr in enumerate(config.interruptions):
        if intr.kind == "camera_jump":
            angle = rng.uniform(0.0, 2.0 * math.pi)
            mag = 0.35 * min(config.arena_w, config.arena_h)
            jump_offsets[idx] = (mag * math.cos(angle), mag * math.sin(angle))
        elif intr.kind == "light_change":
            light_biases[idx] = config.light_strength * rng.uniform(0.75, 1.25) * gain_direction

    trajectories: list[dict[int, BoundingBox]] = [dict() for _ in range(k)]
    for i in range(k):
        w, h = sizes[i]
        x, y = positions[i]
        vx = config.speed * math.cos(headings[i])
        vy = config.speed * math.sin(headings[i])
        xmax, ymax = config.arena_w - w, config.arena_h - h
        for f in range(config.frames):
            dtheta = rng.gauss(0.0, config.turn_sigma)
            c, s = math.cos(dtheta), math.sin(dtheta)
            vx, vy = vx * c - vy * s, vx * s + vy * c
            x, y = x + vx, y + vy
            x, vx = _reflect(x, vx, 0.0, xmax)
            y, vy = _reflect(y, vy, 0.0, ymax)
            x = min(max(x, 0.0), xmax)
            y = min(max(y, 0.0), ymax)
            trajectories[i][f] = BoundingBox(x, y, w, h)

    # Interruption effects on ground truth boxes.
    for idx, intr in enumerate(config.interruptions):
        if intr.kind == "occlusion":
            for i in range(k):
                if intr.affects(i):
                    for f in range(intr.start, intr.end + 1):
                        trajectories[i].pop(f, None)
        elif intr.kind == "camera_jump":
            dx, dy = jump_offsets[idx]
            for i in range(k):
                for f in range(intr.start, intr.end + 1):
                    box = trajectories[i].get(f)
                    if box is None:
                        continue
                    nx = min(max(box.x + dx, 0.0), config.arena_w - box.w)
                    ny = min(max(box.y + dy, 0.0), config.arena_h - box.h)
                    trajectories[i][f] = BoundingBox(nx, ny, box.w, box.h)

    windows = tuple(
        (intr.start, intr.end, tuple(light_biases[idx]))
        for idx, intr in enumerate(config.interruptions)
        if intr.kind == "light_change"
    )
    gt = GroundTruth(latents, np.stack(axes), trajectories, config, mod_freq, mod_phase, windows)

    detections: list[list[Detection]] = []
    for f in range(config.frames):
        bias = gt.bias_at(f)
        frame_dets: list[Detection] = []
        for i in range(k):
            box = gt.trajectories[i].get(f)
            if box is None:
                continue
            missed = rng.uniform() < config.fn_rate
            jx = rng.gauss(0.0, config.box_jitter)
            jy = rng.gauss(0.0, config.box_jitter)
            jw = rng.gauss(0.0, config.box_jitter)
            jh = rng.gauss(0.0, config.box_jitter)
            noise = rng.gauss_vector(dim, config.embedding_noise) if config.embedding_noise > 0 else np.zeros(dim)
            if missed:
                continue
            e = gt.latent_at(i, f) + noise + bias
            n = float(np.linalg.norm(e))
            e = e / n if n > 1e-12 else gt.latents[i]
            jittered = BoundingBox(box.x + jx, box.y + jy, max(box.w + jw, 2.0), max(box.h + jh, 2.0))
            frame_dets.append(Detection(f, jittered, 1.0, e, len(frame_dets)))
        if rng.uniform() < config.fp_rate:
            w = rng.uniform(config.box_size_min, config.box_size_max)
            h = rng.uniform(config.box_size_min, config.box_size_max)
            x = rng.uniform(0.0, config.arena_w - w)
            y = rng.uniform(0.0, config.arena_h - h)
            e = unit_vector(rng, dim)
            target = rng.randint(k)
            if config.fp_similarity > 0:
                s = config.fp_similarity
                e = s * gt.latent_at(target, f) + math.sqrt(max(0.0, 1.0 - s * s)) * e
                n = float(np.linalg.norm(e))
                e = e / n if n > 1e-12 else gt.latents[target]
            frame_dets.append(
                Detection(f, BoundingBox(x, y, w, h), config.fp_score, e, len(frame_dets))
            )
        detections.append(frame_dets)
    return gt, detections


def _sample_proposal(rng: SplitMix64, gt_box: BoundingBox) -> tuple[BoundingBox, float]:
    s = rng.uniform(0.0, 0.6)
    dx = rng.uniform(-1.0, 1.0) * s * gt_box.w
    dy = rng.uniform(-1.0, 1.0) * s * gt_box.h
    sw = math.exp(rng.uniform(-1.0, 1.0) * s)
    sh = math.exp(rng.uniform(-1.0, 1.0) * s)
    cand = BoundingBox(gt_box.x + dx, gt_box.y + dy, gt_box.w * sw, gt_box.h * sh)
    return cand, iou(cand, gt_box)


def _in_band(q: float, band: tuple[float, float]) -> bool:
    lo, hi = band
    return lo <= q <= hi if hi >= 1.0 else lo <= q < hi


def _proposals_in_band(rng: SplitMix64, gt_box: BoundingBox, band: tuple[float, float], cap: int):
    """Lazily yield ``(box, IoU)`` draws whose IoU lies in band, by rejection.

    A band starting at 1 yields the GT box itself without drawing.  Raises
    once ``cap`` attempts (accepted ones included) are used up.  The caller may
    draw from ``rng`` between items; the stream stays in that order.
    """
    for _attempt in range(cap):
        if band[0] >= 1.0:
            yield gt_box, 1.0
            continue
        cand, q = _sample_proposal(rng, gt_box)
        if _in_band(q, band):
            yield cand, q
    raise ValueError(f"IoU band {band} unreachable after {cap} attempts")


@dataclass(frozen=True, eq=False)
class Proposal:
    identity: int
    frame: int
    box: BoundingBox
    iou: float
    embedding: np.ndarray


@dataclass
class ProposalPool:
    """Per-identity jittered proposals split into quality bands.

    Proposal embeddings degrade with localization quality: the identity's
    (drifted) latent is mixed with a random direction weighted by the realized
    IoU, plus the scenario's embedding noise.
    """

    positives: dict[int, list[Proposal]] = field(default_factory=dict)
    negatives: dict[int, list[Proposal]] = field(default_factory=dict)


def _proposal_embedding(rng: SplitMix64, gt: GroundTruth, identity: int, frame: int, q: float) -> np.ndarray:
    # A loose box still mostly covers the object: corruption grows with the
    # localization error but never swamps the identity signal.  Proposals see
    # the same illumination bias as detections at that frame.
    clutter = unit_vector(rng, gt.config.embedding_dim)
    e = gt.latent_at(identity, frame) + 2.2 * (1.0 - q) * clutter + gt.bias_at(frame)
    if gt.config.embedding_noise > 0:
        e = e + rng.gauss_vector(gt.config.embedding_dim, gt.config.embedding_noise)
    n = float(np.linalg.norm(e))
    return e / n if n > 1e-12 else gt.latents[identity]


def build_proposal_pool(
    gt: GroundTruth,
    positive_iou: float,
    negative_band: tuple[float, float],
    per_frame: int,
    seed: int = 0,
) -> ProposalPool:
    if per_frame < 1:
        raise ValueError(f"per_frame must be >= 1, got {per_frame}")
    rng = SplitMix64(seed)
    pool = ProposalPool()
    for identity in range(gt.config.identities):
        pos: list[Proposal] = []
        neg: list[Proposal] = []
        for frame in sorted(gt.trajectories[identity]):
            gt_box = gt.trajectories[identity][frame]
            for band, bucket in (((positive_iou, 1.0), pos), (negative_band, neg)):
                draws = _proposals_in_band(rng, gt_box, band, 4000 * per_frame)
                for cand, q in itertools.islice(draws, per_frame):
                    emb = _proposal_embedding(rng, gt, identity, frame, q)
                    bucket.append(Proposal(identity, frame, cand, q, emb))
        pool.positives[identity] = pos
        pool.negatives[identity] = neg
    return pool


# --- JSON dump / load --------------------------------------------------------


def _box_to_list(b: BoundingBox) -> list[float]:
    return [b.x, b.y, b.w, b.h]


def scenario_to_json(gt: GroundTruth, detections: list[list[Detection]]) -> str:
    cfg = asdict(gt.config)
    cfg["interruptions"] = [asdict(i) for i in gt.config.interruptions]
    doc = {
        "config": cfg,
        "ground_truth": {
            "latents": gt.latents.tolist(),
            "drift_axes": gt.drift_axes.tolist(),
            "mod_freq": gt.mod_freq.tolist() if gt.mod_freq is not None else None,
            "mod_phase": gt.mod_phase.tolist() if gt.mod_phase is not None else None,
            "light_windows": [[s, e, list(vec)] for s, e, vec in gt.light_windows],
            "trajectories": [
                {str(f): _box_to_list(b) for f, b in sorted(traj.items())}
                for traj in gt.trajectories
            ],
        },
        "detections": [
            [
                {
                    "box": _box_to_list(d.box),
                    "score": d.score,
                    "embedding": d.embedding.tolist(),
                    "source_index": d.source_index,
                }
                for d in frame
            ]
            for frame in detections
        ],
    }
    return json.dumps(doc)


def scenario_from_json(text: str) -> tuple[GroundTruth, list[list[Detection]]]:
    doc = json.loads(text)
    cfg_dict = dict(doc["config"])
    cfg_dict["interruptions"] = tuple(
        Interruption(
            i["kind"], i["start"], i["end"],
            tuple(i["identities"]) if i["identities"] is not None else None,
        )
        for i in cfg_dict["interruptions"]
    )
    config = ScenarioConfig(**cfg_dict)
    gt_doc = doc["ground_truth"]
    trajectories = [
        {int(f): BoundingBox(*xywh) for f, xywh in traj.items()}
        for traj in gt_doc["trajectories"]
    ]
    gt = GroundTruth(
        np.array(gt_doc["latents"], dtype=np.float64),
        np.array(gt_doc["drift_axes"], dtype=np.float64),
        trajectories,
        config,
        np.array(gt_doc["mod_freq"], dtype=np.float64) if gt_doc.get("mod_freq") is not None else None,
        np.array(gt_doc["mod_phase"], dtype=np.float64) if gt_doc.get("mod_phase") is not None else None,
        tuple((s, e, tuple(vec)) for s, e, vec in gt_doc.get("light_windows", [])),
    )
    detections = [
        [
            Detection(f, BoundingBox(*d["box"]), d["score"], np.array(d["embedding"]), d["source_index"])
            for d in frame
        ]
        for f, frame in enumerate(doc["detections"])
    ]
    return gt, detections


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(config, seed=seed)
