"""Track-state invariants of ``pipeline.run`` over random scenes and configs.

After every clip the store must hold consistent state: each track's derived
fields agree with its entries, ``owner`` indexes exactly the stored entries,
retired ids stay retired, and every entry is one of the input detections.  A
second run of the same inputs must give the same output.  Scoring the ground
truth against itself is perfect, and no output scores more identity true
positives than either side has boxes.  All three matchers are covered;
``clip_tracker`` uses seeded untrained summarizer weights.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliptrack.inter_clip import detection_key
from cliptrack.metrics import evaluate, tracks_from_global
from cliptrack.pipeline import PipelineConfig, run
from cliptrack.scenario import KINDS, Interruption, ScenarioConfig, generate
from cliptrack.summarizer import SummarizerConfig, init_weights

WEIGHTS = init_weights(SummarizerConfig(8, 8, 1, 2), seed=5)


@st.composite
def scenarios(draw) -> ScenarioConfig:
    frames = draw(st.integers(10, 40))
    identities = draw(st.integers(1, 5))
    interruptions = []
    for kind in KINDS:
        start = draw(st.integers(0, frames - 1))
        end = draw(st.integers(start, frames - 1))
        who = draw(st.none() | st.sets(st.integers(0, identities - 1), min_size=1).map(sorted))
        interruptions.append(Interruption(kind, start, end, who and tuple(who)))
    return ScenarioConfig(
        frames=frames,
        identities=identities,
        embedding_dim=8,
        box_jitter=draw(st.sampled_from([0.0, 0.8])),
        embedding_noise=draw(st.sampled_from([0.0, 0.2])),
        fp_rate=draw(st.floats(0.0, 0.3)),
        fn_rate=draw(st.floats(0.0, 0.3)),
        interruptions=tuple(interruptions),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def pipeline_configs(draw) -> PipelineConfig:
    inter = draw(st.sampled_from(["iou_chain", "temporal_average", "clip_tracker"]))
    clip_size = draw(st.integers(2 if inter == "iou_chain" else 1, 6))
    top = clip_size - 1 if inter == "iou_chain" else clip_size
    return PipelineConfig(
        clip_size=clip_size,
        clip_interval=draw(st.integers(1, top)),
        intra=draw(st.sampled_from(["directional", "direction_free"])),
        inter=inter,
        management=draw(st.sampled_from(["two_clip", "moving_average", "feature_bank"])),
        buffer_size=draw(st.integers(1, 5)),
    )


def check_store(store, inputs: set[int], seen: set[int], retired: set[int]) -> None:
    n_entries = 0
    for track_id, track in store.tracks.items():
        assert track.id == track_id
        frames = [d.frame for d in track.entries]
        assert all(a < b for a, b in zip(frames, frames[1:]))
        assert track.last_frame == frames[-1]
        tail = track.entries[-store.buffer_size :]
        assert len(track.embedding_buffer) == len(tail)
        for (frame, emb), d in zip(track.embedding_buffer, tail):
            assert frame == d.frame and emb is d.embedding
        for d in track.entries:
            assert id(d) in inputs
            assert store.owner[detection_key(d)] == track_id
        n_entries += len(track.entries)
    assert len(store.owner) == n_entries
    current = set(store.tracks)
    assert not current & retired
    assert all(i > max(seen, default=0) for i in current - seen)
    retired |= seen - current
    seen |= current


def signature(tracks) -> list:
    """Ids, entries and derived fields, by object identity of the inputs."""
    return [
        (
            t.id,
            [id(d) for d in t.entries],
            [(frame, id(emb)) for frame, emb in t.embedding_buffer],
            [id(emb) for emb in t.last_added],
        )
        for t in tracks
    ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), pipeline_configs())
def test_track_state_after_every_clip(scenario, cfg):
    gt, dets = generate(scenario)
    weights = WEIGHTS if cfg.inter == "clip_tracker" else None
    inputs = {id(d) for frame in dets for d in frame}
    seen: set[int] = set()
    retired: set[int] = set()
    tracks = run(dets, cfg, weights, lambda store: check_store(store, inputs, seen, retired))
    assert signature(run(dets, cfg, weights)) == signature(tracks)

    gt_tracks = gt.as_tracks()
    if gt_tracks:  # an occlusion of everyone over every frame leaves no ground truth
        perfect = evaluate(gt_tracks, gt_tracks)
        assert (perfect.idf1, perfect.mota, perfect.id_switches) == (1.0, 1.0, 0)
        report = evaluate(gt_tracks, tracks_from_global(tracks))
        assert report.idtp <= min(report.n_gt_boxes, report.n_pred_boxes)
