from collections import Counter

import pytest

from cliptrack.metrics import evaluate, tracks_from_global
from cliptrack.pipeline import PipelineConfig, frame_by_frame_baseline, run, sweep
from cliptrack.scenario import ScenarioConfig, generate
from cliptrack.summarizer import SummarizerConfig, init_weights

from .conftest import EMBED_DIM, suite_scenario


def degenerate_config(**overrides):
    base = dict(
        clip_size=1,
        clip_interval=1,
        management="two_clip",
        inter="temporal_average",
        buffer_size=10,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def tracks_signature(tracks):
    return [(t.id, [(d.frame, d.box.as_tuple()) for d in t.entries]) for t in tracks]


class TestConfigValidation:
    def test_gapped_clips_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(clip_size=5, clip_interval=6)

    def test_zero_clip_size_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(clip_size=0, clip_interval=1)

    def test_unknown_variants_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(intra="sideways")
        with pytest.raises(ValueError):
            PipelineConfig(inter="telepathy")

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_bad_merge_threshold_rejected(self, value):
        with pytest.raises(ValueError, match="merge_threshold"):
            PipelineConfig(merge_threshold=value)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, value):
        with pytest.raises(ValueError, match="temperature"):
            PipelineConfig(temperature=value)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError, match="buffer_size"):
            PipelineConfig(buffer_size=0)

    @pytest.mark.parametrize("value", [1.0, -0.1])
    def test_momentum_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match="momentum"):
            PipelineConfig(momentum=value)

    def test_iou_chain_without_overlap_rejected_at_construction(self):
        with pytest.raises(ValueError, match="clip_interval"):
            PipelineConfig(clip_size=10, clip_interval=10, inter="iou_chain")
        PipelineConfig(clip_size=10, clip_interval=10, inter="temporal_average")

    def test_clip_tracker_requires_weights(self):
        _, dets = generate(ScenarioConfig(frames=5, identities=2, seed=1))
        with pytest.raises(ValueError):
            run(dets, PipelineConfig(inter="clip_tracker"))


class TestClipSampling:
    def test_short_video_single_clip(self):
        _, dets = generate(ScenarioConfig(frames=7, identities=2, seed=2))
        clip_ends = []
        run(dets, PipelineConfig(clip_size=10, clip_interval=5), on_clip_end=lambda s: clip_ends.append(1))
        assert len(clip_ends) == 1

    def test_full_coverage_and_short_final_clip(self):
        cfg = ScenarioConfig(frames=23, identities=3, seed=3)
        _, dets = generate(cfg)
        tracks = run(dets, PipelineConfig(clip_size=10, clip_interval=5))
        covered = {d.frame for t in tracks for d in t.entries}
        assert covered == set(range(23))

    def test_monotone_growth_and_track_validity(self):
        cfg = ScenarioConfig(frames=40, identities=4, seed=4)
        _, dets = generate(cfg)
        seen: list[dict[int, set[int]]] = []

        def snapshot(store):
            seen.append({i: set(t.frames()) for i, t in store.tracks.items()})

        tracks = run(dets, PipelineConfig(clip_size=10, clip_interval=5), on_clip_end=snapshot)
        for before, after in zip(seen, seen[1:]):
            for track_id, frames in before.items():
                assert frames <= after[track_id]
        for t in tracks:
            frames = t.frames()
            assert frames == sorted(set(frames))


class TestDetectionOwnership:
    WEIGHTS = init_weights(SummarizerConfig(input_dim=EMBED_DIM, model_dim=16, n_layers=1, n_heads=2), 7)

    @pytest.mark.parametrize("intra", ["directional", "direction_free"])
    @pytest.mark.parametrize("inter", ["iou_chain", "temporal_average", "clip_tracker"])
    def test_each_detection_in_at_most_one_track(self, intra, inter):
        cfg = PipelineConfig.low_fps(intra=intra, inter=inter)
        for k in range(3):
            _, dets = generate(suite_scenario(k))
            tracks = run(dets, cfg, self.WEIGHTS if inter == "clip_tracker" else None)
            held = Counter((d.frame, d.source_index) for t in tracks for d in t.entries)
            assert max(held.values()) == 1


class TestDegeneracyEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equals_frame_by_frame(self, seed):
        cfg = ScenarioConfig(
            frames=30,
            identities=4,
            box_jitter=0.8,
            embedding_noise=0.25,
            fp_rate=0.15,
            fn_rate=0.1,
            drift_rate=0.01,
            seed=seed,
        )
        _, dets = generate(cfg)
        pipeline_cfg = degenerate_config()
        clipwise = run(dets, pipeline_cfg)
        framewise = frame_by_frame_baseline(dets, pipeline_cfg)
        assert tracks_signature(clipwise) == tracks_signature(framewise)

    def test_not_equal_for_larger_clips(self):
        # sanity: the equivalence is a property of clip size 1, not of the test
        cfg = ScenarioConfig(frames=30, identities=4, embedding_noise=0.3, fn_rate=0.2, seed=9)
        _, dets = generate(cfg)
        pipeline_cfg = degenerate_config(clip_size=5, clip_interval=5)
        clipwise = run(dets, pipeline_cfg)
        framewise = frame_by_frame_baseline(dets, pipeline_cfg)
        assert tracks_signature(clipwise) != tracks_signature(framewise)


class TestNoiselessRecovery:
    @pytest.mark.parametrize("intra", ["directional", "direction_free"])
    @pytest.mark.parametrize("management", ["two_clip", "moving_average", "feature_bank"])
    def test_temporal_average_recovers_ground_truth(self, intra, management):
        cfg = ScenarioConfig(frames=60, identities=5, seed=21)
        gt, dets = generate(cfg)
        pipeline_cfg = PipelineConfig(
            clip_size=10, clip_interval=5, intra=intra, management=management,
            inter="temporal_average", buffer_size=10,
        )
        tracks = run(dets, pipeline_cfg)
        report = evaluate(gt.as_tracks(), tracks_from_global(tracks))
        assert report.idf1 == 1.0
        assert report.id_switches == 0

    def test_iou_chain_recovers_with_overlap(self):
        cfg = ScenarioConfig(frames=60, identities=5, seed=22)
        gt, dets = generate(cfg)
        tracks = run(dets, PipelineConfig(clip_size=10, clip_interval=5, inter="iou_chain"))
        report = evaluate(gt.as_tracks(), tracks_from_global(tracks))
        assert report.idf1 == 1.0

    def test_iou_chain_without_overlap_errors(self):
        cfg = ScenarioConfig(frames=30, identities=3, seed=23)
        _, dets = generate(cfg)
        with pytest.raises(ValueError):
            run(dets, PipelineConfig(clip_size=10, clip_interval=10, inter="iou_chain"))


class TestSweep:
    def test_grid_runs_all_cells(self):
        cfg = ScenarioConfig(frames=40, identities=3, seed=31)
        gt, dets = generate(cfg)
        rows = sweep(dets, gt.as_tracks(), [(5, 5), (10, 10), (10, 5), (20, 10)], PipelineConfig())
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["idf1"] == 1.0 for r in rows)

    def test_single_cell_matches_direct_run(self):
        cfg = ScenarioConfig(frames=40, identities=3, embedding_noise=0.2, seed=32)
        gt, dets = generate(cfg)
        base = PipelineConfig(clip_size=10, clip_interval=5)
        rows = sweep(dets, gt.as_tracks(), [(10, 5)], base)
        tracks = run(dets, base)
        direct = evaluate(gt.as_tracks(), tracks_from_global(tracks))
        assert rows[0]["idf1"] == direct.idf1
        assert rows[0]["mota"] == direct.mota

    def test_error_cells_marked_not_raised(self):
        cfg = ScenarioConfig(frames=40, identities=3, seed=33)
        gt, dets = generate(cfg)
        rows = sweep(dets, gt.as_tracks(), [(10, 10)], PipelineConfig(inter="iou_chain"))
        assert rows[0]["status"].startswith("error:")

    def test_repeatable(self):
        cfg = ScenarioConfig(frames=30, identities=3, embedding_noise=0.3, fp_rate=0.1, seed=34)
        gt, dets = generate(cfg)
        a = sweep(dets, gt.as_tracks(), [(5, 5), (10, 5)], PipelineConfig())
        b = sweep(dets, gt.as_tracks(), [(5, 5), (10, 5)], PipelineConfig())
        assert a == b
