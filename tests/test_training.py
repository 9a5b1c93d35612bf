import dataclasses
import hashlib
import math

import numpy as np
import pytest

from cliptrack.scenario import ScenarioConfig, build_proposal_pool, generate
from cliptrack.summarizer import SummarizerConfig, forward_summarize, l2_normalize
from cliptrack.training import (
    TAG_MIXED,
    TAG_NEGATIVE,
    TAG_POSITIVE,
    AugmentConfig,
    TrainConfig,
    TrainSample,
    apply_mixup,
    build_track_samples,
    scenario_sample_source,
    track_mixup,
    train,
)


@pytest.fixture(scope="module")
def small_world():
    cfg = ScenarioConfig(frames=12, identities=3, embedding_noise=0.1, seed=77)
    gt, _ = generate(cfg)
    pool = build_proposal_pool(gt, 0.7, (0.3, 0.5), per_frame=2, seed=78)
    return gt, pool


class TestBuildTrackSamples:
    def test_positives_only_from_exact_gt_band(self):
        cfg = ScenarioConfig(frames=8, identities=2, seed=81)
        gt, _ = generate(cfg)
        pool = build_proposal_pool(gt, 1.0, (0.3, 0.5), per_frame=1, seed=82)
        aug = AugmentConfig.positives_only()
        samples = build_track_samples(
            gt, pool, aug, TrainConfig(tracks_per_video=4, track_len_max=4), seed=83
        )
        for s in samples:
            assert all(tag == TAG_POSITIVE for tag in s.tags)
            sims = [
                max(float(np.dot(row, gt.latent_at(s.identity, f))) for f in range(8))
                for row in s.track
            ]
            assert all(sim > 0.999 for sim in sims)

    def test_negative_only_band(self, small_world):
        gt, pool = small_world
        aug = AugmentConfig(track_type_probs=(0.0, 1.0, 0.0), mixup_bound=0.0)
        samples = build_track_samples(gt, pool, aug, TrainConfig(tracks_per_video=6), seed=84)
        for s in samples:
            assert all(tag == TAG_NEGATIVE for tag in s.tags)
        for identity, props in pool.negatives.items():
            assert all(0.3 <= p.iou < 0.5 for p in props)

    def test_type_frequencies_near_equal(self, small_world):
        gt, pool = small_world
        aug = AugmentConfig()
        samples = build_track_samples(
            gt, pool, aug,
            TrainConfig(tracks_per_video=3000, track_len_min=3, track_len_max=3, group_size=1),
            seed=85,
        )
        pure_pos = sum(1 for s in samples if all(t == TAG_POSITIVE for t in s.tags))
        pure_neg = sum(1 for s in samples if all(t == TAG_NEGATIVE for t in s.tags))
        # hybrid draws elements 50/50, so a hybrid can come out pure by chance:
        # 2/8 of hybrids look pure at length 3.  Expected pure-positive fraction
        # = 1/3 + 1/3 * 1/8, same for pure-negative.
        expect = 3000 * (1 / 3 + 1 / 3 / 8)
        sigma = math.sqrt(3000 * (expect / 3000) * (1 - expect / 3000))
        assert abs(pure_pos - expect) < 3 * sigma
        assert abs(pure_neg - expect) < 3 * sigma

    def test_grouped_identities_guarantee_positives(self, small_world):
        gt, pool = small_world
        samples = build_track_samples(gt, pool, AugmentConfig(), TrainConfig(), seed=86)
        idents = [s.identity for s in samples]
        assert all(idents.count(i) >= 2 for i in set(idents))

    def test_deterministic(self, small_world):
        gt, pool = small_world
        cfg = TrainConfig(tracks_per_video=6)
        a = build_track_samples(gt, pool, AugmentConfig(), cfg, seed=87)
        b = build_track_samples(gt, pool, AugmentConfig(), cfg, seed=87)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.track, sb.track)
            assert sa.tags == sb.tags and sa.identity == sb.identity


class TestTrackMixup:
    def donor_and_sample(self):
        sample = TrainSample(np.zeros((10, 4)), (TAG_POSITIVE,) * 10, identity=0, video=0)
        donor = TrainSample(np.ones((6, 4)), (TAG_POSITIVE,) * 6, identity=1, video=0)
        return sample, donor

    def test_disabled_bound_returns_input(self):
        sample, donor = self.donor_and_sample()
        assert track_mixup(sample, donor, 0.0, seed=1) is sample

    def test_replaces_contiguous_run(self):
        sample, donor = self.donor_and_sample()
        mixed = track_mixup(sample, donor, 0.3, seed=2)
        swapped = [i for i, tag in enumerate(mixed.tags) if tag == TAG_MIXED]
        assert swapped == list(range(swapped[0], swapped[0] + len(swapped)))
        assert 1 <= len(swapped) <= 3
        for i in swapped:
            assert np.array_equal(mixed.track[i], np.ones(4))

    def test_identity_label_unchanged(self):
        sample, donor = self.donor_and_sample()
        for seed in range(30):
            assert track_mixup(sample, donor, 0.3, seed).identity == sample.identity

    def test_bound_respected_over_seeds(self):
        sample, donor = self.donor_and_sample()
        for seed in range(200):
            mixed = track_mixup(sample, donor, 0.3, seed)
            n_mixed = sum(1 for t in mixed.tags if t == TAG_MIXED)
            assert n_mixed <= math.floor(0.3 * 10) + 1

    def test_length_one_skipped(self):
        sample = TrainSample(np.zeros((1, 4)), (TAG_POSITIVE,), identity=0, video=0)
        donor = TrainSample(np.ones((4, 4)), (TAG_POSITIVE,) * 4, identity=1, video=0)
        mixed = track_mixup(sample, donor, 0.3, seed=3)
        assert np.array_equal(mixed.track, sample.track)

    def test_same_identity_donor_rejected(self):
        sample, _ = self.donor_and_sample()
        with pytest.raises(ValueError):
            track_mixup(sample, sample, 0.3, seed=4)

    def test_apply_mixup_tags_batch(self):
        sample, donor = self.donor_and_sample()
        out = apply_mixup([sample, donor], AugmentConfig(), seed=5)
        assert any(TAG_MIXED in s.tags for s in out)

    def test_apply_mixup_draw_order_pinned(self, small_world):
        gt, pool = small_world
        samples = build_track_samples(gt, pool, AugmentConfig(), TrainConfig(), seed=79)
        out = apply_mixup(samples, AugmentConfig(), seed=80)
        assert any(TAG_MIXED in s.tags for s in out)
        h = hashlib.sha256()
        for s in out:
            h.update(s.track.tobytes())
            h.update(repr((s.tags, s.identity, s.video)).encode())
        assert h.hexdigest() == "d4f2ad8a61a4e8adbf9f8b2669e1243099dd9c8becfe275ee21fe606bbe7cdb2"


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("loss_temperature", 0.0),
            ("loss_temperature", -0.1),
            ("steps_per_epoch", 0),
            ("videos_per_batch", 0),
            ("tracks_per_video", 0),
            ("momentum", -0.1),
            ("momentum", 1.0),
            ("group_size", 0),
            ("sample_span", -3),
            ("frame_window", -5),
        ],
    )
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_momentum_zero_allowed(self):
        assert TrainConfig(momentum=0.0).momentum == 0.0

    def test_frame_window_zero_allowed(self):
        assert TrainConfig(frame_window=0).frame_window == 0


class TestTrain:
    def make_source(self, aug=None, **overrides):
        cfgs = [
            ScenarioConfig(frames=16, identities=3, embedding_noise=0.15, drift_rate=0.01, seed=90 + i)
            for i in range(2)
        ]
        train_cfg = TrainConfig(
            learning_rate=1e-3, epochs=6, steps_per_epoch=2, videos_per_batch=2,
            tracks_per_video=6, seed=5, track_len_min=2, track_len_max=6, frame_window=16,
        )
        train_cfg = dataclasses.replace(train_cfg, **overrides)
        return scenario_sample_source(cfgs, aug or AugmentConfig(), train_cfg), train_cfg

    def test_unwindowed_ungrouped_batches_pinned(self):
        """Batches without frame windows (frame_window=0) and with one-sample
        groups stay bit-identical: the draw order of that branch is fixed."""
        source, _ = self.make_source(frame_window=0, group_size=1)
        h = hashlib.sha256()
        for seed in range(3):
            for s in source(seed):
                h.update(s.track.tobytes())
                h.update(repr((s.tags, s.identity, s.video)).encode())
        assert h.hexdigest() == "9ad2f1732a6c26ccfa1e611de7ae8e3b463153d1143fb4fbf98a26b0e7ca311b"

    def test_fixed_seed_reproducible(self):
        model_cfg = SummarizerConfig(input_dim=16, model_dim=16, n_layers=1, n_heads=2)
        source, train_cfg = self.make_source()
        w1, h1 = train(source, model_cfg, train_cfg)
        source2, _ = self.make_source()
        w2, h2 = train(source2, model_cfg, train_cfg)
        assert h1 == h2
        assert np.array_equal(w1.flat, w2.flat)

    def test_two_step_run_pinned(self):
        """Weights and losses of a short run stay bit-identical (SGD step and layout)."""
        model_cfg = SummarizerConfig(input_dim=16, model_dim=16, n_layers=1, n_heads=2)
        source, train_cfg = self.make_source()
        train_cfg = dataclasses.replace(train_cfg, epochs=2, steps_per_epoch=1)
        weights, history = train(source, model_cfg, train_cfg)
        assert hashlib.sha256(weights.flatten().tobytes()).hexdigest() == (
            "06fee385d4bb8049e52dbb6fe24c0ec32a116bf0af3d2221f1e9e2e176766518"
        )
        assert hashlib.sha256(np.array(history).tobytes()).hexdigest() == (
            "6430f864fd37abe84a8fb5106134adb63b18d71da062d4bbe46613aeba187394"
        )

    def test_loss_decreases(self):
        # 8 identities, paired sampling: every anchor sees one positive, so the
        # per-epoch loss baseline is stable and the trend is meaningful.
        cfgs = [
            ScenarioConfig(frames=16, identities=8, embedding_noise=0.15, seed=95 + i)
            for i in range(2)
        ]
        train_cfg = TrainConfig(
            learning_rate=1e-3, epochs=25, steps_per_epoch=4, videos_per_batch=2,
            tracks_per_video=8, seed=5, track_len_min=2, track_len_max=6, frame_window=16,
        )
        source = scenario_sample_source(cfgs, AugmentConfig(), train_cfg)
        model_cfg = SummarizerConfig(input_dim=16, model_dim=16, n_layers=1, n_heads=2)
        _, history = train(source, model_cfg, train_cfg)
        assert history[-1] < history[0]

    def test_trained_summaries_separate_identities(self):
        model_cfg = SummarizerConfig(input_dim=16, model_dim=16, n_layers=2, n_heads=2)
        source, train_cfg = self.make_source()
        from dataclasses import replace

        weights, _ = train(source, model_cfg, replace(train_cfg, epochs=40))
        held_out = ScenarioConfig(
            frames=16, identities=3, embedding_noise=0.15, drift_rate=0.01, seed=777
        )
        gt, dets = generate(held_out)
        per_identity = {}
        for frame_dets in dets:
            for d in frame_dets:
                per_identity.setdefault(d.source_index, []).append(d.embedding)
        summaries = {}
        for ident, embs in per_identity.items():
            early = l2_normalize(forward_summarize(weights, np.stack(embs[:8])))
            late = l2_normalize(forward_summarize(weights, np.stack(embs[8:])))
            summaries[ident] = (early, late)
        same = [float(np.dot(e, l)) for e, l in summaries.values()]
        cross = [
            float(np.dot(summaries[a][0], summaries[b][1]))
            for a in summaries
            for b in summaries
            if a != b
        ]
        assert np.mean(same) > np.mean(cross)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        # Overflowing inputs drive the layer statistics to inf - inf = nan.
        model_cfg = SummarizerConfig(input_dim=4, model_dim=8, n_layers=1, n_heads=2)
        huge = np.full((3, 4), 1e308)
        batch = [
            TrainSample(huge.copy(), (TAG_POSITIVE,) * 3, identity, 0)
            for identity in (0, 0, 1, 1)
        ]
        cfg = TrainConfig(learning_rate=0.02, epochs=3, steps_per_epoch=1)
        with pytest.raises(ValueError, match="epoch"):
            train(lambda _seed: batch, model_cfg, cfg)
