import hashlib

import numpy as np
import pytest

from cliptrack.core import iou
from cliptrack.scenario import (
    Interruption,
    ScenarioConfig,
    build_proposal_pool,
    generate,
    scenario_from_json,
    scenario_to_json,
)


def noiseless_config(**overrides):
    base = dict(frames=30, identities=4, embedding_dim=16, seed=11)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    @pytest.mark.parametrize("period", [0.0, -5.0])
    def test_nonpositive_modulation_period_rejected(self, period):
        with pytest.raises(ValueError, match="modulation_period"):
            ScenarioConfig(modulation_period=period)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        cfg = noiseless_config(box_jitter=1.0, embedding_noise=0.2, fp_rate=0.1, fn_rate=0.1)
        gt1, det1 = generate(cfg)
        gt2, det2 = generate(cfg)
        assert np.array_equal(gt1.latents, gt2.latents)
        for t1, t2 in zip(gt1.trajectories, gt2.trajectories):
            assert t1.keys() == t2.keys()
            assert all(t1[f].as_tuple() == t2[f].as_tuple() for f in t1)
        for f1, f2 in zip(det1, det2):
            assert len(f1) == len(f2)
            for a, b in zip(f1, f2):
                assert a.box.as_tuple() == b.box.as_tuple()
                assert np.array_equal(a.embedding, b.embedding)

    def test_noiseless_counts_and_embeddings(self):
        cfg = noiseless_config()
        gt, dets = generate(cfg)
        assert sum(len(f) for f in dets) == cfg.frames * cfg.identities
        for frame in dets:
            for d in frame:
                lat = gt.latents[d.source_index]
                assert np.allclose(d.embedding, lat, atol=1e-12)

    def test_occlusion_removes_exact_window(self):
        occ = Interruption("occlusion", 10, 14, (0,))
        cfg = noiseless_config(interruptions=(occ,))
        _, dets = generate(cfg)
        base = noiseless_config()
        _, base_dets = generate(base)
        assert sum(len(f) for f in base_dets) - sum(len(f) for f in dets) == 5

    def test_trajectories_stay_in_arena(self):
        cfg = noiseless_config(frames=300, speed=9.0, turn_sigma=0.4, seed=3)
        gt, _ = generate(cfg)
        for traj in gt.trajectories:
            for box in traj.values():
                assert 0.0 <= box.x and box.x + box.w <= cfg.arena_w + 1e-9
                assert 0.0 <= box.y and box.y + box.h <= cfg.arena_h + 1e-9

    def test_latents_respect_separation(self):
        cfg = noiseless_config(identities=6, min_separation_deg=75.0, seed=5)
        gt, _ = generate(cfg)
        max_cos = np.cos(np.radians(75.0))
        g = gt.latents @ gt.latents.T
        off = g - np.eye(len(g))
        assert np.abs(off).max() <= max_cos + 1e-12

    def test_infeasible_separation_errors(self):
        with pytest.raises(ValueError):
            generate(ScenarioConfig(identities=40, embedding_dim=2, min_separation_deg=80.0))

    def test_camera_jump_shifts_boxes(self):
        jump = Interruption("camera_jump", 5, 9)
        cfg = noiseless_config(interruptions=(jump,), turn_sigma=0.0)
        gt, _ = generate(cfg)
        plain, _ = generate(noiseless_config(turn_sigma=0.0))
        moved = [
            abs(gt.trajectories[i][5].x - plain.trajectories[i][5].x)
            + abs(gt.trajectories[i][5].y - plain.trajectories[i][5].y)
            for i in range(cfg.identities)
        ]
        assert max(moved) > 50.0

    def test_light_change_biases_embeddings(self):
        light = Interruption("light_change", 0, 29)
        cfg = noiseless_config(interruptions=(light,))
        gt, dets = generate(cfg)
        for d in dets[0]:
            assert not np.allclose(d.embedding, gt.latents[d.source_index], atol=1e-3)

    def test_drift_rotates_latent(self):
        cfg = noiseless_config(drift_rate=0.02)
        gt, dets = generate(cfg)
        d0 = dets[0][0]
        dlast = dets[-1][0]
        cos_gap = float(np.dot(d0.embedding, dlast.embedding))
        assert cos_gap == pytest.approx(np.cos(0.02 * 29), abs=1e-9)


class TestProposalPool:
    def test_draw_order_pinned(self):
        # Boxes, IoUs and embeddings share one stream; any change to its draw
        # order moves this hash.
        gt, _ = generate(ScenarioConfig(frames=12, identities=3, embedding_noise=0.1, seed=77))
        pool = build_proposal_pool(gt, 0.7, (0.3, 0.5), per_frame=2, seed=78)
        h = hashlib.sha256()
        for bucket in (pool.positives, pool.negatives):
            for identity in sorted(bucket):
                for p in bucket[identity]:
                    fields = [p.identity, p.frame, *p.box.as_tuple(), p.iou]
                    h.update(np.array(fields, dtype=np.float64).tobytes())
                    h.update(p.embedding.tobytes())
        assert h.hexdigest() == "441cca66aa72e6e4102b5fff7106194ab4470a6a0a89da481c0ebbfa21f84076"

    @pytest.mark.parametrize("per_frame", [0, -1])
    def test_nonpositive_per_frame_rejected(self, per_frame):
        gt, _ = generate(noiseless_config(frames=4, identities=2))
        with pytest.raises(ValueError, match="per_frame"):
            build_proposal_pool(gt, 0.7, (0.3, 0.5), per_frame=per_frame)

    def test_bands_and_embedding_quality(self):
        gt, _ = generate(noiseless_config(frames=10, identities=3))
        pool = build_proposal_pool(gt, 0.7, (0.3, 0.5), per_frame=1, seed=9)
        for identity in range(3):
            assert all(p.iou >= 0.7 for p in pool.positives[identity])
            assert all(0.3 <= p.iou < 0.5 for p in pool.negatives[identity])
            pos_sim = np.mean(
                [float(np.dot(p.embedding, gt.latent_at(identity, p.frame))) for p in pool.positives[identity]]
            )
            neg_sim = np.mean(
                [float(np.dot(p.embedding, gt.latent_at(identity, p.frame))) for p in pool.negatives[identity]]
            )
            assert pos_sim > neg_sim

    def test_gt_band_gives_gt_boxes_and_ious_recompute(self):
        gt, _ = generate(noiseless_config(frames=6, identities=2))
        pool = build_proposal_pool(gt, 1.0, (0.3, 0.5), per_frame=2, seed=3)
        for identity in range(2):
            for p in pool.positives[identity]:
                assert p.box.as_tuple() == gt.trajectories[identity][p.frame].as_tuple()
                assert p.iou == 1.0
            for p in pool.negatives[identity]:
                assert iou(p.box, gt.trajectories[identity][p.frame]) == p.iou

    def test_unreachable_band_errors(self):
        gt, _ = generate(noiseless_config(frames=2, identities=1))
        with pytest.raises(ValueError, match="unreachable"):
            build_proposal_pool(gt, 0.7, (0.999999999, 0.9999999995), per_frame=1, seed=4)


class TestJsonRoundTrip:
    def test_round_trip_exact(self):
        cfg = noiseless_config(
            box_jitter=0.5,
            embedding_noise=0.1,
            fp_rate=0.2,
            fn_rate=0.05,
            drift_rate=0.01,
            interruptions=(Interruption("occlusion", 3, 6, (1,)), Interruption("camera_jump", 8, 9)),
        )
        gt, dets = generate(cfg)
        text = scenario_to_json(gt, dets)
        gt2, dets2 = scenario_from_json(text)
        assert gt2.config == cfg
        assert np.array_equal(gt2.latents, gt.latents)
        for t1, t2 in zip(gt.trajectories, gt2.trajectories):
            assert t1.keys() == t2.keys()
            assert all(t1[f].as_tuple() == t2[f].as_tuple() for f in t1)
        for f1, f2 in zip(dets, dets2):
            for a, b in zip(f1, f2):
                assert a.box.as_tuple() == b.box.as_tuple()
                assert np.array_equal(a.embedding, b.embedding)
                assert a.score == b.score
