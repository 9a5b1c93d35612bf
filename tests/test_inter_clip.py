import math
from collections import Counter

import numpy as np
import pytest

from cliptrack.core import (
    Assignment,
    BoundingBox,
    Detection,
    Tracklet,
    cosine_similarity,
    solve_assignment,
)
from cliptrack import inter_clip
from cliptrack.inter_clip import (
    GlobalTrackStore,
    history_representation,
    match_clip_tracker,
    match_iou_chain,
    match_temporal_average,
    merge,
)
from cliptrack.rng import SplitMix64, unit_vector
from cliptrack.summarizer import (
    SummarizerConfig,
    forward_summarize,
    init_weights,
    l2_normalize,
    weights_from_flat,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


def det(frame, emb, x=0.0, score=1.0, source=0):
    return Detection(frame, BoundingBox(x, 0.0, 10.0, 10.0), score, np.asarray(emb, float), source)


def tracklet(local_id, dets, clip_range):
    return Tracklet(local_id, tuple(dets), clip_range)


def store_with(tracklets, **kwargs):
    store = GlobalTrackStore(**kwargs)
    merge(store, Assignment.all_unmatched(0, len(tracklets)), tracklets)
    return store


class TestHistoryRepresentation:
    def test_feature_bank_returns_buffer_in_frame_order(self):
        t = tracklet(0, [det(f, E1) for f in range(4)], (0, 3))
        store = store_with([t], buffer_size=10)
        track = store.tracks[1]
        reps = history_representation(track, "feature_bank")
        assert len(reps) == 4
        assert all(np.array_equal(r, E1) for r in reps)

    def test_moving_average_constant_is_fixed_point(self):
        t = tracklet(0, [det(f, E1) for f in range(5)], (0, 4))
        store = store_with([t])
        reps = history_representation(store.tracks[1], "moving_average", momentum=0.8)
        assert len(reps) == 1
        assert np.allclose(reps[0], E1, atol=1e-12)

    def test_moving_average_two_step_recurrence(self):
        x1 = np.array([1.0, 0.0, 0.0, 0.0])
        x2 = np.array([0.0, 0.0, 1.0, 0.0])
        t = tracklet(0, [det(0, x1), det(1, x2)], (0, 1))
        store = store_with([t])
        reps = history_representation(store.tracks[1], "moving_average", momentum=0.8)
        assert np.allclose(reps[0], 0.8 * x1 + 0.2 * x2, atol=1e-15)

    def test_two_clip_returns_last_merge_only(self):
        first = tracklet(0, [det(0, E1), det(1, E1)], (0, 1))
        store = store_with([first])
        second = tracklet(0, [det(2, E2), det(3, E2)], (2, 3))
        merge(store, Assignment(((0, 0),), (), ()), [second])
        reps = history_representation(store.tracks[1], "two_clip")
        assert len(reps) == 2
        assert all(np.array_equal(r, E2) for r in reps)


class TestMatchIouChain:
    def test_identical_box_matches(self):
        old = tracklet(0, [det(f, E1, x=5.0) for f in range(4)], (0, 3))
        store = store_with([old])
        new = tracklet(0, [det(f, E2, x=5.0) for f in range(2, 6)], (2, 5))
        got = match_iou_chain(store, [new], overlap_frames=[2, 3], iou_threshold=0.5)
        assert got.pairs == ((0, 0),)

    def test_absent_from_overlap_frame_unmatched(self):
        old = tracklet(0, [det(f, E1, x=5.0) for f in range(4)], (0, 3))
        store = store_with([old])
        late = tracklet(0, [det(f, E1, x=5.0) for f in range(4, 6)], (2, 5))
        got = match_iou_chain(store, [late], overlap_frames=[2, 3], iou_threshold=0.5)
        assert got.pairs == ()
        assert got.unmatched_cols == (0,)

    def test_empty_overlap_errors(self):
        store = store_with([tracklet(0, [det(0, E1)], (0, 0))])
        with pytest.raises(ValueError):
            match_iou_chain(store, [tracklet(0, [det(1, E1)], (1, 1))], overlap_frames=[])

    def test_only_first_overlap_frame_counts(self):
        # Present at the second overlap frame but not the first: no match.
        old = tracklet(0, [det(f, E1, x=5.0) for f in range(4)], (0, 3))
        store = store_with([old])
        new = tracklet(0, [det(3, E1, x=5.0), det(4, E1, x=5.0)], (2, 5))
        got = match_iou_chain(store, [new], overlap_frames=[2, 3], iou_threshold=0.5)
        assert got.pairs == ()


class TestMatchTemporalAverage:
    def test_identical_embeddings_match(self):
        store = store_with([tracklet(0, [det(f, E1) for f in range(3)], (0, 2))])
        new = tracklet(0, [det(f, E1) for f in range(3, 5)], (3, 4))
        got = match_temporal_average(store, [new], threshold=0.5)
        assert got.pairs == ((0, 0),)

    def test_orthogonal_unmatched(self):
        store = store_with([tracklet(0, [det(f, E1) for f in range(3)], (0, 2))])
        new = tracklet(0, [det(f, E2) for f in range(3, 5)], (3, 4))
        got = match_temporal_average(store, [new], threshold=0.5)
        assert got.pairs == ()

    def test_rotating_embeddings_defeat_averaging(self):
        # One identity whose appearance rotates steadily: the stored history
        # covers the early arc, the tracklet the late arc.  Consecutive frames
        # stay highly similar, yet the normalized arc means end up orthogonal.
        def at(deg):
            rad = math.radians(deg)
            return np.array([math.cos(rad), math.sin(rad), 0.0, 0.0])

        angles = [0.0, 30.0, 60.0, 90.0, 120.0, 150.0]
        embeddings = [at(a) for a in angles]
        store = store_with([tracklet(0, [det(f, embeddings[f]) for f in range(3)], (0, 2))])
        new = tracklet(0, [det(f, embeddings[f]) for f in range(3, 6)], (3, 5))
        got = match_temporal_average(store, [new], threshold=0.5)
        assert got.pairs == ()
        step_sims = [cosine_similarity(a, b) for a, b in zip(embeddings, embeddings[1:])]
        assert all(s > 0.8 for s in step_sims)

    def test_single_buffer_single_det_is_frame_level_cosine(self):
        rng = SplitMix64(5)
        e_track = unit_vector(rng, 4)
        e_det = unit_vector(rng, 4)
        store = store_with([tracklet(0, [det(0, e_track)], (0, 0))], buffer_size=1)
        new = tracklet(0, [det(1, e_det)], (1, 1))
        got = match_temporal_average(store, [new], threshold=0.0)
        sim = cosine_similarity(e_track, e_det)
        assert (got.pairs == ((0, 0),)) == (sim >= 0.0)


    def test_strong_pair_not_traded_for_two_weak_ones(self):
        # A fresh track with its own tracklet at cost 0.05, a stale track that
        # reaches only that tracklet (0.35), and a weak tracklet the fresh track
        # reaches at 0.45.  Maximizing the pair count would hand the good
        # tracklet to the stale track; the matcher keeps the best pair.
        own = np.array([1.0, 0.0, 0.0, 0.0])
        fresh = np.array([0.95, math.sqrt(1 - 0.95**2), 0.0, 0.0])
        stale = np.array([0.65, 0.0, math.sqrt(1 - 0.65**2), 0.0])
        weak = np.array([0.3, 0.0, -0.2, 0.0])
        weak[1] = (0.55 - 0.95 * 0.3) / fresh[1]
        weak[3] = math.sqrt(1.0 - float(np.dot(weak, weak)))
        store = store_with(
            [
                tracklet(0, [det(10, fresh, source=0)], (10, 10)),
                tracklet(1, [det(2, stale, source=1)], (2, 2)),
            ]
        )
        news = [
            tracklet(0, [det(f, own, source=0) for f in range(11, 16)], (11, 16)),
            tracklet(1, [det(f, weak, source=2) for f in range(15, 17)], (11, 16)),
        ]
        cost = np.array([[1.0 - float(np.dot(t, c)) for c in (own, weak)] for t in (fresh, stale)])
        assert solve_assignment(cost, 0.5).pairs == ((0, 1), (1, 0))  # cardinality first
        got = match_temporal_average(store, news, threshold=0.5)
        assert got.pairs == ((0, 0),)
        assert got.unmatched_rows == (1,)
        assert got.unmatched_cols == (1,)


class TestMatchClipTracker:
    WEIGHTS = init_weights(SummarizerConfig(input_dim=4, model_dim=16, n_layers=2, n_heads=2), 3)

    def test_empty_store_all_unmatched(self):
        store = GlobalTrackStore()
        new = tracklet(0, [det(0, E1)], (0, 0))
        got = match_clip_tracker(store, [new], self.WEIGHTS, threshold=0.5)
        assert got == Assignment.all_unmatched(0, 1)

    def test_identical_sequences_match(self):
        store = store_with([tracklet(0, [det(f, E1) for f in range(3)], (0, 2))])
        new = tracklet(0, [det(f, E1) for f in range(3, 6)], (3, 5))
        got = match_clip_tracker(store, [new], self.WEIGHTS, threshold=0.5)
        assert got.pairs == ((0, 0),)

    def test_dimension_mismatch_errors(self):
        store = store_with([tracklet(0, [det(0, np.ones(6))], (0, 0))])
        new = tracklet(0, [det(1, np.ones(6))], (1, 1))
        with pytest.raises(ValueError):
            match_clip_tracker(store, [new], self.WEIGHTS, threshold=0.5)

    def test_gate_respected(self):
        rng = SplitMix64(17)
        tracklets = [
            tracklet(0, [det(f, unit_vector(rng, 4), source=0) for f in range(3)], (0, 2)),
            tracklet(1, [det(f, unit_vector(rng, 4), source=1) for f in range(3)], (0, 2)),
        ]
        store = store_with(tracklets)
        news = [
            tracklet(0, [det(f, unit_vector(rng, 4), source=0) for f in range(3, 5)], (3, 4)),
            tracklet(1, [det(f, unit_vector(rng, 4), source=1) for f in range(3, 5)], (3, 4)),
        ]
        got = match_clip_tracker(store, news, self.WEIGHTS, threshold=0.5)
        for r, c in got.pairs:
            track = store.ordered_tracks()[r]
            rep = l2_normalize(
                forward_summarize(self.WEIGHTS, np.stack(history_representation(track, "feature_bank")))
            )
            clip_rep = l2_normalize(forward_summarize(self.WEIGHTS, news[c].embeddings()))
            assert float(np.dot(rep, clip_rep)) >= 0.5

    @pytest.mark.parametrize("management", ["two_clip", "moving_average", "feature_bank"])
    def test_cost_matrix_equals_per_track_reference(self, monkeypatch, management):
        cfg = self.WEIGHTS.config
        rng = SplitMix64(19)
        weights = weights_from_flat(cfg, 0.5 * rng.gauss_vector(self.WEIGHTS.n_params))
        lengths = [1, 3, 3, 5, 12, 2]
        old = [
            tracklet(i, [det(f, unit_vector(rng, 4), source=i) for f in range(n)], (0, 11))
            for i, n in enumerate(lengths)
        ]
        store = store_with(old, management=management, buffer_size=8)
        news = [
            tracklet(i, [det(f, unit_vector(rng, 4), source=i) for f in range(12, 12 + n)], (12, 23))
            for i, n in enumerate([2, 1, 1, 6, 12])
        ]
        seen = []
        monkeypatch.setattr(
            inter_clip, "solve_cost_limited", lambda cost, gate: seen.append(cost) or
            Assignment.all_unmatched(*cost.shape),
        )
        match_clip_tracker(store, news, weights, threshold=0.5)
        reps = [
            l2_normalize(forward_summarize(weights, np.stack(history_representation(t, management))))
            for t in store.ordered_tracks()
        ]
        clip_reps = [l2_normalize(forward_summarize(weights, t.embeddings())) for t in news]
        want = np.array([[1.0 - float(np.dot(a, b)) for b in clip_reps] for a in reps])
        assert np.array_equal(seen[0], want)


class TestMerge:
    def test_all_unmatched_creates_new_tracks(self):
        store = GlobalTrackStore()
        tracklets = [tracklet(i, [det(0, E1, source=i)], (0, 0)) for i in range(3)]
        merge(store, Assignment.all_unmatched(0, 3), tracklets)
        assert sorted(store.tracks) == [1, 2, 3]

    def test_ids_never_reused(self):
        store = GlobalTrackStore()
        merge(store, Assignment.all_unmatched(0, 1), [tracklet(0, [det(0, E1)], (0, 0))])
        store.tracks.pop(1)
        merge(store, Assignment.all_unmatched(0, 1), [tracklet(0, [det(1, E1)], (1, 1))])
        assert sorted(store.tracks) == [2]

    def test_first_write_wins_on_overlap(self):
        first = tracklet(0, [det(f, E1, x=float(f)) for f in range(4)], (0, 3))
        store = store_with([first])
        overlap_again = tracklet(0, [det(f, E1, x=99.0) for f in range(2, 4)], (2, 3))
        merge(store, Assignment(((0, 0),), (), ()), [overlap_again])
        track = store.tracks[1]
        assert [d.frame for d in track.entries] == [0, 1, 2, 3]
        assert track.entries[2].box.x == 2.0  # kept the first-written box

    def test_buffer_keeps_most_recent(self):
        first = tracklet(0, [det(f, np.array([1.0, 0, 0, float(f)])) for f in range(3)], (0, 2))
        store = store_with([first], buffer_size=3)
        second = tracklet(0, [det(f, np.array([1.0, 0, 0, float(f)])) for f in range(3, 5)], (3, 4))
        merge(store, Assignment(((0, 0),), (), ()), [second])
        track = store.tracks[1]
        assert [f for f, _ in track.embedding_buffer] == [2, 3, 4]
        assert len(track.embedding_buffer) == 3

    def test_per_frame_uniqueness_after_merges(self):
        store = store_with([tracklet(0, [det(f, E1) for f in range(4)], (0, 3))])
        again = tracklet(0, [det(f, E1) for f in range(2, 6)], (2, 5))
        merge(store, Assignment(((0, 0),), (), ()), [again])
        frames = [d.frame for d in store.tracks[1].entries]
        assert frames == sorted(set(frames))

    def test_zero_new_frames_keeps_previous_last_added(self):
        first = tracklet(0, [det(f, E1) for f in range(4)], (0, 3))
        store = store_with([first])
        inside = tracklet(0, [det(f, E2) for f in range(1, 3)], (0, 3))
        merge(store, Assignment(((0, 0),), (), ()), [inside])
        track = store.tracks[1]
        assert len(track.entries) == 4
        assert all(np.array_equal(e, E1) for e in track.last_added)

    def test_shared_detections_fold_the_unmatched_owner(self):
        # Track A is stale; track B holds frames 3-5.  The clip's tracklet
        # carries B's detections plus frames 6-8 and is matched to A.
        a_dets = [det(f, E1, source=0) for f in range(2)]
        b_dets = [det(f, E2, source=1) for f in range(3, 6)]
        store = store_with([tracklet(0, a_dets, (0, 1)), tracklet(1, b_dets, (3, 5))])
        new_dets = [det(f, E2, source=0) for f in range(6, 9)]
        carried = tracklet(0, b_dets + new_dets, (3, 8))
        merge(store, Assignment(((0, 0),), (1,), ()), [carried])

        inputs = a_dets + b_dets + new_dets
        held = Counter(id(d) for t in store.tracks.values() for d in t.entries)
        assert all(held[id(d)] == 1 for d in inputs)
        assert sum(held.values()) == len(inputs)
        track = store.tracks[1]
        assert track.frames() == [0, 1, 3, 4, 5, 6, 7, 8]
        assert all(any(d is e for e in track.entries) for d in b_dets)
        assert [f for f, _ in track.embedding_buffer] == [0, 1, 3, 4, 5, 6, 7, 8]
        assert 2 not in store.tracks
        merge(store, Assignment.all_unmatched(1, 1), [tracklet(0, [det(9, E1, source=5)], (9, 9))])
        assert sorted(store.tracks) == [1, 3]

    def test_detections_of_a_matched_owner_are_not_copied(self):
        a_dets = [det(f, E1, source=0) for f in range(2)]
        b_dets = [det(f, E2, source=1) for f in range(3)]
        store = store_with([tracklet(0, a_dets, (0, 1)), tracklet(1, b_dets, (0, 2))])
        # A's tracklet also carries B's frame-2 detection; B is matched too,
        # so it is not folded and keeps that detection.
        first = tracklet(0, [b_dets[2], det(3, E1, source=0)], (2, 4))
        second = tracklet(1, [det(3, E2, source=1), det(4, E2, source=1)], (2, 4))
        merge(store, Assignment(((0, 0), (1, 1)), (), ()), [first, second])
        assert sorted(store.tracks) == [1, 2]
        assert store.tracks[1].frames() == [0, 1, 3]
        assert store.tracks[2].frames() == [0, 1, 2, 3, 4]
        assert store.tracks[2].entries[2] is b_dets[2]

    def test_unmatched_tracklet_skips_owned_detections(self):
        dets = [det(f, E1, source=0) for f in range(4)]
        store = store_with([tracklet(0, dets, (0, 3))])
        overlap_only = tracklet(0, dets[2:], (2, 5))
        merge(store, Assignment.all_unmatched(1, 1), [overlap_only])
        assert sorted(store.tracks) == [1]
        extending = tracklet(0, dets[3:] + [det(4, E1, source=0)], (2, 5))
        merge(store, Assignment.all_unmatched(1, 1), [extending])
        assert store.tracks[2].frames() == [4]

    def test_fold_keeps_matched_entry_on_shared_frame(self):
        a_dets = [det(0, E1, source=0), det(3, E1, source=0)]
        b_dets = [det(f, E2, source=1) for f in range(2, 5)]
        store = store_with([tracklet(0, a_dets, (0, 3)), tracklet(1, b_dets, (2, 4))])
        carried = tracklet(0, [b_dets[2], det(5, E1, source=0)], (4, 5))
        merge(store, Assignment(((0, 0),), (1,), ()), [carried])
        assert sorted(store.tracks) == [1]
        track = store.tracks[1]
        assert track.frames() == [0, 2, 3, 4, 5]
        assert track.entries[2] is a_dets[1]
        assert (3, 1) not in store.owner
        assert all(store.owner[(d.frame, d.source_index)] == 1 for d in track.entries)
