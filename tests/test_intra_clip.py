import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliptrack.core import BoundingBox, Detection
from cliptrack.intra_clip import Clip, associate_direction_free, associate_directional
from cliptrack.rng import SplitMix64, unit_vector

from .oracles import naive_single_linkage


def det(frame, embedding, score=1.0, source=0, x=0.0):
    return Detection(frame, BoundingBox(x, 0.0, 10.0, 10.0), score, np.asarray(embedding, float), source)


def clip_from_frames(start, frames):
    return Clip(start, start + len(frames) - 1, tuple(tuple(f) for f in frames))


E1 = [1.0, 0.0, 0.0, 0.0]
E2 = [0.0, 1.0, 0.0, 0.0]


class TestDirectional:
    def test_two_identities_five_frames(self):
        frames = [
            [det(f, E1, source=0), det(f, E2, source=1, x=30.0)] for f in range(5)
        ]
        tracklets = associate_directional(clip_from_frames(0, frames))
        assert len(tracklets) == 2
        assert all(len(t.entries) == 5 for t in tracklets)
        assert all(np.allclose(d.embedding, E1) for d in tracklets[0].entries)
        assert all(np.allclose(d.embedding, E2) for d in tracklets[1].entries)

    def test_gap_revived_with_patience(self):
        frames = [[det(f, E1)] if f != 3 else [] for f in range(5)]
        tracklets = associate_directional(clip_from_frames(0, frames), patience=2)
        assert len(tracklets) == 1
        assert tracklets[0].frames() == [0, 1, 2, 4]

    def test_gap_splits_with_zero_patience(self):
        frames = [[det(f, E1)] if f != 3 else [] for f in range(5)]
        tracklets = associate_directional(clip_from_frames(0, frames), patience=0)
        assert len(tracklets) == 2
        assert tracklets[0].frames() == [0, 1, 2]
        assert tracklets[1].frames() == [4]

    def test_clip_length_one_singletons(self):
        frames = [[det(0, E1, source=0), det(0, E2, source=1), det(0, E1, score=0.3, source=2)]]
        tracklets = associate_directional(clip_from_frames(0, frames), init_score=0.5)
        assert len(tracklets) == 2
        assert all(len(t.entries) == 1 for t in tracklets)

    def test_low_score_detections_ignored(self):
        frames = [[det(0, E1)], [det(1, E1, score=0.2)], [det(2, E1)]]
        tracklets = associate_directional(clip_from_frames(0, frames), init_score=0.5)
        assert len(tracklets) == 1
        assert tracklets[0].frames() == [0, 2]

    def test_empty_frames_are_skipped_without_error(self):
        frames = [[], [], [det(2, E1)], []]
        tracklets = associate_directional(clip_from_frames(0, frames))
        assert len(tracklets) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_partition_property(self, seed):
        rng = SplitMix64(seed)
        n_frames = rng.randint(6) + 1
        frames = []
        for f in range(n_frames):
            row = []
            for s in range(rng.randint(4)):
                row.append(det(f, unit_vector(rng, 4), score=rng.uniform(), source=s))
            frames.append(row)
        clip = clip_from_frames(0, frames)
        tracklets = associate_directional(clip, init_score=0.5)
        emitted = [d for t in tracklets for d in t.entries]
        eligible = [d for d in clip.detections if d.score >= 0.5]
        assert sorted((d.frame, d.source_index) for d in emitted) == sorted(
            (d.frame, d.source_index) for d in eligible
        )
        assert len({id(d) for d in emitted}) == len(emitted)
        for t in tracklets:
            frames_seen = t.frames()
            assert len(frames_seen) == len(set(frames_seen))


def partition(clip, tracklets):
    """Tracklets as a set of frozensets of indices into clip.detections."""
    index = {(d.frame, d.source_index): i for i, d in enumerate(clip.detections)}
    return {frozenset(index[(d.frame, d.source_index)] for d in t.entries) for t in tracklets}


class TestDirectionFree:
    def test_single_detection(self):
        tracklets = associate_direction_free(clip_from_frames(0, [[det(0, E1)]]))
        assert len(tracklets) == 1
        assert len(tracklets[0].entries) == 1

    def test_same_frame_never_merges(self):
        frames = [[det(0, E1, source=0), det(0, E1, source=1)]]
        tracklets = associate_direction_free(clip_from_frames(0, frames))
        assert len(tracklets) == 2

    def test_two_by_two_grid(self):
        a0 = [1.0, 0.1, 0.0, 0.0]
        a1 = [1.0, 0.0, 0.1, 0.0]  # distance to a0 well under 0.5
        b0 = [0.0, 1.0, 0.1, 0.0]
        b1 = [0.1, 1.0, 0.0, 0.0]
        frames = [
            [det(0, a0, source=0), det(0, b0, source=1)],
            [det(1, a1, source=0), det(1, b1, source=1)],
        ]
        tracklets = associate_direction_free(clip_from_frames(0, frames), merge_threshold=0.5)
        assert len(tracklets) == 2
        assert all(len(t.entries) == 2 for t in tracklets)

    def test_all_detections_emitted_regardless_of_score(self):
        frames = [[det(0, E1, score=0.1)], [det(1, E2, score=0.05)]]
        tracklets = associate_direction_free(clip_from_frames(0, frames))
        assert sum(len(t.entries) for t in tracklets) == 2

    def test_nan_threshold_rejected(self):
        frames = [[det(0, E1)], [det(1, E1)]]
        with pytest.raises(ValueError, match="threshold"):
            associate_direction_free(clip_from_frames(0, frames), merge_threshold=float("nan"))

    def test_zero_norm_embedding_rejected(self):
        frames = [[det(0, E1)], [det(1, [0.0, 0.0, 0.0, 0.0])]]
        with pytest.raises(ValueError, match="zero-norm"):
            associate_direction_free(clip_from_frames(0, frames))

    def test_exact_tie_breaks_on_cluster_ids(self):
        # {1, 2} merge first and take cluster id 4.  Then 0-1 and 0-3 tie at
        # distance 0.2: clusters (0, 3) come before (0, 4), so 0 joins 3, not
        # the pair with the lower detection indices.
        frames = [
            [det(0, [1.0, 0.0, 0.0])],
            [det(1, [0.8, 0.6, 0.0])],
            [det(2, [0.8, 0.6, 0.05], source=0), det(2, [0.8, -0.6, 0.0], source=1)],
        ]
        clip = clip_from_frames(0, frames)
        want = naive_single_linkage(clip.detections, 0.4)
        assert want == {frozenset({0, 3}), frozenset({1, 2})}
        assert partition(clip, associate_direction_free(clip, merge_threshold=0.4)) == want

    def test_matches_naive_oracle_with_duplicated_embeddings(self):
        # 40 detections over 10 frames; half of them copy one of six
        # embeddings, which makes many exact distance ties across frames.
        rng = SplitMix64(7)
        palette = [unit_vector(rng, 4) for _ in range(6)]
        frames = []
        for f in range(10):
            row = [det(f, palette[rng.randint(6)], source=s) for s in range(2)]
            row += [det(f, unit_vector(rng, 4), source=s) for s in range(2, 4)]
            frames.append(row)
        clip = clip_from_frames(0, frames)
        got = associate_direction_free(clip, merge_threshold=0.5)
        assert partition(clip, got) == naive_single_linkage(clip.detections, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_naive_oracle(self, seed):
        rng = SplitMix64(seed)
        n_frames = rng.randint(5) + 1
        frames = []
        for f in range(n_frames):
            frames.append([det(f, unit_vector(rng, 3), source=s) for s in range(rng.randint(5))])
        clip = clip_from_frames(0, frames)
        threshold = rng.uniform(0.1, 1.2)
        got = associate_direction_free(clip, merge_threshold=threshold)
        index = {(d.frame, d.source_index): i for i, d in enumerate(clip.detections)}
        got_partition = {
            frozenset(index[(d.frame, d.source_index)] for d in t.entries) for t in got
        }
        want = naive_single_linkage(clip.detections, threshold)
        assert got_partition == want
