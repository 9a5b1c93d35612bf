import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliptrack.core import (
    Assignment,
    BoundingBox,
    Detection,
    GlobalTrack,
    Tracklet,
    bisoftmax_affinity,
    iou,
    solve_assignment,
    solve_cost_limited,
)
from cliptrack.rng import SplitMix64

from .oracles import brute_force_assignment, brute_force_cost_limited, cosine_similarity


def box(x, y, w, h):
    return BoundingBox(x, y, w, h)


class TestBoundingBox:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            box(0, 0, 0, 5)
        with pytest.raises(ValueError):
            box(0, 0, 5, -1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            box(math.nan, 0, 1, 1)


class TestDetection:
    def test_score_range(self):
        with pytest.raises(ValueError):
            Detection(0, box(0, 0, 1, 1), 1.5, np.ones(4), 0)

    def test_embedding_must_be_finite(self):
        with pytest.raises(ValueError):
            Detection(0, box(0, 0, 1, 1), 0.5, np.array([1.0, math.inf]), 0)


class TestTracklet:
    def test_frames_strictly_increasing(self):
        d0 = Detection(3, box(0, 0, 1, 1), 1.0, np.ones(2), 0)
        d1 = Detection(3, box(0, 0, 1, 1), 1.0, np.ones(2), 1)
        with pytest.raises(ValueError):
            Tracklet(0, (d0, d1), (0, 5))

    def test_entries_within_range(self):
        d = Detection(7, box(0, 0, 1, 1), 1.0, np.ones(2), 0)
        with pytest.raises(ValueError):
            Tracklet(0, (d,), (0, 5))


def dets(frames, source=0):
    return [Detection(f, box(0, 0, 1, 1), 1.0, np.ones(2), source) for f in frames]


class TestGlobalTrack:
    def test_extend_keeps_tail_buffer_and_last_added(self):
        track = GlobalTrack(1)
        assert track.last_frame == -1
        first, second = dets([0, 1, 2]), dets([4, 5])
        track.extend(first, 3)
        track.extend(second, 3)
        assert track.entries == first + second and track.last_frame == 5
        assert [f for f, _ in track.embedding_buffer] == [2, 4, 5]
        buffer, tail = track.embedding_buffer, track.entries[-3:]
        assert all(e is d.embedding for (_, e), d in zip(buffer, tail))
        assert [id(e) for e in track.last_added] == [id(d.embedding) for d in second]
        track.extend([], 3)
        assert track.last_frame == 5 and len(track.last_added) == 2

    def test_absorb_keeps_own_entry_on_shared_frame(self):
        track, other = GlobalTrack(1), GlobalTrack(2)
        track.extend(dets([0, 2, 4]), 10)
        other.extend(dets([1, 2, 3], source=1), 10)
        shared = other.entries[1]
        assert track.absorb(other, 2) == [shared]
        assert track.frames() == [0, 1, 2, 3, 4]
        assert all(d.source_index == 0 for d in track.entries if d.frame in (0, 2, 4))
        assert [f for f, _ in track.embedding_buffer] == [3, 4]

    @pytest.mark.parametrize("other_end, taken", [(3, False), (6, True)])
    def test_absorb_takes_last_added_of_the_later_track(self, other_end, taken):
        track, other = GlobalTrack(1), GlobalTrack(2)
        track.extend(dets([0, 4]), 10)
        other.extend(dets([1, other_end], source=1), 10)
        before = track.last_added
        track.absorb(other, 10)
        assert track.last_added is (other.last_added if taken else before)


class TestIou:
    def test_identity(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(5, 5, 1, 1)) == 0.0

    def test_partial_overlap_exact(self):
        # intersection 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou(box(0, 0, 2, 2), box(1, 0, 2, 2)) == pytest.approx(1 / 3, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_and_self(self, seed):
        rng = SplitMix64(seed)
        a = box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0.1, 30), rng.uniform(0.1, 30))
        b = box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0.1, 30), rng.uniform(0.1, 30))
        assert iou(a, b) == iou(b, a)
        assert iou(a, a) == 1.0
        assert 0.0 <= iou(a, b) <= 1.0


class TestCosineSimilarity:
    def test_identity(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scalar_value(self):
        got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    @given(st.integers(0, 2**32 - 1))
    def test_bounded(self, seed):
        rng = SplitMix64(seed)
        a = rng.gauss_vector(8)
        b = rng.gauss_vector(8)
        assert -1.0 - 1e-12 <= cosine_similarity(a, b) <= 1.0 + 1e-12


class TestBisoftmaxAffinity:
    def test_singleton_is_one(self):
        a = bisoftmax_affinity([np.array([0.3, -2.0])], [np.array([5.0, 1.0])], 1.0)
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_identical_refs_split_row_softmax(self):
        # Row softmax spreads 0.5/0.5 over identical refs; the column softmax
        # over the single query is 1 for each ref, so the mix gives 0.75.
        a = bisoftmax_affinity([np.array([1.0, 0.0])], [np.array([1.0, 0.0])] * 2, 1.0)
        assert a[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert a[0, 1] == pytest.approx(0.75, abs=1e-12)

    def test_two_refs_scalar_values(self):
        a = bisoftmax_affinity(
            [np.array([1.0, 0.0])], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 1.0
        )
        row0 = math.e / (math.e + 1.0)
        assert a[0, 0] == pytest.approx(0.5 * (row0 + 1.0), abs=1e-12)
        assert a[0, 1] == pytest.approx(0.5 * ((1.0 - row0) + 1.0), abs=1e-12)

    def test_empty_refs_error(self):
        with pytest.raises(ValueError):
            bisoftmax_affinity([np.ones(2)], [], 1.0)

    def test_nonpositive_temperature_error(self):
        with pytest.raises(ValueError):
            bisoftmax_affinity([np.ones(2)], [np.ones(2)], 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_directional_softmaxes_normalized(self, seed, nq, nr):
        rng = SplitMix64(seed)
        q = [rng.gauss_vector(4) for _ in range(nq)]
        r = [rng.gauss_vector(4) for _ in range(nr)]
        s = np.stack(q) @ np.stack(r).T / 0.3
        row = np.exp(s - s.max(axis=1, keepdims=True))
        row /= row.sum(axis=1, keepdims=True)
        col = np.exp(s - s.max(axis=0, keepdims=True))
        col /= col.sum(axis=0, keepdims=True)
        assert np.allclose(row.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(col.sum(axis=0), 1.0, atol=1e-9)
        a = bisoftmax_affinity(q, r, 0.3)
        assert np.allclose(a, 0.5 * (row + col), atol=1e-12)
        assert (a > 0).all() and (a <= 1.0 + 1e-12).all()


class TestSolveAssignment:
    def test_diagonal_identity(self):
        cost = np.full((3, 3), 1.0)
        np.fill_diagonal(cost, 0.0)
        got = solve_assignment(cost, 0.5)
        assert got.pairs == ((0, 0), (1, 1), (2, 2))
        assert got.unmatched_rows == () and got.unmatched_cols == ()

    def test_two_by_two(self):
        got = solve_assignment([[1.0, 2.0], [2.0, 1.0]], 10.0)
        assert got.pairs == ((0, 0), (1, 1))

    def test_gate_excludes_everything(self):
        got = solve_assignment(np.full((2, 3), 5.0), 1.0)
        assert got.pairs == ()
        assert got.unmatched_rows == (0, 1)
        assert got.unmatched_cols == (0, 1, 2)

    def test_infinity_forbids_pair(self):
        got = solve_assignment([[math.inf, 0.2], [0.1, math.inf]], 1.0)
        assert got.pairs == ((0, 1), (1, 0))

    def test_prefers_cardinality_over_cost(self):
        # Leaving row 1 unmatched would be cheaper but matches fewer pairs.
        got = solve_assignment([[0.0, 9.0], [9.0, 9.0]], 100.0)
        assert got.pairs == ((0, 1), (1, 0)) or got.pairs == ((0, 0), (1, 1))
        assert len(got.pairs) == 2
        (pairs, _) = brute_force_assignment([[0.0, 9.0], [9.0, 9.0]], 100.0)
        assert got.pairs == pairs

    @pytest.mark.parametrize(
        "cost, pairs",
        [
            ([[0.0, 0.0], [0.0, math.inf]], ((0, 1), (1, 0))),
            ([[0.0, 0.5], [0.5, math.inf]], ((0, 1), (1, 0))),
            ([[0.0, 0.75, math.inf], [math.inf, 0.0, 0.75], [0.75, math.inf, math.inf]], ((0, 1), (1, 2), (2, 0))),
        ],
    )
    def test_extra_pair_pays_at_any_cost(self, cost, pairs):
        # Each extra pair here costs at least as much as the cheaper, smaller
        # matching saves; cardinality still comes first.
        assert solve_assignment(cost, 10.0).pairs == pairs == brute_force_assignment(cost, 10.0)[0]

    def test_lexicographic_tie_break(self):
        got = solve_assignment(np.zeros((2, 2)), 1.0)
        assert got.pairs == ((0, 0), (1, 1))
        got = solve_assignment(np.full((3, 3), 0.25), 1.0)
        assert got.pairs == ((0, 0), (1, 1), (2, 2))

    def test_rectangular(self):
        got = solve_assignment([[0.5, 0.1, 0.9]], 1.0)
        assert got.pairs == ((0, 1),)
        assert got.unmatched_cols == (0, 2)

    def test_empty_matrix(self):
        got = solve_assignment(np.zeros((0, 3)), 1.0)
        assert got == Assignment.all_unmatched(0, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_matches_brute_force(self, seed, n, m):
        rng = SplitMix64(seed)
        cost = np.array([[rng.uniform(0, 1) for _ in range(m)] for _ in range(n)])
        max_cost = rng.uniform(0.2, 1.0)
        got = solve_assignment(cost, max_cost)
        pairs, total = brute_force_assignment(cost, max_cost)
        assert got.pairs == pairs
        got_total = sum(float(cost[i, j]) for i, j in got.pairs)
        assert got_total == pytest.approx(float(total), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_with_exact_ties(self, seed):
        rng = SplitMix64(seed)
        values = [0.0, 0.25, 0.5, 1.0]
        n, m = rng.randint(4) + 1, rng.randint(4) + 1
        cost = np.array([[values[rng.randint(len(values))] for _ in range(m)] for _ in range(n)])
        got = solve_assignment(cost, 0.75)
        pairs, _ = brute_force_assignment(cost, 0.75)
        assert got.pairs == pairs

    def test_partition_of_index_sets(self):
        rng = SplitMix64(99)
        cost = np.array([[rng.uniform(0, 1) for _ in range(4)] for _ in range(6)])
        got = solve_assignment(cost, 0.7)
        rows = sorted([i for i, _ in got.pairs] + list(got.unmatched_rows))
        cols = sorted([j for _, j in got.pairs] + list(got.unmatched_cols))
        assert rows == list(range(6))
        assert cols == list(range(4))


class TestSolveCostLimited:
    def test_keeps_strong_pair_over_two_weak_ones(self):
        cost = [[0.05, 0.45], [0.35, math.inf]]
        assert solve_assignment(cost, 0.5).pairs == ((0, 1), (1, 0))
        got = solve_cost_limited(cost, 0.5)
        assert got.pairs == ((0, 0),)
        assert got.unmatched_rows == (1,)
        assert got.unmatched_cols == (1,)

    def test_rows_and_columns_without_allowed_pairs_stay_unmatched(self):
        got = solve_cost_limited([[math.inf, 0.9, 0.1], [0.8, 0.7, 0.9]], 0.5)
        assert got.pairs == ((0, 2),)
        assert got.unmatched_rows == (1,)
        assert got.unmatched_cols == (0, 1)

    def test_empty_and_fully_gated(self):
        assert solve_cost_limited(np.zeros((0, 2)), 0.5) == Assignment.all_unmatched(0, 2)
        assert solve_cost_limited(np.ones((2, 2)), 0.5) == Assignment.all_unmatched(2, 2)

    def test_rejects_infinite_gate(self):
        with pytest.raises(ValueError):
            solve_cost_limited(np.zeros((1, 1)), math.inf)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_matches_brute_force(self, seed, n, m):
        rng = SplitMix64(seed)
        cost = np.array([[rng.uniform(0, 1) for _ in range(m)] for _ in range(n)])
        if rng.uniform() < 0.3:
            cost[rng.randint(n), rng.randint(m)] = math.inf
        max_cost = rng.uniform(0.2, 1.0)
        got = solve_cost_limited(cost, max_cost)
        pairs, _ = brute_force_cost_limited(cost, max_cost)
        assert got.pairs == pairs

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_with_exact_ties(self, seed):
        rng = SplitMix64(seed)
        values = [0.0, 0.25, 0.5, 0.75, 1.0]
        n, m = rng.randint(4) + 1, rng.randint(4) + 1
        cost = np.array([[values[rng.randint(len(values))] for _ in range(m)] for _ in range(n)])
        got = solve_cost_limited(cost, 0.5)
        pairs, _ = brute_force_cost_limited(cost, 0.5)
        assert got.pairs == pairs


class TestComponentIndependence:
    """Beyond brute-force sizes: a block-diagonal matrix (rows and columns
    interleaved by a seeded permutation) must solve to the union of its blocks,
    each block checked against exhaustive search."""

    @staticmethod
    def blocks(seed):
        rng = SplitMix64(seed)
        sizes = [(1 + rng.randint(6), 1 + rng.randint(6)) for _ in range(6)]
        n, m = sum(k for k, _ in sizes), sum(l for _, l in sizes)
        row_perm = sorted(range(n), key=lambda _: rng.uniform())
        col_perm = sorted(range(m), key=lambda _: rng.uniform())
        cost = np.full((n, m), math.inf)
        blocks = []
        r0 = c0 = 0
        for k, l in sizes:
            rows = sorted(row_perm[r0 : r0 + k])
            cols = sorted(col_perm[c0 : c0 + l])
            for i in rows:
                for j in cols:
                    cost[i, j] = [0.0, 0.25, 0.5, 0.75, 1.0][rng.randint(5)]
            blocks.append((rows, cols))
            r0, c0 = r0 + k, c0 + l
        return cost, blocks

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "solver, oracle, max_cost",
        [(solve_assignment, brute_force_assignment, 0.75), (solve_cost_limited, brute_force_cost_limited, 0.5)],
    )
    def test_union_of_blocks(self, seed, solver, oracle, max_cost):
        cost, blocks = self.blocks(seed)
        want = []
        for rows, cols in blocks:
            block = cost[np.ix_(rows, cols)]
            pairs = solver(block, max_cost).pairs
            assert pairs == oracle(block, max_cost)[0]
            want += [(rows[i], cols[j]) for i, j in pairs]
        got = solver(cost, max_cost)
        assert got.pairs == tuple(sorted(want))
        assert sorted(got.unmatched_rows + tuple(i for i, _ in want)) == list(range(cost.shape[0]))

