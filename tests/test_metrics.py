from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cliptrack.core import BoundingBox
from cliptrack.metrics import EvalReport, evaluate, identity_bijection_overlap
from cliptrack.rng import SplitMix64

from .oracles import best_identity_bijection_overlap, reference_evaluate


def straight_track(start, n, x0=0.0, y0=0.0, step=5.0):
    return {start + i: BoundingBox(x0 + step * i, y0, 20.0, 20.0) for i in range(n)}


class TestEvaluate:
    def test_perfect_prediction(self):
        gt = {1: straight_track(0, 10), 2: straight_track(0, 10, y0=100.0)}
        report = evaluate(gt, {7: gt[1], 9: gt[2]})
        assert report.idf1 == 1.0
        assert report.mota == 1.0
        assert report.id_switches == 0
        assert report.fragmentations == 0

    def test_empty_prediction_all_misses(self):
        gt = {1: straight_track(0, 10)}
        report = evaluate(gt, {})
        assert report.idf1 == 0.0
        assert report.mota == 0.0
        assert report.mota_raw == 0.0
        assert report.fn == 10

    def test_split_track_idf1_half(self):
        gt = {1: straight_track(0, 10)}
        pred = {
            5: {f: gt[1][f] for f in range(5)},
            6: {f: gt[1][f] for f in range(5, 10)},
        }
        report = evaluate(gt, pred)
        assert report.idtp == 5
        assert report.idfp == 5
        assert report.idfn == 5
        assert report.idf1 == 0.5
        assert report.id_switches == 1

    def test_empty_gt_errors(self):
        with pytest.raises(ValueError):
            evaluate({}, {1: straight_track(0, 3)})

    def test_mota_can_go_negative_raw(self):
        gt = {1: straight_track(0, 2)}
        pred = {
            k: {f: BoundingBox(500.0 + 30.0 * k, 400.0, 5.0, 5.0) for f in range(2)}
            for k in range(5)
        }
        report = evaluate(gt, pred)
        assert report.mota_raw < 0.0
        assert report.mota == 0.0

    def test_fragmentation_counted(self):
        gt = {1: straight_track(0, 9)}
        pred = {3: {f: gt[1][f] for f in (0, 1, 2, 6, 7, 8)}}
        report = evaluate(gt, pred)
        assert report.fragmentations == 1
        assert report.id_switches == 0

    def test_relabeling_invariance(self):
        rng = SplitMix64(10)
        gt = {i: straight_track(0, 12, y0=60.0 * i) for i in range(4)}
        pred = {i: dict(list(gt[i].items())[: 6 + int(rng.uniform(0, 6))]) for i in range(4)}
        base = evaluate(gt, pred)
        relabeled = {i + 100: t for i, t in pred.items()}
        again = evaluate(gt, relabeled)
        assert base == again

    def test_report_serialization_round_trip(self):
        gt = {1: straight_track(0, 10)}
        report = evaluate(gt, {2: gt[1]})
        assert EvalReport.from_json(report.to_json()) == report
        text = report.to_text()
        assert "idf1" in text and "mota" in text


# Boxes on a coarse integer grid overlap often, and many pairs land exactly on
# the gates (for example 16 / 32 = 0.5 and 6 / 20 = 0.3).
grid_box = st.builds(
    BoundingBox, *[st.integers(0, 3).map(float)] * 2, *[st.integers(2, 5).map(float)] * 2
)
box_map = st.dictionaries(
    st.integers(0, 5), st.dictionaries(st.integers(0, 11), grid_box, max_size=12), max_size=6
)


class TestAgainstThreeWalkScorer:
    @settings(max_examples=150, deadline=None)
    @given(box_map, box_map)
    def test_report_equals_reference(self, gt, pred):
        assume(any(gt.values()))
        for gate in (0.3, 0.5):
            assert asdict(evaluate(gt, pred, gate)) == reference_evaluate(gt, pred, gate)


class TestIdentityBijection:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_search(self, seed):
        rng = SplitMix64(seed)
        n_gt = 1 + rng.randint(5)
        n_pred = 1 + rng.randint(6)
        gt = {i: straight_track(0, 10, y0=80.0 * i) for i in range(n_gt)}
        pred = {}
        for p in range(n_pred):
            src = rng.randint(n_gt)
            start = rng.randint(8)
            length = 1 + rng.randint(10 - start)
            pred[p] = {f: gt[src][f] for f in range(start, start + length)}
        got = identity_bijection_overlap(gt, pred, 0.5)
        overlap = np.zeros((n_gt, n_pred), dtype=np.int64)
        for gi in range(n_gt):
            for pi in range(n_pred):
                overlap[gi, pi] = sum(
                    1
                    for f, box in gt[gi].items()
                    if f in pred[pi] and box.as_tuple() == pred[pi][f].as_tuple()
                )
        assert got == best_identity_bijection_overlap(overlap)

    def test_sparse_fragmented_known_total(self):
        # 20 identities over 190 frames, each cut into 19 predicted fragments of
        # 1..19 frames; pairs of identities are joined by one short switching
        # track, and 10 tracks overlap nothing: 20 x 400, one component per pair.
        # IDTP is at most the sum of each identity's best overlap (19), and the
        # row maxima sit in distinct columns, so IDTP = 20 * 19.
        gt = {g: straight_track(0, 190, y0=80.0 * g) for g in range(20)}
        pred = {}
        for g in range(20):
            start = 0
            for length in range(1, 20):
                pred[len(pred)] = {f: gt[g][f] for f in range(start, start + length)}
                start += length
        for g in range(0, 20, 2):
            switch = {f: gt[g][f] for f in range(0, 3)}
            switch.update({f: gt[g + 1][f] for f in range(3, 7)})
            pred[len(pred)] = switch
        for _ in range(10):
            pred[len(pred)] = straight_track(0, 5, y0=-1000.0)
        assert len(pred) == 400
        assert identity_bijection_overlap(gt, pred, 0.5) == 20 * 19

