import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliptrack.rng import SplitMix64, unit_vector
from cliptrack.summarizer import (
    _GELU_A,
    _GELU_C,
    _PACK_ROWS,
    WEIGHTS_MAGIC,
    SummarizerConfig,
    _as_track_matrix,
    _forward,
    _gelu,
    _layout,
    _n_params,
    batch_loss,
    contrastive_loss,
    forward_summarize,
    gradient,
    init_weights,
    l2_normalize,
    load_weights,
    save_weights,
    summarize_tracks,
    weights_from_flat,
)
from cliptrack.training import TrainSample

from .oracles import finite_difference_gradient, reference_gradient

SMALL = SummarizerConfig(input_dim=6, model_dim=8, n_layers=2, n_heads=2)
DEEP = SummarizerConfig(input_dim=6, model_dim=16, n_layers=3, n_heads=8)


def random_track(rng, length, dim=6):
    return np.stack([rng.gauss_vector(dim) for _ in range(length)])


def random_batch(rng, n_identities=3, per_identity=2, dim=6):
    samples = []
    for ident in range(n_identities):
        for _ in range(per_identity):
            track = random_track(rng, 1 + rng.randint(4), dim)
            samples.append(TrainSample(track, ("positive",) * len(track), ident, 0))
    return samples


class TestForwardSummarize:
    def test_output_shape(self):
        w = init_weights(SMALL, 0)
        out = forward_summarize(w, random_track(SplitMix64(1), 5))
        assert out.shape == (8,)

    def test_deterministic(self):
        w = init_weights(SMALL, 0)
        track = random_track(SplitMix64(2), 4)
        a = forward_summarize(w, track)
        b = forward_summarize(w, track)
        assert np.array_equal(a, b)

    def test_permutation_invariance_bitwise(self):
        w = init_weights(SMALL, 3)
        rng = SplitMix64(4)
        track = random_track(rng, 7)
        base = forward_summarize(w, track)
        for _ in range(20):
            perm = np.argsort([rng.uniform() for _ in range(len(track))])
            assert np.array_equal(forward_summarize(w, track[perm]), base)

    def test_reversal_bitwise(self):
        w = init_weights(SMALL, 5)
        track = random_track(SplitMix64(6), 6)
        assert np.array_equal(forward_summarize(w, track[::-1]), forward_summarize(w, track))

    def test_dimension_mismatch_errors(self):
        w = init_weights(SMALL, 0)
        with pytest.raises(ValueError):
            forward_summarize(w, np.ones((3, 7)))

    def test_empty_track_errors(self):
        w = init_weights(SMALL, 0)
        with pytest.raises(ValueError):
            forward_summarize(w, np.ones((0, 6)))

    def test_single_embedding_accepted(self):
        w = init_weights(SMALL, 0)
        out = forward_summarize(w, np.ones(6))
        assert out.shape == (8,)


class TestSummarizerConfig:
    @pytest.mark.parametrize("field", ["n_heads", "model_dim"])
    def test_zero_dimension_rejected_naming_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            SummarizerConfig(**{"input_dim": 6, field: 0})


def random_weights(cfg, seed):
    """Every parameter drawn at random, so attention is far from uniform."""
    rng = SplitMix64(seed)
    return weights_from_flat(cfg, 0.5 * rng.gauss_vector(init_weights(cfg, 0).flat.size))


class TestParameterLayout:
    def test_named_parameters_are_views_of_flat(self):
        w = init_weights(SMALL, 0)
        before = w.flat.copy()
        w.layers[0].wq[1, 2] = 5.0
        changed = np.flatnonzero(w.flat != before)
        assert changed.size == 1 and w.flat[changed[0]] == 5.0
        w.flat[:] = 0.0
        assert not w.w_in.any() and not w.layers[1].b2.any() and not w.b_out.any()

    def test_flatten_is_a_copy_and_round_trips(self):
        w = init_weights(SMALL, 0)
        flat = w.flatten()
        flat[:] = 0.0
        assert w.flat.any()
        assert np.array_equal(weights_from_flat(SMALL, w.flatten()).flat, w.flat)

    def test_wrong_size_rejected(self):
        w = init_weights(SMALL, 0)
        with pytest.raises(ValueError, match="entries"):
            weights_from_flat(SMALL, w.flat[:-1])


class TestSummarizeTracks:
    """The packed forward: a track's summary never depends on its pack-mates."""

    BENCH = SummarizerConfig(input_dim=16, model_dim=64, n_layers=3, n_heads=8)
    CRITERION_3 = SummarizerConfig(input_dim=4, model_dim=8, n_layers=2, n_heads=2)

    @pytest.mark.parametrize("cfg", [BENCH, CRITERION_3], ids=["bench", "criterion3"])
    def test_pack_invariance_bitwise(self, cfg):
        w = random_weights(cfg, 71)
        rng = SplitMix64(72)
        # lengths 1-12: some alone in their bucket, some sharing it with many;
        # 390 rows in all, so the tracks are split over more than one pack
        lengths = [1, 1, 1, 2, 3, 3, 3, 3, 4, 5, 7, 7, 8, 9, 10, 11, 12, 12, 12] * 3
        tracks = [random_track(rng, n, cfg.input_dim) for n in lengths]
        order = np.argsort([rng.uniform() for _ in tracks])
        packed = summarize_tracks(w, [tracks[i] for i in order])
        assert packed.shape == (len(tracks), cfg.model_dim)
        for row, i in enumerate(order):
            assert np.array_equal(packed[row], forward_summarize(w, tracks[i])), lengths[i]

    def test_single_bucket_of_many(self):
        w = random_weights(self.BENCH, 73)
        rng = SplitMix64(74)
        for length in (1, 6):
            tracks = [random_track(rng, length, 16) for _ in range(9)]
            packed = summarize_tracks(w, tracks)
            for row, track in enumerate(tracks):
                assert np.array_equal(packed[row], forward_summarize(w, track))

    def test_later_calls_leave_returned_summaries_alone(self):
        w = random_weights(self.BENCH, 75)
        rng = SplitMix64(76)
        packed = summarize_tracks(w, [random_track(rng, n, 16) for n in (1, 3, 5, 5, 9)])
        single = forward_summarize(w, random_track(rng, 4, 16))
        kept = packed.copy(), single.copy()
        summarize_tracks(w, [random_track(rng, n, 16) for n in (1, 2, 5, 5, 9, _PACK_ROWS + 4)])
        forward_summarize(w, random_track(rng, 7, 16))
        assert np.array_equal(packed, kept[0]) and np.array_equal(single, kept[1])

    def test_empty_list(self):
        assert summarize_tracks(init_weights(SMALL, 0), []).shape == (0, 8)

    def test_bad_track_in_pack_errors(self):
        w = init_weights(SMALL, 0)
        with pytest.raises(ValueError):
            summarize_tracks(w, [np.ones((2, 6)), np.ones((0, 6))])


ONE_LAYER = SummarizerConfig(input_dim=5, model_dim=12, n_layers=1, n_heads=3)


class TestForwardPathsAgree:
    """``summarize_tracks`` (workspace, token-only top layer) against the
    training forward, which keeps every row of every layer for the backward."""

    @settings(max_examples=60, deadline=None)
    @given(
        cfg=st.sampled_from([ONE_LAYER, SMALL, DEEP]),
        lengths=st.lists(st.integers(1, 24), min_size=1, max_size=40),
        long=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    @example(cfg=ONE_LAYER, lengths=[1], long=False, seed=0)
    @example(cfg=ONE_LAYER, lengths=[1, 1], long=False, seed=1)
    @example(cfg=DEEP, lengths=[6], long=True, seed=2)
    @example(cfg=SMALL, lengths=[24] * 12 + [1], long=False, seed=3)
    def test_bitwise_equal(self, cfg, lengths, long, seed):
        # ``long`` adds a track longer than a pack; 40 tracks of up to 24 rows
        # span several packs, and the last pack of a call may hold one track
        rng = SplitMix64(seed)
        tracks = [random_track(rng, n, cfg.input_dim) for n in lengths]
        if long:
            tracks.append(random_track(rng, _PACK_ROWS + 3, cfg.input_dim))
        w = random_weights(cfg, seed + 1)
        cached = _forward(w, [_as_track_matrix(w, t) for t in tracks])[0]
        assert np.array_equal(summarize_tracks(w, tracks), cached)


class TestGelu:
    """``_gelu`` computes the cube as ``x * x * x``; compare with ``x**3``."""

    @staticmethod
    def reference(x):
        t = np.tanh(_GELU_C * (x + _GELU_A * x**3))
        return 0.5 * x * (1.0 + t), t

    def inputs(self):
        rng = SplitMix64(81)
        normals = rng.gauss_vector(20_000)
        wide = np.array([1e3 * (2.0 * rng.uniform() - 1.0) for _ in range(20_000)])
        return np.concatenate([normals, wide, [0.0, -0.0, 1e3, -1e3]])

    def test_tanh_within_4_ulp(self):
        x = self.inputs()
        np.testing.assert_array_max_ulp(_gelu(x)[1], self.reference(x)[1], maxulp=4)

    def test_output_within_4_ulp_without_cancellation(self):
        # below x = -1, 1 + tanh cancels and an ulp of tanh becomes many ulp of
        # the output; there the bound is absolute, a few ulp of tanh times x / 2
        x = self.inputs()
        got, want = _gelu(x)[0], self.reference(x)[0]
        keep = x >= -1.0
        np.testing.assert_array_max_ulp(got[keep], want[keep], maxulp=4)
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * np.abs(x))

    def test_zero(self):
        out, t = _gelu(np.zeros(3))
        assert np.array_equal(out, np.zeros(3)) and np.array_equal(t, np.zeros(3))


class TestContrastiveLoss:
    def test_equal_dots_closed_form(self):
        # all dot products equal -> every exponent is zero -> log(1 + P*N)
        a = np.zeros(4)
        a[0] = 1.0
        for p_count in range(1, 5):
            for n_count in range(1, 5):
                got = contrastive_loss(a, [a] * p_count, [a] * n_count)
                assert got == pytest.approx(math.log(1 + p_count * n_count), abs=1e-12)

    def test_scalar_value(self):
        anchor = np.array([1.0, 0.0])
        pos = [np.array([5.0, 0.0])]
        neg = [np.array([0.0, 3.0])]
        assert contrastive_loss(anchor, pos, neg) == pytest.approx(
            math.log(1 + math.exp(-5.0)), abs=1e-12
        )

    def test_empty_negatives_is_zero(self):
        assert contrastive_loss(np.ones(3), [np.ones(3)], []) == 0.0

    def test_empty_positives_errors(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.ones(3), [], [np.ones(3)])

    def test_overflow_safe(self):
        anchor = np.array([1000.0, 0.0])
        pos = [np.array([0.0, 1.0])]
        neg = [np.array([1000.0, 0.0])]
        got = contrastive_loss(anchor, pos, neg)
        assert math.isfinite(got)
        assert got == pytest.approx(1e6, rel=1e-9)

    def test_monotonicity(self):
        rng = SplitMix64(11)
        for _ in range(50):
            pos = [rng.gauss_vector(4) for _ in range(2)]
            neg = [rng.gauss_vector(4) for _ in range(3)]
            anchor = unit_vector(rng, 4)
            base = contrastive_loss(anchor, pos, neg)
            # pushing a positive closer strictly lowers the loss
            closer = [p + 0.1 * anchor for p in pos[:1]] + pos[1:]
            assert contrastive_loss(anchor, closer, neg) < base
            # pushing a negative closer strictly raises it
            worse = [neg[0] + 0.1 * anchor] + neg[1:]
            assert contrastive_loss(anchor, pos, worse) > base


class TestGradient:
    def test_matches_finite_differences(self):
        rng = SplitMix64(21)
        w = init_weights(SMALL, 22)
        batch = random_batch(rng)
        grads, _ = gradient(w, batch)
        flat = w.flatten()

        def loss_of(p):
            return batch_loss(weights_from_flat(SMALL, p), batch)

        numeric = finite_difference_gradient(loss_of, flat)
        analytic = grads.flatten()
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() <= 1e-4, f"max rel err {rel.max():.3e}"

    def test_identical_runs_bitwise(self):
        rng = SplitMix64(31)
        w = init_weights(SMALL, 32)
        batch = random_batch(rng)
        g1, l1 = gradient(w, batch)
        g2, l2 = gradient(w, batch)
        assert l1 == l2
        assert np.array_equal(g1.flat, g2.flat)

    def test_identical_summaries_equal_dot_loss(self):
        w = init_weights(SMALL, 41)
        track = random_track(SplitMix64(42), 3)
        samples = [
            TrainSample(track.copy(), ("positive",) * 3, ident, 0)
            for ident in (0, 0, 1, 1)
        ]
        _, loss = gradient(w, samples)
        # every anchor sees 1 positive and 2 negatives with all-equal dots
        assert loss == pytest.approx(math.log(1 + 1 * 2), abs=1e-9)

    def test_anchor_without_positive_skipped(self):
        rng = SplitMix64(51)
        batch = random_batch(rng, n_identities=2, per_identity=2)
        lonely = TrainSample(random_track(rng, 2), ("positive",) * 2, 99, 0)
        w = init_weights(SMALL, 52)
        _, loss_with = gradient(w, batch + [lonely])
        assert math.isfinite(loss_with)

    def test_all_anchors_skipped_errors(self):
        rng = SplitMix64(61)
        w = init_weights(SMALL, 62)
        batch = [
            TrainSample(random_track(rng, 2), ("positive",) * 2, ident, 0)
            for ident in range(3)
        ]
        with pytest.raises(ValueError):
            gradient(w, batch)


@st.composite
def gradient_cases(draw):
    """(weights, samples): tracks of length 1-12 whose first three share a
    bucket, later ones often alone in theirs.  Samples 0 and 1 (identity 0)
    make an anchor and sample 2 its negative; later ones may be junk, other
    identities or another video.  An identity with no positive may follow (a
    negative only).  With ``one_identity`` no anchor has a negative, so every
    sample's loss gradient is zero."""
    cfg = draw(st.sampled_from([SMALL, DEEP]))
    one_identity = draw(st.integers(0, 5)) == 0
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    shared = draw(st.integers(1, 12))
    samples = []
    for k in range(draw(st.integers(3, 9))):
        length = shared if k < 3 else draw(st.integers(1, 12))
        identity, video, junk = int(k == 2 and not one_identity), 0, False
        if k >= 3 and not one_identity:
            identity, video = draw(st.integers(0, 2)), draw(st.integers(0, 1))
            junk = draw(st.booleans())
        tags = ("negative",) * length if junk else ("positive",) * length
        samples.append(TrainSample(random_track(rng, length), tags, identity, video))
    if not one_identity and draw(st.booleans()):
        length = draw(st.integers(1, 12))
        samples.append(TrainSample(random_track(rng, length), ("positive",) * length, 9, 0))
    return random_weights(cfg, draw(st.integers(0, 2**32))), samples


class TestPackedBackward:
    """The one-pass backward against a backward run once per track."""

    @settings(max_examples=100, deadline=None)
    @given(gradient_cases())
    def test_matches_per_track_reference(self, case):
        w, samples = case
        grads, loss = gradient(w, samples)
        ref, ref_loss = reference_gradient(w, samples)
        assert loss == ref_loss
        assert np.abs(grads.flat - ref.flat).max() <= 1e-12 * np.abs(ref.flat).max()


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        w = init_weights(SummarizerConfig(input_dim=16), 7)
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.config == w.config
        assert np.array_equal(w.flat, loaded.flat)

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (SummarizerConfig(16), "e914943e34d95e4e919ba422e8361ed47bf713fd5acbae29280f9b1a02016b1e"),
            (
                SummarizerConfig(4, 8, 2, 2),
                "565650db2d0a997490cffdc809c15389c267ca595068633d212bfe9d96aee591",
            ),
        ],
        ids=["default", "small"],
    )
    def test_file_bytes_pinned(self, tmp_path, cfg, digest):
        """The file format and the parameter order (``_layout``) stay fixed."""
        path = tmp_path / "weights.bin"
        save_weights(init_weights(cfg, 7), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("cut, match", [(-8, "truncated"), (None, "trailing")])
    def test_bad_length_rejected(self, tmp_path, cut, match):
        path = tmp_path / "weights.bin"
        save_weights(init_weights(SMALL, 7), path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut else data + b"\x00")
        with pytest.raises(ValueError, match=match):
            load_weights(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            (b"\x01\x00\x00\x00" * 5, "truncated weights file header"),
            # 88 bytes in all, for a header that implies 1.27 TB of parameters
            (struct.pack("<6I", 1, 8, 65536, 3, 8, 0) + b"\x00" * 56, "truncated weights file"),
            (struct.pack("<6I", 1, 8, 8, 10**5, 2, 0), "truncated weights file"),
            (struct.pack("<6I", 1, 8, 0, 1, 1, 0), "model_dim must be >= 1"),
        ],
        ids=["short_header", "huge_model_dim", "many_layers", "zero_model_dim"],
    )
    def test_bad_header_rejected_naming_file(self, tmp_path, header, match):
        path = tmp_path / "weights.bin"
        path.write_bytes(WEIGHTS_MAGIC + header)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {match}")):
            load_weights(path)

    @pytest.mark.parametrize(
        "name, value", [("layers.0.wq", np.nan), ("b_out", np.inf), ("layers.1.b1", -np.inf)]
    )
    def test_non_finite_parameter_rejected_naming_it(self, tmp_path, name, value):
        w = init_weights(SMALL, 7)
        *layer, field = name.split(".")
        getattr(w.layers[int(layer[1])] if layer else w, field).flat[-1] = value
        path = tmp_path / "weights.bin"
        save_weights(w, path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: parameter {name} holds a non-finite")):
            load_weights(path)

    @pytest.mark.parametrize("cfg", [SMALL, DEEP, ONE_LAYER, SummarizerConfig(3, 4, 5, 4, 7)])
    def test_parameter_count_matches_layout(self, cfg):
        assert _n_params(cfg) == sum(math.prod(shape) for _, shape in _layout(cfg))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_weights(path)

    def test_normalize_helper(self):
        v = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(2))
