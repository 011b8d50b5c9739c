"""Frame reduction: detection, classification, accumulation, estimation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from oracle import acceptance_matrix, corrected_matrix, records
from twophoton.errors import EmptyEstimateError, InvalidParameterError
from twophoton.framepipe import (
    RATIO,
    CoincidenceAccumulator,
    PairRecord,
    acceptance_profile,
    accidental_fraction,
    accumulate_pair,
    analyze_source,
    chi2_compare,
    classify_and_filter,
    corrected_cells,
    detect_photons,
    estimate_pair_rate,
    finalize,
    marginal_consistency,
    process_frame,
    superpixel_bin,
    threshold_frame,
    vertical_acceptance,
    _CHUNK,
    _block_events,
    _reduce_range,
    _strip_window,
)
from twophoton.sensor import (
    FULL_SCALE,
    CameraModel,
    FrameSimulator,
    PhotonEvent,
    render_frame,
)
from twophoton.patterns import JointPattern2D

STRIP = (240, 271)


def uniform_pdf(camera):
    grid = camera.pixel_grid()
    v = np.ones((grid.n, grid.n)) / (grid.n**2 * grid.spacing**2)
    return JointPattern2D(grid, v, "coincidence")


def uniform_sim(camera, n_frames, mean_pairs, seed):
    return FrameSimulator(uniform_pdf(camera), camera, n_frames, mean_pairs, seed)


class TestCameraValues:
    def test_defaults(self):
        cam = CameraModel()
        assert cam.threshold_analog == int(0.2 * FULL_SCALE)
        assert cam.strip_rows == STRIP
        assert cam.strip_height == 32
        assert cam.min_patch == 4
        assert RATIO == 1.0 / 3.0

    @pytest.mark.parametrize("patch_size, min_patch", [(1, 1), (3, 4), (5, 9)])
    def test_min_patch_is_a_corner_clipped_patch(self, patch_size, min_patch):
        cam = CameraModel(patch_size=patch_size)
        assert cam.min_patch == min_patch
        frame = render_frame([PhotonEvent(0, 0)], cam, np.random.default_rng(0))
        assert np.count_nonzero(frame > cam.threshold_analog) == min_patch


class TestThresholdAndDetect:
    def test_threshold_strictly_above(self):
        frame = np.array([[0, 100, 101], [102, 100, 0]], dtype=np.uint16)
        out = threshold_frame(frame, 100)
        assert out.tolist() == [[0, 0, 1], [1, 0, 0]]

    def test_detect_roundtrip_with_renderer(self):
        cam = CameraModel()
        frame = render_frame([PhotonEvent(100, 200)], cam, np.random.default_rng(0))
        binary = threshold_frame(frame, cam.threshold_analog)
        events = detect_photons(binary, frame, cam.min_patch)
        assert len(events) == 1
        assert (events[0].row, events[0].col) == (100, 200)

    def test_small_patch_rejected(self):
        analog = np.zeros((8, 8), dtype=np.uint16)
        analog[2, 2] = 50_000  # an isolated dark-count-like pixel
        assert detect_photons(threshold_frame(analog, 10_000), analog, CameraModel().min_patch) == []

    def test_two_disjoint_patches(self):
        cam = CameraModel()
        evs = [PhotonEvent(100, 100), PhotonEvent(120, 300)]
        frame = render_frame(evs, cam, np.random.default_rng(1))
        found = detect_photons(threshold_frame(frame, cam.threshold_analog), frame, cam.min_patch)
        assert sorted((e.row, e.col) for e in found) == [(100, 100), (120, 300)]

    def test_merged_patches_yield_one_event(self):
        # closer than the patch size: a single connected component
        cam = CameraModel()
        evs = [PhotonEvent(250, 100), PhotonEvent(250, 102)]
        frame = render_frame(evs, cam, np.random.default_rng(2))
        found = detect_photons(threshold_frame(frame, cam.threshold_analog), frame, cam.min_patch)
        assert len(found) == 1

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            detect_photons(np.zeros((4, 4), np.uint8), np.zeros((5, 4)), 1)

    def test_tied_peak_resolves_to_smallest_row_col(self):
        analog = np.zeros((6, 8), dtype=np.uint16)
        analog[1:5, 2:7] = 30_000
        analog[3, 2] = analog[2, 5] = analog[4, 6] = 50_000
        (event,) = detect_photons(threshold_frame(analog, 10_000), analog, 4)
        assert (event.row, event.col, event.peak) == (2, 5, 50_000)


class TestClassifyAndFilter:
    def e(self, row, col):
        return PhotonEvent(row, col)

    def test_accept_shallow_pair(self):
        cls = classify_and_filter([self.e(250, 100), self.e(255, 130)], STRIP)
        assert cls.kind == "pair"
        assert cls.pair is not None
        assert (cls.pair.first.col, cls.pair.second.col) == (100, 130)

    def test_reject_steep_pair(self):
        cls = classify_and_filter([self.e(245, 100), self.e(257, 130)], STRIP)
        assert cls.kind == "pair" and cls.pair is None

    def test_equality_rejects(self):
        # |dr| == RATIO * |dc| exactly: the strict inequality must reject
        cls = classify_and_filter([self.e(250, 100), self.e(251, 103)], STRIP)
        assert cls.pair is None
        assert classify_and_filter([self.e(250, 100), self.e(251, 104)], STRIP).pair is not None

    def test_out_of_strip_events_dropped(self):
        cls = classify_and_filter([self.e(100, 50), self.e(250, 60)], STRIP)
        assert cls.kind == "single"
        assert cls.in_strip[0].col == 60

    def test_three_in_strip_is_multi(self):
        evs = [self.e(250, 10), self.e(251, 80), self.e(252, 200)]
        assert classify_and_filter(evs, STRIP).kind == "multi"

    def test_empty(self):
        assert classify_and_filter([], STRIP).kind == "empty"

    def test_pair_record_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            PairRecord(self.e(250, 30), self.e(250, 10))
        with pytest.raises(InvalidParameterError):
            PairRecord(self.e(250, 30), self.e(250, 30))


class TestAccumulator:
    def test_outer_product_increments(self):
        acc = CoincidenceAccumulator(16)
        accumulate_pair(acc, PairRecord(PhotonEvent(250, 3), PhotonEvent(251, 9)))
        assert acc.matrix[3, 9] == acc.matrix[9, 3] == 1
        assert acc.matrix[3, 3] == acc.matrix[9, 9] == 1
        assert acc.matrix.sum() == 4
        assert acc.pairs_accepted == 1

    def test_merge_equals_concatenated_stream(self):
        rng = np.random.default_rng(5)
        pairs = [tuple(sorted(rng.choice(32, 2, replace=False))) for _ in range(200)]
        whole = CoincidenceAccumulator(32)
        parts = [CoincidenceAccumulator(32) for _ in range(4)]
        for k, (i, j) in enumerate(pairs):
            rec = PairRecord(PhotonEvent(250, int(i)), PhotonEvent(250, int(j)))
            accumulate_pair(whole, rec)
            accumulate_pair(parts[k % 4], rec)
            whole.frames_total += 1
            parts[k % 4].frames_total += 1
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.merge(p)
        assert np.array_equal(merged.matrix, whole.matrix)
        assert merged.frames_total == whole.frames_total

    def test_merge_width_mismatch(self):
        with pytest.raises(InvalidParameterError):
            CoincidenceAccumulator(8).merge(CoincidenceAccumulator(16))


class TestProcessFrame:
    def test_full_pipeline_single_pair(self):
        cam = CameraModel()
        frame = render_frame(
            [PhotonEvent(250, 100), PhotonEvent(252, 130)], cam, np.random.default_rng(3)
        )
        acc = CoincidenceAccumulator(cam.width)
        assert process_frame(frame, cam, acc) == "pair"
        assert acc.matrix[100, 130] == 1

    def test_empty_and_single_counting(self):
        cam = CameraModel()
        acc = CoincidenceAccumulator(cam.width)
        process_frame(np.zeros((512, 512), np.uint16), cam, acc)
        frame = render_frame([PhotonEvent(250, 77)], cam, np.random.default_rng(4))
        process_frame(frame, cam, acc)
        assert acc.frames_empty == 1 and acc.frames_single == 1
        assert acc.singles[77] == 1

    def test_out_of_strip_frame_is_empty(self):
        cam = CameraModel()
        frame = render_frame([PhotonEvent(100, 77)], cam, np.random.default_rng(4))
        acc = CoincidenceAccumulator(cam.width)
        assert process_frame(frame, cam, acc) == "empty"

    def test_pair_straddling_strip_edge_patch(self):
        # events on the strip boundary rows are seen whole via the margin
        cam = CameraModel()
        frame = render_frame(
            [PhotonEvent(240, 50), PhotonEvent(271, 400)], cam, np.random.default_rng(6)
        )
        acc = CoincidenceAccumulator(cam.width)
        assert process_frame(frame, cam, acc) == "pair"
        assert acc.matrix[50, 400] == 1


class TestVerticalAcceptance:
    @pytest.mark.parametrize("dc", [0, 1, 3, 4, 10, 30, 96, 200])
    def test_matches_brute_force(self, dc):
        h = 32
        rows = np.arange(h)
        ok = np.abs(rows[:, None] - rows[None, :]) < RATIO * dc
        assert vertical_acceptance(dc, h) == pytest.approx(ok.mean())

    def test_saturates_at_one(self):
        assert vertical_acceptance(10_000, 32) == pytest.approx(1.0)

    def test_zero_below_filter_floor(self):
        # dc <= 3: no row pair can satisfy |dr| < dc/3 < 1 except dr = 0
        assert vertical_acceptance(3, 32) == pytest.approx(1 / 32)
        assert vertical_acceptance(0, 32) == 0.0

    def test_vectorized(self):
        dcs = np.arange(512)
        a = vertical_acceptance(dcs, 32)
        assert a.shape == (512,)
        assert np.all(np.diff(a) >= 0)

    @pytest.mark.parametrize(
        "dc, h",
        [(math.nan, 32), (math.inf, 32), (np.array([4.0, math.nan]), 32),
         (5, 2.5), (5, 32.0), (5, 0), (5, -1)],
    )
    def test_rejects_values_outside_its_domain(self, dc, h):
        with pytest.raises(InvalidParameterError):
            vertical_acceptance(dc, h)


CAM64 = CameraModel(width=64)


def band_mask(width, patch_size):
    """The missing cells, those of zero acceptance, for a camera of this
    width and patch size."""
    return acceptance_matrix(CameraModel(width=width, patch_size=patch_size)) == 0


class TestEstimate:
    def make_acc(self, pairs, width=64, frames=1000):
        acc = CoincidenceAccumulator(width)
        acc.frames_total = frames
        for i, j in pairs:
            accumulate_pair(acc, PairRecord(PhotonEvent(250, i), PhotonEvent(250, j)))
        return acc

    def test_missing_band(self):
        band = band_mask(8, 3)
        assert band[0, 3] and band[3, 0] and band[4, 4]
        assert not band[0, 4]

    def test_corrected_counts_scale(self):
        acc = self.make_acc([(10, 40)])
        rows, cols, values = corrected_cells(acc, CAM64)
        a = vertical_acceptance(30, CAM64.strip_height)
        # the diagonal self-terms (10, 10) and (40, 40) are in the missing band
        assert rows.tolist() == [10, 40] and cols.tolist() == [40, 10]
        assert values.tolist() == pytest.approx([1 / a, 1 / a])
        accept, scale = acceptance_profile(CAM64)
        # the dense acceptance is the profile at each cell's separation
        assert np.array_equal(acceptance_matrix(CAM64)[0], accept)
        assert accept[30] == a and scale[30] == 1 / a
        assert accept[CAM64.patch_size] == scale[CAM64.patch_size] == 0.0

    def test_corrected_cells_are_the_observed_corrected_counts(self):
        # (28, 30) lies inside the missing band: counted, never observed
        acc = self.make_acc([(10, 40), (12, 50), (10, 40), (28, 30)])
        counts, acceptance = corrected_matrix(acc, CAM64)
        rows, cols, values = corrected_cells(acc, CAM64)
        observed = (acc.matrix != 0) & (acceptance > 0)
        assert np.array_equal(np.stack([rows, cols]), np.stack(np.nonzero(observed)))
        # a count times the reciprocal acceptance, against the count over it
        assert np.allclose(values, counts[rows, cols], rtol=3e-16, atol=0)
        with pytest.raises(InvalidParameterError):
            corrected_cells(acc, CameraModel(width=65))

    def test_finalize_properties(self):
        # (28, 33) sits next to the missing band, which stays unfilled
        acc = self.make_acc([(10, 40), (12, 50), (28, 33)])
        est = finalize(acc, CAM64)
        counts, acceptance = corrected_matrix(acc, CAM64)
        assert est.grid == CAM64.pixel_grid()
        assert np.all(est.values[acceptance == 0] == 0.0)
        assert est.values[30, 30] == 0.0
        area = est.cell_area()
        assert est.values.sum() * area == pytest.approx(1.0, rel=1e-15)
        want = counts / (counts.sum() * area)
        assert np.allclose(est.values, want, rtol=1e-15, atol=0)

    def test_finalize_empty(self):
        with pytest.raises(EmptyEstimateError):
            finalize(self.make_acc([]), CAM64)
        # a pair inside the band is never observed: nothing to normalize
        with pytest.raises(EmptyEstimateError):
            finalize(self.make_acc([(10, 12)]), CAM64)

    def test_finalize_rejects_other_width(self):
        acc = self.make_acc([(10, 40)])
        with pytest.raises(InvalidParameterError):
            finalize(acc, CameraModel())
        with pytest.raises(InvalidParameterError):
            marginal_consistency(acc, CameraModel(width=65))

    def test_superpixel_bin(self):
        m = np.ones((8, 8))
        b = superpixel_bin(m, 4)
        assert b.shape == (2, 2) and np.all(b == 16)
        assert np.array_equal(superpixel_bin(m, 1), m)
        v = np.arange(10.0)
        assert superpixel_bin(v, 4).sum() == pytest.approx(v.sum())  # zero-padded
        with pytest.raises(InvalidParameterError):
            superpixel_bin(m, 0)


class TestChiSquare:
    def test_identical_curves(self):
        o = np.full(10, 0.1)
        r = chi2_compare(o, o, np.full(10, 1e-4))
        assert r.statistic == 0.0 and r.dof == 9 and r.pvalue == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "statistic, dof",
        [(0.0, 1), (1e-300, 1), (2.0, 2), (7.5, 3), (40.0, 17), (1e3, 1000),
         (4095.0, 4095), (4400.0, 4095), (1e6, 4095), (1e6, 1)],
    )
    def test_known_statistic(self, statistic, dof):
        # dof + 1 unit-variance bins, all the deviation in the first
        e = np.zeros(dof + 1)
        e[0] = math.sqrt(statistic)
        r = chi2_compare(np.zeros(dof + 1), e, np.ones(dof + 1))
        assert r.statistic == pytest.approx(statistic, rel=1e-15)
        assert r.dof == dof
        # bit for bit the survival function of scipy.stats
        assert r.pvalue == stats.chi2.sf(r.statistic, dof)

    def test_zero_variance_bins_skipped(self):
        o = np.array([1.0, 2.0, 3.0, 4.0])
        v = np.array([0.01, 0.0, 0.01, 0.01])
        assert chi2_compare(o, o, v).dof == 2

    def test_too_few_bins(self):
        with pytest.raises(InvalidParameterError):
            chi2_compare(np.ones(2), np.ones(2), np.array([1.0, 0.0]))

    def test_calibrated_on_gaussian_noise(self):
        rng = np.random.default_rng(8)
        pvals = [
            chi2_compare(rng.normal(0, 0.1, 50), np.zeros(50), np.full(50, 0.01)).pvalue
            for _ in range(200)
        ]
        # p-values approximately uniform on [0, 1]
        assert np.mean(pvals) == pytest.approx(0.5, abs=0.08)


class TestMarginalConsistency:
    def test_consistent_synthetic_accumulator(self):
        # pairs and singles drawn from the same flat distribution
        rng = np.random.default_rng(9)
        width = 64
        acc = CoincidenceAccumulator(width)
        acc.frames_total = 50_000
        a = vertical_acceptance(np.arange(width), CAM64.strip_height)
        for _ in range(8000):
            i, j = sorted(rng.choice(width, 2, replace=False))
            if j - i <= CAM64.patch_size or rng.random() > a[j - i]:
                continue
            accumulate_pair(acc, PairRecord(PhotonEvent(250, int(i)), PhotonEvent(250, int(j))))
        acc.singles += np.bincount(rng.integers(0, width, 20_000), minlength=width)
        r = marginal_consistency(acc, CAM64)
        assert r.pvalue > 0.01

    def test_inconsistent_detected(self):
        rng = np.random.default_rng(10)
        width = 64
        acc = CoincidenceAccumulator(width)
        acc.frames_total = 50_000
        for _ in range(8000):
            i, j = sorted(rng.choice(width // 2, 2, replace=False))  # left half only
            if j - i <= 3:
                continue
            accumulate_pair(acc, PairRecord(PhotonEvent(250, int(i)), PhotonEvent(250, int(j))))
        acc.singles += np.bincount(rng.integers(0, width, 20_000), minlength=width)
        r = marginal_consistency(acc, CAM64)
        assert r.pvalue < 1e-6


class TestRates:
    def test_pair_rate_inverts_empty_fraction(self):
        eta = 0.5
        m = 0.7
        acc = CoincidenceAccumulator(8)
        acc.frames_total = 1_000_000
        acc.frames_empty = int(round(np.exp(-m * (1 - (1 - eta) ** 2)) * acc.frames_total))
        assert estimate_pair_rate(acc, eta) == pytest.approx(m, rel=1e-4)

    def test_pair_rate_requires_empty_frames(self):
        acc = CoincidenceAccumulator(8)
        acc.frames_total = 10
        with pytest.raises(EmptyEstimateError):
            estimate_pair_rate(acc, 0.5)

    def test_accidental_fraction_limits(self):
        assert accidental_fraction(0.0, 0.5) == 0.0
        # rare pairs: almost every candidate frame holds one true pair
        assert accidental_fraction(1e-4, 0.5) == pytest.approx(0.0, abs=1e-3)
        # high rate: cross pairs dominate
        assert accidental_fraction(20.0, 0.5) > 0.8

    @given(st.floats(0.01, 5.0), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_accidental_fraction_in_unit_interval(self, m, eta):
        f = accidental_fraction(m, eta)
        assert 0.0 <= f < 1.0

    @pytest.mark.parametrize("m, eta", [(60.0, 0.05), (60.0, 0.5), (200.0, 0.02)])
    def test_accidental_fraction_large_mean_matches_long_sum(self, m, eta):
        k = np.arange(1, 4001)
        log_p = k * np.log(m) - m - np.array([math.lgamma(x + 1) for x in k])
        w = np.exp(log_p) * (1 - eta) ** (2 * k - 2)
        want = np.sum(w * 2 * k * (k - 1)) / np.sum(w * k * (2 * k - 1))
        assert accidental_fraction(m, eta) == pytest.approx(want, rel=1e-12)

    def test_accidental_fraction_rejects_bad_efficiency(self):
        with pytest.raises(InvalidParameterError):
            accidental_fraction(0.5, 1.5)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, -0.5])
    def test_accidental_fraction_rejects_bad_mean(self, m):
        with pytest.raises(InvalidParameterError):
            accidental_fraction(m, 0.5)

    def test_accidental_fraction_two_pair_frame(self):
        # conditioned on k = 2: 2 true subsets of 6 -> 2/3 accidental
        f_lo = accidental_fraction(1e-6, 1.0)
        assert f_lo == pytest.approx(0.0, abs=1e-5)
        # eta = 1 keeps every photon, so only k = 1 frames have 2 survivors;
        # push the rate up and survivors of k >= 2 frames never number 2
        assert accidental_fraction(3.0, 1.0) == 0.0


class TestAnalyzeSource:
    def make_sim(self, n_frames=400, seed=77):
        return uniform_sim(CameraModel(), n_frames, 0.8, seed)

    def test_worker_invariance(self):
        sim = self.make_sim()
        results = [analyze_source(sim, sim.camera, workers=w) for w in (1, 3, 4)]
        base = results[0].accumulator
        for r in results[1:]:
            assert np.array_equal(r.accumulator.matrix, base.matrix)
            assert np.array_equal(r.accumulator.singles, base.singles)
            assert r.accumulator.class_counts() == base.class_counts()

    def test_counters_cover_all_frames(self):
        sim = self.make_sim()
        res = analyze_source(sim, sim.camera)
        acc = res.accumulator
        assert acc.frames_total == 400
        assert sum(acc.class_counts().values()) == acc.frames_total

    def test_blank_fastpath_matches_rendering(self):
        sim = self.make_sim(n_frames=150, seed=78)

        class NoFastPath:
            """Every frame rendered in full, blank or not."""

            shape = sim.shape

            def __len__(self):
                return len(sim)

            def strip_records(self, lo, hi, rows):
                return records(np.stack([sim.frame(k) for k in range(lo, hi)]), rows)

        a = analyze_source(sim, sim.camera).accumulator
        b = analyze_source(NoFastPath(), sim.camera).accumulator
        assert np.array_equal(a.matrix, b.matrix)
        assert a.class_counts() == b.class_counts()

    def test_empty_source_rejected(self):
        sim = self.make_sim(n_frames=0)
        with pytest.raises(EmptyEstimateError):
            analyze_source(sim, sim.camera)

    def test_invalid_workers(self):
        with pytest.raises(InvalidParameterError):
            analyze_source(self.make_sim(), CameraModel(), workers=0)

    @pytest.mark.parametrize("shape", [(512, 256), (256, 512)])
    def test_source_shape_must_match_camera(self, shape):
        sim = self.make_sim(n_frames=10)
        frames = FrameList([np.zeros(shape, np.uint16)] * 10)
        with pytest.raises(InvalidParameterError):
            analyze_source(frames, sim.camera)
        small = CameraModel(height=shape[0], width=shape[1], strip_rows=(100, 131))
        with pytest.raises(InvalidParameterError):
            analyze_source(sim, small)


def accumulator_key(acc):
    counters = (acc.frames_total, acc.frames_empty, acc.frames_single,
                acc.frames_pair, acc.frames_multi, acc.pairs_rejected)
    return counters, acc.matrix.tobytes(), acc.singles.tobytes()


def per_frame_reference(frames, cam):
    acc = CoincidenceAccumulator(cam.width)
    for frame in frames:
        process_frame(frame, cam, acc)
    return acc


class FrameList:
    """A source over a stack of whole frames."""

    def __init__(self, frames):
        self.frames = np.stack(frames)
        self.shape = self.frames.shape[1:]

    def __len__(self):
        return len(self.frames)

    def strip_records(self, lo, hi, rows):
        return records(self.frames[lo:hi], rows)


SMALL_CAM = CameraModel(width=16, height=12, strip_rows=(3, 7))
T = SMALL_CAM.threshold_analog
# one-pixel photons: a single lit pixel is a patch
PIXEL_CAM = dataclasses.replace(SMALL_CAM, patch_size=1)
# the strip covers the whole frame, so every patch's event is kept
OPEN_CAM = CameraModel(width=16, height=12, strip_rows=(0, 11))


def lit(cam, n_frames, pixels, level=T + 100):
    """Frames of ``cam`` lit at the (frame, row, col) triples of ``pixels``."""
    frames = np.zeros((n_frames, cam.height, cam.width), np.uint16)
    for f, r, c in pixels:
        frames[f, r, c] = level
    return frames


def split_lit(cam, rng, level=T + 5000):
    """A frame of ``cam`` lit all over but one dark column, with a brighter
    pixel inside the strip on each side of it: two photons."""
    frame = np.full((cam.height, cam.width), level, np.uint16)
    gap = int(rng.integers(1, cam.width - 1))
    frame[:, gap] = 0
    rows = rng.integers(cam.strip_rows[0], cam.strip_rows[1] + 1, size=2)
    frame[rows[0], rng.integers(0, gap)] = frame[rows[1], rng.integers(gap + 1, cam.width)] = level + 1
    return frame


def chain_over_frame_boundary():
    # frame 0 lights rows 5..9 of column 5, the last row of the window, and
    # frame 1 rows 1..4, its first: adjacent in the block, two patches
    frames = lit(SMALL_CAM, 2, [(0, r, 5) for r in range(5, 10)] + [(1, r, 5) for r in range(1, 5)])
    frames[0, 5, 5] = frames[1, 4, 5] = T + 200
    return frames


def first_maxima():
    frames = np.full((3, 12, 16), T + 50, np.uint16)
    frames[0, 7, 3] = frames[0, 9, 1] = frames[1, 2, 15] = frames[1, 2, 14] = T + 100
    return frames


# (frames, camera, expected (frame, row, col) events)
EDGE_CASES = {
    "row end and next row start stay apart": (
        lit(PIXEL_CAM, 1, [(0, 4, 15), (0, 5, 0)]), PIXEL_CAM, [(0, 4, 15), (0, 5, 0)],
    ),
    "row start and the same row's end stay apart": (
        lit(PIXEL_CAM, 1, [(0, 4, 0), (0, 4, 15)]), PIXEL_CAM, [(0, 4, 0), (0, 4, 15)],
    ),
    # patches of 5 and 4 pixels: each is kept, and one patch of both would
    # give a single event
    "last window row and next frame's first stay apart": (
        chain_over_frame_boundary(), SMALL_CAM, [(0, 5, 5), (1, 4, 5)],
    ),
    # single pixels are rejected, so the event needs the whole chain
    "chain of (+1, -1) diagonals is one patch": (
        lit(SMALL_CAM, 1, [(0, 3 + k, 8 - k) for k in range(5)]), SMALL_CAM, [(0, 3, 8)],
    ),
    "fully lit block gives one event per frame at the first maximum": (
        first_maxima(), OPEN_CAM, [(0, 7, 3), (1, 2, 14), (2, 0, 0)],
    ),
    "pixels at the threshold are not lit": (
        np.full((4, 12, 16), T, np.uint16), dataclasses.replace(OPEN_CAM, patch_size=1), [],
    ),
}


def reference_events(frames, cam):
    """In-strip (frame, row, col) events of ``detect_photons`` frame by frame."""
    v0, v1 = _strip_window(cam)
    out = []
    for k, frame in enumerate(frames):
        view = frame[v0:v1]
        for e in detect_photons(threshold_frame(view, cam.threshold_analog), view, cam.min_patch):
            if cam.strip_rows[0] <= e.row + v0 <= cam.strip_rows[1]:
                out.append((k, e.row + v0, e.col))
    return sorted(out)


class TestBlockReduction:
    @pytest.mark.parametrize("mean_pairs", [0.5, 3.0])
    def test_block_sizes_match_per_frame_reference(self, mean_pairs):
        # 1100 frames: a block of 1000 or 1024 is cut, one of 4096 is not;
        # the range from frame 37 starts its blocks off the multiples of 64
        n, lo, m = 1100, 37, 300
        sim = uniform_sim(CameraModel(), n, mean_pairs, seed=21)
        cam = sim.camera
        parts = [per_frame_reference(map(sim.frame, range(a, b)), cam)
                 for a, b in ((0, lo), (lo, m), (m, n))]

        def want(*idx):
            acc = CoincidenceAccumulator(cam.width)
            for i in idx:
                acc.merge(parts[i])
            return accumulator_key(acc)

        for block in (1, 7, 64, 256):
            assert accumulator_key(_reduce_range(sim, cam, 0, m, block)) == want(0, 1)
        for block in (64, 1000, 1024, 4096):
            assert accumulator_key(_reduce_range(sim, cam, 0, n, block)) == want(0, 1, 2)
        for block in (64, 1024):
            assert accumulator_key(_reduce_range(sim, cam, lo, n, block)) == want(1, 2)

    def test_chunk_cuts_inside_a_block(self):
        # every third frame is lit all over but one dark column: its two
        # halves are two photons.  Their records fill more than one chunk,
        # so the block's labelling is cut between frames
        cam = CameraModel()
        sim = uniform_sim(cam, 30, 3.0, seed=25)
        frames = np.stack([sim.frame(k) for k in range(30)])
        rng = np.random.default_rng(25)
        for k in range(0, 30, 3):
            frames[k] = split_lit(cam, rng)
        assert records(frames, _strip_window(cam))[0].size > _CHUNK
        got = _reduce_range(FrameList(list(frames)), cam, 0, len(frames))
        want = per_frame_reference(frames, cam)
        assert accumulator_key(got) == accumulator_key(want)
        assert want.frames_pair >= 10

    def test_frame_of_more_than_a_chunk_is_one_chunk(self):
        # at width 4096 a lit frame's 36 window rows hold more than _CHUNK records
        cam = CameraModel(width=4096, height=40, strip_rows=(4, 35))
        frames = lit(cam, 4, [(0, 10, 7), (0, 10, 8), (0, 11, 7), (0, 11, 8), (3, 20, 4000)])
        rng = np.random.default_rng(26)
        frames[1], frames[2] = split_lit(cam, rng), split_lit(cam, rng)
        assert np.count_nonzero(frames[1, 2:38]) > _CHUNK
        got = _reduce_range(FrameList(list(frames)), cam, 0, len(frames))
        want = per_frame_reference(frames, cam)
        assert accumulator_key(got) == accumulator_key(want)
        assert want.frames_pair == 2 and want.frames_single == 1

    def test_fully_lit_block_is_labelled_in_bounded_memory(self):
        # 16 fully lit frames of the default camera, 295k records, peaked
        # near 65 MB labelled at once; frame f's maximum is at (250, 100 + f)
        cam = CameraModel()
        v0, v1 = _strip_window(cam)
        n, pixels = 16, (v1 - v0) * cam.width
        key = np.arange(n * pixels)
        value = np.full(key.size, 20000, np.uint16)
        value[np.arange(n) * pixels + (250 - v0) * cam.width + 100 + np.arange(n)] = 60000

        class Lit:
            shape = (cam.height, cam.width)

            def __len__(self):
                return n

            def strip_records(self, lo, hi, rows):
                assert (lo, hi, rows) == (0, n, (v0, v1))
                return key, value

        tracemalloc.start()
        try:
            acc = _reduce_range(Lit(), cam, 0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert acc.frames_single == n
        assert np.array_equal(np.flatnonzero(acc.singles), 100 + np.arange(n))

    def test_subrange(self):
        sim = uniform_sim(CameraModel(), 120, 2.0, seed=22)
        frames = [sim.frame(k) for k in range(37, 101)]
        got = _reduce_range(sim, sim.camera, 37, 101, 16)
        assert accumulator_key(got) == accumulator_key(per_frame_reference(frames, sim.camera))

    def test_one_pixel_photons_are_detected(self):
        # a patch_size 1 camera registers each photon as one lit pixel,
        # which its min_patch of 1 keeps
        sim = uniform_sim(CameraModel(patch_size=1, dark_rate=0.0), 300, 1.0, seed=24)
        got = analyze_source(sim, sim.camera).accumulator
        assert accumulator_key(got) == accumulator_key(per_frame_reference(map(sim.frame, range(300)), sim.camera))
        assert got.pairs_accepted > 0

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_labelling_edge_cases(self, case):
        frames, cam, want = EDGE_CASES[case]
        v0, v1 = _strip_window(cam)
        got = list(zip(*(a.tolist() for a in _block_events(*records(frames, (v0, v1)), cam))))
        assert got == reference_events(frames, cam) == want
        block = _reduce_range(FrameList(list(frames)), cam, 0, len(frames), len(frames))
        assert accumulator_key(block) == accumulator_key(per_frame_reference(frames, cam))

    def test_blank_blocks_count_as_empty(self):
        sim = uniform_sim(CameraModel(dark_rate=0.0), 100, 0.0, seed=23)
        acc = _reduce_range(sim, sim.camera, 0, 100, 16)
        assert acc.frames_total == acc.frames_empty == 100
        assert acc.matrix.sum() == acc.singles.sum() == 0

    # few levels around the threshold make tied peaks, merged patches, dark
    # single pixels and components at the min_patch boundary (1, 4 or 9
    # pixels) common; at width 2 a step right and a step down-left are the
    # same flat step, and only the column masks keep them apart
    @given(
        strips=st.sampled_from([2, 3, 16]).flatmap(
            lambda width: arrays(
                np.uint16,
                st.tuples(st.integers(1, 12), st.just(12), st.just(width)),
                elements=st.sampled_from([0, 0, 0, 0, 0, 0, T, T + 1, T + 50, T + 100]),
                fill=st.nothing(),
            )
        ),
        patch_size=st.sampled_from([1, 3, 5]),
        block=st.integers(1, 13),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_strips_match_process_frame(self, strips, patch_size, block):
        # the window is rows 3..7, 1..9 or 0..11 of 12 as the patch grows:
        # patches cross the strip edge (rows 3 and 7) and the window edge
        width = strips.shape[2]
        cam = dataclasses.replace(SMALL_CAM, width=width, patch_size=patch_size)
        got = _reduce_range(FrameList(list(strips)), cam, 0, len(strips), block)
        want = per_frame_reference(strips, cam)
        assert accumulator_key(got) == accumulator_key(want)
