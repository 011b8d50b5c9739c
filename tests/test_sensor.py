"""Monte Carlo sampling, detection thinning, and frame rendering."""

import numpy as np
import pytest
from scipy import stats

from twophoton.errors import InvalidParameterError
from twophoton.optics import SpatialGrid
from twophoton.patterns import JointPattern2D
from twophoton.sensor import (
    FULL_SCALE,
    CameraModel,
    FrameSimulator,
    PhotonEvent,
    apply_detection,
    _pair_cdf,
    _sample_from_cdf,
    render_frame,
)

PIXELS = CameraModel().pixel_grid()


def make_pdf(grid, delta=None):
    n = grid.n
    v = np.ones((n, n))
    if delta is not None:
        v = np.zeros((n, n))
        v[delta] = 1.0
    v = v / (v.sum() * grid.spacing**2)
    return JointPattern2D(grid, v, "coincidence")


def sample_cells(n, delta=None, n_pairs=100_000, seed=0):
    pdf = make_pdf(SpatialGrid(-1e-3, 1e-3, n), delta)
    return _sample_from_cdf(_pair_cdf(pdf), n, n_pairs, np.random.default_rng(seed))


class TestCameraModel:
    def test_defaults(self):
        cam = CameraModel()
        assert cam.width == cam.height == 512
        assert cam.pitch == pytest.approx(24e-6)
        assert cam.quantum_efficiency == 0.5
        assert cam.strip_height == 32

    def test_pixel_grid_centered(self):
        cam = CameraModel()
        g = cam.pixel_grid()
        assert g.n == 512
        assert g.spacing == pytest.approx(24e-6)
        assert g.x_min == pytest.approx(-g.x_max)

    def test_invalid_models(self):
        with pytest.raises(InvalidParameterError):
            CameraModel(quantum_efficiency=1.5)
        with pytest.raises(InvalidParameterError):
            CameraModel(patch_size=2)
        with pytest.raises(InvalidParameterError):
            CameraModel(strip_rows=(500, 520))
        with pytest.raises(InvalidParameterError):
            # threshold above the dimmest possible patch pixel
            CameraModel(threshold=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -0.1},
            {"strip_rows": (10, 5)},
            {"pitch": 0.0},
            {"pitch": -24e-6},
            {"dark_rate": -1.0},
            {"width": 1},
            {"height": 1, "strip_rows": (0, 0)},
        ],
    )
    def test_invalid_inputs_raise_package_error(self, kwargs):
        with pytest.raises(InvalidParameterError):
            CameraModel(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("peak_range", (1.2, 1.5)),
            ("peak_range", (0.0, 0.5)),
            ("peak_range", (0.8, 0.6)),
            ("neighbor_range", (0.4, 1.3)),
        ],
    )
    def test_patch_ranges_within_full_scale(self, name, value):
        # a level above full scale wraps in the uint16 frame
        with pytest.raises(InvalidParameterError, match=name):
            CameraModel(**{name: value})


class TestSamplePairs:
    def test_delta_pdf_hits_one_cell(self):
        cells = sample_cells(16, delta=(3, 7), n_pairs=500)
        assert cells.shape == (500, 2)
        assert np.all(cells == (3, 7))

    def test_uniform_pdf_counts_within_3_sigma(self):
        n = 8
        samples = 100_000
        cells = sample_cells(n, n_pairs=samples, seed=1)
        hist = np.bincount(cells[:, 0] * n + cells[:, 1], minlength=n * n)
        assert hist.size == n * n
        p = 1 / n**2
        sigma = np.sqrt(samples * p * (1 - p))
        assert np.all(np.abs(hist - samples * p) < 3.6 * sigma)

    def test_swap_symmetry(self):
        # symmetric pdf: (x', x'') and (x'', x') histograms agree statistically
        n = 6
        cells = sample_cells(n, seed=2)
        edges = [0, 2, 4, 6]
        h1, *_ = np.histogram2d(cells[:, 0], cells[:, 1], bins=[edges, edges])
        h2, *_ = np.histogram2d(cells[:, 1], cells[:, 0], bins=[edges, edges])
        stat = np.sum((h1 - h2) ** 2 / (h1 + h2))
        assert stats.chi2.sf(stat, 9) > 1e-4

    def test_negative_pdf_rejected(self):
        grid = SpatialGrid(-1e-3, 1e-3, 4)
        v = np.full((4, 4), 1.0)
        v[0, 0] = -1.0
        pdf = JointPattern2D(grid, v, "coincidence")
        with pytest.raises(InvalidParameterError):
            _sample_from_cdf(_pair_cdf(pdf), 4, 10, np.random.default_rng(0))


class TestApplyDetection:
    def test_eta_one_keeps_all(self):
        pairs = np.random.default_rng(0).uniform(-1, 1, (50, 2))
        out = apply_detection(pairs, 1.0, np.random.default_rng(1))
        assert out.size == 100

    def test_eta_zero_drops_all(self):
        pairs = np.random.default_rng(0).uniform(-1, 1, (50, 2))
        out = apply_detection(pairs, 0.0, np.random.default_rng(1))
        assert out.size == 0

    def test_survival_fraction(self):
        rng = np.random.default_rng(3)
        pairs = rng.uniform(-1, 1, (20_000, 2))
        out = apply_detection(pairs, 0.5, rng)
        assert out.size == pytest.approx(20_000, rel=0.03)


class TestRenderFrame:
    def test_empty_frame(self):
        cam = CameraModel()
        frame = render_frame([], cam, np.random.default_rng(0))
        assert frame.shape == (512, 512)
        assert frame.max() == 0

    def test_single_event_peak_at_event_pixel(self):
        cam = CameraModel()
        rng = np.random.default_rng(4)
        frame = render_frame([PhotonEvent(100, 200)], cam, rng)
        r, c = np.unravel_index(np.argmax(frame), frame.shape)
        assert (r, c) == (100, 200)
        # full 3x3 patch above threshold
        patch = frame[99:102, 199:202]
        assert np.all(patch > cam.threshold_analog)
        # peak strictly dominates its neighbors
        assert np.sum(patch == patch.max()) == 1

    def test_edge_event_clipped(self):
        cam = CameraModel()
        frame = render_frame([PhotonEvent(0, 0)], cam, np.random.default_rng(5))
        assert frame[0, 0] == frame.max()
        assert np.count_nonzero(frame) == 4

    def test_out_of_bounds_event(self):
        cam = CameraModel()
        with pytest.raises(InvalidParameterError):
            render_frame([PhotonEvent(600, 0)], cam, np.random.default_rng(0))

    def test_row_window_matches_full_frame(self):
        cam = CameraModel()
        events = [PhotonEvent(0, 5), PhotonEvent(10, 511), PhotonEvent(11, 100), PhotonEvent(511, 3)]
        full = render_frame(events, cam, np.random.default_rng(3), n_dark=60)
        for rows in [(0, 512), (9, 13), (10, 11), (12, 12), (500, 512)]:
            part = render_frame(events, cam, np.random.default_rng(3), n_dark=60, rows=rows)
            assert np.array_equal(part, full[rows[0] : rows[1]])
        out = np.zeros((4, 512), np.uint16)
        assert render_frame(events, cam, np.random.default_rng(3), 60, (9, 13), out) is out
        assert np.array_equal(out, full[9:13])

    def test_row_window_validated(self):
        cam = CameraModel()
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            render_frame([], cam, rng, rows=(5, 3))
        with pytest.raises(InvalidParameterError):
            render_frame([], cam, rng, rows=(0, 513))
        with pytest.raises(InvalidParameterError):
            render_frame([], cam, rng, rows=(0, 4), out=np.zeros((5, 512), np.uint16))

    def test_dark_events_single_pixel(self):
        cam = CameraModel()
        frame = render_frame([], cam, np.random.default_rng(6), n_dark=5)
        assert 0 < np.count_nonzero(frame) <= 5
        assert frame[frame > 0].min() >= int(0.3 * FULL_SCALE)


class TestFrameSimulator:
    def make_sim(self, n_frames=200, mean_pairs=0.5, seed=42):
        return FrameSimulator(make_pdf(PIXELS), CameraModel(), n_frames, mean_pairs, seed)

    def test_shape_is_the_camera_frame(self):
        cam = CameraModel(width=64, height=40, strip_rows=(10, 20))
        sim = FrameSimulator(make_pdf(cam.pixel_grid()), cam, 5, 0.5, 1)
        assert sim.shape == (40, 64) == sim.frame(0).shape

    @pytest.mark.parametrize(
        "grid",
        [
            SpatialGrid(-20e-3, 20e-3, 512),  # reaches far past the camera
            SpatialGrid(-1e-3, 1e-3, 64),
            SpatialGrid(-255.5 * 25e-6, 255.5 * 25e-6, 512),  # another pitch
        ],
    )
    def test_pattern_off_the_pixel_grid_rejected(self, grid):
        with pytest.raises(InvalidParameterError, match="pixel grid"):
            FrameSimulator(make_pdf(grid), CameraModel(), 10, 0.5, 1)

    def test_pdf_cells_are_event_columns(self):
        cam = CameraModel(quantum_efficiency=1.0)
        sim = FrameSimulator(make_pdf(cam.pixel_grid(), delta=(3, 300)), cam, 20, 3.0, 5)
        events = [e for k in range(20) for e in sim.frame_events(k)[0]]
        assert len(events) > 20
        assert [e.col for e in events] == [3, 300] * (len(events) // 2)

    def test_determinism(self):
        a, b = self.make_sim(), self.make_sim()
        for k in (0, 7, 199):
            assert np.array_equal(a.frame(k), b.frame(k))

    def test_frames_differ_across_indices(self):
        sim = self.make_sim(mean_pairs=3.0)
        assert not np.array_equal(sim.frame(0), sim.frame(1))

    def test_order_independence(self):
        sim = self.make_sim()
        late_first = sim.frame(50).copy()
        _ = [sim.frame(k) for k in range(10)]
        assert np.array_equal(sim.frame(50), late_first)

    def test_zero_mean_pairs_only_darks(self):
        sim = FrameSimulator(
            make_pdf(PIXELS), CameraModel(dark_rate=0.0), 50, 0.0, seed=1
        )
        assert all(sim.frame(k).max() == 0 for k in range(50))

    def test_rows_inside_strip(self):
        sim = self.make_sim(mean_pairs=4.0)
        events, _, _ = sim.frame_events(0)
        assert events
        r0, r1 = sim.camera.strip_rows
        assert all(r0 <= e.row <= r1 for e in events)

    def test_strip_block_indices_are_nonblank_frames(self):
        sim = self.make_sim(mean_pairs=0.2)
        block = sim.strip_block(0, 100, (0, sim.camera.height))
        nonblank = [k for k in range(100) if sim.frame(k).max() > 0]
        assert 0 < len(nonblank) < 100
        assert block.dtype == np.uint16
        assert np.array_equal(block, np.stack([sim.frame(k) for k in nonblank]))

    def test_strip_block_equals_frame_rows(self):
        sim = self.make_sim(mean_pairs=3.0)
        block = sim.strip_block(5, 45, (238, 274))
        nonblank = [k for k in range(5, 45) if sim.frame(k).max() > 0]
        assert len(nonblank) > 30
        assert block.dtype == np.uint16
        want = np.stack([sim.frame(k)[238:274] for k in nonblank])
        assert block.shape == want.shape == (len(nonblank), 36, 512)
        assert np.array_equal(block, want)

    def test_strip_block_draws_each_frame_once(self, monkeypatch):
        sim = self.make_sim(mean_pairs=1.0)
        drawn = []
        original = FrameSimulator.frame_events

        def counting(self, k):
            drawn.append(k)
            return original(self, k)

        monkeypatch.setattr(FrameSimulator, "frame_events", counting)
        sim.strip_block(10, 60, (240, 272))
        assert drawn == list(range(10, 60))

    def test_write_roundtrip(self, tmp_path):
        from twophoton.frameio import FrameFileReader

        sim = self.make_sim(n_frames=20)
        path = tmp_path / "run.bifr"
        sim.write(path)
        reader = FrameFileReader(path)
        assert len(reader) == 20
        for k in (0, 13, 19):
            assert np.array_equal(reader.frame(k), sim.frame(k))

    def test_pair_survival_statistics(self):
        # eta = 0.5: a one-pair frame keeps both photons with probability 1/4
        sim = FrameSimulator(
            make_pdf(PIXELS), CameraModel(dark_rate=0.0), 4000, 1e-9, seed=9
        )
        # force exactly one pair per frame by sampling events directly
        rng = np.random.default_rng(10)
        both = sum(
            apply_detection(np.ones((1, 2)), 0.5, rng).size == 2 for _ in range(4000)
        )
        assert both == pytest.approx(1000, abs=4 * np.sqrt(4000 * 0.25 * 0.75))
