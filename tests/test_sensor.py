"""Monte Carlo sampling, detection thinning, and frame rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oracle import records, scatter
from twophoton import sensor
from twophoton.errors import InvalidParameterError, StreamMismatchError
from twophoton.frameio import write_frames
from twophoton.optics import SpatialGrid
from twophoton.patterns import JointPattern2D
from twophoton.sensor import (
    FULL_SCALE,
    CameraModel,
    FrameSimulator,
    PhotonEvent,
    apply_detection,
    _add128,
    _BlockStreams,
    _mul128,
    _pair_cdf,
    _pcg64_seeds,
    _sample_from_cdf,
    _seed_pool,
    _xsl_rr,
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


def assert_records(key, value):
    """Records are sorted, unique int64 indices with uint16 values."""
    assert key.dtype == np.int64 and value.dtype == np.uint16
    assert key.shape == value.shape
    assert np.all(np.diff(key) > 0)


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
            {"quantum_efficiency": 0.0},
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

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_pdf_of_zero_or_non_finite_mass_rejected(self, bad):
        grid = SpatialGrid(-1e-3, 1e-3, 4)
        v = np.zeros((4, 4)) if bad == 0.0 else np.full((4, 4), 1.0)
        v[1, 2] = bad
        with pytest.raises(InvalidParameterError, match="total mass"):
            _pair_cdf(JointPattern2D(grid, v, "coincidence"))


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

    def test_row_window_validated(self):
        cam = CameraModel()
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            render_frame([], cam, rng, rows=(5, 3))
        with pytest.raises(InvalidParameterError):
            render_frame([], cam, rng, rows=(0, 513))

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

    def test_strip_records_index_every_frame(self):
        # blank frames keep their place: frame k of the block is key // frame size
        sim = self.make_sim(mean_pairs=0.2)
        want = np.stack([sim.frame(k) for k in range(100)])
        assert 0 < sum(f.any() for f in want) < 100
        key, value = sim.strip_records(0, 100, (0, sim.camera.height))
        assert_records(key, value)
        assert np.array_equal(scatter(key, value, want.shape), want)

    def test_strip_records_equal_frame_rows(self):
        sim = self.make_sim(mean_pairs=3.0)
        want = np.stack([sim.frame(k)[238:274] for k in range(5, 45)])
        key, value = sim.strip_records(5, 45, (238, 274))
        assert_records(key, value)
        assert len(np.unique(key // (36 * 512))) > 30
        assert np.array_equal(scatter(key, value, (40, 36, 512)), want)

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
        # Poisson(m) pairs, each photon kept with probability eta: the number
        # of events per frame has generating function exp(m (((1-eta) + eta z)^2 - 1))
        m, eta, n_frames = 1.0, 0.5, 4000
        cam = CameraModel(quantum_efficiency=eta, dark_rate=0.0)
        sim = FrameSimulator(make_pdf(PIXELS), cam, n_frames, m, seed=9)
        counts = np.bincount(
            [len(sim.frame_events(k)[0]) for k in range(n_frames)], minlength=3
        )
        q = 1.0 - eta
        p0 = np.exp(m * (q * q - 1.0))
        p1 = p0 * 2 * m * eta * q
        p2 = p0 * (m * eta**2 + (2 * m * eta * q) ** 2 / 2)
        for k, p in enumerate((p0, p1, p2)):
            sigma = np.sqrt(n_frames * p * (1 - p))
            assert counts[k] == pytest.approx(n_frames * p, abs=4 * sigma)


M64, M128 = (1 << 64) - 1, (1 << 128) - 1


def limbs(values):
    """(hi, lo) uint64 arrays of Python ints below 2**128."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & M64 for v in values], dtype=np.uint64))


def join(pair):
    return [(int(h) << 64) | int(w) for h, w in zip(*pair)]


def reference_frames(sim, lo, hi):
    """Frames lo..hi-1 by ``frame_events`` and ``render_frame``, frame by
    frame: the oracle of the block draw."""
    out = np.empty((hi - lo, *sim.shape), dtype=np.uint16)
    for k in range(lo, hi):
        events, n_dark, rng = sim.frame_events(k)
        out[k - lo] = render_frame(events, sim.camera, rng, n_dark)
    return out


def record_replays(monkeypatch):
    """The frame indices ``frame_events`` is called with from now on: the
    run-time check's replays, when only blocks are drawn."""
    replayed, frame_events = [], FrameSimulator.frame_events

    def recorded(self, k):
        replayed.append(k)
        return frame_events(self, k)

    monkeypatch.setattr(FrameSimulator, "frame_events", recorded)
    return replayed


# camera, mean_pairs, seed; every case is drawn in 30 blocks of 8 frames
BLOCK_CASES = {
    "no pairs": (CameraModel(), 0.0, 3),
    "closure": (CameraModel(), 0.5, 2**40),
    "bright": (CameraModel(), 3.0, 11),
    "mean_pairs 8": (CameraModel(width=64, height=64, strip_rows=(16, 47)), 8.0, 12),
    # a 30-row strip draws rows through Lemire's rejection test (2**32 mod 30 = 16)
    "mean_pairs 9.5, no darks, strip at row 0": (
        CameraModel(width=64, height=48, strip_rows=(0, 29), dark_rate=0.0), 9.5, 13),
    "width 3, strip at the last row": (
        CameraModel(width=3, height=40, strip_rows=(10, 39), dark_rate=2.0), 3.0, 14),
    "one-pixel patches, one-row strip, many darks": (
        CameraModel(width=33, height=31, strip_rows=(30, 30), patch_size=1, dark_rate=9.5), 4.0, 15),
    "5x5 patches, every photon detected": (
        CameraModel(width=40, height=24, strip_rows=(0, 23), patch_size=5, quantum_efficiency=1.0), 2.0, 16),
}


class TestBlockDraw:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_block_draw_equals_per_frame_path(self, case, tmp_path):
        cam, mean_pairs, seed = BLOCK_CASES[case]
        block, n_frames = 8, 240
        sim = FrameSimulator(make_pdf(cam.pixel_grid()), cam, n_frames, mean_pairs, seed)
        ref = reference_frames(sim, 0, n_frames)
        r0, r1 = cam.strip_rows
        windows = [(0, cam.height), (max(r0 - 2, 0), min(r1 + 3, cam.height)), (r1, r1 + 1)]
        for lo in range(0, n_frames, block):
            for v0, v1 in windows:
                key, value = sim.strip_records(lo, lo + block, (v0, v1))
                assert_records(key, value)
                want = ref[lo : lo + block, v0:v1]
                assert np.array_equal(scatter(key, value, want.shape), want)
            assert np.array_equal(sim.frame(lo + 5), ref[lo + 5])
        sim.write(tmp_path / "block.bifr")
        oracle = [(n_frames, *records(ref, (0, cam.height)))]
        write_frames(tmp_path / "oracle.bifr", cam.width, cam.height, oracle, n_frames)
        assert (tmp_path / "block.bifr").read_bytes() == (tmp_path / "oracle.bifr").read_bytes()

    def test_blocks_hold_photons_and_darks(self):
        # the cases above exercise what they claim: pairs, darks, carried halves
        cam, mean_pairs, seed = BLOCK_CASES["width 3, strip at the last row"]
        sim = FrameSimulator(make_pdf(cam.pixel_grid()), cam, 240, mean_pairs, seed)
        drawn = [sim.frame_events(k) for k in range(240)]
        assert sum(len(ev) for ev, _, _ in drawn) > 300
        assert sum(n for _, n, _ in drawn) > 300
        assert any(rng.bit_generator.state["has_uint32"] for _, _, rng in drawn)

    def test_blank_block(self):
        cam = CameraModel(dark_rate=0.0)
        sim = FrameSimulator(make_pdf(PIXELS), cam, 64, 0.0, 1)
        for lo, hi, rows in [(0, 64, (240, 272)), (7, 7, (0, 512))]:
            key, value = sim.strip_records(lo, hi, rows)
            assert_records(key, value)
            assert key.size == value.size == 0
        assert not sim.frame(3).any()

    def test_frame_range_checked(self):
        sim = FrameSimulator(make_pdf(PIXELS), CameraModel(), 10, 0.5, 1)
        for bad in (-1, 10):
            with pytest.raises(IndexError):
                sim.frame(bad)
        with pytest.raises(IndexError):
            sim.strip_records(5, 11, (0, 512))
        with pytest.raises(IndexError):
            sim.strip_records(0, 5, (0, 513))

    @pytest.mark.parametrize("mean_pairs, dark_rate", [(10.0, 0.05), (0.5, 10.0), (25.0, 0.0)])
    def test_poisson_rates_of_ten_or_more_rejected(self, mean_pairs, dark_rate):
        cam = CameraModel(dark_rate=dark_rate)
        with pytest.raises(InvalidParameterError, match="below 10"):
            FrameSimulator(make_pdf(PIXELS), cam, 10, mean_pairs, 1)

    def test_frame_count_above_two_to_the_32_rejected(self):
        pdf = make_pdf(PIXELS)
        assert len(FrameSimulator(pdf, CameraModel(), 2**32, 0.5, 1)) == 2**32
        with pytest.raises(InvalidParameterError, match="uint32"):
            FrameSimulator(pdf, CameraModel(), 2**32 + 1, 0.5, 1)

    def test_last_frame_index(self):
        sim = FrameSimulator(make_pdf(PIXELS), CameraModel(), 2**32, 3.0, 8)
        k = 2**32 - 1
        events, n_dark, rng = sim.frame_events(k)
        assert np.array_equal(sim.frame(k), render_frame(events, sim.camera, rng, n_dark))

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 64), (0, 65), (37, 1037), (0, 1024)])
    def test_one_replay_per_64_frames(self, monkeypatch, lo, hi):
        # one check frame in every 64-frame sub-block, counted from the block's start
        sim = FrameSimulator(make_pdf(PIXELS), CameraModel(), 1100, 0.5, 6)
        replayed = record_replays(monkeypatch)
        sim.strip_records(lo, hi, (240, 272))
        assert len(replayed) == math.ceil((hi - lo) / 64)
        assert [(k - lo) // 64 for k in replayed] == list(range(len(replayed)))

    def test_tampered_check_frame_raises(self, monkeypatch):
        # only the check frame of a block's last 64-frame sub-block is tampered with
        detect = sensor.apply_detection
        replayed = record_replays(monkeypatch)

        def tampered(cells, quantum_efficiency, rng):
            if replayed[-1] >= n_frames - 64:
                rng.random()  # one more double shifts the rest of the frame's stream
            return detect(cells, quantum_efficiency, rng)

        monkeypatch.setattr(sensor, "apply_detection", tampered)
        for n_frames in (64, 1024):
            replayed.clear()
            sim = FrameSimulator(make_pdf(PIXELS), CameraModel(), n_frames, 3.0, 5)
            with pytest.raises(StreamMismatchError, match="PCG64") as raised:
                sim.strip_records(0, n_frames, (240, 272))
            assert len(replayed) == n_frames // 64
            assert f"frame {replayed[-1]}:" in str(raised.value)


class TestBlockArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, M128)] * 3), min_size=1, max_size=6))
    def test_mul_add128(self, triples):
        a, x, c = zip(*triples)
        got = join(_add128(_mul128(limbs(a), limbs(x)), limbs(c)))
        assert got == [(ai * xi + ci) & M128 for ai, xi, ci in triples]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, M128), min_size=1, max_size=6))
    def test_xsl_rr(self, states):
        def reference(s):
            x, rot = ((s >> 64) ^ s) & M64, s >> 122
            return ((x >> rot) | (x << (64 - rot))) & M64

        assert _xsl_rr(*limbs(states)).tolist() == [reference(s) for s in states]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**200), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    def test_seeding_matches_numpy(self, seed, ks):
        state, inc = _pcg64_seeds(_seed_pool(seed), np.array(ks, dtype=np.uint32))
        for k, s, i in zip(ks, join(state), join(inc)):
            bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
            assert bits.state["state"] == {"state": s, "inc": i}

    @pytest.mark.parametrize("seed", [0, 9, 2**40, 2**130 + 1])
    def test_words_match_random_raw(self, seed):
        ks = [0, 1, 77, 2**32 - 1]
        streams = _BlockStreams(*_pcg64_seeds(_seed_pool(seed), np.array(ks, dtype=np.uint32)))
        # every stream in one 2-d call, each row asking for its positions out of order
        p = np.random.default_rng(seed).permuted(np.tile(np.arange(300), (len(ks), 1)), axis=1)
        f = np.broadcast_to(np.arange(len(ks))[:, None], p.shape)
        got = streams.words(f, p)
        assert got.shape == p.shape
        for row, k in enumerate(ks):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).random_raw(300)
            assert np.array_equal(got[row], want[p[row]])

    def test_poisson_reads_past_its_first_pass(self):
        # at the default dark rate one pass reads 2 doubles; about 1 stream
        # in 800 draws a count of 2 or more and reads on
        lam, ks = 0.05, np.arange(4000, dtype=np.uint32)
        streams = _BlockStreams(*_pcg64_seeds(_seed_pool(21), ks))
        got = streams.poisson(lam)
        assert np.count_nonzero(got >= sensor._poisson_chunk(lam)) >= 2
        for k in ks:
            bits = np.random.PCG64(np.random.SeedSequence(21, spawn_key=(int(k),)))
            assert np.random.Generator(bits).poisson(lam) == got[k]
            assert bits.state["state"]["state"] == streams.final_state(int(k))[0]

    def test_rejected_half_is_redrawn(self):
        # n = 30 rejects a half u whose (u * 30) mod 2**32 is below 2**32 mod 30 = 16.
        # The generator's next word is hand-built: low half 0, so rejected.
        n, inc, word = 30, (0x5851F42D4C957F2D << 64) | 0x14057B7EF767814F, 0xDEADBEEF << 32
        hi = 0x0123456789ABCDEF  # top six bits 0: xsl_rr does not rotate
        after = (hi << 64) | (hi ^ word)
        before = (after - inc) * pow(sensor._PCG_MULT, -1, 1 << 128) & M128
        bits = np.random.PCG64()
        bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        assert bits.random_raw() == word
        bits.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        want = np.random.Generator(bits).integers(0, n, size=2)
        streams = _BlockStreams(limbs([before]), limbs([inc]))
        got = streams.bounded(np.array([0]), np.array([2]), n)
        # the rejected half, then the high half 0xDEADBEEF and the next low half
        assert got.tolist() == want.tolist() == [(0xDEADBEEF * n) >> 32, got[1]]
        assert streams.final_state(0) == (bits.state["state"]["state"], inc)
        assert (streams.carry[0], streams.half[0]) == (bits.state["has_uint32"], bits.state["uinteger"])
        assert streams.carry[0] == 1
