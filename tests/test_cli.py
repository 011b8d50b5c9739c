"""End-to-end command-line interface tests."""

import argparse
import dataclasses
import errno
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

import twophoton as tp
from twophoton import cli, frameio, sensor
from twophoton.cli import main, parse_config_file
from twophoton.errors import InvalidParameterError
from twophoton.experiment import recover_visibilities
from oracle import corrected_matrix, read_pattern_csv
from twophoton.frameio import HEADER_SIZE, VERSION, FrameFileReader, write_frames
from twophoton.framepipe import (
    CoincidenceAccumulator,
    _reduce_range,
    analyze_source,
    finalize,
    process_frame,
)
from twophoton.optics import SpatialGrid
from twophoton.patterns import FringePattern1D, JointPattern2D
from twophoton.visibility import fit_fringe_visibility, fit_joint_visibility

LAMBDA = 812e-9
FOCAL = 50e-3
A = 0.7e-3
PERIOD = LAMBDA * FOCAL / A


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nseed = 7  # trailing\n\nmode = fresnel\n")
        assert parse_config_file(p) == {"seed": "7", "mode": "fresnel"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just words\n")
        with pytest.raises(InvalidParameterError):
            parse_config_file(p)

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", bogus_key=1)
        assert main(["pattern", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", seed="not-an-int")
        assert main(["pattern", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_readme_lists_the_accepted_keys(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        run_keys = [f.name for f in dataclasses.fields(tp.ExperimentConfig) if f.name != "camera"]
        assert sorted(listed) == sorted(run_keys + list(cli._CAMERA_KEYS))
        # every listed key is accepted, and parses its default to the default
        default = tp.ExperimentConfig()
        values = {k: getattr(default.camera if k in cli._CAMERA_KEYS else default, k) for k in listed}
        args = argparse.Namespace(config=write_config(tmp_path / "all.cfg", **values))
        assert cli.build_config(args) == default


class TestPattern:
    def run_pattern(self, tmp_path, capsys, **kv):
        cfg = write_config(tmp_path / "c.cfg", **kv)
        out = tmp_path / "out"
        assert main(["pattern", "--config", cfg, "--out", str(out)]) == 0
        return out, capsys.readouterr().out

    def test_outputs_and_psi(self, tmp_path, capsys):
        # 2f illumination with u = 0.5: psi is sinc(1/2) = 2/pi
        out, text = self.run_pattern(
            tmp_path,
            capsys,
            mode="fourier-2f",
            pump_width=0.5 * LAMBDA * FOCAL / A,
            slit_width=0.0,
        )
        for name in (
            "intensity.csv",
            "marginal.csv",
            "coincidence.csv",
            "excess.csv",
            "coincidence.pgm",
            "excess.pgm",
            "pattern.json",
        ):
            assert (out / name).exists()
        meta = json.loads((out / "pattern.json").read_text())
        assert meta["psi"] == pytest.approx(2 / np.pi, abs=1e-6)
        assert "psi_A" in text and "V12" in text

    def test_reread_and_refit_reproduces_logged_visibilities(self, tmp_path, capsys):
        out, _ = self.run_pattern(tmp_path, capsys, distance=0.54)
        meta = json.loads((out / "pattern.json").read_text())

        x, v = read_pattern_csv(out / "marginal.csv")
        grid = SpatialGrid(x[0], x[-1], len(x))
        mfit = fit_fringe_visibility(FringePattern1D(grid, v), PERIOD)
        assert mfit.visibility == pytest.approx(meta["v1m_fit"], abs=1e-9)

        data = np.loadtxt(out / "excess.csv", delimiter=",", skiprows=1)
        n = int(round(np.sqrt(data.shape[0])))
        values = data[:, 2].reshape(n, n)
        excess = JointPattern2D(grid, values, "excess")
        jfit = fit_joint_visibility(excess, PERIOD)
        assert jfit.v12 == pytest.approx(meta["v12_fit"], abs=1e-9)


class TestSimulate:
    def test_zero_frames_writes_header_only(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_frames=0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # a version-2 file of no frames has no frame and an empty offset table
        raw = (out / "frames.bifr").read_bytes()
        assert len(raw) == HEADER_SIZE and raw[4] == VERSION == 2
        meta = json.loads((out / "frames.json").read_text())
        assert meta["config"]["n_frames"] == 0

    def test_identical_seed_identical_bytes(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--frames", "50", "--seed", "5", "--out", str(out)]) == 0
            digests.append(hashlib.sha256((out / "frames.bifr").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "key, value",
        [("threshold", -0.1), ("dark_rate", -1), ("pitch", 0), ("pitch", -24e-6),
         ("quantum_efficiency", 0)],
    )
    def test_bad_camera_key_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", n_frames=5, **{key: value})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "frames.bifr").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("seed", -1), ("mean_pairs", "nan"), ("mean_pairs", "inf"), ("dark_rate", "nan"),
         ("pitch", "inf"), ("threshold", "nan"), ("wavelength", "inf"), ("pump_grid_n", 0),
         ("mean_pairs", 10), ("dark_rate", 10)],
    )
    def test_bad_run_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", n_frames=5, **{key: value})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and key in err
        assert not (out / "frames.bifr").exists()

    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "d" / "run"
        assert main(["simulate", "--seed", "-1", "--frames", "5", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_stream_mismatch_leaves_no_frame_file(self, tmp_path, monkeypatch, capsys):
        detect = sensor.apply_detection

        def tampered(cells, quantum_efficiency, rng):
            rng.random()  # one more double shifts the check frame's stream
            return detect(cells, quantum_efficiency, rng)

        monkeypatch.setattr(sensor, "apply_detection", tampered)
        out = tmp_path / "out"
        assert main(["simulate", "--frames", "200", "--seed", "3", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numpy stream error:") and "PCG64 stream differs" in err
        assert not out.exists()

    def test_stream_mismatch_beside_a_stray_file_still_exits_4(self, tmp_path, monkeypatch, capsys):
        # a file that appears in --out during the write keeps the directories
        # from being removed; that failure must not replace the stream error
        detect = sensor.apply_detection
        out = tmp_path / "d" / "out"

        def tampered(cells, quantum_efficiency, rng):
            (out / "stray").touch()
            rng.random()
            return detect(cells, quantum_efficiency, rng)

        monkeypatch.setattr(sensor, "apply_detection", tampered)
        assert main(["simulate", "--frames", "200", "--seed", "3", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("numpy stream error:")
        assert [p.name for p in out.iterdir()] == ["stray"]

    def test_different_seed_differs(self, tmp_path):
        digests = []
        for seed in ("5", "6"):
            out = tmp_path / seed
            assert main(["simulate", "--frames", "50", "--seed", seed, "--out", str(out)]) == 0
            digests.append(hashlib.sha256((out / "frames.bifr").read_bytes()).hexdigest())
        assert digests[0] != digests[1]

    def test_frame_count_the_header_cannot_hold_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--frames", str(2**32), "--out", str(out)]) == 2
        assert "frame-file header" in capsys.readouterr().err
        assert not (out / "frames.bifr").exists()

    def test_run_that_does_not_fit_the_disk_exits_3(self, tmp_path, monkeypatch, capsys):
        # a version-2 file's size is known only once it is written: the disk
        # fills during the write, after the header
        class FullDisk:
            def __init__(self, f):
                self.f, self.written = f, 0

            def write(self, data):
                if self.written:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.written += len(data)
                return self.f.write(data)

            def close(self):
                self.f.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(frameio, "open", lambda path, mode: FullDisk(open(path, mode)), raising=False)
        out = tmp_path / "d" / "out"
        assert main(["simulate", "--frames", "2", "--out", str(out)]) == 3
        assert f"[Errno {errno.ENOSPC}]" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()
        # a directory that was there before the run stays
        out.mkdir(parents=True)
        assert main(["simulate", "--frames", "2", "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_values_outside_uint16_exit_3(self, tmp_path, monkeypatch, capsys):
        draw = sensor.FrameSimulator._draw_block

        def widened(self, lo, hi):
            key, value = draw(self, lo, hi)
            return key, value.astype(np.int64) + 65536

        monkeypatch.setattr(sensor.FrameSimulator, "_draw_block", widened)
        out = tmp_path / "out"
        assert main(["simulate", "--frames", "50", "--seed", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "outside 0..65535" in err
        assert not out.exists()


class TestAnalyze:
    def test_end_to_end(self, tmp_path, capsys):
        run = tmp_path / "run"
        # enough pairs that the cells next to the band hold counts
        cfg = write_config(tmp_path / "run.cfg", mean_pairs=3.0)
        assert main(["simulate", "--config", cfg, "--frames", "3000", "--seed", "11",
                     "--out", str(run)]) == 0
        out = tmp_path / "analysis"
        code = main(["analyze", str(run / "frames.bifr"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["frames_total"] == 3000
        assert report["pairs_accepted"] > 0
        assert 0.0 < report["accidentals"] < 1.0
        assert report["fit_residual"] > 0.0
        assert not {"marginal_fit_residual", "joint_fit_residual"} & report.keys()
        # the report records the run of frames.json, not the defaults
        assert report["config"] == json.loads((run / "frames.json").read_text())["config"]
        result = analyze_source(FrameFileReader(run / "frames.bifr"), tp.CameraModel())
        rec = recover_visibilities(result, PERIOD)
        assert report["v12"] == rec.v12
        assert report["v12_ratio"] == rec.v12_ratio
        assert report["accidentals"] == rec.accidentals
        assert report["fit_residual"] == rec.joint_fit.residual
        outputs = ("estimate.npy", "estimate_marginal.csv", "singles_histogram.csv",
                   "estimate_super4.pgm", "excess_super4.pgm")
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "analysis.json"])
        assert "V1m" in capsys.readouterr().out
        # the written estimate is the fitted one, float64 bit for bit: 0 on
        # the unobserved band, and its acceptance-weighted refit gives the
        # logged visibilities to rounding
        counts, acceptance = corrected_matrix(result.accumulator, result.camera)
        grid = result.camera.pixel_grid()
        values = np.load(out / "estimate.npy")
        assert values.dtype == np.float64 and values.shape == (grid.n, grid.n)
        assert np.array_equal(values, finalize(result.accumulator, result.camera).values)
        estimate = JointPattern2D(grid, values)
        assert np.all(estimate.values[acceptance == 0] == 0.0)
        refit = fit_joint_visibility(estimate, PERIOD, acceptance)
        assert refit.amp_single / refit.offset == pytest.approx(report["v1m"], rel=1e-12)
        assert refit.v12 == pytest.approx(report["v12_ratio"], rel=1e-12)
        # the written marginal is the band-excluded one the chi-square tests
        _, marginal = read_pattern_csv(out / "estimate_marginal.csv")
        want = counts.sum(axis=1)
        assert np.allclose(marginal, want * (marginal.sum() / want.sum()), rtol=1e-9, atol=0)

    def test_camera_efficiency_reaches_accidental_correction(self, tmp_path):
        cfg = write_config(tmp_path / "qe.cfg", quantum_efficiency=0.3, n_frames=1500, seed=4)
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        assert main(["analyze", str(run / "frames.bifr"), "--config", cfg, "--out", str(out)]) == 0
        reader = FrameFileReader(run / "frames.bifr")
        want = {
            qe: recover_visibilities(
                analyze_source(reader, tp.CameraModel(quantum_efficiency=qe)), PERIOD
            ).v12
            for qe in (0.3, 0.5)
        }
        assert want[0.3] != want[0.5]
        assert json.loads((out / "analysis.json").read_text())["v12"] == want[0.3]

    def test_camera_and_period_come_from_the_sidecar(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", quantum_efficiency=0.3, wavelength=7e-7,
                           n_frames=1500, seed=4)
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        assert main(["analyze", str(run / "frames.bifr"), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["config"]["camera"]["quantum_efficiency"] == 0.3
        assert report["config"]["wavelength"] == 7e-7
        rec = recover_visibilities(
            analyze_source(FrameFileReader(run / "frames.bifr"), tp.CameraModel(quantum_efficiency=0.3)),
            7e-7 * FOCAL / A,
        )
        assert report["v12"] == rec.v12 and report["v1m"] == rec.v1m

    @pytest.mark.parametrize("key, value, kept", [("quantum_efficiency", 0.5, "wavelength"),
                                                  ("wavelength", 8e-7, "quantum_efficiency")])
    def test_config_that_contradicts_the_sidecar_exits_2(self, tmp_path, capsys, key, value, kept):
        run_keys = {"quantum_efficiency": 0.3, "wavelength": 7e-7, "n_frames": 20}
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--config", write_config(tmp_path / "run.cfg", **run_keys),
                     "--out", str(run)]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path / "other.cfg", **{**run_keys, key: value})
        assert main(["analyze", str(run / "frames.bifr"), "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and kept not in err
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"frame_file": "frames.bifr"}',
                                      '{"frame_file": "frames.bifr", "config": {}}'])
    def test_unreadable_sidecar_exits_3(self, tmp_path, capsys, text):
        run = tmp_path / "run"
        assert main(["simulate", "--frames", "20", "--out", str(run)]) == 0
        (run / "frames.json").write_text(text)
        assert main(["analyze", str(run / "frames.bifr"), "--out", str(tmp_path / "a")]) == 3
        assert "frames.json" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [("mean_pairs",), ("camera", "dark_rate")])
    def test_non_finite_sidecar_value_exits_3(self, tmp_path, capsys, path):
        run = tmp_path / "run"
        assert main(["simulate", "--frames", "20", "--out", str(run)]) == 0
        meta = json.loads((run / "frames.json").read_text())
        record = meta["config"]
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = float("nan")
        (run / "frames.json").write_text(json.dumps(meta))
        assert main(["analyze", str(run / "frames.bifr"), "--out", str(tmp_path / "a")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and path[-1] in err

    def test_pump_shape_is_checked_in_config_and_record(self, tmp_path, capsys):
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--frames", "20", "--out", str(run)]) == 0
        argv = ["analyze", str(run / "frames.bifr"), "--out", str(out)]
        assert main(argv + ["--config", write_config(tmp_path / "c.cfg", pump_shape="square")]) == 2
        meta = json.loads((run / "frames.json").read_text())
        meta["config"]["pump_shape"] = "square"
        (run / "frames.json").write_text(json.dumps(meta))
        assert main(argv) == 3
        config_error, record_error = capsys.readouterr().err.splitlines()
        assert config_error.startswith("configuration error: pump_shape")
        assert record_error.startswith("data error") and "frames.json" in record_error
        assert not (out / "analysis.json").exists()

    def test_sidecar_of_another_file_is_ignored(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_config(tmp_path / "run.cfg", quantum_efficiency=0.3, n_frames=200)
        assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        (run / "frames.bifr").rename(run / "other.bifr")
        out = tmp_path / "analysis"
        assert main(["analyze", str(run / "other.bifr"), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["config"]["camera"]["quantum_efficiency"] == 0.5

    def test_fits_need_no_least_squares_solver(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        closure = tp.run_closure(tp.ExperimentConfig(n_frames=1500, seed=3), psi=0.6)
        assert 0.0 < closure.recovered.v1m <= 1.0
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--frames", "1500", "--seed", "11", "--out", str(run)]) == 0
        assert main(["analyze", str(run / "frames.bifr"), "--out", str(out)]) == 0
        assert json.loads((out / "analysis.json").read_text())["pairs_accepted"] > 0

    def test_frames_are_reduced_without_dense_labelling(self, tmp_path, monkeypatch):
        camera = tp.CameraModel()
        grid = camera.pixel_grid()
        pdf = JointPattern2D(grid, np.ones((grid.n, grid.n)) / (grid.n * grid.spacing) ** 2, "coincidence")
        sim = tp.FrameSimulator(pdf, camera, 200, 3.0, 12)
        want = CoincidenceAccumulator(camera.width)
        for frame in map(sim.frame, range(200)):
            process_frame(frame, camera, want)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.ndimage.label called")

        monkeypatch.setattr(scipy.ndimage, "label", refuse)
        got = _reduce_range(sim, camera, 0, 200)
        assert got.frames_pair > 0
        assert np.array_equal(got.matrix, want.matrix)
        assert got.class_counts() == want.class_counts()
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--frames", "1500", "--seed", "11", "--out", str(run)]) == 0
        assert main(["analyze", str(run / "frames.bifr"), "--out", str(out)]) == 0
        assert json.loads((out / "analysis.json").read_text())["pairs_accepted"] > 0

    def test_run_without_an_empty_frame_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", mean_pairs=9.0, n_frames=300, seed=3)
        run, out = tmp_path / "run", tmp_path / "analysis"
        assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        assert main(["analyze", str(run / "frames.bifr"), "--out", str(out)]) == 3
        assert "empty frames" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_analysis_leaves_no_output_directory(self, tmp_path, capsys):
        bad = tmp_path / "bad.bifr"
        bad.write_bytes(b"BIFR\x02\x00")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "a" / "b" / "out")]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.bifr"), "--out", str(tmp_path)]) == 3

    def test_corrupt_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bifr"
        bad.write_bytes(b"not a frame file at all" * 10)
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("width, height", [(256, 512), (512, 300)])
    def test_frames_not_of_the_camera_exit_2(self, tmp_path, capsys, width, height):
        path = tmp_path / "small.bifr"
        blank = (3, np.empty(0, np.int64), np.empty(0, np.uint16))
        write_frames(path, width, height, [blank], 3)
        assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 2
        assert "512x512 camera" in capsys.readouterr().err


class TestSweep:
    def test_analytic_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--d", "0.063", "--d", "0.54", "--d", "0.87", "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0].startswith("d_m,psi,v1,v1m,v12")
        assert len(rows) == 4
        data = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, usecols=(0, 3, 4))
        # farther source: more which-path knowledge, V1m up, V12 down
        assert np.all(np.diff(data[:, 1]) >= 0)
        assert np.all(np.diff(data[:, 2]) <= 0)
        circle = np.loadtxt(out / "circle.csv", delimiter=",", skiprows=1)
        assert np.allclose(circle[:, 0] ** 2 + circle[:, 1] ** 2, 1.0, atol=1e-12)
        assert "V12" in capsys.readouterr().out

    def test_monte_carlo_values_reach_stdout(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--monte-carlo", "--frames", "3000", "--seed", "4", "--d", "0.54", "--out", str(out)]
        assert main(argv) == 0
        (point,) = json.loads((out / "sweep.json").read_text())["points"]
        (line,) = capsys.readouterr().out.splitlines()
        assert f"V1m = {point['v1m']:.4f}  V12 = {point['v12']:.4f}" in line
        assert line.endswith(f"MC V1m = {point['mc_v1m']:.4f}  MC V12 = {point['mc_v12']:.4f}")
        assert point["mc_v1m"] != point["v1m"] and point["mc_v12"] != point["v12"]


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "frames.bifr", "--seed", "1"],
            ["analyze", "frames.bifr", "--frames", "10"],
            ["analyze", "frames.bifr", "--d", "0.3"],
            ["pattern", "--threads", "2"],
            ["pattern", "--seed", "1"],
            ["simulate", "--threads", "2"],
            ["analyze", "frames.bifr", "--threads", "2"],
            ["sweep", "--threads", "2"],
        ],
    )
    def test_flag_a_subcommand_ignores_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_distance_reaches_pattern_and_simulate(self, tmp_path):
        for command in ("pattern", "simulate"):
            out = tmp_path / command
            argv = [command, "--d", "0.3", "--out", str(out)]
            if command == "simulate":
                argv += ["--frames", "0"]
            assert main(argv) == 0
            sidecar = next(out.glob("*.json"))
            assert json.loads(sidecar.read_text())["config"]["distance"] == 0.3
