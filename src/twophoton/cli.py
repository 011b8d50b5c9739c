"""Command-line interface.

Subcommands:

    pattern   analytic patterns and visibilities for one geometry
    simulate  generate a synthetic frame file (BIFR) plus metadata sidecar
    analyze   reduce a frame file and fit the recovered visibilities
    sweep     visibilities versus source-slit distance, with the ideal circle

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numpy's random
streams differ from the ones the frame draw reproduces.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, framepipe
from .errors import (
    EmptyEstimateError,
    FrameFormatError,
    InvalidParameterError,
    StreamMismatchError,
    TwoPhotonError,
)
from .experiment import (
    ExperimentConfig,
    analytic_patterns,
    analytic_summary,
    build_simulator,
    recover_visibilities,
    sweep,
)
from .frameio import (
    FrameFileReader,
    write_joint_csv,
    write_pattern_csv,
    write_pgm,
)
from .framepipe import analyze_source, superpixel_bin
from .optics import SpatialGrid
from .patterns import excess_pattern, marginal_pattern
from .sensor import CameraModel
from .visibility import fit_fringe_visibility, fit_joint_visibility

# configuration keys settable from a key=value file or flags: every
# ExperimentConfig field but the camera, plus these camera fields
_CAMERA_KEYS = ("quantum_efficiency", "threshold", "dark_rate", "pitch")
_FRINGE_KEYS = ("wavelength", "focal_length", "slit_separation")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a plain ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    if getattr(args, "seed", None) is not None:
        raw["seed"] = str(args.seed)
    if getattr(args, "frames", None) is not None:
        raw["n_frames"] = str(args.frames)
    d = getattr(args, "d", None)
    if d is not None:
        # sweep repeats --d; its configuration carries the first distance
        raw["distance"] = str(d[0] if isinstance(d, list) else d)

    run: dict[str, object] = {}
    camera: dict[str, object] = {}
    # each key's value is parsed with the type of its field's default
    schema = {f.name: (run, f.default) for f in dataclasses.fields(ExperimentConfig) if f.name != "camera"}
    schema.update({f.name: (camera, f.default) for f in dataclasses.fields(CameraModel) if f.name in _CAMERA_KEYS})
    for key, value in raw.items():
        if key not in schema:
            raise InvalidParameterError(f"unknown config key {key!r}")
        target, default = schema[key]
        try:
            target[key] = type(default)(value)
        except ValueError as exc:
            raise InvalidParameterError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(camera=CameraModel(**camera), **run)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sidecar(path: Path, config: ExperimentConfig, extra: dict) -> None:
    payload = {"version": __version__, "config": dataclasses.asdict(config)}
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_pattern(args) -> int:
    config = build_config(args)
    out = _out_dir(args)
    summary = analytic_summary(config)
    # eight fringe periods, 256 samples
    grid = SpatialGrid(-4 * config.fringe_period, 4 * config.fringe_period, 256)
    pats = analytic_patterns(config, grid=grid, psi=summary.psi, g1=summary.g1)
    x = grid.positions
    write_pattern_csv(out / "intensity.csv", x, pats["intensity"].values)
    write_pattern_csv(out / "marginal.csv", x, pats["marginal"].values)
    write_joint_csv(out / "coincidence.csv", x, pats["coincidence"].values)
    write_joint_csv(out / "excess.csv", x, pats["excess"].values)
    write_pgm(out / "coincidence.pgm", pats["coincidence"].values)
    write_pgm(out / "excess.pgm", pats["excess"].values)
    v = summary.visibilities
    # fits of the patterns as written, so re-reading a CSV and re-fitting
    # reproduces the logged values exactly (up to CSV quantization)
    mfit = fit_fringe_visibility(pats["marginal"], config.fringe_period)
    jfit = fit_joint_visibility(pats["excess"], config.fringe_period)
    _write_sidecar(
        out / "pattern.json",
        config,
        {
            "psi": summary.psi,
            "g1": summary.g1,
            "v1": v.v1,
            "v1m": v.v1m,
            "v12": v.v12,
            "v1m_fit": mfit.visibility,
            "v12_fit": jfit.v12,
        },
    )
    print(f"psi_A = {summary.psi:.6f}")
    print(f"g1_A  = {summary.g1:.6f}")
    print(f"V1 = {v.v1:.6f}  V1m = {v.v1m:.6f}  V12 = {v.v12:.6f}")
    return 0


def cmd_simulate(args) -> int:
    config = build_config(args)
    psi = analytic_summary(config).psi
    sim = build_simulator(config, psi=psi)
    out = Path(args.out)
    # the directories this run creates, deepest first, removed if the write
    # fails; one that is not empty stays, and the write's error is reported
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    frame_path = out / "frames.bifr"
    try:
        sim.write(frame_path)
    except BaseException:
        for d in created:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    _write_sidecar(
        out / "frames.json",
        config,
        {"frame_file": frame_path.name, "psi": psi},
    )
    print(f"wrote {config.n_frames} frames to {frame_path}")
    return 0


def _analyze_config(args) -> ExperimentConfig:
    """The run recorded in the ``frames.json`` that names the frame file, or
    the configuration when none does.  ``--config`` may not change the
    recorded camera or fringe period, the values the analysis reads."""
    config = build_config(args)
    path = Path(args.frames_file)
    sidecar = path.parent / "frames.json"
    try:
        meta = json.loads(sidecar.read_text()) if sidecar.is_file() else {}
        if meta.get("frame_file") != path.name:
            return config
        # every field is read, so a record that lacks one is unreadable
        run = meta["config"]
        camera = {f.name: run["camera"][f.name] for f in dataclasses.fields(CameraModel)}
        camera = {k: tuple(v) if isinstance(v, list) else v for k, v in camera.items()}
        fields = {f.name: run[f.name] for f in dataclasses.fields(ExperimentConfig) if f.name != "camera"}
        recorded = ExperimentConfig(camera=CameraModel(**camera), **fields)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FrameFormatError(f"cannot read {sidecar}: {exc!r}") from exc
    differ = [k for k in _FRINGE_KEYS if getattr(config, k) != getattr(recorded, k)]
    differ += [k for k, v in camera.items() if getattr(config.camera, k) != v]
    if args.config and differ:
        raise InvalidParameterError(f"--config differs from the run recorded in {sidecar} on {differ}")
    return recorded


def cmd_analyze(args) -> int:
    config = _analyze_config(args)
    reader = FrameFileReader(args.frames_file)
    result = analyze_source(reader, config.camera)
    recovered = recover_visibilities(result, config.fringe_period)
    acc = result.accumulator
    # the written estimate is the fitted one, 0 on the unobserved band.
    # finalize is looked up on its module, where the benchmark's trace hook
    # wraps it.
    estimate = framepipe.finalize(acc, result.camera)
    marginal = marginal_pattern(estimate)
    excess = excess_pattern(estimate, marginal, config.fringe_period)
    x = estimate.grid.positions
    # created once the estimate is fitted, so a run that fails leaves no --out
    out = _out_dir(args)
    np.save(out / "estimate.npy", estimate.values)
    write_pattern_csv(out / "estimate_marginal.csv", x, marginal.values)
    write_pattern_csv(out / "singles_histogram.csv", x, acc.singles.astype(float))
    write_pgm(out / "estimate_super4.pgm", superpixel_bin(estimate.values, 4))
    write_pgm(out / "excess_super4.pgm", superpixel_bin(excess.values, 4))
    report = {
        "v1m": recovered.v1m,
        "v12": recovered.v12,
        "v12_ratio": recovered.v12_ratio,
        "accidentals": recovered.accidentals,
        "fit_residual": recovered.joint_fit.residual,
        "frames_total": acc.frames_total,
        **{f"frames_{k}": v for k, v in acc.class_counts().items()},
        "pairs_rejected": acc.pairs_rejected,
        "pairs_accepted": acc.pairs_accepted,
    }
    _write_sidecar(out / "analysis.json", config, report)
    print(f"frames: {acc.frames_total} total, {acc.class_counts()}")
    print(f"pairs accepted = {acc.pairs_accepted}, rejected = {acc.pairs_rejected}")
    print(f"V1m = {recovered.v1m:.4f}  V12 = {recovered.v12:.4f}")
    return 0


def cmd_sweep(args) -> int:
    config = build_config(args)
    out = _out_dir(args)
    distances = args.d or [0.055, 0.063, 0.30, 0.54, 0.87]
    points = sweep(config, distances, monte_carlo=args.monte_carlo)
    with open(out / "sweep.csv", "w") as f:
        f.write("d_m,psi,v1,v1m,v12,mc_v1m,mc_v12\n")
        for p in points:
            mc1 = "" if p.mc_v1m is None else f"{p.mc_v1m:.9e}"
            mc2 = "" if p.mc_v12 is None else f"{p.mc_v12:.9e}"
            f.write(
                f"{p.distance:.9e},{p.psi:.9e},{p.v1:.9e},{p.v1m:.9e},"
                f"{p.v12:.9e},{mc1},{mc2}\n"
            )
    theta = np.linspace(0, np.pi / 2, 181)
    with open(out / "circle.csv", "w") as f:
        f.write("v12,v1m\n")
        for t in theta:
            f.write(f"{np.cos(t):.9e},{np.sin(t):.9e}\n")
    _write_sidecar(
        out / "sweep.json",
        config,
        {"distances": distances, "points": [dataclasses.asdict(p) for p in points]},
    )
    for p in points:
        line = f"d = {p.distance:7.3f} m  psi = {p.psi:+.4f}  V1m = {p.v1m:.4f}  V12 = {p.v12:.4f}"
        if p.mc_v1m is not None:
            line += f"  MC V1m = {p.mc_v1m:.4f}  MC V12 = {p.mc_v12:.4f}"
        print(line)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophoton",
        description="Double-slit one- and two-photon interference simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", default=".", help="output directory")

    def run_flags(p):
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--frames", type=int, help="frame count override")

    def distance_flag(p, repeat=False):
        p.add_argument(
            "--d",
            type=float,
            action="append" if repeat else "store",
            help="source-slit distance in meters" + (" (repeatable)" if repeat else ""),
        )

    p_pa = sub.add_parser("pattern", help="write analytic patterns")
    common(p_pa)
    distance_flag(p_pa)
    p_si = sub.add_parser("simulate", help="generate a synthetic frame file")
    common(p_si)
    run_flags(p_si)
    distance_flag(p_si)
    p_an = sub.add_parser("analyze", help="reduce a frame file")
    p_an.add_argument("frames_file", help="BIFR frame file")
    common(p_an)
    p_sw = sub.add_parser("sweep", help="visibilities versus distance")
    p_sw.add_argument(
        "--monte-carlo",
        action="store_true",
        help="also run the frame-level closure at each distance",
    )
    common(p_sw)
    run_flags(p_sw)
    distance_flag(p_sw, repeat=True)
    return parser


_COMMANDS = {
    "pattern": cmd_pattern,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FrameFormatError, EmptyEstimateError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except StreamMismatchError as exc:
        print(f"numpy stream error: {exc}", file=sys.stderr)
        return 4
    except TwoPhotonError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
