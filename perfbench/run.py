#!/usr/bin/env python3
"""Benchmark of the twophoton chain: geometry -> psi -> frames -> G2 -> fits.

Usage (from the repository root):

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

One run repeats a single workload execution (an *iteration*) on the same
seed-generated inputs until ``--seconds`` is spent, checks every iteration's
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json (medians over iterations); with
``--trace 1`` iterations alternate untraced and traced, and the metrics are the
per-layer ones (medians over traced iterations) plus the tracing overhead.
The line before it is a JSON record of provenance, percentiles, sample counts
and exact counts.  Metric names, units and workload reasons come from
BENCHMARK.json.  The package is imported from ``src/`` of this checkout only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Hook, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
TMP_PREFIX = ".perfbench-tmp-"
DISK_MARGIN = 1 << 30


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    mean_pairs: float
    workers: int
    # RMS deviation of the recovered V1m / V12 from the analytic values times
    # sqrt(accepted pairs), over seeds 0-15; the check allows five of them.
    # V12 spreads more on bright, where accidental pairs dominate.
    sigma_v1m: float = 0.0
    sigma_v12: float = 0.0


# Frame counts keep one iteration near 1-2 s, so a run's medians rest on
# fifteen or more iterations.
WORKLOADS = {
    "closure": Workload("closure", 1500, 0.5, 1, sigma_v1m=0.7, sigma_v12=2.5),
    "bright": Workload("bright", 1000, 3.0, 2, sigma_v1m=0.7, sigma_v12=4.5),
    "file_roundtrip": Workload("file_roundtrip", 500, 0.5, 1),
}


def _frame_events_value(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    events, n_dark, _ = result
    return k, (not events and n_dark == 0)


HOOKS = [
    Hook("twophoton.experiment", "fresnel_kernel", "optics.kernel", lambda a, kw, r: r.values.nbytes),
    Hook("twophoton.biphoton", "ApertureCorrelations.from_pump", "biphoton.correlations"),
    Hook("twophoton.experiment", "joint_pdf", "patterns.joint_pdf"),
    Hook("twophoton.sensor", "_pair_cdf", "sensor.cdf"),
    Hook("twophoton.sensor", "FrameSimulator.frame_events", "sensor.draw", _frame_events_value),
    Hook("twophoton.sensor", "render_frame", "sensor.render"),
    Hook("twophoton.sensor", "write_frames", "frameio.write"),
    Hook("twophoton.frameio", "FrameFileReader.frame", "frameio.read"),
    Hook("twophoton.framepipe", "process_frame", "framepipe.reduce"),
    Hook("twophoton.framepipe", "detect_photons", "framepipe.detect"),
    Hook("twophoton.framepipe", "classify_and_filter", "framepipe.classify"),
    Hook("twophoton.framepipe", "CoincidenceAccumulator.merge", "framepipe.merge"),
    Hook("twophoton.framepipe", "finalize", "framepipe.finalize"),
    Hook("twophoton.experiment", "recover_visibilities", "experiment.recover"),
    Hook("twophoton.cli", "recover_visibilities", "experiment.recover"),
    Hook("twophoton.experiment", "fit_fringe_visibility", "visibility.fit"),
    Hook("twophoton.experiment", "fit_joint_visibility", "visibility.fit"),
    Hook("twophoton.cli", "write_joint_csv", "frameio.report"),
    Hook("twophoton.cli", "write_pattern_csv", "frameio.report"),
    Hook("twophoton.cli", "write_pgm", "frameio.report"),
]

# Per-layer metrics that count work rather than time it: each must repeat
# exactly between iterations of one seed.
EXACT = (
    "optics.kernel_mb",
    "sensor.draw_calls_per_frame",
    "sensor.blank_fraction",
    "sensor.render_calls",
    "framepipe.reduce_calls",
    "framepipe.pair_accept_ratio",
    "frameio.read_calls",
    "frameio.file_bytes_per_frame",
)


def load_package():
    src = ROOT / "src"
    if not (src / "twophoton" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twophoton package under {src}")
    sys.path.insert(0, str(src))
    import twophoton

    if Path(twophoton.__file__).resolve().parent != (src / "twophoton").resolve():
        raise SystemExit(f"perfbench: imported twophoton from {twophoton.__file__}, not {src}")


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    frames: int
    file_bytes: int = 0


@dataclass
class Outcome:
    sample: Sample
    accumulator: object
    problems: list[str]


def accumulator_key(acc) -> tuple:
    """Everything the accumulator holds, for bit-exact comparison."""
    counters = (acc.frames_total, acc.frames_empty, acc.frames_single,
                acc.frames_pair, acc.frames_multi, acc.pairs_rejected)
    return counters, acc.matrix.tobytes(), acc.singles.tobytes()


def counter_problems(acc, frames: int) -> list[str]:
    problems = []
    if sum(acc.class_counts().values()) != acc.frames_total:
        problems.append(f"frame classes {acc.class_counts()} do not sum to {acc.frames_total}")
    if acc.frames_total != frames:
        problems.append(f"frames_total {acc.frames_total} != {frames}")
    if acc.pairs_accepted > acc.frames_pair:
        problems.append(f"accepted pairs {acc.pairs_accepted} > pair frames {acc.frames_pair}")
    if acc.pairs_accepted + acc.pairs_rejected != acc.frames_pair:
        problems.append("accepted + rejected pairs != pair frames")
    return problems


class Chain:
    """In-memory user chain: analytic_summary -> build_simulator ->
    analyze_source -> recover_visibilities (closure and bright)."""

    def __init__(self, wl: Workload, seed: int):
        from twophoton import experiment, framepipe

        self.wl = wl
        self.experiment, self.framepipe = experiment, framepipe
        self.config = experiment.ExperimentConfig(
            n_frames=wl.frames, mean_pairs=wl.mean_pairs, seed=seed
        )
        self.reference = None
        if wl.workers > 1:
            # the range split must give the single-worker accumulator exactly
            config = self.config
            sim = experiment.build_simulator(config)
            one = framepipe.analyze_source(sim, config.analysis_config(), workers=1)
            self.reference = accumulator_key(one.accumulator)

    def run(self, region) -> Outcome:
        exp, fp, config = self.experiment, self.framepipe, self.config
        with region:
            t0 = time.perf_counter()
            summary = exp.analytic_summary(config)
            sim = exp.build_simulator(config, summary.psi)
            t1 = time.perf_counter()
            result = fp.analyze_source(sim, config.analysis_config(), workers=self.wl.workers)
            recovered = exp.recover_visibilities(result, config.fringe_period)
            t2 = time.perf_counter()

        acc = result.accumulator
        problems = counter_problems(acc, self.wl.frames)
        expected = exp.visibilities_from_psi(summary.psi)
        scale = 5.0 / max(acc.pairs_accepted, 1) ** 0.5
        if abs(recovered.v1m - expected.v1m) > self.wl.sigma_v1m * scale:
            problems.append(f"V1m {recovered.v1m:.4f} vs analytic {expected.v1m:.4f}")
        if abs(recovered.v12 - expected.v12) > self.wl.sigma_v12 * scale:
            problems.append(f"V12 {recovered.v12:.4f} vs analytic {expected.v12:.4f}")
        if self.reference is not None and accumulator_key(acc) != self.reference:
            problems.append(f"workers={self.wl.workers} accumulator differs from workers=1")
        return Outcome(Sample(t2 - t0, t1 - t0, self.wl.frames), acc, problems)


class SetupMarker:
    """Records when ``twophoton.cli.build_simulator`` returns: the end of
    set-up inside ``simulate``.  One call per iteration, so it costs nothing
    measurable."""

    def __init__(self):
        from twophoton import cli

        self.cli, self.original, self.at = cli, cli.build_simulator, None

        def marked(*args, **kwargs):
            sim = self.original(*args, **kwargs)
            self.at = time.perf_counter()
            return sim

        cli.build_simulator = marked

    def restore(self):
        self.cli.build_simulator = self.original


class RoundTrip:
    """``twophoton simulate`` then ``twophoton analyze`` in-process, through a
    BIFR file in a fresh temporary directory of the checkout."""

    def __init__(self, wl: Workload, seed: int):
        from twophoton import cli, experiment, frameio, framepipe

        self.wl, self.cli, self.frameio, self.framepipe = wl, cli, frameio, framepipe
        config = experiment.ExperimentConfig(n_frames=wl.frames, mean_pairs=wl.mean_pairs, seed=seed)
        self.config = config
        self.config_text = f"n_frames = {wl.frames}\nmean_pairs = {wl.mean_pairs}\nseed = {seed}\n"
        cam = config.camera
        need = wl.frames * cam.width * cam.height * 2 + DISK_MARGIN
        free = shutil.disk_usage(ROOT).free
        if free < need:
            raise SystemExit(f"perfbench: {free} B free, file_roundtrip needs {need} B")
        sim = experiment.build_simulator(config)
        ref = framepipe.analyze_source(sim, config.analysis_config())
        rec = experiment.recover_visibilities(ref, config.fringe_period)
        self.reference = accumulator_key(ref.accumulator)
        self.report = {"v1m": rec.v1m, "v12": rec.v12, "pairs_accepted": ref.accumulator.pairs_accepted,
                       "pairs_rejected": ref.accumulator.pairs_rejected, "frames_total": ref.accumulator.frames_total,
                       **{f"frames_{k}": v for k, v in ref.accumulator.class_counts().items()}}
        self.marker = SetupMarker()

    def close(self):
        self.marker.restore()

    def run(self, region) -> Outcome:
        tmp = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT))
        try:
            return self._run(tmp, region)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _run(self, tmp: Path, region) -> Outcome:
        cfg = tmp / "run.cfg"
        cfg.write_text(self.config_text)
        frames_file = tmp / "sim" / "frames.bifr"
        simulate = ["simulate", "--config", str(cfg), "--out", str(tmp / "sim")]
        analyze = ["analyze", str(frames_file), "--config", str(cfg), "--out", str(tmp / "ana")]
        self.marker.at = None
        with region as tracer, contextlib.redirect_stdout(io.StringIO()):
            span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
            t0 = time.perf_counter()
            with span("cli.simulate"):
                rc_sim = self.cli.main(simulate)
            with span("cli.analyze"):
                rc_ana = self.cli.main(analyze)
            t2 = time.perf_counter()
        if rc_sim != 0 or rc_ana != 0:
            raise RuntimeError(f"simulate exited {rc_sim}, analyze exited {rc_ana}")
        if self.marker.at is None:
            raise RuntimeError("simulate did not call build_simulator")
        file_bytes = frames_file.stat().st_size

        rebuilt = self.framepipe.analyze_source(
            self.frameio.FrameFileReader(frames_file), self.config.analysis_config()
        )
        acc = rebuilt.accumulator
        problems = counter_problems(acc, self.wl.frames)
        if accumulator_key(acc) != self.reference:
            problems.append("accumulator from the BIFR file differs from the in-memory one")
        report = json.loads((tmp / "ana" / "analysis.json").read_text())
        for key, want in self.report.items():
            if report.get(key) != want:
                problems.append(f"analysis.json {key} = {report.get(key)!r}, expected {want!r}")
        sample = Sample(t2 - t0, self.marker.at - t0, self.wl.frames, file_bytes)
        return Outcome(sample, acc, problems)


@contextlib.contextmanager
def traced_region(tracer: Tracer, iteration: int):
    """Hooks installed for the timed part of one iteration only."""
    tracer.iteration = iteration
    tracer.install(HOOKS)
    try:
        with tracer.span("iteration"):
            yield tracer
    finally:
        tracer.restore()


def layer_metrics(spans, sample: Sample, acc, absent: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; layers not reached read 0."""
    by_name = summarize(spans)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    frames = sample.frames
    draws = [s for s in spans if s.name == "sensor.draw"]
    blank = {k for k, is_blank in (s.value for s in draws) if is_blank}
    write_s = self_s("frameio.write")
    kernel_bytes = sum(s.value for s in spans if s.name == "optics.kernel")
    values = {
        "optics.kernel_s": ("optics.kernel", self_s("optics.kernel")),
        "optics.kernel_mb": ("optics.kernel", kernel_bytes / 1e6),
        "biphoton.correlations_s": ("biphoton.correlations", self_s("biphoton.correlations")),
        "patterns.joint_pdf_s": ("patterns.joint_pdf", self_s("patterns.joint_pdf")),
        "sensor.cdf_s": ("sensor.cdf", self_s("sensor.cdf")),
        "sensor.draw_s": ("sensor.draw", self_s("sensor.draw")),
        "sensor.draw_calls_per_frame": ("sensor.draw", len(draws) / frames),
        "sensor.blank_fraction": ("sensor.draw", len(blank) / frames),
        "sensor.render_s": ("sensor.render", self_s("sensor.render")),
        "sensor.render_calls": ("sensor.render", calls("sensor.render")),
        "framepipe.reduce_s": ("framepipe.reduce", self_s("framepipe.reduce")),
        "framepipe.reduce_calls": ("framepipe.reduce", calls("framepipe.reduce")),
        "framepipe.detect_s": ("framepipe.detect", self_s("framepipe.detect")),
        "framepipe.classify_s": ("framepipe.classify", self_s("framepipe.classify")),
        "framepipe.merge_s": ("framepipe.merge", self_s("framepipe.merge")),
        "framepipe.pair_accept_ratio": (None, acc.pairs_accepted / max(acc.frames_pair, 1)),
        "framepipe.finalize_s": ("framepipe.finalize", self_s("framepipe.finalize")),
        "experiment.recover_s": ("experiment.recover", self_s("experiment.recover")),
        "visibility.fit_s": ("visibility.fit", self_s("visibility.fit")),
        "frameio.write_s": ("frameio.write", write_s),
        "frameio.write_mb_per_s": ("frameio.write", sample.file_bytes / 1e6 / write_s if write_s else 0.0),
        "frameio.read_s": ("frameio.read", self_s("frameio.read")),
        "frameio.read_calls": ("frameio.read", calls("frameio.read")),
        "frameio.report_s": ("frameio.report", self_s("frameio.report")),
        "frameio.file_bytes_per_frame": (None, sample.file_bytes / frames),
        "cli.simulate_s": (None, total_s("cli.simulate")),
        "cli.analyze_s": (None, total_s("cli.analyze")),
    }
    return {name: v for name, (span, v) in values.items() if span not in absent}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(wl: Workload, seed: int, why: str) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "why": why,
        "seed": seed,
        "frames": wl.frames,
        "mean_pairs": wl.mean_pairs,
        "workers": wl.workers,
    }


def spread(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        out["p90"] = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(args, spec) -> int:
    wl = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    runner = RoundTrip(wl, args.seed) if wl.name == "file_roundtrip" else Chain(wl, args.seed)
    tracer = Tracer() if args.trace else None
    plain: list[Sample] = []
    traced: list[tuple[Sample, dict]] = []
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    try:
        while True:
            is_traced = tracer is not None and attempted % 2 == 1
            attempted += 1
            t_iter = time.perf_counter()
            region = traced_region(tracer, attempted) if is_traced else contextlib.nullcontext()
            try:
                outcome = runner.run(region)
            except Exception as exc:  # an iteration that raises is a failed operation
                failed += 1
                problems.append(f"iteration {attempted}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                outcome = None
            if outcome is not None:
                if outcome.problems:
                    failed += 1
                    problems.extend(f"iteration {attempted}: {p}" for p in outcome.problems)
                elif is_traced:
                    layer = layer_metrics(tracer.drain(), outcome.sample, outcome.accumulator, tracer.absent)
                    traced.append((outcome.sample, layer))
                else:
                    plain.append(outcome.sample)
            last = time.perf_counter() - t_iter
            elapsed = time.perf_counter() - start
            done = plain and (tracer is None or traced)
            if elapsed + last > args.seconds and (done or failed):
                break
    finally:
        if isinstance(runner, RoundTrip):
            runner.close()

    detail = {"provenance": provenance(wl, args.seed, why), "attempted": attempted,
              "failed": failed, "problems": problems}
    metrics: dict[str, float] = {}
    if plain:
        e2e = {
            "wall_s": [s.wall_s for s in plain],
            "setup_s": [s.setup_s for s in plain],
            "frames_per_s": [s.frames / (s.wall_s - s.setup_s) for s in plain],
        }
        detail["end_to_end"] = {k: spread(v) for k, v in e2e.items()}
        detail["exact"] = {"frameio.file_bytes_per_frame": plain[0].file_bytes / plain[0].frames}
        if tracer is None:
            metrics = {k: statistics.median(v) for k, v in e2e.items()}
            metrics["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None and traced and plain:
        first = traced[0][1]
        metrics = {k: v if k in EXACT else statistics.median(layer[k] for _, layer in traced)
                   for k, v in first.items()}
        metrics["trace.overhead_s"] = (
            statistics.median(s.wall_s for s, _ in traced) - statistics.median(s.wall_s for s in plain)
        )
        detail["exact"] = {k: first[k] for k in EXACT if k in first}
        detail["absent"] = sorted(tracer.absent)
        for i, (_, layer) in enumerate(traced[1:], start=2):
            moved = [k for k in detail["exact"] if layer[k] != first[k]]
            if moved:
                failed += 1
                problems.append(f"traced iteration {i}: exact counts changed: {moved}")
    key = "per_layer" if tracer is not None else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    if metrics and set(metrics) - set(declared):
        raise SystemExit(f"perfbench: undeclared metrics {sorted(set(metrics) - set(declared))}")
    detail["failed"] = failed
    print(json.dumps(detail))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    # SIGTERM unwinds like an exception, so temporary directories are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
