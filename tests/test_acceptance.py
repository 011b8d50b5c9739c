"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with the measured numbers, so the
suite output doubles as an acceptance report.
"""

import dataclasses

import numpy as np

import twophoton as tp
from twophoton.framepipe import analyze_source, superpixel_bin
from twophoton.optics import SpatialGrid, fourier_2f_kernel
from twophoton.patterns import (
    coincidence_general,
    coincidence_pattern,
    intensity_general,
    single_photon_pattern,
)
from twophoton.biphoton import psi_sinc_closed_form, real_psi
from twophoton.visibility import (
    fit_joint_visibility,
    visibilities_from_psi,
)

LAMBDA = 812e-9
FOCAL = 50e-3
A = 0.7e-3
PERIOD = LAMBDA * FOCAL / A


def report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {verdict} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def two_f_config(b, **kw):
    return tp.ExperimentConfig(
        pump_width=b, mode="fourier-2f", slit_width=0.0, pump_grid_n=4096, **kw
    )


def test_criterion_1_complementarity():
    worst = 0.0
    for psi in np.linspace(-1.0, 1.0, 200):
        v = visibilities_from_psi(psi)
        worst = max(worst, abs(v.v1m**2 + v.v12**2 - 1.0))
    report(1, worst < 1e-12, f"max |V1m^2 + V12^2 - 1| = {worst:.2e} over 200 psi values")


def test_criterion_2_quadrature_matches_sinc():
    worst = 0.0
    for u in (0.25, 0.5, 1.0, 1.5):
        b = u * LAMBDA * FOCAL / A
        got = two_f_config(b).correlations().psi_effective
        want = psi_sinc_closed_form(b, A, LAMBDA, FOCAL)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    report(2, worst < 1e-6, f"max relative deviation from sinc = {worst:.2e} at n = 4096")


def test_criterion_3_duality_rectangular_pump():
    worst = 0.0
    for scale in np.linspace(0.2, 2.4, 10):
        corr = two_f_config(scale * LAMBDA * FOCAL / A).correlations()
        worst = max(worst, abs(real_psi(corr.g1) - corr.psi_effective))
    report(3, worst < 1e-9, f"max |g1 - psi| = {worst:.2e} over 10 rectangular pump widths")


def test_criterion_4_general_routes_match_closed_forms():
    config = two_f_config(0.5 * LAMBDA * FOCAL / A)
    corr = config.correlations()
    det = SpatialGrid(-4 * PERIOD, 4 * PERIOD, 256)
    # slit-plane grid with the thin slits' centers -+A/2 on nodes 10 and 30
    slit_plane = SpatialGrid(-A, A, 41)
    h2 = fourier_2f_kernel(slit_plane, det, LAMBDA, FOCAL)

    gen_i = intensity_general(h2, corr, config.slits())
    closed_i = single_photon_pattern(float(np.real(corr.g1)), PERIOD, det)
    dev_i = np.abs(gen_i.values - closed_i.values).max() / closed_i.values.max()

    gen_c = coincidence_general(h2, corr, config.slits())
    closed_c = coincidence_pattern(complex(corr.psi), PERIOD, det)
    dev_c = np.abs(gen_c.values - closed_c.values).max() / closed_c.values.max()

    ok = dev_i < 1e-12 and dev_c < 1e-12
    report(4, ok, f"256^2 pointwise deviation: intensity {dev_i:.2e}, coincidence {dev_c:.2e}")


def test_criterion_5_monte_carlo_closure(full_scale_closure):
    rec = full_scale_closure.result.recovered
    dev1 = abs(rec.v1m - 0.88235)
    dev2 = abs(rec.v12 - 0.47059)
    t = full_scale_closure.elapsed
    ok = dev1 < 0.05 and dev2 < 0.05 and t < 300.0
    report(
        5,
        ok,
        f"240,000 frames at psi = 0.6: V1m = {rec.v1m:.4f} (dev {dev1:.4f}), "
        f"V12 = {rec.v12:.4f} (dev {dev2:.4f}), runtime {t:.0f} s",
    )


def test_criterion_6_marginal_consistency(full_scale_consistency):
    r = full_scale_consistency
    report(
        6,
        r.pvalue > 0.01,
        f"chi-square {r.statistic:.1f} / {r.dof} dof on 4x4 superpixels, p = {r.pvalue:.4f}",
    )


def test_criterion_7_far_and_near_field():
    config = tp.ExperimentConfig()

    far_config = dataclasses.replace(config, distance=0.87)
    far = tp.analytic_summary(far_config)
    pats = tp.analytic_patterns(far_config, psi=far.psi, g1=far.g1)
    fit_far = fit_joint_visibility(pats["excess"], config.fringe_period)
    binned = superpixel_bin(pats["excess"].values, 4)
    flatness = (binned.max() - binned.min()) / binned.mean()

    near_config = dataclasses.replace(config, distance=0.063)
    near = tp.analytic_summary(near_config)
    pats_near = tp.analytic_patterns(near_config, psi=near.psi, g1=near.g1)
    fit_near = fit_joint_visibility(pats_near["excess"], config.fringe_period)
    ratio = abs(fit_near.amp_sum) / max(abs(fit_near.amp_diff), 1e-30)

    ok = fit_far.v12 < 0.15 and flatness < 0.10 and ratio > 10.0
    report(
        7,
        ok,
        f"d = 87 cm: V12 = {fit_far.v12:.4f}, superpixel peak-to-peak/mean = {flatness:.4f}; "
        f"d = 6.3 cm: |sum-fringe| / |diff-fringe| = {ratio:.0f}",
    )


def test_criterion_8_sweep_monotonicity_and_circle():
    config = tp.ExperimentConfig()
    points = tp.sweep(config, [0.055, 0.063, 0.30, 0.54, 0.87])
    v1m = np.array([p.v1m for p in points])
    v12 = np.array([p.v12 for p in points])
    mono = bool(np.all(np.diff(v1m) >= 0) and np.all(np.diff(v12) <= 0))
    circle = float(np.abs(v1m**2 + v12**2 - 1.0).max())
    ok = mono and circle < 1e-9
    report(
        8,
        ok,
        f"V1m {np.round(v1m, 4).tolist()} non-decreasing, V12 non-increasing: {mono}; "
        f"max circle residual {circle:.2e}",
    )


def test_criterion_9_determinism_and_merge_invariance(tmp_path):
    config = tp.ExperimentConfig(n_frames=200, seed=55)
    paths = []
    for name in ("a.bifr", "b.bifr"):
        sim = tp.build_simulator(config, psi=0.6)
        sim.write(tmp_path / name)
        paths.append((tmp_path / name).read_bytes())
    identical_files = paths[0] == paths[1]

    sim = tp.build_simulator(dataclasses.replace(config, n_frames=2000), psi=0.6)
    accs = [analyze_source(sim, sim.camera, workers=w).accumulator for w in (1, 4, 16)]
    identical_acc = all(
        np.array_equal(a.matrix, accs[0].matrix)
        and np.array_equal(a.singles, accs[0].singles)
        and a.class_counts() == accs[0].class_counts()
        for a in accs[1:]
    )
    ok = identical_files and identical_acc
    report(
        9,
        ok,
        f"identical seeds bit-identical: {identical_files}; "
        f"1/4/16-worker accumulators identical: {identical_acc}",
    )
