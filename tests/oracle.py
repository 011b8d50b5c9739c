"""Noise-free oracle: the mean accumulator of a simulated frame stream.

``expected_accumulator(config, psi, n_frames)`` is built from the closed
forms alone, with no frame drawn or reduced.  A frame whose photons leave
exactly two survivors yields a candidate pair: a true pair with probability
1 - eps, with its columns drawn from the pair density P of ``joint_pdf``,
and otherwise two photons of different pairs, each drawn from P's marginal
m (eps is ``accidental_fraction``).  The vertical filter then accepts the
pair with ``vertical_acceptance`` of its column separation.  So the
expected count of a cell off the near-diagonal band is

    n_frames * P(two survivors) * acceptance * 2 ((1 - eps) P + eps m (x) m),

the factor 2 because both orders of a pair's columns are counted.  The
band, where two photons merge into one patch, holds zeros; the diagonal
holds each accepted pair's two self-terms.  Nothing else is modelled: three
survivors of which two merge, and dark pixels touching a patch, are rare
enough to leave out.
"""

import numpy as np

from twophoton.experiment import joint_pdf
from twophoton.framepipe import CoincidenceAccumulator, accidental_fraction, vertical_acceptance


def two_survivor_probability(mean_pairs: float, quantum_efficiency: float) -> float:
    """P(exactly two of a frame's photons survive), for Poisson pair counts."""
    k = np.arange(1, int(mean_pairs + 12 * np.sqrt(mean_pairs)) + 65)
    log_poisson = -mean_pairs + k * np.log(mean_pairs) - np.cumsum(np.log(k))
    eta = quantum_efficiency
    return float(np.sum(np.exp(log_poisson) * k * (2 * k - 1) * eta**2 * (1 - eta) ** (2 * k - 2)))


def expected_accumulator(config, psi: float, n_frames: int) -> CoincidenceAccumulator:
    """Mean accumulator of ``n_frames`` frames of ``build_simulator(config, psi)``.

    Sets the pair matrix (floats), ``frames_total`` and ``frames_empty``:
    the counters that the visibility fits and the accidental estimate read.
    """
    cam = config.camera
    eta = cam.quantum_efficiency
    p = joint_pdf(config, psi).values
    p = p / p.sum()
    m = p.sum(axis=1)
    eps = accidental_fraction(config.mean_pairs, eta)
    mix = (1 - eps) * p + eps * np.outer(m, m)
    idx = np.arange(cam.width)
    dc = np.abs(np.subtract.outer(idx, idx))
    accept = vertical_acceptance(dc, cam.strip_height)
    accept[dc <= cam.patch_size] = 0.0
    pairs = n_frames * two_survivor_probability(config.mean_pairs, eta)
    off = pairs * accept * (mix + mix.T)
    acc = CoincidenceAccumulator(cam.width, matrix=off + np.diag(off.sum(axis=1)))
    acc.frames_total = n_frames
    # a frame is empty when no photon of its pairs survives
    acc.frames_empty = n_frames * np.exp(-config.mean_pairs * (1 - (1 - eta) ** 2))
    return acc
