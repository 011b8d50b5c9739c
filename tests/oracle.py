"""Independent references the package's results are tested against.

``coincidence_expanded`` and ``excess_product`` are the second closed forms
of ``patterns``' module docstring: the four-term cosine expansion of G2 and
the product form of the excess pattern, which ``coincidence_pattern`` and
``excess_closed_form`` must equal pointwise.

``expected_accumulator(config, psi, n_frames)`` is the noise-free mean
accumulator of a simulated frame stream, built from the closed forms alone,
with no frame drawn or reduced.  A frame whose photons leave exactly two
survivors yields a candidate pair: a true pair with probability 1 - eps,
with its columns drawn from the pair density P of ``joint_pdf``, and
otherwise two photons of different pairs, each drawn from P's marginal m
(eps is ``accidental_fraction``).  The vertical filter then accepts the
pair with ``vertical_acceptance`` of its column separation.  So the
expected count of a cell off the near-diagonal band is

    n_frames * P(two survivors) * acceptance * 2 ((1 - eps) P + eps m (x) m),

the factor 2 because both orders of a pair's columns are counted.  The
band, where two photons merge into one patch, holds zeros; the diagonal
holds each accepted pair's two self-terms.  Nothing else is modelled, and
one term left out is not small: a frame of three survivors, two of which
merge into one patch, is a two-event frame too.  At mean_pairs 2 to 3 the
oracle predicts about 1.3% fewer accepted pairs than the Monte Carlo makes,
an offset that a Poisson test of the pair count resolves at about 300,000
frames.  Dark pixels touching a patch are rare enough to leave out.

``acceptance_matrix(cam)`` is that per-cell acceptance as a dense matrix,
and ``corrected_matrix(acc, cam)`` the dense acceptance-corrected counts,
the raw counts over it: the references that the package's list of observed
cells, built from a per-separation profile, is checked against.

``records`` and ``scatter`` convert between dense uint16 frames and the
``(key, value)`` records a frame source hands ``framepipe.analyze_source``,
with plain numpy indexing.

``write_v1`` is the dense version-1 BIFR writer, which the package reads but
no longer writes; ``v2_to_v1`` converts a file to it frame by frame, to a
file or to a stream of bytes, and
``write_v2`` writes any frame source (a simulator, or a reader of either
version) through the package's version-2 writer.  ``read_pattern_csv``
reads the 1-D CSVs the command line writes.
"""

import numpy as np

from twophoton.experiment import joint_pdf
from twophoton.frameio import FrameFileHeader, FrameFileReader, write_frames
from twophoton.framepipe import CoincidenceAccumulator, accidental_fraction, vertical_acceptance
from twophoton.patterns import _roi_slice


def records(frames: np.ndarray, rows: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The records of rows ``rows = (v0, v1)`` of a stack of dense frames:
    the flat indices of its nonzero pixels and their values."""
    block = np.ascontiguousarray(frames[:, rows[0] : rows[1]])
    key = np.flatnonzero(block)
    return key, block.ravel()[key]


def scatter(key: np.ndarray, value: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The dense uint16 block of ``shape`` that records ``(key, value)`` describe."""
    block = np.zeros(shape, dtype=np.uint16)
    block.reshape(-1)[key] = value
    return block


def v1_bytes(width: int, height: int, frames, frame_count: int):
    """The bytes of a version-1 BIFR file, a frame at a time: the header,
    then every frame row-major as u16."""
    yield FrameFileHeader(width, height, frame_count, version=1).pack()
    for frame in frames:
        yield np.ascontiguousarray(frame, dtype="<u2").tobytes()


def write_v1(path, width: int, height: int, frames, frame_count: int) -> None:
    with open(path, "wb") as f:
        f.writelines(v1_bytes(width, height, frames, frame_count))


def v2_to_v1(src, dst=None):
    """Convert the BIFR file ``src`` to version 1 at ``dst``, or, with no
    ``dst``, return the version-1 bytes a frame at a time."""
    reader = FrameFileReader(src)
    height, width = reader.shape
    chunks = v1_bytes(width, height, map(reader.frame, range(len(reader))), len(reader))
    if dst is None:
        return chunks
    with open(dst, "wb") as f:
        f.writelines(chunks)


def write_v2(path, source, block: int = 64) -> None:
    """Write every frame of ``source`` as version 2, ``block`` frames at a time."""
    height, width = source.shape
    n = len(source)
    blocks = (
        (min(lo + block, n) - lo, *source.strip_records(lo, min(lo + block, n), (0, height)))
        for lo in range(0, n, block)
    )
    write_frames(path, width, height, blocks, n)


def read_pattern_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of a ``position_m,value`` CSV."""
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return data[:, 0], data[:, 1]


def coincidence_expanded(psi: complex, period: float, grid) -> np.ndarray:
    """Unit-sum G2 from the expansion of |cos S + psi cos D|^2:
    (1 + |psi|^2 + cos 2S + |psi|^2 cos 2D + 2 Re(psi) (cos t' + cos t'')) / 2
    with t = 2 pi x / period."""
    x = grid.positions
    t = 2 * np.pi * x / period
    m2 = abs(psi) ** 2
    v = (
        1.0
        + m2
        + np.cos(np.add.outer(t, t))
        + m2 * np.cos(np.subtract.outer(t, t))
        + 2 * np.real(psi) * np.add.outer(np.cos(t), np.cos(t))
    )
    return v / (v.sum() * grid.spacing**2)


def excess_product(v12: float, period: float, grid) -> np.ndarray:
    """Excess pattern V^2 cos t' cos t'' - V sin t' sin t'' + A, with A the
    unit-sum offset over the integer-period region of interest."""
    t = 2 * np.pi * grid.positions / period
    v = v12**2 * np.outer(np.cos(t), np.cos(t)) - v12 * np.outer(np.sin(t), np.sin(t))
    roi = _roi_slice(grid, period)
    block = v[roi, roi]
    cell = grid.spacing**2
    return v + (1.0 - block.sum() * cell) / (block.size * cell)


def two_survivor_probability(mean_pairs: float, quantum_efficiency: float) -> float:
    """P(exactly two of a frame's photons survive), for Poisson pair counts."""
    k = np.arange(1, int(mean_pairs + 12 * np.sqrt(mean_pairs)) + 65)
    log_poisson = -mean_pairs + k * np.log(mean_pairs) - np.cumsum(np.log(k))
    eta = quantum_efficiency
    return float(np.sum(np.exp(log_poisson) * k * (2 * k - 1) * eta**2 * (1 - eta) ** (2 * k - 2)))


def acceptance_matrix(cam) -> np.ndarray:
    """Per-cell acceptance of ``cam``: ``vertical_acceptance`` of the
    column separation, 0 on the band |delta col| <= ``cam.patch_size``."""
    idx = np.arange(cam.width)
    dc = np.abs(np.subtract.outer(idx, idx))
    accept = vertical_acceptance(dc, cam.strip_height)
    accept[dc <= cam.patch_size] = 0.0
    return accept


def corrected_matrix(acc, cam) -> tuple[np.ndarray, np.ndarray]:
    """Dense acceptance-corrected counts of ``acc`` and the acceptance: each
    count over its cell's acceptance, 0 where that is 0."""
    accept = acceptance_matrix(cam)
    counts = np.divide(acc.matrix, accept, out=np.zeros_like(accept), where=accept > 0)
    return counts, accept


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
    accept = acceptance_matrix(cam)
    pairs = n_frames * two_survivor_probability(config.mean_pairs, eta)
    off = pairs * accept * (mix + mix.T)
    acc = CoincidenceAccumulator(cam.width, matrix=off + np.diag(off.sum(axis=1)))
    acc.frames_total = n_frames
    # a frame is empty when no photon of its pairs survives
    acc.frames_empty = n_frames * np.exp(-config.mean_pairs * (1 - (1 - eta) ** 2))
    return acc
