"""Monte Carlo photon-pair generation and synthetic camera frames.

Pairs of pixel columns are drawn from a discrete joint probability density
on the camera's pixel grid, thinned by the quantum efficiency, given a row
inside the readout strip, and rendered as small above-threshold analog
patches on the pixel raster, the way an intensified camera registers single
photons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .frameio import write_frames
from .optics import SpatialGrid
from .patterns import JointPattern2D

FULL_SCALE = 65535


@dataclass(frozen=True)
class CameraModel:
    """Geometry, gain statistics, and readout strip of the synthetic camera.

    Analog levels are fractions of the 16-bit full scale.  A photon patch
    has its peak drawn from ``peak_range`` and each neighbor at a
    ``neighbor_range`` fraction of that peak, so the peak pixel is the
    strict patch maximum.  Dark events are single above-threshold pixels,
    which the analysis's ``min_patch`` cut rejects unless patch_size is 1.
    """

    width: int = 512
    height: int = 512
    pitch: float = 24e-6
    quantum_efficiency: float = 0.5
    patch_size: int = 3
    peak_range: tuple[float, float] = (0.6, 1.0)
    neighbor_range: tuple[float, float] = (0.4, 0.8)
    # 0.2 keeps every patch pixel above threshold given the ranges above
    threshold: float = 0.2
    dark_rate: float = 0.05
    strip_rows: tuple[int, int] = (240, 271)

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise InvalidParameterError("frame width and height must be >= 2")
        if self.pitch <= 0:
            raise InvalidParameterError("pixel pitch must be positive")
        if not 0 <= self.quantum_efficiency <= 1:
            raise InvalidParameterError("quantum efficiency must be in [0, 1]")
        if self.threshold < 0:
            raise InvalidParameterError("threshold must be >= 0")
        if self.dark_rate < 0:
            raise InvalidParameterError("dark rate must be >= 0")
        if self.patch_size % 2 != 1 or self.patch_size < 1:
            raise InvalidParameterError("patch size must be odd and positive")
        r0, r1 = self.strip_rows
        if not (0 <= r0 <= r1 < self.height):
            raise InvalidParameterError("strip rows must lie inside the frame")
        for name in ("peak_range", "neighbor_range"):
            low, high = getattr(self, name)
            if not 0 < low <= high <= 1:
                raise InvalidParameterError(f"{name} must satisfy 0 < low <= high <= 1")
        lo = self.peak_range[0] * self.neighbor_range[0]
        if lo <= self.threshold:
            raise InvalidParameterError(
                "threshold must sit below the dimmest patch pixel "
                f"({lo:.3f} of full scale) or patches break apart"
            )

    @property
    def threshold_analog(self) -> int:
        return int(self.threshold * FULL_SCALE)

    @property
    def min_patch(self) -> int:
        """Fewest pixels of a photon patch: one clipped at a frame corner."""
        return (self.patch_size // 2 + 1) ** 2

    @property
    def strip_height(self) -> int:
        return self.strip_rows[1] - self.strip_rows[0] + 1

    def pixel_grid(self) -> SpatialGrid:
        """Horizontal pixel-center positions, centered on the optical axis."""
        half = (self.width - 1) / 2 * self.pitch
        return SpatialGrid(-half, half, self.width)


@dataclass(frozen=True)
class PhotonEvent:
    row: int
    col: int
    peak: int = 0


def _pair_cdf(pdf: JointPattern2D) -> np.ndarray:
    v = np.asarray(pdf.values, dtype=float).ravel()
    if v.min() < 0:
        if v.min() < -1e-12 * max(v.max(), 1.0):
            raise InvalidParameterError("pdf has negative entries")
        v = np.clip(v, 0.0, None)
    total = v.sum()
    if total <= 0:
        raise InvalidParameterError("pdf has zero total mass")
    return np.cumsum(v) / total


def _sample_from_cdf(
    cdf: np.ndarray, n: int, n_pairs: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_pairs, 2) cell indices of an ``n``-by-``n`` grid drawn by ``cdf``."""
    flat = np.searchsorted(cdf, rng.random(n_pairs), side="right")
    flat = np.minimum(flat, n * n - 1)
    # unused, but drawn: two doubles per pair keep every frame's stream as pinned
    rng.random((n_pairs, 2))
    return np.column_stack(np.divmod(flat, n))


def apply_detection(
    cells: np.ndarray, quantum_efficiency: float, rng: np.random.Generator
) -> np.ndarray:
    """Thin photon pairs by the quantum efficiency.

    Each photon of each pair survives independently.  Returns the surviving
    photons' entries as a flat array, pair by pair.
    """
    if not 0 <= quantum_efficiency <= 1:
        raise InvalidParameterError("quantum efficiency must be in [0, 1]")
    flat = np.asarray(cells).ravel()
    survive = rng.random(flat.size) < quantum_efficiency
    return flat[survive]


def render_frame(
    events: list[PhotonEvent],
    camera: CameraModel,
    rng: np.random.Generator,
    n_dark: int = 0,
    rows: tuple[int, int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Render photon events and dark spikes into a uint16 analog frame.

    Each event deposits a patch whose maximum sits at the event pixel with
    strictly smaller neighbors; overlapping deposits combine by maximum.
    Dark events are single pixels drawn uniformly over the frame.

    ``rows = (v0, v1)`` renders only frame rows v0..v1-1: the random draws
    are those of the whole frame, so the result equals ``frame[v0:v1]`` of
    the full rendering bit for bit.  The default window is the whole frame.
    ``out``, if given, is a zeroed uint16 array of the window's shape that
    receives the rendering.
    """
    v0, v1 = (0, camera.height) if rows is None else rows
    if not 0 <= v0 <= v1 <= camera.height:
        raise InvalidParameterError(f"row window {rows} outside the frame")
    if out is None:
        out = np.zeros((v1 - v0, camera.width), dtype=np.uint16)
    elif out.shape != (v1 - v0, camera.width) or out.dtype != np.uint16:
        raise InvalidParameterError("out must be a uint16 array of the window's shape")
    half = camera.patch_size // 2
    for ev in events:
        if not (0 <= ev.row < camera.height and 0 <= ev.col < camera.width):
            raise InvalidParameterError(f"event {ev} outside the frame")
        peak = rng.uniform(*camera.peak_range) * FULL_SCALE
        r0, r1 = max(ev.row - half, 0), min(ev.row + half, camera.height - 1)
        c0, c1 = max(ev.col - half, 0), min(ev.col + half, camera.width - 1)
        patch = rng.uniform(*camera.neighbor_range, size=(r1 - r0 + 1, c1 - c0 + 1)) * peak
        patch[ev.row - r0, ev.col - c0] = peak
        a, b = max(r0, v0), min(r1 + 1, v1)
        if a < b:
            region = out[a - v0 : b - v0, c0 : c1 + 1]
            np.maximum(region, patch[a - r0 : b - r0].astype(np.uint16), out=region)
    for _ in range(n_dark):
        r = rng.integers(0, camera.height)
        c = rng.integers(0, camera.width)
        level = int(rng.uniform(0.3, 1.0) * FULL_SCALE)
        if v0 <= r < v1:
            out[r - v0, c] = max(out[r - v0, c], level)
    return out


@dataclass
class FrameSimulator:
    """Deterministic frame stream for a joint coincidence density.

    The pattern must be sampled on ``camera.pixel_grid()``: its cells are the
    camera's pixel columns.  Frame ``k`` is a pure function of (pattern,
    camera, mean_pairs, seed, k): every frame derives its own random
    generator from the master seed and the frame index, so generation
    parallelizes over frame ranges without changing the output.
    """

    pattern: JointPattern2D
    camera: CameraModel
    n_frames: int
    mean_pairs: float
    seed: int
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_frames < 0 or self.mean_pairs < 0:
            raise InvalidParameterError("frame count and pair rate must be >= 0")
        if self.pattern.grid != self.camera.pixel_grid():
            raise InvalidParameterError(
                f"pattern grid {self.pattern.grid} is not the camera's pixel grid "
                f"{self.camera.pixel_grid()}"
            )
        self._cdf = _pair_cdf(self.pattern)

    def __len__(self) -> int:
        return self.n_frames

    @property
    def shape(self) -> tuple[int, int]:
        return self.camera.height, self.camera.width

    def _rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(k,))
        )

    def frame_events(self, k: int) -> tuple[list[PhotonEvent], int, np.random.Generator]:
        """Photon events and dark-event count for frame ``k``.

        The returned generator continues the frame's stream and must be
        passed on to the renderer for bit-reproducible frames.
        """
        rng = self._rng(k)
        cam = self.camera
        n_pairs = int(rng.poisson(self.mean_pairs))
        events: list[PhotonEvent] = []
        if n_pairs > 0:
            cells = _sample_from_cdf(self._cdf, cam.width, n_pairs, rng)
            cols = apply_detection(cells, cam.quantum_efficiency, rng)
            if cols.size:
                rows = rng.integers(cam.strip_rows[0], cam.strip_rows[1] + 1, size=cols.size)
                events = [PhotonEvent(int(r), int(c)) for r, c in zip(rows, cols)]
        n_dark = int(rng.poisson(cam.dark_rate))
        return events, n_dark, rng

    def frame(self, k: int) -> np.ndarray:
        events, n_dark, rng = self.frame_events(k)
        return render_frame(events, self.camera, rng, n_dark)

    def strip_block(self, lo: int, hi: int, rows: tuple[int, int]) -> np.ndarray:
        """Rows ``rows = (v0, v1)`` of the non-blank frames in ``[lo, hi)``.

        A ``uint16[n, v1 - v0, width]`` array holding, in index order, the
        rows ``frame(k)[v0:v1]`` bit for bit of the ``n`` frames that hold a
        photon or dark event.  Each frame's events are drawn once; blank
        frames are not rendered at all.
        """
        cam = self.camera
        block = np.zeros((max(hi - lo, 0), rows[1] - rows[0], cam.width), dtype=np.uint16)
        n = 0
        for k in range(lo, hi):
            events, n_dark, rng = self.frame_events(k)
            if events or n_dark:
                render_frame(events, cam, rng, n_dark, rows=rows, out=block[n])
                n += 1
        return block[:n]

    def iter_frames(self):
        for k in range(self.n_frames):
            yield self.frame(k)

    def write(self, path: str | Path) -> None:
        """Stream the whole run to a BIFR frame file."""
        write_frames(
            path,
            self.camera.width,
            self.camera.height,
            self.iter_frames(),
            self.n_frames,
        )

