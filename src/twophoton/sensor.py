"""Monte Carlo photon-pair generation and synthetic camera frames.

Pairs of pixel columns are drawn from a discrete joint probability density
on the camera's pixel grid, thinned by the quantum efficiency, given a row
inside the readout strip, and rendered as small above-threshold analog
patches on the pixel raster, the way an intensified camera registers single
photons.

Frame ``k`` of a run reads its own numpy PCG64 stream, seeded by
``SeedSequence(entropy=seed, spawn_key=(k,))``.  ``frame_events`` and
``render_frame`` draw one frame through a ``np.random.Generator``: they are
the reference.  ``FrameSimulator`` draws a whole block of frames at once
with array arithmetic on the same streams, bit for bit:

* the seed-only stages of the ``SeedSequence`` pool hash are computed once
  per seed, and k is mixed in as uint32 arithmetic over every frame of the
  block; PCG64's ``srandom_r`` seeding then runs on (hi, lo) uint64 limbs;
* output word j of a stream is xsl_rr(A_j s + C_j inc) mod 2**128, with
  A_j = M**j and C_j = sum of M**i for i < j (LCG jump-ahead: F. Brown,
  Trans. Am. Nucl. Soc. 71, 1994); every word is computed by jump-ahead
  where a draw reads it;
* the words are decoded in numpy's draw order: doubles as
  (u >> 11) * 2**-53, Poisson counts by its multiplication method,
  uniforms as low + (high - low) * d, bounded integers from buffered
  uint32 halves by Lemire's method, rejections included;
* patches and dark pixels combine by maximum into sorted, unique (flat
  index, value) records of the block's lit pixels.  ``strip_records`` hands
  them to the reduction and ``write`` to a BIFR file; only ``frame`` builds
  a dense frame.

The block draw's domain: both Poisson rates below 10 (numpy switches to
PTRS there), at most 2**32 frames (a frame index is one uint32 word of its
seed), any seed >= 0.  One frame of each 64-frame sub-block of a block is
replayed through a real ``np.random.Generator``; a different final
generator state raises ``StreamMismatchError``, so a numpy whose streams
changed cannot pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, StreamMismatchError
from .frameio import write_frames
from .optics import SpatialGrid
from .patterns import JointPattern2D

FULL_SCALE = 65535
# numpy draws Poisson counts below this rate by its multiplication method
POISSON_MULT_LIMIT = 10.0
# frames drawn per call and handed to the reduction together; results do not
# depend on it.  framepipe labels a block in chunks of bounded size.
_BLOCK = 1024
# the run-time check replays one frame per this many drawn, counted from the
# block's first frame
_CHECK_EVERY = 64


def require_finite(record) -> None:
    """Raise ``InvalidParameterError`` naming a NaN or infinite float field."""
    for f in fields(record):
        if isinstance(value := getattr(record, f.name), float) and not np.isfinite(value):
            raise InvalidParameterError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class CameraModel:
    """Geometry, gain statistics, and readout strip of the synthetic camera.

    Analog levels are fractions of the 16-bit full scale.  A photon patch
    has its peak drawn from ``peak_range`` and each neighbor at a
    ``neighbor_range`` fraction of that peak, so the peak pixel is the
    strict patch maximum.  Dark events are single above-threshold pixels,
    which the analysis's ``min_patch`` cut rejects unless patch_size is 1.
    The quantum efficiency lies in (0, 1]: a camera that detects nothing
    has no pair rate to estimate.
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
        require_finite(self)
        if self.width < 2 or self.height < 2:
            raise InvalidParameterError("frame width and height must be >= 2")
        if self.pitch <= 0:
            raise InvalidParameterError("pixel pitch must be positive")
        if not 0 < self.quantum_efficiency <= 1:
            raise InvalidParameterError("quantum efficiency must be in (0, 1]")
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
    if not 0 < total < np.inf:
        raise InvalidParameterError("pdf total mass must be positive and finite")
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
) -> np.ndarray:
    """Render photon events and dark spikes into a uint16 analog frame.

    Each event deposits a patch whose maximum sits at the event pixel with
    strictly smaller neighbors; overlapping deposits combine by maximum.
    Dark events are single pixels drawn uniformly over the frame.

    ``rows = (v0, v1)`` renders only frame rows v0..v1-1: the random draws
    are those of the whole frame, so the result equals ``frame[v0:v1]`` of
    the full rendering bit for bit.  The default window is the whole frame.
    """
    v0, v1 = (0, camera.height) if rows is None else rows
    if not 0 <= v0 <= v1 <= camera.height:
        raise InvalidParameterError(f"row window {rows} outside the frame")
    out = np.zeros((v1 - v0, camera.width), dtype=np.uint16)
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


# ---------------------------------------------------------------------------
# PCG64 streams of a block of frames, by array arithmetic
# ---------------------------------------------------------------------------

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _M64))


def _hash_constants(const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n (xor, multiply) constant pairs of a SeedSequence hash that
    starts at ``const``, as uint32 columns."""
    xor = []
    for _ in range(n + 1):
        xor.append(const)
        const = const * mult & _M32
    return np.array(xor[:-1], np.uint32)[:, None], np.array(xor[1:], np.uint32)[:, None]


# generate_state(4, np.uint64) hashes the pool cyclically into eight uint32 words
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    u = a1 * b0 + ((a0 * b0) >> 32)
    v = a0 * b1 + (u & _M32)
    return a1 * b1 + (u >> 32) + (v >> 32)


def _mul128(a, x):
    """a * x mod 2**128 for (hi, lo) pairs of uint64 arrays."""
    (ahi, alo), (xhi, xlo) = a, x
    return _mulhi64(alo, xlo) + ahi * xlo + alo * xhi, alo * xlo


def _add128(a, b):
    """a + b mod 2**128 for (hi, lo) pairs of uint64 arrays."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output: hi ^ lo rotated right by the state's top six bits."""
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _seed_pool(seed: int) -> tuple[np.ndarray, ...]:
    """Constants of the last stage of ``SeedSequence(entropy=seed,
    spawn_key=(k,))``'s pool hash, the only one k enters.

    Every uint32 word of the seed is assembled, padded with zeros to the
    four-word pool as numpy pads it when a spawn key follows, and mixed.
    Mixing k into pool word d is then ``mix(pool[d], hashmix(k))``, that is
    ``base[d] - MIX_MULT_R * v`` with ``v = (k ^ xor[d]) * mult[d]`` each
    xor-shifted by 16; the three are returned as uint32 columns.
    """

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    const = _INIT_A
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    base = np.array([_MIX_MULT_L * w & _M32 for w in pool], np.uint32)[:, None]
    return (*_hash_constants(const, _MULT_A, 4), base)


def _pcg64_seeds(pool: tuple[np.ndarray, ...], k: np.ndarray):
    """Seeded PCG64 (state, inc) of ``SeedSequence(entropy=seed,
    spawn_key=(k,))`` for a uint32 array of frame indices k, each a (hi, lo)
    pair of uint64 arrays; ``pool`` is ``_seed_pool(seed)``."""
    xor, mult, base = pool
    v = (k ^ xor) * mult
    v = base - _MIX_MULT_R * (v ^ v >> 16)
    mixed = np.tile(v ^ v >> 16, (2, 1))
    xor, mult = _STATE_HASH
    v = (mixed ^ xor) * mult
    v = (v ^ v >> 16).astype(np.uint64)
    w0, w1, w2, w3 = v[0::2] | v[1::2] << 32
    # srandom_r: state 0, step (state = inc), add the seed (w0, w1), step
    inc = ((w2 << 1) | (w3 >> 63), (w3 << 1) | 1)
    return _add128(_mul128(_PCG_MULT_LIMBS, _add128(inc, (w0, w1))), inc), inc


@lru_cache(maxsize=None)
def _jump_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 limbs of A_0..A_{size-1} followed by C_0..C_{size-1}:
    j LCG steps take a state s to A_j s + C_j inc mod 2**128."""
    a, c, factors = 1, 0, [[], []]
    for _ in range(size):
        factors[0].append(a)
        factors[1].append(c)
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
    both = factors[0] + factors[1]
    hi = np.array([v >> 64 for v in both], np.uint64)
    lo = np.array([v & _M64 for v in both], np.uint64)
    hi.flags.writeable = lo.flags.writeable = False  # shared by every caller
    return hi, lo


def _steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A jump table covering steps 0..n."""
    return _jump_table(1 << max(n.bit_length(), 8))


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index within owner) of ``counts[i]`` items per owner i."""
    owner = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - start[owner]


def _poisson_chunk(lam: float) -> int:
    """Doubles a Poisson(lam) draw reads in one pass; a count past it reads on."""
    return int(lam + 4 * math.sqrt(lam)) + 2 if lam > 0 else 0


class _BlockStreams:
    """The PCG64 streams of a block of frames, read in numpy's draw order.

    ``state`` and ``inc`` are the streams' seeded (hi, lo) uint64 limbs.
    Word p of stream f is the (p+1)-th ``random_raw`` output of its
    generator, computed by jump-ahead where a draw reads it.  Each stream
    keeps its read position ``pos`` and numpy's buffered uint32 half
    (``carry``, ``half``), the ``has_uint32`` state of its generator.
    """

    def __init__(self, state, inc):
        n = state[0].size
        # every stream's state, then every stream's inc, as (hi, lo)
        self.seeds = np.concatenate([state[0], inc[0]]), np.concatenate([state[1], inc[1]])
        self.pos = np.zeros(n, dtype=np.int64)
        self.carry = np.zeros(n, dtype=np.int64)
        self.half = np.zeros(n, dtype=np.uint64)

    def words(self, f: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Words p of streams f, arrays of one shape, by jump-ahead:
        A_{p+1} s_f and C_{p+1} inc_f in one 128-bit product, then their sum."""
        shape, f, p = p.shape, f.ravel(), p.ravel()
        hi, lo = _steps(int(p.max(initial=0)) + 1)
        step = p + 1
        table = np.concatenate([step, step + hi.size // 2])
        seed = np.concatenate([f, f + self.pos.size])
        hi, lo = _mul128((hi[table], lo[table]), (self.seeds[0][seed], self.seeds[1][seed]))
        return _xsl_rr(*_add128((hi[: p.size], lo[: p.size]), (hi[p.size :], lo[p.size :]))).reshape(shape)

    def doubles(self, f: np.ndarray, p: np.ndarray) -> np.ndarray:
        """numpy's doubles from words p of streams f: (u >> 11) * 2**-53."""
        return (self.words(f, p) >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)

    def final_state(self, f: int) -> tuple[int, int]:
        """Stream f's generator (state, inc) after the words read so far."""
        p, n = self.pos[f], self.pos.size
        hi, lo = _steps(int(p))
        a, c = ((int(hi[i]) << 64) | int(lo[i]) for i in (p, p + hi.size // 2))
        state, inc = ((int(self.seeds[0][i]) << 64) | int(self.seeds[1][i]) for i in (f, f + n))
        return (a * state + c * inc) & _M128, inc

    def poisson(self, lam: float) -> np.ndarray:
        """Poisson(lam) counts, lam < 10, of every stream by numpy's
        multiplication method: the count is how many running products of
        doubles stay above exp(-lam); the first at or below it ends the draw."""
        count = np.zeros(self.pos.size, dtype=np.int64)
        if lam == 0:
            return count
        limit, chunk = math.exp(-lam), _poisson_chunk(lam)
        prod = np.ones(count.size)
        live = np.arange(count.size)
        while live.size:
            p = (self.pos[live] + count[live])[:, None] + np.arange(chunk)
            u = self.doubles(np.broadcast_to(live[:, None], p.shape), p)
            u[:, 0] *= prod[live]
            run = np.cumprod(u, axis=1)
            stop = run <= limit
            done = stop.any(axis=1)
            count[live] += np.where(done, stop.argmax(axis=1), chunk)
            prod[live] = run[:, -1]
            live = live[~done]
        self.pos += count + 1
        return count

    def bounded(self, f: np.ndarray, count: np.ndarray, n: int) -> np.ndarray:
        """``count[i]`` >= 1 integers in [0, n) from stream ``f[i]``, as numpy's
        ``integers`` draws them: buffered uint32 halves, low then high, through
        Lemire's (u * n) >> 32, redrawing a half whose low product word falls
        below 2**32 mod n.  One range (n = 1) reads nothing."""
        if n == 1 or f.size == 0:
            return np.zeros(int(count.sum()), dtype=np.int64)
        threshold = (1 << 32) % n
        take = count
        while True:
            owner, t = _ragged(take)
            g = f[owner]
            fresh = t - self.carry[g]
            w = self.words(g, self.pos[g] + np.maximum(fresh, 0) // 2)
            half = np.where(fresh & 1, w >> 32, w & _M32)
            half = np.where(fresh < 0, self.half[g], half)
            m = half * np.uint64(n)
            ok = (m & _M32) >= threshold
            if threshold == 0:
                break
            short = count - np.bincount(owner[ok], minlength=f.size)
            if not short.any():
                break
            take = take + short
        fresh = take - self.carry[f]
        self.pos[f] += (fresh + 1) // 2
        self.half[f] = np.where(fresh & 1, w[np.cumsum(take) - 1] >> 32, self.half[f])
        self.carry[f] = fresh & 1
        return (m[ok] >> 32).astype(np.int64)


@dataclass
class FrameSimulator:
    """Deterministic frame stream for a joint coincidence density.

    The pattern must be sampled on ``camera.pixel_grid()``: its cells are the
    camera's pixel columns.  Frame ``k`` is a pure function of (pattern,
    camera, mean_pairs, seed, k): every frame reads its own PCG64 stream,
    seeded by the master seed and the frame index, so generation
    parallelizes over frame ranges without changing the output.

    Frames are drawn a block at a time by array arithmetic on those streams
    (see the module docstring), equal bit for bit to ``frame_events`` and
    ``render_frame`` frame by frame.  The domain is ``mean_pairs`` and
    ``camera.dark_rate`` below 10, at most 2**32 frames and any seed >= 0;
    outside it the constructor raises ``InvalidParameterError``.
    """

    pattern: JointPattern2D
    camera: CameraModel
    n_frames: int
    mean_pairs: float
    seed: int
    _cdf: np.ndarray = field(init=False, repr=False)
    _pool: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.n_frames, self.seed) < 0 or not 0 <= self.mean_pairs < np.inf:
            raise InvalidParameterError("n_frames and seed must be >= 0, mean_pairs in [0, inf)")
        if max(self.mean_pairs, self.camera.dark_rate) >= POISSON_MULT_LIMIT:
            raise InvalidParameterError(
                "mean_pairs and the camera's dark_rate must be below 10, where numpy "
                "draws Poisson counts by its multiplication method"
            )
        if self.n_frames > 1 << 32:
            raise InvalidParameterError("n_frames must be at most 2**32: a frame index is one uint32 word")
        if self.pattern.grid != self.camera.pixel_grid():
            raise InvalidParameterError(
                f"pattern grid {self.pattern.grid} is not the camera's pixel grid "
                f"{self.camera.pixel_grid()}"
            )
        self._cdf = _pair_cdf(self.pattern)
        self._pool = _seed_pool(int(self.seed))

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

    def _draw_block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``strip_records`` of every row of frames ``lo..hi-1``, drawn
        together in numpy's order: pair count, pair cells, two unused doubles
        per pair, detection, strip rows, dark count, patches (peak, then each
        pixel inside the frame), and per dark pixel its row, column and
        level."""
        cam, n = self.camera, hi - lo
        h, w = cam.height, cam.width
        k = np.arange(lo, hi, dtype=np.int64).astype(np.uint32)
        st = _BlockStreams(*_pcg64_seeds(self._pool, k))
        n_pairs = st.poisson(self.mean_pairs)
        pair_frame, j = _ragged(n_pairs)
        base = st.pos[pair_frame]
        cell = np.searchsorted(self._cdf, st.doubles(pair_frame, base + j), side="right")
        cols = np.column_stack(np.divmod(np.minimum(cell, w * w - 1), w)).ravel()
        photon_frame = np.repeat(pair_frame, 2)
        q = (2 * j[:, None] + np.arange(2)).ravel()
        detect = base.repeat(2) + 3 * n_pairs[photon_frame] + q
        kept = st.doubles(photon_frame, detect) < cam.quantum_efficiency
        st.pos += 5 * n_pairs
        ev_frame, ev_col = photon_frame[kept], cols[kept]
        n_events = np.bincount(ev_frame, minlength=n)
        lit = np.flatnonzero(n_events)
        ev_row = cam.strip_rows[0] + st.bounded(lit, n_events[lit], cam.strip_height)
        n_dark = st.poisson(cam.dark_rate)

        # patches: the peak double, then one per patch pixel inside the frame
        half = cam.patch_size // 2
        d = np.arange(-half, half + 1)
        rr = ev_row[:, None] + np.repeat(d, d.size)
        cc = ev_col[:, None] + np.tile(d, d.size)
        inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        size = 1 + inside.sum(axis=1)
        patch_words = np.bincount(ev_frame, weights=size, minlength=n).astype(np.int64)
        before = np.cumsum(size) - size
        first = np.cumsum(n_events) - n_events
        start = st.pos[ev_frame] + before - before[first[ev_frame]]
        plo, phi = cam.peak_range
        peak = (plo + (phi - plo) * st.doubles(ev_frame, start)) * FULL_SCALE
        e, o = np.nonzero(inside)
        at = start[e] + np.cumsum(inside, axis=1)[e, o]
        nlo, nhi = cam.neighbor_range
        level = (nlo + (nhi - nlo) * st.doubles(ev_frame[e], at)) * peak[e]
        center = o == d.size**2 // 2
        level[center] = peak[e[center]]
        st.pos += patch_words
        frames, pixels, values = [ev_frame[e]], [rr[e, o] * w + cc[e, o]], [level.astype(np.uint16)]

        # dark pixels, the i-th of every frame together: row, column, level
        for i in range(int(n_dark.max(initial=0))):
            g = np.flatnonzero(n_dark > i)
            one = np.ones(g.size, dtype=np.int64)
            r = st.bounded(g, one, h)
            c = st.bounded(g, one, w)
            u = st.doubles(g, st.pos[g])
            st.pos[g] += 1
            frames.append(g)
            pixels.append(r * w + c)
            # uniform(0.3, 1.0), as render_frame draws a dark level
            values.append(((0.3 + (1.0 - 0.3) * u) * FULL_SCALE).astype(np.uint16))

        self._check_stream(lo, st, ev_frame, ev_row, ev_col, n_dark)
        key = np.concatenate(frames) * (h * w) + np.concatenate(pixels)
        order = np.argsort(key)
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        value = np.maximum.reduceat(np.concatenate(values)[order], first)
        return key[first], value

    def _check_stream(self, lo, st, ev_frame, ev_row, ev_col, n_dark) -> None:
        """Replay one frame of every ``_CHECK_EVERY``-frame sub-block through
        ``np.random.Generator``: its events, dark count and final generator
        state must be the block draw's.  In each sub-block the frame is the
        shortest stream among those with the most kinds of draw (photons,
        dark pixels)."""
        kinds = (np.bincount(ev_frame, minlength=n_dark.size) > 0).astype(int) + (n_dark > 0)
        for s in range(0, n_dark.size, _CHECK_EVERY):
            e = s + _CHECK_EVERY
            f = s + int(np.lexsort((st.pos[s:e], -kinds[s:e]))[0])
            events, dark, rng = self.frame_events(lo + f)
            render_frame(events, self.camera, rng, dark, rows=(0, 0))
            got = rng.bit_generator.state
            state, inc = st.final_state(f)
            carry = int(st.carry[f])
            mine = ev_frame == f
            if (
                [(ev.row, ev.col) for ev in events] != list(zip(ev_row[mine].tolist(), ev_col[mine].tolist()))
                or dark != n_dark[f]
                or (got["state"]["state"], got["state"]["inc"], got["has_uint32"]) != (state, inc, carry)
                or (carry and got["uinteger"] != int(st.half[f]))
            ):
                raise StreamMismatchError(
                    f"frame {lo + f}: numpy's PCG64 stream differs from the block draw "
                    f"(numpy {np.__version__})"
                )

    def frame(self, k: int) -> np.ndarray:
        key, value = self.strip_records(k, k + 1, (0, self.camera.height))
        out = np.zeros(self.shape, dtype=np.uint16)
        out.reshape(-1)[key] = value
        return out

    def strip_records(self, lo: int, hi: int, rows: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Records ``(key, value)`` of rows ``rows = (v0, v1)`` of frames
        ``lo..hi-1``, as ``framepipe.analyze_source`` reads them: sorted,
        unique int64 flat indices into the ``(hi - lo, v1 - v0, width)``
        block and the uint16 values of those pixels; every other pixel is 0."""
        v0, v1 = rows
        h, w = self.shape
        if not (0 <= lo <= hi <= self.n_frames and 0 <= v0 <= v1 <= h):
            raise IndexError((lo, hi, rows))
        if lo == hi:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint16)
        key, value = self._draw_block(lo, hi)
        f, pixel = np.divmod(key, h * w)
        keep = (pixel >= v0 * w) & (pixel < v1 * w)
        return f[keep] * ((v1 - v0) * w) + pixel[keep] - v0 * w, value[keep]

    def write(self, path: str | Path) -> None:
        """Stream the whole run to a BIFR frame file, the records of a block
        at a time; no frame is made dense."""
        blocks = (
            (hi - lo, *self._draw_block(lo, hi))
            for lo in range(0, self.n_frames, _BLOCK)
            for hi in [min(lo + _BLOCK, self.n_frames)]
        )
        write_frames(path, self.camera.width, self.camera.height, blocks, self.n_frames)
