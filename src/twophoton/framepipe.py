"""Data reduction: from the lit pixels of analog frames to a G2 estimate.

Every step reads the ``CameraModel`` whose frames it reduces.  Each frame
is thresholded, 8-connected above-threshold patches of at least the
camera's ``min_patch`` pixels become photon events located at their analog
maximum, events outside the readout strip are dropped, and frames with
exactly two remaining events whose vertical separation is less than
``RATIO`` = 1/3 of their horizontal separation contribute an outer-product
increment to the coincidence accumulator.
``acceptance_profile`` holds, once per camera and as a function of the
horizontal separation, the geometry of the vertical-separation filter: a
cell's acceptance, 0 on the resolution-limited near-diagonal band.  It is
the visibility fit's weight.  ``corrected_cells`` divides it out of the
accumulated counts at the observed cells, those of nonzero count and
positive acceptance, and everything past the accumulator reads those
cells: the fit, ``finalize``, which scatters them into a normalized joint
pattern for display and export, 0 on the cells it never observed, and
``marginal_consistency``, which tests their row sums against the
singles histogram by chi-square, with ``scipy.special.chdtrc`` as p-value.

``analyze_source`` does this for blocks of frames at once, on the strip rows
only, from the records a source gives of each block's lit pixels: sorted
flat indices and their values.  A block is labelled in chunks of whole
frames, each of at most ``_CHUNK`` records unless one frame holds more, so
the labelling's memory is bounded however many pixels a block lights.  The
records above threshold are joined to their lit 8-neighbours found by
``searchsorted`` in the sorted indices, and each connected component of that
sparse graph is a patch.
``process_frame``, which labels each dense frame with ``ndimage.label``, is
the per-frame reference it must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import ndimage, sparse, special
from scipy.sparse import csgraph

from .errors import EmptyEstimateError, InvalidParameterError
from .patterns import JointPattern2D
from .sensor import _BLOCK, FULL_SCALE, CameraModel, PhotonEvent

_CONN8 = np.ones((3, 3), dtype=int)
# records labelled together: about 29 MB of labelling at 220 B per record
_CHUNK = 2**17
# the vertical filter keeps a pair iff |delta row| < RATIO * |delta col|
RATIO = 1.0 / 3.0


def threshold_frame(frame: np.ndarray, level: int) -> np.ndarray:
    """Binary matrix: 1 where the analog value strictly exceeds ``level``."""
    if not 0 <= level <= FULL_SCALE:
        raise InvalidParameterError("threshold level outside the analog range")
    return (np.asarray(frame) > level).astype(np.uint8)


def detect_photons(binary: np.ndarray, analog: np.ndarray, min_patch: int) -> list[PhotonEvent]:
    """Photon events from a thresholded frame.

    Each 8-connected component of at least ``min_patch`` (the camera's)
    pixels yields one event at its analog maximum; ties resolve to the
    smallest (row, col).  Smaller components (e.g. dark pixels) are rejected.

    Labels the dense frame with ``ndimage.label``: this is the independent
    reference that the sparse labelling of ``_block_events`` must equal.
    """
    if binary.shape != analog.shape:
        raise InvalidParameterError("binary and analog matrices must have equal shape")
    labels, n = ndimage.label(binary, structure=_CONN8)
    if n == 0:
        return []
    sizes = np.bincount(labels.ravel())
    events = []
    for lab, box in enumerate(ndimage.find_objects(labels), start=1):
        if sizes[lab] < min_patch:
            continue
        # first maximum in row-major order within the bounding box; patch
        # pixels exceed the threshold, so 0 marks the pixels of other patches
        values = np.where(labels[box] == lab, analog[box], 0)
        r, c = np.unravel_index(np.argmax(values), values.shape)
        r, c = int(r) + box[0].start, int(c) + box[1].start
        events.append(PhotonEvent(r, c, int(analog[r, c])))
    return events


@dataclass(frozen=True)
class PairRecord:
    """An accepted coincidence pair, ordered by column."""

    first: PhotonEvent
    second: PhotonEvent

    def __post_init__(self):
        if self.first.col > self.second.col:
            raise InvalidParameterError("pair must be ordered by column")
        if (self.first.row, self.first.col) == (self.second.row, self.second.col):
            raise InvalidParameterError("pair events must occupy distinct pixels")


@dataclass(frozen=True)
class ClassifiedFrame:
    """Outcome of strip selection and pair filtering for one frame.

    ``kind`` is one of empty / single / pair / multi; ``pair`` is set only
    for an accepted pair (a frame with two in-strip events failing the
    vertical filter is kind 'pair' with ``pair=None``).
    """

    kind: str
    pair: PairRecord | None
    in_strip: tuple[PhotonEvent, ...]


def classify_and_filter(events: list[PhotonEvent], strip_rows: tuple[int, int]) -> ClassifiedFrame:
    """Drop out-of-strip events, classify the frame, and filter pairs.

    A two-event frame is accepted as a coincidence pair iff
    |delta row| < RATIO * |delta col|: strict, so (1, 3) is rejected.
    """
    r0, r1 = strip_rows
    inside = tuple(e for e in events if r0 <= e.row <= r1)
    if len(inside) == 0:
        return ClassifiedFrame("empty", None, inside)
    if len(inside) == 1:
        return ClassifiedFrame("single", None, inside)
    if len(inside) > 2:
        return ClassifiedFrame("multi", None, inside)
    a, b = sorted(inside, key=lambda e: (e.col, e.row))
    if abs(a.row - b.row) < RATIO * abs(a.col - b.col):
        return ClassifiedFrame("pair", PairRecord(a, b), inside)
    return ClassifiedFrame("pair", None, inside)


@dataclass
class CoincidenceAccumulator:
    """Mergeable coincidence statistics over a stream of frames.

    ``matrix`` holds the sum of outer products X^T X of the per-frame binary
    column vectors of accepted pairs; ``singles`` is the column histogram of
    single-photon frames.  Merging accumulators equals accumulating the
    concatenated frame stream, in any order.
    """

    width: int
    matrix: np.ndarray = field(repr=False, default=None)
    singles: np.ndarray = field(repr=False, default=None)
    frames_total: int = 0
    frames_empty: int = 0
    frames_single: int = 0
    frames_pair: int = 0
    frames_multi: int = 0
    pairs_rejected: int = 0

    def __post_init__(self):
        if self.matrix is None:
            self.matrix = np.zeros((self.width, self.width), dtype=np.int64)
        if self.singles is None:
            self.singles = np.zeros(self.width, dtype=np.int64)

    @property
    def pairs_accepted(self) -> int:
        return int(self.matrix.sum() // 4)

    def class_counts(self) -> dict[str, int]:
        return {
            "empty": self.frames_empty,
            "single": self.frames_single,
            "pair": self.frames_pair,
            "multi": self.frames_multi,
        }

    def merge(self, other: "CoincidenceAccumulator") -> "CoincidenceAccumulator":
        if other.width != self.width:
            raise InvalidParameterError("cannot merge accumulators of different width")
        self.matrix += other.matrix
        self.singles += other.singles
        self.frames_total += other.frames_total
        self.frames_empty += other.frames_empty
        self.frames_single += other.frames_single
        self.frames_pair += other.frames_pair
        self.frames_multi += other.frames_multi
        self.pairs_rejected += other.pairs_rejected
        return self


def accumulate_pair(acc: CoincidenceAccumulator, pair: PairRecord) -> None:
    """Add the outer product of the pair's binary column vector to the sum.

    X has 1's at the two columns, so X^T X contributes four increments:
    (i,i), (j,j), (i,j), (j,i).
    """
    i, j = pair.first.col, pair.second.col
    if not (0 <= i < acc.width and 0 <= j < acc.width):
        raise InvalidParameterError("pair columns outside the accumulator width")
    acc.matrix[i, i] += 1
    acc.matrix[j, j] += 1
    acc.matrix[i, j] += 1
    acc.matrix[j, i] += 1


def _strip_window(camera: CameraModel) -> tuple[int, int]:
    """Frame rows ``(v0, v1)`` the reduction examines.

    The readout strip, padded by one patch so patches crossing the strip
    edge are seen whole: events outside the strip are dropped regardless,
    so this matches full-frame processing.
    """
    margin = camera.patch_size - 1
    r0, r1 = camera.strip_rows
    return max(r0 - margin, 0), min(r1 + margin + 1, camera.height)


def process_frame(frame: np.ndarray, cam: CameraModel, acc: CoincidenceAccumulator) -> str:
    """Reduce one frame of ``cam`` into the accumulator; returns its class.

    The per-frame reference for the block reduction in ``analyze_source``:
    only the rows of ``_strip_window`` are examined.
    """
    acc.frames_total += 1
    v0, v1 = _strip_window(cam)
    view = frame[v0:v1]
    if view.max(initial=0) <= cam.threshold_analog:
        acc.frames_empty += 1
        return "empty"
    binary = threshold_frame(view, cam.threshold_analog)
    events = [
        PhotonEvent(e.row + v0, e.col, e.peak)
        for e in detect_photons(binary, view, cam.min_patch)
    ]
    cls = classify_and_filter(events, cam.strip_rows)
    if cls.kind == "empty":
        acc.frames_empty += 1
    elif cls.kind == "single":
        acc.frames_single += 1
        acc.singles[cls.in_strip[0].col] += 1
    elif cls.kind == "multi":
        acc.frames_multi += 1
    else:
        acc.frames_pair += 1
        if cls.pair is None:
            acc.pairs_rejected += 1
        else:
            accumulate_pair(acc, cls.pair)
    return cls.kind


def vertical_acceptance(delta_col: np.ndarray | int, strip_height: int) -> np.ndarray | float:
    """Probability that the vertical filter accepts a pair at |delta col|.

    Rows are independent and uniform over the strip, so acceptance is the
    exact count of integer row pairs with |delta row| < RATIO * |delta col|
    over strip_height^2.  This is the geometric bias the filter imposes as a
    function of horizontal separation; ``corrected_cells`` divides it out.
    """
    if not (isinstance(strip_height, (int, np.integer)) and strip_height >= 1):
        raise InvalidParameterError("strip height must be an integer >= 1")
    dc = np.abs(np.asarray(delta_col, dtype=float))
    if not np.isfinite(dc).all():
        raise InvalidParameterError("column separations must be finite")
    # largest integer strictly below RATIO*|dc|
    m = np.ceil(RATIO * dc).astype(int) - 1
    m = np.clip(m, -1, strip_height - 1)
    h = float(strip_height)
    ordered = np.where(m < 0, 0.0, h + 2 * (m * h - m * (m + 1) / 2.0))
    out = ordered / h**2
    return float(out) if np.isscalar(delta_col) else out


@lru_cache(maxsize=64)
def acceptance_profile(cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """A cell's acceptance at each horizontal separation 0..width-1, and its
    reciprocal.

    The acceptance is ``vertical_acceptance`` over the camera's strip, and 0
    on the missing cells: the near-diagonal band |col' - col''| <=
    ``cam.patch_size``, where two photons merge into one patch, and every
    separation the filter never accepts.  The reciprocal is 0 where the
    acceptance is.  Both arrays are cached per camera and read-only.
    """
    idx = np.arange(cam.width)
    accept = vertical_acceptance(idx, cam.strip_height)
    accept[idx <= cam.patch_size] = 0.0
    # one division per separation, not one per cell
    scale = np.divide(1.0, accept, out=np.zeros_like(accept), where=accept > 0)
    accept.flags.writeable = scale.flags.writeable = False  # shared by every caller
    return accept, scale


def corrected_cells(
    acc: CoincidenceAccumulator, cam: CameraModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and acceptance-corrected counts of the observed cells.

    A cell's acceptance is that of ``acceptance_profile`` at its horizontal
    separation, and its corrected count is the raw count over it, so the
    corrected count's Poisson variance is count / acceptance.  A cell is
    observed when its count is nonzero and its acceptance positive; the
    cells come in row-major order.  Past one comparison of the matrix with
    0, the work is proportional to the number of such cells.
    """
    if acc.width != cam.width:
        raise InvalidParameterError(
            f"accumulator width {acc.width} differs from the camera width {cam.width}"
        )
    accept, scale = acceptance_profile(cam)
    cells = np.flatnonzero(acc.matrix != 0)
    rows, cols = np.divmod(cells, acc.width)
    sep = np.abs(rows - cols)
    seen = accept[sep] > 0
    return rows[seen], cols[seen], np.take(acc.matrix, cells[seen]) * scale[sep[seen]]


def finalize(acc: CoincidenceAccumulator, cam: CameraModel) -> JointPattern2D:
    """Normalized G2 estimate from the accumulated counts, for display and
    export.

    The corrected counts of the observed cells (``corrected_cells``) scaled
    to unit sum over the pixel-center position grid.  Every other cell holds
    0: those of zero acceptance (the near-diagonal band and any separation
    the vertical filter never accepts) were never observed, so the estimate
    is the pattern ``recover_visibilities`` fits, and refitting it with the
    acceptance as the weight gives the same visibilities.
    """
    if acc.pairs_accepted == 0:
        raise EmptyEstimateError("no accepted coincidence pairs to finalize")
    rows, cols, values = corrected_cells(acc, cam)
    est = np.zeros((acc.width, acc.width))
    est[rows, cols] = values
    grid = cam.pixel_grid()
    total = est.sum() * grid.spacing**2
    if total <= 0:
        raise EmptyEstimateError("estimate has zero total mass")
    est /= total
    return JointPattern2D(grid, est, "coincidence")


def superpixel_bin(matrix: np.ndarray, factor: int = 4) -> np.ndarray:
    """Block-sum into factor x factor superpixels (1-D arrays bin by factor).

    Axes not divisible by the factor are zero-padded at the high end first,
    so the total is always preserved exactly.
    """
    if factor < 1:
        raise InvalidParameterError("superpixel factor must be >= 1")
    m = np.asarray(matrix, dtype=float)
    if factor == 1:
        return m.copy()
    pad = [(0, (-s) % factor) for s in m.shape]
    m = np.pad(m, pad)
    if m.ndim == 1:
        return m.reshape(-1, factor).sum(axis=1)
    if m.ndim == 2:
        return m.reshape(m.shape[0] // factor, factor, m.shape[1] // factor, factor).sum(axis=(1, 3))
    raise InvalidParameterError("superpixel binning supports 1-D and 2-D arrays")


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    dof: int
    pvalue: float


def chi2_compare(observed: np.ndarray, expected: np.ndarray, variance: np.ndarray) -> Chi2Result:
    """Chi-square comparison of two binned curves with known per-bin variance.

    ``variance`` is the variance of (observed - expected) per bin; bins with
    non-positive variance are skipped.  One degree of freedom is charged for
    the shared normalization.
    """
    o = np.asarray(observed, dtype=float).ravel()
    e = np.asarray(expected, dtype=float).ravel()
    v = np.asarray(variance, dtype=float).ravel()
    use = v > 0
    n = int(use.sum())
    if n < 2:
        raise InvalidParameterError("need at least 2 usable bins")
    stat = float(np.sum((o[use] - e[use]) ** 2 / v[use]))
    dof = n - 1
    # chdtrc is the chi-square survival function P(X > stat)
    return Chi2Result(stat, dof, float(special.chdtrc(dof, stat)))


def marginal_consistency(acc: CoincidenceAccumulator, cam: CameraModel) -> Chi2Result:
    """Compare the G2-estimate marginal against the direct singles histogram.

    Both are reduced to superpixel bins of 4 pixels and normalized; the
    chi-square uses propagated variances (for the marginal, the Poisson
    variance count / acceptance of each corrected count; Poisson for the
    singles).  The marginal sums the observed cells of each row
    (``corrected_cells``), so it is that of ``finalize``'s estimate up to
    scale; the unobservable near-diagonal band carries a per-row mass
    fraction so nearly uniform that leaving it out is absorbed by the shared
    normalization.
    """
    rows, cols, values = corrected_cells(acc, cam)
    variances = values / acceptance_profile(cam)[0][np.abs(rows - cols)]
    marg = superpixel_bin(np.bincount(rows, values, minlength=acc.width), 4)
    marg_var = superpixel_bin(np.bincount(rows, variances, minlength=acc.width), 4)
    singles = superpixel_bin(acc.singles.astype(float), 4)
    n1, n2 = marg.sum(), singles.sum()
    if n1 <= 0 or n2 <= 0:
        raise EmptyEstimateError("not enough counts for a consistency test")
    d1, d2 = marg / n1, singles / n2
    var = marg_var / n1**2 + singles / n2**2
    return chi2_compare(d1, d2, var)


def estimate_pair_rate(acc: CoincidenceAccumulator, quantum_efficiency: float) -> float:
    """Mean generated pairs per frame, inferred from the empty-frame fraction.

    A frame is empty iff every generated photon went undetected, so with
    Poisson pair statistics P(empty) = exp(-m (1 - (1-eta)^2)).  The empty
    count is immune to patch merging and dark-count rejection, which makes
    this the most robust rate estimate the counters offer.
    """
    if not 0 < quantum_efficiency <= 1:
        raise InvalidParameterError("quantum efficiency must be in (0, 1]")
    if acc.frames_total == 0 or acc.frames_empty == 0:
        raise EmptyEstimateError("cannot estimate the pair rate without empty frames")
    f_empty = acc.frames_empty / acc.frames_total
    return -np.log(f_empty) / (1.0 - (1.0 - quantum_efficiency) ** 2)


def accidental_fraction(mean_pairs: float, quantum_efficiency: float) -> float:
    """Fraction of accepted coincidences that are accidental cross pairs.

    A frame with k generated pairs and exactly two surviving photons yields
    a candidate pair; of the k(2k-1) equally likely survivor subsets, k are
    true pairs and 2k(k-1) pair photons from different down-conversion
    events.  Accidentals share the true pairs' marginal, so they dilute the
    excess-pattern fringe amplitudes by exactly (1 - fraction).

    The Poisson sum over k runs to mean + 12 sqrt(mean) + 64, past which
    the terms are below exp(-70) of the largest, for any mean.
    """
    if not 0 <= mean_pairs < np.inf:
        raise InvalidParameterError("mean pairs must be finite and >= 0")
    if not 0 <= quantum_efficiency <= 1:
        raise InvalidParameterError("quantum efficiency must be in [0, 1]")
    if mean_pairs == 0 or quantum_efficiency == 1:
        # no pairs, or every photon survives: two survivors mean one true pair
        return 0.0
    k = np.arange(1, int(mean_pairs + 12 * np.sqrt(mean_pairs)) + 65)
    # log Poisson weight times (1 - eta)^(2k - 2); the common eta^2 cancels
    log_w = k * np.log(mean_pairs) - np.cumsum(np.log(k)) + (2 * k - 2) * np.log1p(-quantum_efficiency)
    weight = np.exp(log_w - log_w.max())
    total = np.sum(weight * k * (2 * k - 1))
    cross = np.sum(weight * 2 * k * (k - 1))
    return float(cross / total)


@dataclass(frozen=True)
class AnalysisResult:
    """The reduction of a frame stream: its accumulator and the camera whose
    frames were reduced, and whose values the fits read."""

    accumulator: CoincidenceAccumulator
    camera: CameraModel


def _block_events(
    key: np.ndarray, value: np.ndarray, cam: CameraModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-strip photon events of a block as (frame, row, col), by frame.

    ``(key, value)`` are a source's records of the ``_strip_window`` rows
    (see ``analyze_source``).  Same events as ``detect_photons`` frame by
    frame: each 8-connected patch of at least ``cam.min_patch`` pixels,
    located at its analog maximum with ties to the smallest (row, col).

    Only the lit (above-threshold) records are labelled.  Each is joined to
    its lit forward neighbours (0, +1), (+1, -1), (+1, 0) and (+1, +1),
    found by ``searchsorted`` in the sorted flat indices; the column and row
    masks keep an edge from wrapping across a row end or into the next
    frame.  The patches are the connected components of that graph.
    """
    v0, v1 = _strip_window(cam)
    h, w = v1 - v0, cam.width
    lit = value > cam.threshold_analog
    pix, level = key[lit], value[lit]
    if pix.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    row, col = np.divmod(pix % (h * w), w)
    not_last_row = row < h - 1
    forward = (
        (1, col < w - 1),
        (w - 1, not_last_row & (col > 0)),
        (w, not_last_row),
        (w + 1, not_last_row & (col < w - 1)),
    )
    src, dst = [], []
    for off, ok in forward:
        tail = np.flatnonzero(ok)
        target = pix[tail] + off
        nbr = np.searchsorted(pix, target)
        hit = pix.take(nbr, mode="clip") == target
        src.append(tail[hit])
        dst.append(nbr[hit])
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = sparse.csr_array((np.ones(src.size), (src, dst)), shape=(pix.size, pix.size))
    del src, dst  # the graph holds the edges; a fully lit block has 4 per pixel
    _, lab = csgraph.connected_components(graph, directed=False)
    order = np.lexsort((pix, -level.astype(np.int32), lab))
    lab = lab[order]
    head = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
    sizes = np.diff(np.r_[head, lab.size])
    peaks = np.sort(pix[order[head[sizes >= cam.min_patch]]])
    f, rest = np.divmod(peaks, h * w)
    row, col = np.divmod(rest, w)
    row += v0
    inside = (row >= cam.strip_rows[0]) & (row <= cam.strip_rows[1])
    return f[inside], row[inside], col[inside]


def _reduce_range(
    source, cam: CameraModel, lo: int, hi: int, block: int = _BLOCK
) -> CoincidenceAccumulator:
    """Reduce frames ``lo..hi-1`` block by block into a new accumulator.

    Each block's records are labelled in chunks of whole frames, cut where
    the keys cross a frame's first pixel: a chunk holds at most ``_CHUNK``
    records, or one frame that holds more.  Equal to ``process_frame`` on
    every frame, for any block size.
    """
    width = cam.width
    rows = _strip_window(cam)
    frame_pixels = (rows[1] - rows[0]) * width
    acc = CoincidenceAccumulator(width)
    acc.frames_total = hi - lo
    singles = [np.empty(0, dtype=np.int64)]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for b0 in range(lo, hi, block):
        b1 = min(b0 + block, hi)
        key, value = source.strip_records(b0, b1, rows)
        # cuts[m] is the first record of frame m; keys stay block-relative,
        # so every chunk's events carry their frame within the block
        cuts = np.searchsorted(key, np.arange(b1 - b0 + 1) * frame_pixels)
        events, m = [], 0
        while m < b1 - b0:
            end = max(int(np.searchsorted(cuts, cuts[m] + _CHUNK, side="right")) - 1, m + 1)
            a, b = cuts[m], cuts[end]
            events.append(_block_events(key[a:b], value[a:b], cam))
            m = end
        f, row, col = (np.concatenate(e) for e in zip(*events))
        per_frame = np.bincount(f, minlength=b1 - b0)
        acc.frames_single += int(np.count_nonzero(per_frame == 1))
        acc.frames_pair += int(np.count_nonzero(per_frame == 2))
        acc.frames_multi += int(np.count_nonzero(per_frame > 2))
        count = per_frame[f]
        singles.append(col[count == 1])
        # events come sorted by frame, so a two-event frame is two neighbors
        r2, c2 = row[count == 2].reshape(-1, 2), col[count == 2].reshape(-1, 2)
        accept = np.abs(r2[:, 0] - r2[:, 1]) < RATIO * np.abs(c2[:, 0] - c2[:, 1])
        acc.pairs_rejected += int(np.count_nonzero(~accept))
        pairs.append(c2[accept])
    acc.frames_empty = acc.frames_total - acc.frames_single - acc.frames_pair - acc.frames_multi
    acc.singles += np.bincount(np.concatenate(singles), minlength=width)
    i, j = np.concatenate(pairs).T
    cells = np.concatenate([i * width + i, j * width + j, i * width + j, j * width + i])
    acc.matrix += np.bincount(cells, minlength=width * width).reshape(width, width)
    return acc


def analyze_source(source, camera: CameraModel, workers: int = 1) -> AnalysisResult:
    """Reduce a frame source (BIFR reader or simulator) of ``camera``.

    A source has a ``shape = (height, width)``, which must be the camera's,
    a length, and ``strip_records(lo, hi, rows)``: rows ``rows = (v0, v1)``
    of frames ``lo..hi-1`` as records ``(key, value)``, sorted, unique int64
    flat indices into the ``(hi - lo, v1 - v0, width)`` block and their
    uint16 values; every pixel not listed is 0.
    Frames are split into ``workers`` contiguous index ranges, each reduced
    on the calling thread into a private accumulator and merged in index
    order — the result is identical for any worker count.
    """
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    if source.shape != (camera.height, camera.width):
        raise InvalidParameterError(
            f"frames of shape {source.shape} do not fit the "
            f"{camera.height}x{camera.width} camera"
        )
    n = len(source)
    if n == 0:
        raise EmptyEstimateError("frame source is empty")
    bounds = [n * k // workers for k in range(workers + 1)]
    total = _reduce_range(source, camera, bounds[0], bounds[1])
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        total.merge(_reduce_range(source, camera, lo, hi))
    return AnalysisResult(total, camera)
