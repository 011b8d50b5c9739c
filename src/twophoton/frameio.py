"""Binary frame-file format (BIFR) plus CSV and PGM writers.

BIFR header, all multi-byte fields little-endian:

    offset  size  field
    0       4     magic "BIFR"
    4       1     format version (2 is written; 1 and 2 are read)
    5       2     u16 frame width in pixels
    7       2     u16 frame height in pixels
    9       4     u32 frame count
    13      1     u8 bits per pixel (16)
    14      7     reserved, zero
    21      -     frames in index order

Version 2 stores a frame as its lit pixels: a u32 record count, then that
many (u32 flat index, u16 value) records in increasing index order.  A
pixel of value 0 has no record, so the bytes depend only on the frames.
After the last frame comes the offset table, one u64 per frame: the byte
offset of the frame's count, so a range of frames is read without a scan.
A frame of r records takes 12 + 6 r bytes.

Version 1 stores every frame dense, row-major u16 per pixel.
"""

from __future__ import annotations

import errno
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FrameFormatError, InvalidParameterError

MAGIC = b"BIFR"
VERSION = 2
HEADER_SIZE = 21
_HEADER_FMT = "<4sBHHIB7s"
# a version-2 frame's record count, one record, and its offset-table entry
_COUNT = 4
_RECORD = np.dtype([("index", "<u4"), ("value", "<u2")])
_OFFSET = 8
# version-1 frames read densely and converted to records at a time
_READ_BLOCK = 64
# version-2 bytes read and parsed at a time, unless one frame holds more
_READ_BYTES = 1 << 22


@dataclass(frozen=True)
class FrameFileHeader:
    width: int
    height: int
    frame_count: int
    version: int = VERSION

    def __post_init__(self):
        # the header's u16 width and height and u32 count bound what it describes
        try:
            self.pack()
        except struct.error as exc:
            raise InvalidParameterError(f"{self} does not fit the frame-file header: {exc}") from exc

    @property
    def frame_bytes(self) -> int:
        """Bytes of one dense version-1 frame."""
        return self.width * self.height * 2

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            self.version,
            self.width,
            self.height,
            self.frame_count,
            16,
            b"\x00" * 7,
        )


def read_header(f) -> FrameFileHeader:
    raw = f.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise FrameFormatError("file shorter than the frame-file header", offset=len(raw))
    magic, version, width, height, count, bpp, _reserved = struct.unpack(_HEADER_FMT, raw)
    if magic != MAGIC:
        raise FrameFormatError(f"bad magic {magic!r}", offset=0)
    if version not in (1, 2):
        raise FrameFormatError(f"unsupported format version {version}", offset=4)
    if bpp != 16:
        raise FrameFormatError(f"unsupported bits-per-pixel {bpp}", offset=13)
    return FrameFileHeader(width, height, count, version)


def write_frames(
    path: str | Path,
    width: int,
    height: int,
    blocks: Iterable[tuple[int, np.ndarray, np.ndarray]],
    frame_count: int,
) -> None:
    """Write a version-2 BIFR file, streaming blocks of frames in index order.

    A block is ``(n, key, value)``: ``n`` frames as records, sorted unique
    int64 flat indices into the ``(n, height, width)`` block and their
    uint16 values, the form ``strip_records`` of every row returns; a
    record of value 0 is not stored.  Keys or values that are not integers,
    or a value outside 0..65535, raise ``FrameFormatError``.  Raises ENOSPC
    before opening the file when its directory, counting a file it replaces,
    lacks room for the header and 12 bytes per frame, the least the file
    takes.  If anything raises once the file is open, a full disk included,
    the file is deleted.
    The offset table is held in memory until the end, 8 bytes per frame.
    """
    header = FrameFileHeader(width, height, frame_count)
    path = Path(path)
    need = HEADER_SIZE + frame_count * (_COUNT + _OFFSET)
    free = shutil.disk_usage(path.parent).free + (path.stat().st_size if path.is_file() else 0)
    if need > free:
        raise OSError(errno.ENOSPC, f"the frame file needs at least {need} bytes, {free} free", str(path))
    offsets = [np.empty(0, dtype=np.int64)]
    written, position = 0, HEADER_SIZE
    with open(path, "wb") as f:
        try:
            f.write(header.pack())
            for n, key, value in blocks:
                data, start = _pack_block(written, n, key, value, header)
                f.write(data)
                offsets.append(position + start)
                position += data.size
                written += n
            if written != frame_count:
                raise FrameFormatError(
                    f"wrote {written} frames but the header promised {frame_count}"
                )
            f.write(np.concatenate(offsets).astype("<u8").tobytes())
        except BaseException:
            # a partial file would contradict its own header
            f.close()
            path.unlink()
            raise


def _pack_block(first: int, n: int, key, value, header: FrameFileHeader) -> tuple[np.ndarray, np.ndarray]:
    """Version-2 bytes of frames ``first..first+n-1`` given as records, and
    the offset of each frame's count within them.  Keys and values must be
    integers, values in 0..65535; a uint16 ``value`` is not scanned."""
    frame_pixels = header.width * header.height
    key, value = np.asarray(key), np.asarray(value)
    for name, a in (("keys", key), ("values", value)):
        if a.size and a.dtype.kind not in "iu":
            raise FrameFormatError(
                f"frames {first}..{first + n - 1}: {name} of dtype {a.dtype} are not integers"
            )
    key = key.astype(np.int64, copy=False)
    if key.shape != value.shape or (
        key.size and (key[0] < 0 or key[-1] >= n * frame_pixels or np.any(np.diff(key) <= 0))
    ):
        raise FrameFormatError(
            f"frames {first}..{first + n - 1}: records are not sorted unique pixels of "
            f"{n} frames of {header.height}x{header.width}"
        )
    if value.dtype != np.uint16:
        wide = np.flatnonzero((value < 0) | (value > np.iinfo(np.uint16).max))
        if wide.size:
            i = int(wide[0])
            raise FrameFormatError(
                f"frame {first + key[i] // frame_pixels}, record {i}: "
                f"value {value[i]} is outside 0..65535"
            )
        value = value.astype(np.uint16)
    lit = value != 0
    frame, index = np.divmod(key[lit], frame_pixels)
    counts = np.bincount(frame, minlength=n)
    size = _COUNT + _RECORD.itemsize * counts
    start = np.cumsum(size) - size
    data = np.empty(int(size.sum()), dtype=np.uint8)
    is_count = _count_mask(data.size, start)
    data[is_count] = counts.astype("<u4").view(np.uint8)
    records = np.empty(index.size, dtype=_RECORD)
    records["index"], records["value"] = index, value[lit]
    data[~is_count] = records.view(np.uint8)
    return data, start


def _count_mask(size: int, start: np.ndarray) -> np.ndarray:
    """True on the count bytes of frames starting at ``start`` in ``size`` bytes."""
    mask = np.zeros(size, dtype=bool)
    mask[(start[:, None] + np.arange(_COUNT)).ravel()] = True
    return mask


class FrameFileReader:
    """Random-access reader for BIFR files of version 1 or 2; usable as a frame source."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            self.header = read_header(f)
            size = f.seek(0, 2)
            if self.header.version == 2:
                self._bounds = self._read_offsets(f, size)
                return
        expected = HEADER_SIZE + self.header.frame_count * self.header.frame_bytes
        if size != expected:
            raise FrameFormatError(
                f"file size {size} does not match header ({expected} expected)",
                offset=min(size, expected),
            )

    def _read_offsets(self, f, size: int) -> np.ndarray:
        """The offset table followed by its own offset: frame k's bytes are
        ``bounds[k]..bounds[k + 1]``.  Each frame's span must hold its count
        and whole records, and the first frame follows the header."""
        n = self.header.frame_count
        table = size - n * _OFFSET
        if table < HEADER_SIZE + n * _COUNT:
            raise FrameFormatError(f"file of {size} bytes is too short for {n} frames", offset=size)
        f.seek(table)
        raw = np.frombuffer(f.read(n * _OFFSET), dtype="<u8")
        bounds = np.append(np.minimum(raw, table).astype(np.int64), table)
        span = np.diff(bounds) - _COUNT
        bad = (raw > table) | (span < 0) | (span % _RECORD.itemsize != 0)
        first = int(raw[0]) if n else table
        if first != HEADER_SIZE:
            raise FrameFormatError(f"frames start at byte {first}, not after the header", offset=table)
        if bad.any():
            k = int(np.argmax(bad))
            raise FrameFormatError(
                f"offset table entry {k} ({raw[k]}) and the next ({bounds[k + 1]}) "
                "do not bound a frame of whole records",
                offset=table + k * _OFFSET,
            )
        return bounds

    def __len__(self) -> int:
        return self.header.frame_count

    @property
    def shape(self) -> tuple[int, int]:
        return self.header.height, self.header.width

    def frame(self, k: int) -> np.ndarray:
        key, value = self.strip_records(k, k + 1, (0, self.header.height))
        out = np.zeros(self.shape, dtype=np.uint16)
        out.reshape(-1)[key] = value
        return out

    def strip_records(self, lo: int, hi: int, rows: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Records of rows ``rows = (v0, v1)`` of frames ``lo..hi-1``, as
        ``framepipe.analyze_source`` reads them.  Version 2 windows the
        stored records by row, reading at most ``_READ_BYTES`` at a time
        (or one frame); version 1 converts ``_READ_BLOCK`` dense frames at a
        time, so the dense rows in memory stay few."""
        self._check_range(lo, hi, rows)
        parts = self._v2_parts(lo, hi, rows) if self.header.version == 2 else self._v1_parts(lo, hi, rows)
        keys, values = zip((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint16)), *parts)
        return np.concatenate(keys), np.concatenate(values)

    def _check_range(self, lo: int, hi: int, rows: tuple[int, int]) -> None:
        h = self.header
        if not (0 <= lo <= hi <= h.frame_count and 0 <= rows[0] <= rows[1] <= h.height):
            raise IndexError((lo, hi, rows))

    def _v2_parts(self, lo: int, hi: int, rows: tuple[int, int]):
        w, bounds = self.header.width, self._bounds
        first, last = rows[0] * w, rows[1] * w
        with open(self.path, "rb") as f:
            a = lo
            while a < hi:
                b = int(np.searchsorted(bounds, bounds[a] + _READ_BYTES, side="right")) - 1
                b = min(max(b, a + 1), hi)
                f.seek(bounds[a])
                raw = f.read(bounds[b] - bounds[a])
                if len(raw) != bounds[b] - bounds[a]:
                    raise FrameFormatError(f"truncated frames {a}..{b - 1}", offset=bounds[a] + len(raw))
                frame, index, value = self._parse(np.frombuffer(raw, dtype=np.uint8), a, b)
                keep = (index >= first) & (index < last)
                yield (frame[keep] + (a - lo)) * (last - first) + index[keep] - first, value[keep]
                a = b

    def _parse(self, buf: np.ndarray, a: int, b: int):
        """(frame within a..b-1, flat index, value) of the records of frames
        ``a..b-1``, whose bytes ``buf`` holds.  Every count must agree with the
        offset table, and every frame's indices must rise inside the frame
        and their values be nonzero."""
        bounds = self._bounds[a : b + 1]
        start = bounds[:-1] - bounds[0]
        counts = (np.diff(bounds) - _COUNT) // _RECORD.itemsize
        is_count = _count_mask(buf.size, start)
        stored = buf[is_count].view("<u4")
        wrong = stored != counts
        if wrong.any():
            k = int(np.argmax(wrong))
            raise FrameFormatError(
                f"frame {a + k} counts {stored[k]} records, its offset-table span {counts[k]}",
                offset=int(bounds[k]),
            )
        records = buf[~is_count].view(_RECORD)
        index, value = records["index"].astype(np.int64), records["value"].astype(np.uint16)
        frame = np.repeat(np.arange(b - a), counts)
        bad = (index >= self.header.width * self.header.height) | (value == 0)
        bad[1:] |= (index[1:] <= index[:-1]) & (frame[1:] == frame[:-1])
        if bad.any():
            r = int(np.argmax(bad))
            k = int(frame[r])
            j = r - int(counts[:k].sum())
            raise FrameFormatError(
                f"frame {a + k} record {j} (index {index[r]}, value {value[r]}) is not a lit "
                f"pixel of the {self.header.height}x{self.header.width} frame after the one before",
                offset=int(bounds[k]) + _COUNT + j * _RECORD.itemsize,
            )
        return frame, index, value

    def _v1_parts(self, lo: int, hi: int, rows: tuple[int, int]):
        frame_pixels = (rows[1] - rows[0]) * self.header.width
        for a in range(lo, hi, _READ_BLOCK):
            block = self._strip_block(a, min(a + _READ_BLOCK, hi), rows)
            # numpy finds the nonzero entries of a bool mask far faster than of uint16
            key = np.flatnonzero(block != 0)
            yield key + (a - lo) * frame_pixels, block.ravel()[key]

    def _strip_block(self, lo: int, hi: int, rows: tuple[int, int]) -> np.ndarray:
        """Rows ``rows = (v0, v1)`` of version-1 frames ``lo..hi-1``, read in
        one open.

        Returns a ``uint16[hi - lo, v1 - v0, width]`` array; only the bytes
        of those rows are read from disk.
        """
        h = self.header
        v0, v1 = rows
        self._check_range(lo, hi, rows)
        block = np.empty((hi - lo, v1 - v0, h.width), dtype="<u2")
        row_bytes = h.width * 2
        with open(self.path, "rb") as f:
            for out, k in zip(block, range(lo, hi)):
                start = HEADER_SIZE + k * h.frame_bytes + v0 * row_bytes
                f.seek(start)
                got = f.readinto(out)
                if got != out.nbytes:
                    raise FrameFormatError(f"truncated frame {k}", offset=start + got)
        return block


def write_pattern_csv(path: str | Path, positions: np.ndarray, values: np.ndarray) -> None:
    """1-D pattern as ``position_m,value`` rows."""
    with open(path, "w") as f:
        f.write("position_m,value\n")
        for x, v in zip(positions, values):
            f.write(f"{x:.9e},{v:.9e}\n")


def write_joint_csv(path: str | Path, positions: np.ndarray, values: np.ndarray) -> None:
    """2-D pattern as ``x_m,y_m,value`` rows in row-major order."""
    xs = [f"{x:.9e}," for x in np.asarray(positions).tolist()]
    with open(path, "w") as f:
        f.write("x_m,y_m,value\n")
        # one write per row keeps the formatted text to one row in memory
        for x, row in zip(xs, np.asarray(values)):
            cells = map("{:.9e}\n".format, row.tolist())
            f.write("".join([x + y + c for y, c in zip(xs, cells)]))


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """8-bit binary portable graymap, min-max normalized."""
    v = np.asarray(values, dtype=float)
    lo, hi = v.min(), v.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = np.round((v - lo) * scale).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
