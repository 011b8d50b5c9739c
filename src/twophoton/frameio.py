"""Binary frame-file format (BIFR) plus CSV and PGM writers.

BIFR layout, all multi-byte fields little-endian:

    offset  size  field
    0       4     magic "BIFR"
    4       1     format version (0x01)
    5       2     u16 frame width in pixels
    7       2     u16 frame height in pixels
    9       4     u32 frame count
    13      1     u8 bits per pixel (16)
    14      7     reserved, zero
    21      -     frames in index order, row-major u16 per pixel
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
VERSION = 1
HEADER_SIZE = 21
_HEADER_FMT = "<4sBHHIB7s"


@dataclass(frozen=True)
class FrameFileHeader:
    width: int
    height: int
    frame_count: int

    def __post_init__(self):
        # the header's u16 width and height and u32 count bound what it describes
        try:
            self.pack()
        except struct.error as exc:
            raise InvalidParameterError(f"{self} does not fit the frame-file header: {exc}") from exc

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * 2

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
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
    if version != VERSION:
        raise FrameFormatError(f"unsupported format version {version}", offset=4)
    if bpp != 16:
        raise FrameFormatError(f"unsupported bits-per-pixel {bpp}", offset=13)
    return FrameFileHeader(width, height, count)


def write_frames(
    path: str | Path,
    width: int,
    height: int,
    frames: Iterable[np.ndarray],
    frame_count: int,
) -> None:
    """Write a BIFR file, streaming frames in index order.  Raises ENOSPC before
    opening it when its directory, counting a file it replaces, lacks room.
    If anything raises once the file is open, the file is deleted."""
    header = FrameFileHeader(width, height, frame_count)
    path = Path(path)
    need = HEADER_SIZE + frame_count * header.frame_bytes
    free = shutil.disk_usage(path.parent).free + (path.stat().st_size if path.is_file() else 0)
    if need > free:
        raise OSError(errno.ENOSPC, f"the frame file needs {need} bytes, {free} free", str(path))
    written = 0
    with open(path, "wb") as f:
        try:
            f.write(header.pack())
            for frame in frames:
                if frame.shape != (height, width):
                    raise FrameFormatError(
                        f"frame {written} has shape {frame.shape}, expected {(height, width)}"
                    )
                f.write(np.ascontiguousarray(frame, dtype="<u2").tobytes())
                written += 1
            if written != frame_count:
                raise FrameFormatError(
                    f"wrote {written} frames but the header promised {frame_count}"
                )
        except BaseException:
            # a partial file would contradict its own header
            f.close()
            path.unlink()
            raise


class FrameFileReader:
    """Random-access reader for BIFR files; usable as a frame source."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            self.header = read_header(f)
            f.seek(0, 2)
            size = f.tell()
        expected = HEADER_SIZE + self.header.frame_count * self.header.frame_bytes
        if size != expected:
            raise FrameFormatError(
                f"file size {size} does not match header ({expected} expected)",
                offset=min(size, expected),
            )

    def __len__(self) -> int:
        return self.header.frame_count

    @property
    def shape(self) -> tuple[int, int]:
        return self.header.height, self.header.width

    def frame(self, k: int) -> np.ndarray:
        return self._strip_block(k, k + 1, (0, self.header.height))[0]

    def strip_records(self, lo: int, hi: int, rows: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero pixels of ``_strip_block`` as the records that
        ``framepipe.analyze_source`` reads."""
        block = self._strip_block(lo, hi, rows)
        # numpy finds the nonzero entries of a bool mask far faster than of uint16
        key = np.flatnonzero(block != 0)
        return key, block.ravel()[key]

    def _strip_block(self, lo: int, hi: int, rows: tuple[int, int]) -> np.ndarray:
        """Rows ``rows = (v0, v1)`` of frames ``lo..hi-1``, read in one open.

        Returns a ``uint16[hi - lo, v1 - v0, width]`` array; only the bytes
        of those rows are read from disk.
        """
        h = self.header
        v0, v1 = rows
        if not (0 <= lo <= hi <= h.frame_count and 0 <= v0 <= v1 <= h.height):
            raise IndexError((lo, hi, rows))
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


def read_pattern_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    return data[:, 0], data[:, 1]


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
