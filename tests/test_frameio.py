"""Binary frame-file format and the CSV/PGM writers."""

import struct

import numpy as np
import pytest

from twophoton.errors import FrameFormatError
from twophoton.frameio import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    FrameFileHeader,
    FrameFileReader,
    read_header,
    read_pattern_csv,
    write_frames,
    write_joint_csv,
    write_pattern_csv,
    write_pgm,
)


def make_frames(n, w=8, h=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 65536, (h, w)).astype(np.uint16) for _ in range(n)]


class TestHeader:
    def test_size(self):
        assert HEADER_SIZE == 21
        assert len(FrameFileHeader(512, 512, 10).pack()) == 21

    def test_pack_layout(self):
        raw = FrameFileHeader(512, 480, 1000).pack()
        assert raw[:4] == MAGIC
        assert raw[4] == VERSION
        assert struct.unpack_from("<H", raw, 5)[0] == 512
        assert struct.unpack_from("<H", raw, 7)[0] == 480
        assert struct.unpack_from("<I", raw, 9)[0] == 1000
        assert raw[13] == 16
        assert raw[14:21] == b"\x00" * 7

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "h.bifr"
        p.write_bytes(FrameFileHeader(64, 32, 7).pack())
        with open(p, "rb") as f:
            h = read_header(f)
        assert (h.width, h.height, h.frame_count) == (64, 32, 7)
        assert h.frame_bytes == 64 * 32 * 2

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bifr"
        raw = bytearray(FrameFileHeader(8, 8, 0).pack())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with open(p, "rb") as f:
            with pytest.raises(FrameFormatError) as err:
                read_header(f)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        raw = bytearray(FrameFileHeader(8, 8, 0).pack())
        raw[4] = 9
        p = tmp_path / "v.bifr"
        p.write_bytes(bytes(raw))
        with open(p, "rb") as f:
            with pytest.raises(FrameFormatError) as err:
                read_header(f)
        assert err.value.offset == 4

    def test_bad_bpp(self, tmp_path):
        raw = bytearray(FrameFileHeader(8, 8, 0).pack())
        raw[13] = 8
        p = tmp_path / "b.bifr"
        p.write_bytes(bytes(raw))
        with open(p, "rb") as f:
            with pytest.raises(FrameFormatError) as err:
                read_header(f)
        assert err.value.offset == 13

    def test_short_header(self, tmp_path):
        p = tmp_path / "s.bifr"
        p.write_bytes(b"BIFR\x01")
        with open(p, "rb") as f:
            with pytest.raises(FrameFormatError):
                read_header(f)


class TestWriteRead:
    def test_roundtrip(self, tmp_path):
        frames = make_frames(5)
        p = tmp_path / "run.bifr"
        write_frames(p, 8, 6, iter(frames), 5)
        reader = FrameFileReader(p)
        assert len(reader) == 5
        for k in range(5):
            assert np.array_equal(reader.frame(k), frames[k])
        for k, frame in enumerate(reader.iter_frames()):
            assert np.array_equal(frame, frames[k])

    def test_iter_range(self, tmp_path):
        frames = make_frames(6)
        p = tmp_path / "run.bifr"
        write_frames(p, 8, 6, iter(frames), 6)
        got = list(FrameFileReader(p).iter_frames(2, 5))
        assert len(got) == 3
        assert np.array_equal(got[0], frames[2])

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.bifr"
        write_frames(p, 8, 6, iter([]), 0)
        assert p.stat().st_size == HEADER_SIZE
        assert len(FrameFileReader(p)) == 0

    def test_count_mismatch_on_write(self, tmp_path):
        with pytest.raises(FrameFormatError):
            write_frames(tmp_path / "m.bifr", 8, 6, iter(make_frames(3)), 4)

    def test_shape_mismatch_on_write(self, tmp_path):
        with pytest.raises(FrameFormatError):
            write_frames(tmp_path / "m.bifr", 9, 6, iter(make_frames(1)), 1)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "t.bifr"
        write_frames(p, 8, 6, iter(make_frames(3)), 3)
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(FrameFormatError):
            FrameFileReader(p)

    def test_strip_block_reads_rows(self, tmp_path):
        frames = make_frames(7)
        path = tmp_path / "f.bifr"
        write_frames(path, 8, 6, frames, 7)
        indices, block = FrameFileReader(path).strip_block(2, 6, (1, 4))
        assert indices.tolist() == [2, 3, 4, 5]
        assert block.shape == (4, 3, 8)
        assert np.array_equal(block, np.stack([f[1:4] for f in frames[2:6]]))

    def test_strip_block_out_of_range(self, tmp_path):
        path = tmp_path / "f.bifr"
        write_frames(path, 8, 6, make_frames(3), 3)
        reader = FrameFileReader(path)
        with pytest.raises(IndexError):
            reader.strip_block(1, 4, (0, 6))
        with pytest.raises(IndexError):
            reader.strip_block(0, 3, (2, 7))

    def test_frame_index_out_of_range(self, tmp_path):
        p = tmp_path / "r.bifr"
        write_frames(p, 8, 6, iter(make_frames(2)), 2)
        with pytest.raises(IndexError):
            FrameFileReader(p).frame(2)

    def test_little_endian_on_disk(self, tmp_path):
        frame = np.full((1, 1), 0x0102, dtype=np.uint16)
        p = tmp_path / "e.bifr"
        write_frames(p, 1, 1, iter([frame]), 1)
        assert p.read_bytes()[HEADER_SIZE:] == b"\x02\x01"


class TestCsvAndPgm:
    def test_pattern_csv_roundtrip(self, tmp_path):
        x = np.linspace(-1e-3, 1e-3, 11)
        v = np.sin(x * 1e4)
        p = tmp_path / "p.csv"
        write_pattern_csv(p, x, v)
        x2, v2 = read_pattern_csv(p)
        assert np.allclose(x2, x, atol=1e-12)
        assert np.allclose(v2, v, atol=1e-9 * np.abs(v).max())

    def test_single_row_csv(self, tmp_path):
        p = tmp_path / "one.csv"
        write_pattern_csv(p, np.array([1.0]), np.array([2.0]))
        x, v = read_pattern_csv(p)
        assert x.shape == v.shape == (1,)

    def test_joint_csv_layout(self, tmp_path):
        p = tmp_path / "j.csv"
        write_joint_csv(p, np.array([0.0, 1.0]), np.arange(4.0).reshape(2, 2))
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "x_m,y_m,value"
        assert len(lines) == 5
        data = np.loadtxt(p, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 2], [0, 1, 2, 3])

    def test_joint_csv_bytes_match_reference_loop(self, tmp_path):
        def reference(path, positions, values):
            with open(path, "w") as f:
                f.write("x_m,y_m,value\n")
                for i, x in enumerate(positions):
                    for j, y in enumerate(positions):
                        f.write(f"{x:.9e},{y:.9e},{values[i, j]:.9e}\n")

        rng = np.random.default_rng(12)
        n = 24
        x = np.linspace(-3e-3, 3e-3, n)
        v = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
        v.flat[:7] = [0.0, -0.0, -1.5, 1e-300, -1e300, 1.7976931348623157e308, 5e-324]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_joint_csv(fast, x, v)
        reference(slow, x, v)
        assert fast.read_bytes() == slow.read_bytes()

    def test_pgm_header_and_range(self, tmp_path):
        p = tmp_path / "img.pgm"
        write_pgm(p, np.arange(12.0).reshape(3, 4))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        pixels = np.frombuffer(raw[len(b"P5\n4 3\n255\n") :], dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_pgm_constant_image(self, tmp_path):
        p = tmp_path / "flat.pgm"
        write_pgm(p, np.full((2, 2), 3.7))
        pixels = np.frombuffer(p.read_bytes()[-4:], dtype=np.uint8)
        assert np.all(pixels == 0)
