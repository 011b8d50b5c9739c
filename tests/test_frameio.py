"""Binary frame-file format, versions 1 and 2, and the CSV/PGM writers."""

import errno
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from oracle import read_pattern_csv, records, scatter, v2_to_v1, write_v1, write_v2
from twophoton import cli, frameio
from twophoton.errors import FrameFormatError, InvalidParameterError
from twophoton.frameio import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    FrameFileHeader,
    FrameFileReader,
    read_header,
    write_frames,
    write_joint_csv,
    write_pattern_csv,
    write_pgm,
)
from twophoton.framepipe import _strip_window
from twophoton.patterns import JointPattern2D
from twophoton.sensor import CameraModel, FrameSimulator


def make_frames(n, w=8, h=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 65536, (h, w)).astype(np.uint16) for _ in range(n)]


def blocks(frames, size=None):
    """Dense frames as the ``(n, key, value)`` blocks ``write_frames`` takes."""
    frames = np.stack(frames)
    size = size or len(frames)
    for lo in range(0, len(frames), size):
        part = frames[lo : lo + size]
        yield (len(part), *records(part, (0, part.shape[1])))


def failing_source():
    yield from blocks(make_frames(2))
    raise RuntimeError("the frame source failed")


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

    @pytest.mark.parametrize(
        "width, height, count", [(65536, 8, 1), (8, 65536, 1), (8, 8, 2**32), (-1, 8, 1), (8, 8, -1)]
    )
    def test_values_the_header_cannot_hold(self, tmp_path, width, height, count):
        with pytest.raises(InvalidParameterError):
            FrameFileHeader(width, height, count)
        p = tmp_path / "big.bifr"
        with pytest.raises(InvalidParameterError):
            write_frames(p, width, height, iter([]), count)
        assert not p.exists()

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
        write_frames(p, 8, 6, blocks(frames, 2), 5)
        reader = FrameFileReader(p)
        assert reader.header.version == VERSION == 2
        assert len(reader) == 5
        assert reader.shape == (6, 8)
        for k in range(5):
            assert np.array_equal(reader.frame(k), frames[k])

    def test_iter_range(self, tmp_path):
        # a range of whole frames is the records of every row
        frames = make_frames(6)
        p = tmp_path / "run.bifr"
        write_frames(p, 8, 6, blocks(frames), 6)
        key, value = FrameFileReader(p).strip_records(2, 5, (0, 6))
        assert np.array_equal(scatter(key, value, (3, 6, 8)), np.stack(frames[2:5]))

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.bifr"
        write_frames(p, 8, 6, iter([]), 0)
        assert p.stat().st_size == HEADER_SIZE
        assert len(FrameFileReader(p)) == 0

    def test_failed_source_leaves_no_file(self, tmp_path):
        p = tmp_path / "partial.bifr"
        with pytest.raises(RuntimeError):
            write_frames(p, 8, 6, failing_source(), 4)
        assert not p.exists()

    def test_count_mismatch_on_write(self, tmp_path):
        p = tmp_path / "m.bifr"
        with pytest.raises(FrameFormatError):
            write_frames(p, 8, 6, blocks(make_frames(3)), 4)
        assert not p.exists()

    def test_shape_mismatch_on_write(self, tmp_path):
        # the records of a 9-wide frame run past an 8-wide one
        p = tmp_path / "m.bifr"
        with pytest.raises(FrameFormatError):
            write_frames(p, 8, 6, blocks(make_frames(1, w=9)), 1)
        assert not p.exists()

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "t.bifr"
        write_frames(p, 8, 6, blocks(make_frames(3)), 3)
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(FrameFormatError):
            FrameFileReader(p)

    def test_strip_block_reads_rows(self, tmp_path):
        # version 1's dense row read, and the records it converts once
        frames = make_frames(7)
        frames[3][:] = 0
        path = tmp_path / "f.bifr"
        write_v1(path, 8, 6, frames, 7)
        reader = FrameFileReader(path)
        want = np.stack([f[1:4] for f in frames[2:6]])
        assert np.array_equal(reader._strip_block(2, 6, (1, 4)), want)
        key, value = reader.strip_records(2, 6, (1, 4))
        assert key.dtype == np.int64 and value.dtype == np.uint16
        assert np.all(np.diff(key) > 0) and np.all(value > 0)
        assert np.array_equal(scatter(key, value, (4, 3, 8)), want)

    def test_strip_block_out_of_range(self, tmp_path):
        path = tmp_path / "f.bifr"
        write_frames(path, 8, 6, blocks(make_frames(3)), 3)
        reader = FrameFileReader(path)
        with pytest.raises(IndexError):
            reader.strip_records(1, 4, (0, 6))
        with pytest.raises(IndexError):
            reader.strip_records(0, 3, (2, 7))

    def test_frame_index_out_of_range(self, tmp_path):
        p = tmp_path / "r.bifr"
        write_frames(p, 8, 6, blocks(make_frames(2)), 2)
        with pytest.raises(IndexError):
            FrameFileReader(p).frame(2)

    def test_file_that_does_not_fit_is_not_written(self, tmp_path, monkeypatch):
        # a version-2 file takes at least its header and 12 bytes per frame
        need = HEADER_SIZE + 3 * 12
        monkeypatch.setattr(frameio.shutil, "disk_usage", lambda path: SimpleNamespace(free=need - 1))
        p = tmp_path / "full.bifr"
        frames = make_frames(3)
        with pytest.raises(OSError) as err:
            write_frames(p, 8, 6, blocks(frames), 3)
        assert err.value.errno == errno.ENOSPC
        assert not p.exists()
        # the file it replaces is space it frees
        p.write_bytes(b"x")
        write_frames(p, 8, 6, blocks(frames), 3)
        assert p.stat().st_size == need + 6 * np.count_nonzero(np.stack(frames))

    def test_little_endian_on_disk(self, tmp_path):
        # count 1, record (index 1, value 0x0102), then the offset table
        frame = np.array([[0, 0x0102]], dtype=np.uint16)
        p = tmp_path / "e.bifr"
        write_frames(p, 2, 1, blocks([frame]), 1)
        assert p.read_bytes()[HEADER_SIZE:] == (
            b"\x01\0\0\0" + b"\x01\0\0\0" + b"\x02\x01" + HEADER_SIZE.to_bytes(8, "little")
        )

    @pytest.mark.parametrize(
        "parts, where",
        [
            ([(1, np.array([0, 3]), np.array([70000, -1]))], "frame 0, record 0: value 70000"),
            ([(1, np.array([0, 3]), np.array([5, -1]))], "frame 0, record 1: value -1"),
            # the second block's frame 1 is frame 3 of the file
            (
                [(2, np.array([1]), np.array([9], np.uint16)), (2, np.array([2, 17]), np.array([1, 65536]))],
                "frame 3, record 1: value 65536",
            ),
        ],
    )
    def test_values_outside_uint16_rejected(self, tmp_path, parts, where):
        p = tmp_path / "w.bifr"
        with pytest.raises(FrameFormatError, match=where):
            write_frames(p, 4, 4, parts, sum(n for n, _, _ in parts))
        assert not p.exists()

    @pytest.mark.parametrize(
        "key, value, name",
        [
            (np.array([0.5, 3.0]), np.array([7, 1]), "keys of dtype float64"),
            (np.array([0, 3]), np.array([7.0, 1.5]), "values of dtype float64"),
            (np.array([0, 3]), np.array([True, True]), "values of dtype bool"),
        ],
    )
    def test_non_integer_records_rejected(self, tmp_path, key, value, name):
        p = tmp_path / "w.bifr"
        with pytest.raises(FrameFormatError, match=f"frames 0..0: {name} are not integers"):
            write_frames(p, 4, 4, [(1, key, value)], 1)
        assert not p.exists()

    def test_integers_in_range_write_the_uint16_bytes(self, tmp_path):
        frames = make_frames(3)
        key, value = records(np.stack(frames), (0, 6))
        wide, narrow = tmp_path / "wide.bifr", tmp_path / "narrow.bifr"
        write_frames(wide, 8, 6, [(3, key.astype(np.uint32), value.astype(np.int64))], 3)
        write_frames(narrow, 8, 6, [(3, key, value)], 3)
        assert wide.read_bytes() == narrow.read_bytes()


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


class TestSourceProtocol:
    def test_simulator_and_its_file_give_identical_records(self, tmp_path):
        # the two sources analyze_source reads hand it the same records
        cam = CameraModel(width=96, height=64, strip_rows=(20, 51), dark_rate=1.0)
        grid = cam.pixel_grid()
        pdf = JointPattern2D(grid, np.ones((grid.n, grid.n)) / (grid.n * grid.spacing) ** 2, "coincidence")
        sim = FrameSimulator(pdf, cam, 150, 3.0, 17)
        sim.write(tmp_path / "run.bifr")
        reader = FrameFileReader(tmp_path / "run.bifr")
        windows = [(0, cam.height), _strip_window(cam), (cam.height - 4, cam.height)]
        for lo, hi in [(0, 150), (3, 70), (149, 150), (40, 40)]:
            for rows in windows:
                key, value = sim.strip_records(lo, hi, rows)
                got_key, got_value = reader.strip_records(lo, hi, rows)
                assert key.dtype == got_key.dtype == np.int64
                assert value.dtype == got_value.dtype == np.uint16
                assert np.array_equal(key, got_key) and np.array_equal(value, got_value)
        # the whole run lights pixels in every window
        assert all(sim.strip_records(0, 150, rows)[0].size for rows in windows)
        assert reader.header.version == 2

    def test_v2_records_need_no_dense_block(self, tmp_path, monkeypatch):
        cam = CameraModel(width=96, height=64, strip_rows=(20, 51), dark_rate=1.0)
        grid = cam.pixel_grid()
        pdf = JointPattern2D(grid, np.ones((grid.n, grid.n)) / (grid.n * grid.spacing) ** 2, "coincidence")
        sim = FrameSimulator(pdf, cam, 100, 3.0, 5)
        sim.write(tmp_path / "run.bifr")
        want = sim.strip_records(0, 100, _strip_window(cam))

        def refuse(*args, **kwargs):
            raise AssertionError("np.flatnonzero called")

        monkeypatch.setattr(np, "flatnonzero", refuse)
        got = FrameFileReader(tmp_path / "run.bifr").strip_records(0, 100, _strip_window(cam))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestVersions:
    def test_v1_v2_v1_is_byte_identical(self, tmp_path):
        # sparse frames, a blank one and a fully lit one
        rng = np.random.default_rng(3)
        frames = np.where(rng.random((6, 6, 8)) < 0.1, rng.integers(1, 65536, (6, 6, 8)), 0)
        frames[2] = 0
        frames[4] = rng.integers(1, 65536, (6, 8))
        v1, v2, back = tmp_path / "v1.bifr", tmp_path / "v2.bifr", tmp_path / "back.bifr"
        write_v1(v1, 8, 6, frames, 6)
        write_v2(v2, FrameFileReader(v1), block=4)
        assert FrameFileReader(v2).header.version == 2
        assert v2.stat().st_size == HEADER_SIZE + 6 * 12 + 6 * np.count_nonzero(frames)
        v2_to_v1(v2, back)
        assert back.read_bytes() == v1.read_bytes()

    def test_v2_v1_v2_of_a_run_is_byte_identical(self, tmp_path):
        cam = CameraModel(width=64, height=48, strip_rows=(10, 30), dark_rate=2.0)
        grid = cam.pixel_grid()
        pdf = JointPattern2D(grid, np.ones((grid.n, grid.n)) / (grid.n * grid.spacing) ** 2, "coincidence")
        sim = FrameSimulator(pdf, cam, 70, 2.0, 8)
        v2, v1, again = tmp_path / "v2.bifr", tmp_path / "v1.bifr", tmp_path / "again.bifr"
        sim.write(v2)
        v2_to_v1(v2, v1)
        write_v2(again, FrameFileReader(v1), block=16)
        assert again.read_bytes() == v2.read_bytes()
        # and the version-1 file holds the simulator's dense frames
        assert np.array_equal(FrameFileReader(v1).frame(69), sim.frame(69))


def corrupt_v2(path, width=512, height=512):
    """Three frames: records at indices (5, 9), none, and (1, 2, 7); the
    frames start at bytes 21, 37 and 41, and the offset table at 63."""
    keys = np.array([5, 9, 2 * width * height + 1, 2 * width * height + 2, 2 * width * height + 7])
    write_frames(path, width, height, [(3, keys, np.arange(1, 6, dtype=np.uint16))], 3)
    return bytearray(path.read_bytes())


def poke(raw, offset, fmt, value):
    struct.pack_into(fmt, raw, offset, value)
    return raw


CORRUPT = {
    # entry 2 points back before entry 1
    "offset table not monotone": (lambda raw: poke(raw, 63 + 16, "<Q", 21), 63 + 8),
    "count disagrees with the offset table": (lambda raw: poke(raw, 21, "<I", 3), 21),
    "count overruns the file": (lambda raw: poke(raw, 41, "<I", 1000), 41),
    "index past the frame": (lambda raw: poke(raw, 41 + 4 + 6, "<I", 512 * 512), 41 + 4 + 6),
    "index not increasing": (lambda raw: poke(raw, 41 + 4 + 6, "<I", 1), 41 + 4 + 6),
    "record of value 0": (lambda raw: poke(raw, 41 + 4 + 6 + 4, "<H", 0), 41 + 4 + 6),
    "file cut inside the offset table": (lambda raw: raw[:-4], 83 - 24),
}


class TestCorruptV2:
    def test_layout_of_the_corrupted_file(self, tmp_path):
        raw = corrupt_v2(tmp_path / "ok.bifr")
        assert len(raw) == 63 + 24
        assert np.array_equal(np.frombuffer(bytes(raw[63:]), "<u8"), [21, 37, 41])
        reader = FrameFileReader(tmp_path / "ok.bifr")
        key, value = reader.strip_records(0, 3, (0, 512))
        assert key.tolist() == [5, 9, 2 * 512 * 512 + 1, 2 * 512 * 512 + 2, 2 * 512 * 512 + 7]
        assert value.tolist() == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("case", CORRUPT)
    def test_raises_with_the_byte_offset(self, tmp_path, case):
        damage, offset = CORRUPT[case]
        path = tmp_path / "bad.bifr"
        path.write_bytes(bytes(damage(corrupt_v2(path))))
        with pytest.raises(FrameFormatError) as err:
            FrameFileReader(path).strip_records(0, 3, (0, 512))
        assert err.value.offset == offset
        assert f"(byte offset {offset})" in str(err.value)

    @pytest.mark.parametrize("case", CORRUPT)
    def test_analyze_exits_3(self, tmp_path, capsys, case):
        damage, offset = CORRUPT[case]
        path = tmp_path / "bad.bifr"
        path.write_bytes(bytes(damage(corrupt_v2(path))))
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and f"(byte offset {offset})" in err
        assert not out.exists()
