import struct
import tracemalloc

import numpy as np
import pytest

from ghostsim.errors import RecordFormatError
from ghostsim.records import (
    HEADER_SIZE,
    MAGIC,
    RecordHeader,
    RecordWriter,
    UnfinishedHeader,
    open_records,
    read_batches,
    record_rows,
)


def stored_rows(path, points=8):
    """The body straight from the file's bytes: an oracle sharing no code with read_batches."""
    return np.fromfile(path, dtype="<f8", offset=HEADER_SIZE).reshape(-1, 1 + points)


def make_header(n=0, points=8, seed=4, batch=256):
    return RecordHeader(
        n_records=n,
        detector_points=points,
        detector_pitch=1.557e-6,
        detector_origin=0.0,
        wavelength=0.532e-6,
        d1=0.060,
        d2=0.075,
        d=0.135,
        seed=seed,
        sigma2=1.0,
        phi=1.72e-3,
        batch=batch,
    )


def test_header_is_96_bytes_and_unpacks_exactly():
    h = make_header(n=123, points=256, seed=-5)
    blob = h.pack()
    assert len(blob) == HEADER_SIZE == 96
    assert blob[:6] == MAGIC
    assert blob[6] == 2  # version byte
    assert blob[7] == 0 and h.pack(writing=True)[7] == 1  # open flag
    assert struct.unpack_from("<I", blob, 20) == (256,)  # batch, former pad2
    assert RecordHeader.unpack(blob) == h


def test_header_rejects_corruption():
    blob = bytearray(make_header().pack())
    with pytest.raises(RecordFormatError, match="too short"):
        RecordHeader.unpack(bytes(blob[:40]))
    bad_magic = bytes(b"XXDAT1") + bytes(blob[6:])
    with pytest.raises(RecordFormatError, match="magic"):
        RecordHeader.unpack(bad_magic)
    bad_version = bytes(blob[:6]) + bytes([9]) + bytes(blob[7:])
    with pytest.raises(RecordFormatError, match="version"):
        RecordHeader.unpack(bad_version)
    bad_flag = bytes(blob[:7]) + bytes([2]) + bytes(blob[8:])
    with pytest.raises(RecordFormatError, match="bad open flag 2"):
        RecordHeader.unpack(bad_flag)


def test_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    i1 = rng.exponential(size=100)
    i2 = rng.exponential(size=(100, 8))
    path = tmp_path / "r.gidat"
    with RecordWriter(path, make_header()) as w:
        w.append(i1[:37], i2[:37])
        w.append(i1[37:], i2[37:])
    header = open_records(path)
    assert header.n_records == 100  # count patched on close
    (got_i1, got_i2), = read_batches(path, 8, [(0, 100)])
    assert np.array_equal(got_i1, i1)
    assert np.array_equal(got_i2, i2)
    assert np.array_equal(stored_rows(path), np.column_stack((i1, i2)))


def test_writer_close_is_idempotent(tmp_path):
    path = tmp_path / "r.gidat"
    w = RecordWriter(path, make_header())
    w.append(np.ones(3), np.ones((3, 8)))
    w.close()
    w.close()
    assert open_records(path).n_records == 3
    assert np.array_equal(stored_rows(path), np.ones((3, 9)))


def test_writer_refuses_an_unpackable_header_before_making_the_file(tmp_path):
    path, old = tmp_path / "r.gidat", tmp_path / "old.gidat"
    with RecordWriter(old, make_header()) as w:
        w.append(np.ones(3), np.ones((3, 8)))
    before = old.read_bytes()
    for where in (path, old):
        with pytest.raises(struct.error):
            RecordWriter(where, make_header(seed=1 << 63))  # past the signed 64-bit field
    assert not path.exists()
    assert old.read_bytes() == before  # an earlier file is left as it was


def test_writer_rejects_shape_mismatch(tmp_path):
    w = RecordWriter(tmp_path / "r.gidat", make_header(points=8))
    with pytest.raises(ValueError):
        w.append(np.ones(3), np.ones((3, 7)))
    with pytest.raises(ValueError):
        w.append(np.ones((3, 1)), np.ones((3, 8)))
    w.close()


def test_empty_file_reads_back_empty(tmp_path):
    path = tmp_path / "r.gidat"
    RecordWriter(path, make_header()).close()
    assert open_records(path).n_records == 0
    assert path.stat().st_size == HEADER_SIZE
    assert list(read_batches(path, 8, [])) == []


def test_open_records_rejects_bad_sizes(tmp_path):
    path = tmp_path / "r.gidat"
    with RecordWriter(path, make_header()) as w:
        w.append(np.ones(4), np.ones((4, 8)))

    truncated = tmp_path / "short.gidat"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(RecordFormatError, match="bytes"):
        open_records(truncated)

    padded = tmp_path / "long.gidat"
    padded.write_bytes(path.read_bytes() + b"\x00" * 3)
    with pytest.raises(RecordFormatError, match="bytes"):
        open_records(padded)

    # the header alone, as a run refused at its first batch leaves it, then
    # 147 stray bytes: two rows' worth, but the open flag is clear
    empty = tmp_path / "empty.gidat"
    RecordWriter(empty, make_header()).close()
    empty.write_bytes(empty.read_bytes() + b"\x00" * 147)
    with pytest.raises(RecordFormatError, match="file holds 243 bytes, header implies 96"):
        open_records(empty)


def test_an_unfinished_file_opens_with_its_whole_rows(tmp_path):
    # a killed run: its writer never closed, so the open flag is still set
    # and the header counts 0, over 5 whole rows
    rows = np.arange(5 * 9, dtype=np.float64).reshape(5, 9)
    path = tmp_path / "killed.gidat"
    w = RecordWriter(path, make_header())
    w.append(rows[:, 0], rows[:, 1:])  # tofile flushes the header, then writes the rows
    header = open_records(path)
    assert isinstance(header, UnfinishedHeader)
    assert header.n_records == 5
    assert [getattr(header, f) for f in ("seed", "batch", "detector_points")] == [4, 256, 8]
    (i1, i2), = read_batches(path, 8, [(0, 5)])
    assert np.array_equal(i1, rows[:, 0]) and np.array_equal(i2, rows[:, 1:])
    # a closed file is not unfinished, however many rows it holds
    w.close()
    assert type(open_records(path)) is RecordHeader
    # a trailing partial row is dropped
    path.write_bytes(make_header().pack(writing=True) + rows.tobytes() + b"\x00" * 36)
    assert open_records(path).n_records == 5
    # less than one row: an unfinished file with no records
    path.write_bytes(make_header().pack(writing=True) + b"\x00" * 36)
    assert open_records(path).n_records == 0
    # a writer sets the flag only while the count is still 0
    path.write_bytes(make_header(n=3).pack(writing=True) + bytes(3 * 9 * 8))
    with pytest.raises(RecordFormatError, match="open flag set on a header counting 3"):
        open_records(path)


def test_open_records_rejects_corrupt_magic(tmp_path):
    path = tmp_path / "r.gidat"
    with RecordWriter(path, make_header()) as w:
        w.append(np.ones(2), np.ones((2, 8)))
    blob = bytearray(path.read_bytes())
    blob[:6] = b"NOTGID"
    path.write_bytes(bytes(blob))
    with pytest.raises(RecordFormatError, match="magic"):
        open_records(path)


def test_hand_packed_version1_file_still_opens(tmp_path):
    # version 1 layout: same 96 bytes, version byte 1, zero where v2 keeps batch
    h = make_header(n=3, points=2)
    blob = struct.pack(
        "<6sBBQIIddddddqdd", b"GIDAT1", 1, 0, 3, 2, 0,
        h.detector_pitch, h.detector_origin, h.wavelength, h.d1, h.d2, h.d,
        h.seed, h.sigma2, h.phi,
    )
    rows = np.arange(9, dtype=np.float64).reshape(3, 3)
    path = tmp_path / "v1.gidat"
    path.write_bytes(blob + rows.tobytes())
    assert open_records(path) == make_header(n=3, points=2, batch=None)
    (i1, i2), = read_batches(path, 2, [(0, 3)])
    assert np.array_equal(i1, rows[:, 0])
    assert np.array_equal(i2, rows[:, 1:])


def test_read_batches_equal_the_mapped_slices(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "r.gidat"
    with RecordWriter(path, make_header()) as w:
        w.append(rng.exponential(size=23), rng.exponential(size=(23, 8)))
    header = open_records(path)
    body = stored_rows(path)
    bounds = [(0, 10), (10, 20), (20, 23)]  # a short last batch
    got = []
    for i1, i2 in read_batches(path, header.detector_points, bounds):
        # the two column views of one C-ordered (B, 1 + P) block
        assert i1.strides == (9 * 8,) and i2.strides == (9 * 8, 8)
        assert i2.ctypes.data == i1.ctypes.data + 8
        got.append((i1.copy(), i2.copy()))
    assert len(got) == len(bounds)
    for (a, b), (i1, i2) in zip(bounds, got):
        assert i1.shape == (b - a,) and i2.shape == (b - a, 8)
        assert np.array_equal(i1, body[a:b, 0])
        assert np.array_equal(i2, body[a:b, 1:])


def test_read_batches_hand_out_views_of_one_buffer(tmp_path):
    points, rows, batches = 256, 64, 40
    path = tmp_path / "r.gidat"
    with RecordWriter(path, make_header(points=points)) as w:
        w.append(np.ones(rows * batches), np.ones((rows * batches, points)))
    bounds = [(k * rows, (k + 1) * rows) for k in range(batches)]
    reader = read_batches(path, points, bounds)
    i1, i2 = next(reader)
    buffer = i1.base
    assert i2.base is buffer and buffer.shape == (rows, 1 + points)
    tracemalloc.start()
    try:
        for i1, i2 in reader:
            assert i1.base is buffer and i2.base is buffer
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffer.nbytes // 8  # a few view objects, not a batch


def test_read_batches_past_the_body_raise(tmp_path):
    path = tmp_path / "r.gidat"
    with RecordWriter(path, make_header()) as w:
        w.append(np.ones(5), np.ones((5, 8)))
    batches = read_batches(path, 8, [(0, 4), (4, 8)])
    next(batches)
    with pytest.raises(RecordFormatError, match="ends after 5"):
        next(batches)


def test_record_rows_finds_the_block_behind_two_column_views():
    buffer = np.arange(7 * 9, dtype=np.float64).reshape(7, 9)
    for rows in (buffer, buffer[2:6], buffer[6:], buffer[3:3]):
        block = record_rows(rows[:, 0], rows[:, 1:])
        assert block is not None
        assert block.shape == rows.shape and block.ctypes.data == rows.ctypes.data
        assert block.flags.c_contiguous
    other = np.zeros_like(buffer)
    for i1, i2 in [
        (buffer[:, 0].copy(), buffer[:, 1:]),  # a copy
        (buffer[:, 0], buffer[:, 1:].copy()),
        (buffer[:, 1], buffer[:, 2:]),  # not column 0 of a record row
        (buffer[:, 0], other[:, 1:]),  # two blocks
        (buffer[:4, 0], buffer[1:5, 1:]),  # rows that do not line up
        (buffer[::2, 0], buffer[::2, 1:]),  # every other row
        (np.ones(7), np.ones((7, 8))),
    ]:
        assert record_rows(i1, i2) is None


def test_append_writes_record_row_views_as_they_are(tmp_path):
    points, n = 256, 64
    buffer = np.random.default_rng(3).exponential(size=(n + 5, 1 + points))
    rows = buffer[2 : 2 + n]
    with RecordWriter(tmp_path / "views.gidat", make_header(points=points)) as w:
        tracemalloc.start()
        try:
            w.append(rows[:, 0], rows[:, 1:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    with RecordWriter(tmp_path / "copies.gidat", make_header(points=points)) as w:
        w.append(rows[:, 0].copy(), rows[:, 1:].copy())
    views = (tmp_path / "views.gidat").read_bytes()
    assert views == (tmp_path / "copies.gidat").read_bytes()
    assert views[HEADER_SIZE:] == rows.tobytes()
    assert peak < rows.nbytes // 8  # the block is written, not copied first
