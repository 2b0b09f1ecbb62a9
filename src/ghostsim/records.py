"""Offline intensity records: binary persistence of per-realization data.

Layout (little endian):

    header, 96 bytes:
        magic   6s   b"GIDAT1"
        version B    2 (1 for files written before the batch was stored)
        open    B    1 while a writer holds the file, 0 once it is closed
        n       Q    record count (patched on close, with the open flag; 0 until then)
        points  I    detector pixel count P
        batch   I    realizations per batch of the run (0 in version 1)
        pitch   d    detector pitch [m]
        origin  d    detector center [m]
        lam     d    wavelength [m]
        d1,d2,d d*3  geometry [m]
        seed    q
        sigma2  d
        phi     d    source aperture [m]
    body: n records of (1 + P) float64, scalar-arm intensity first, then the
          reference pattern pixels.

Round-trips are bitwise: the body is raw IEEE-754, so replaying a file feeds
the accumulator the exact numbers the live run produced.  ``open_records``
validates a file (magic, version, and a size of exactly the header plus its
records) and returns the header, or recovers the whole rows of a file whose
run was killed before it closed, as its open flag shows; ``read_batches`` is
the one reader of the body, streaming it through one reused batch buffer, so
replay's memory is one batch whatever the record count.  A block of records is also the one layout
of a batch in memory: live runs compute their intensities into a (B, 1 + P)
block, replay reads the file into one, and both fold the block's two column
views, so the same bits meet the same arithmetic; ``record_rows`` finds the
block behind two such views, which the writer then writes as it is.
The version written is the source stream of the intensities,
``fields.STREAM_VERSION`` (2); version 1 files hold stream-v1 intensities and
are still read.

Every output of the package, records and the command line's CSVs and
manifests alike, is opened by ``open_new``: an earlier run's file at the path
is unlinked and a new file created, never truncated in place.  A hard link to
the old file keeps its bytes, and the file system need not write the old
contents back before the new run's next file is created.  No output is
fsynced.
"""

from __future__ import annotations

import os
import struct
from dataclasses import astuple, dataclass, replace
from typing import Iterator

import numpy as np

from .errors import RecordFormatError
from .fields import STREAM_VERSION

MAGIC = b"GIDAT1"
_READABLE = range(1, STREAM_VERSION + 1)
_HEADER = struct.Struct("<6sBBQIIddddddqdd")
HEADER_SIZE = _HEADER.size

assert HEADER_SIZE == 96


@dataclass(frozen=True)
class RecordHeader:
    """File-level metadata identifying the run that produced the records.

    The fields are in on-disk order, after the magic, version and open flag.
    """

    n_records: int
    detector_points: int
    batch: int | None  # None for version 1 files, which did not store it
    detector_pitch: float
    detector_origin: float
    wavelength: float
    d1: float
    d2: float
    d: float
    seed: int
    sigma2: float
    phi: float

    @property
    def version(self) -> int:
        """Record version, which is also the source stream of the intensities."""
        return 1 if self.batch is None else STREAM_VERSION

    def pack(self, writing: bool = False) -> bytes:
        """The header's bytes; ``writing`` sets the open flag, as a writer
        does until it closes the file."""
        return _HEADER.pack(MAGIC, STREAM_VERSION, int(writing), *astuple(self))

    @classmethod
    def unpack(cls, blob: bytes) -> "RecordHeader":
        """The header ``blob`` begins with, an ``UnfinishedHeader`` if its
        open flag is set; its ``n_records`` is as stored."""
        if len(blob) < HEADER_SIZE:
            raise RecordFormatError("file too short for a record header")
        magic, version, flag, *values = _HEADER.unpack(blob[:HEADER_SIZE])
        if magic != MAGIC:
            raise RecordFormatError(f"bad magic {magic!r}")
        if version not in _READABLE:
            raise RecordFormatError(f"unsupported record version {version}")
        if flag not in (0, 1):
            raise RecordFormatError(f"bad open flag {flag}")
        header = (UnfinishedHeader if flag else RecordHeader)(*values)
        return replace(header, batch=None) if version == 1 else header


@dataclass(frozen=True)
class UnfinishedHeader(RecordHeader):
    """The header of a file whose run never closed its writer (it was killed,
    say), as its open flag shows: from ``open_records``, ``n_records`` counts
    the whole rows of the body, where the file's own header says 0."""


def remove_output(path) -> str:
    """Unlink the file ``path`` names, if there is one, and return its path.

    A symlink is followed: the file it resolves to is removed and the link
    stays, so a file created at the returned path is reached through it.
    """
    target = os.path.realpath(path)
    try:
        os.unlink(target)
    except FileNotFoundError:
        pass
    return target


def open_new(path, mode: str = "x", **kwargs):
    """Open ``path`` for writing as a new file, never by truncating an old one.

    Whatever the path names is removed by ``remove_output`` first, then the
    file is created; ``mode`` is an exclusive-creation mode, ``"x"`` or
    ``"xb"``, and ``kwargs`` go to ``open``.
    """
    return open(remove_output(path), mode, **kwargs)


def record_rows(i1: np.ndarray, i2: np.ndarray) -> np.ndarray | None:
    """The C-ordered (B, 1 + P) block of record rows whose column views are
    i1 (B,) and i2 (B, P), or None when they are not two such views.

    Live runs and ``read_batches`` hand out their batches as such views, so
    the block can be checked and written whole, with no copy.
    """
    base = i1.base
    if not (isinstance(base, np.ndarray) and i2.base is base and base.flags.c_contiguous
            and i1.ndim == 1 and i2.ndim == 2 and i2.shape[0] == i1.shape[0]
            and base.dtype == i1.dtype == i2.dtype == np.float64):
        return None
    n, width = i2.shape[0], 1 + i2.shape[1]
    start, odd = divmod(i1.ctypes.data - base.ctypes.data, 8)
    if odd or i1.strides != (8 * width,) or i2.strides != (8 * width, 8) \
            or i2.ctypes.data != i1.ctypes.data + 8:
        return None
    return base.reshape(-1)[start : start + n * width].reshape(n, width)


class RecordWriter:
    """Streams (i1, i2) batches to disk.  The file is created with its open
    flag set; on close the count is patched in and the flag cleared, in one
    write of the header.

    The file is created new by ``open_new``: a file already at ``path`` is
    replaced, not overwritten, unless the header cannot be packed, which
    leaves it untouched.
    """

    def __init__(self, path, header: RecordHeader):
        # a header that cannot be packed leaves the path as it was
        blob = header.pack(writing=True)
        self.header = header
        self._count = 0
        self._file = open_new(path, "xb")
        self._file.write(blob)

    def append(self, i1: np.ndarray, i2: np.ndarray) -> None:
        i1 = np.asarray(i1, dtype=np.float64)
        i2 = np.asarray(i2, dtype=np.float64)
        if i1.ndim != 1 or i2.shape != (i1.shape[0], self.header.detector_points):
            raise ValueError("append expects i1 (B,) and i2 (B, P)")
        block = record_rows(i1, i2)
        if block is None:
            block = np.empty((i1.shape[0], 1 + i2.shape[1]), dtype=np.float64)
            block[:, 0] = i1
            block[:, 1:] = i2
        block.tofile(self._file)
        self._count += i1.shape[0]

    def close(self) -> None:
        if self._file.closed:
            return
        self._file.seek(0)
        final = replace(self.header, n_records=self._count)
        self._file.write(final.pack())
        self._file.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_records(path) -> RecordHeader:
    """The header of a record file, once its size is checked against it.

    A closed file that is not exactly the header plus ``n_records`` rows
    (truncated, or with stray bytes) is rejected, whatever its count.  A
    file whose open flag is still set was left by a run that never closed
    its writer: its header counts 0, and it is returned as an
    ``UnfinishedHeader`` counting the body's whole rows, a trailing partial
    row dropped.  The body is read by ``read_batches``.
    """
    with open(path, "rb") as fh:
        header = RecordHeader.unpack(fh.read(HEADER_SIZE))
        size = fh.seek(0, 2)  # the offset of the end: the file's size
    row = 1 + header.detector_points
    if isinstance(header, UnfinishedHeader):
        if header.n_records:
            raise RecordFormatError(
                f"open flag set on a header counting {header.n_records} records")
        return replace(header, n_records=(size - HEADER_SIZE) // (row * 8))
    expected = HEADER_SIZE + header.n_records * row * 8
    if size != expected:
        raise RecordFormatError(
            f"file holds {size} bytes, header implies {expected} "
            f"({header.n_records} records of {row} float64)"
        )
    return header


def read_batches(path, detector_points: int,
                 bounds) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(i1, i2) for the records [a, b) of each of ``bounds``, read in order.

    Each batch is read into one reused (rows, 1 + P) buffer, and i1 (B,) and
    i2 (B, P) are its two column views, the layout in which a live run folds
    its batches, so memory stays at one batch and nothing is copied.  The
    views are overwritten by the next batch.  ``bounds`` is read one at a
    time, and the buffer grows to the longest batch yet.  Records past the
    end of the body raise ``RecordFormatError``.
    """
    width = 1 + detector_points
    block = np.empty((0, width), dtype=np.float64)
    with open(path, "rb", buffering=0) as fh:
        for a, b in bounds:
            if len(block) < b - a:
                block = np.empty((b - a, width), dtype=np.float64)
            fh.seek(HEADER_SIZE + a * width * 8)
            view = block[: b - a]
            got = fh.readinto(view)
            if got != view.nbytes:
                raise RecordFormatError(
                    f"records up to {b} asked, the body ends after {a + got // (width * 8)}"
                )
            yield view[:, 0], view[:, 1:]
