"""Persistent, content-addressed result cache for simulation jobs.

Completed jobs are memoized on disk keyed by :meth:`SimJob.key`, so any
process that builds the same job — a later benchmark invocation, a pytest
re-run, a worker process of the parallel executor — gets the finished result
back instead of re-simulating.

**Layout.**  A cache directory holds two kinds of files.

* *Segments* (``<dir>/<pid>-<token>.seg``) take every write.  Each process
  that writes to the directory appends to a segment of its own, holding an
  ``flock`` on it while it does; a writer moves on to a fresh segment once
  its current one passes :data:`_SEGMENT_BYTES`.  Each entry is one record
  appended with a single ``os.write``: a fixed header (key and blob lengths,
  a write stamp, the sha256 of key + blob, and a CRC-32 of the header and
  key), the key, then the blob: the result as an inert JSON record
  (:mod:`repro.runtime.records`).  There is no fsync per record; a killed
  writer leaves at most a torn tail, which reads as a miss.
* *Packs* (``<dir>/<pid>-<token>.pack``) hold merged records sorted by a
  64-bit key fingerprint, followed by a table of every record's fingerprint,
  stamp, blob length and offset.  When a writer opening a segment finds
  :data:`_MERGE_AT` or more segments and packs, it merges the *idle*
  segments (those no writer holds) and the smaller packs into one new pack
  (see :func:`_merge`).  So however many runs have written to a directory,
  it holds a bounded number of segments, and a reader loads a pack's table
  (33 bytes per record) instead of indexing its records.

A file that is neither is not an entry; in particular, the per-entry
``<xx>/<key>.pkl`` files of earlier versions read as cold.  So do the
segments and packs of the versions that stored pickles: their magics
(``RCS1``, ``RCP1``) are not this layout's, so a reader reads a segment's
first four bytes or a pack's footer and nothing more of them, and the next
merge reclaims their files.

**Reading.**  Each :class:`ResultCache` indexes the segments record by
record, refreshing the index with the records appended since its last look
(read in :data:`_PIECE`-sized pieces, of which it keeps the headers and
keys), and looks keys up in the packs' tables by binary search.  The newest
record of a key wins.  Every read from disk checks the record's CRC and
sha256, so a damaged record is a miss and its job recomputes; a damaged
header is skipped by resynchronising on the next valid one.  The batched
probes the runner and the serving front-end depend on
(:meth:`ResultCache.get_many`, :meth:`ResultCache.missing`) are index and
table queries plus one ``pread`` per hit.

**Maintenance.**  :meth:`ResultCache.prune` ranks entries by write stamp
and rewrites only the files holding an evicted record; :meth:`ResultCache.
clear` deletes every segment and pack.  Merges, prunes and clears take turns
through an ``flock`` on the directory.  Records another process appends to a
segment while ``prune`` or ``clear`` deletes it are lost, and their jobs
recompute later (the same outcome as ``clear`` racing a writer in any
layout); so is a lookup that lists the directory just before a merge
replaces the files it names.

**Write failures degrade.**  A put that fails with ``OSError`` (full disk,
read-only or vanished directory) is counted in
:attr:`ResultCache.write_failures` and reported once per instance on
stderr; the caller's results are unaffected.

The cache is *input*-addressed, not code-addressed: if the simulator's
semantics change, bump :data:`repro.runtime.jobs.CACHE_SCHEMA_VERSION` (or
clear the directory with ``python -m repro cache clear``).

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default: ``.repro_cache`` under the
  current working directory).
* ``REPRO_CACHE=0`` — disable the on-disk layer entirely.
"""

from __future__ import annotations

import bisect
import errno
import fcntl
import hashlib
import heapq
import os
import secrets
import struct
import sys
import threading
import time
import zlib
from array import array
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import knobs
from repro.runtime import records

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

#: Upper bound on blobs kept in a cache instance's in-memory level.  The
#: disk level is authoritative; this only caps RAM held by long sessions
#: (e.g. the process-wide default runner over a full-scale sweep).
MEMORY_ENTRY_LIMIT = 4096

#: Record header: magic, CRC-32, key length, blob length, write stamp (ns),
#: sha256 of key + blob.  The CRC covers every byte after it up to the end
#: of the key, so the index never trusts a damaged length.
_HEADER = struct.Struct("<4sIHQQ32s")
_HEADER_SIZE = _HEADER.size
_CRC_FROM = 8
_FIELDS = struct.Struct("<HQQ32s")
_MAGIC = b"RCS2"
_SEGMENT_SUFFIX = ".seg"

#: Pack footer: magic, CRC-32 of the table, record count.  The table before
#: it is four little-endian uint64 columns — fingerprints (sorted), stamps,
#: blob lengths, record offsets — and one more offset, where the table starts.
_FOOTER = struct.Struct("<4sIQ")
_PACK_MAGIC = b"RCP2"
_PACK_SUFFIX = ".pack"

#: Longest key a record holds (the old layout's file-name limit, rounded up).
_KEY_LIMIT = 1024

#: Bytes a scan reads at a time.
_PIECE = 1 << 16

#: Append handles one process keeps open, one per cache directory it writes.
_APPEND_HANDLE_LIMIT = 8

#: Size past which a writer starts a fresh segment, so the records a reader
#: indexes one by one stay bounded by about ``_MERGE_AT`` segments' worth.
_SEGMENT_BYTES = 1 << 20

#: Segments plus packs at which the next writer to open a segment merges
#: the idle segments and the smaller packs into one pack.
_MERGE_AT = 16


def default_cache_dir() -> Path:
    """The cache directory the environment asks for."""
    return Path(knobs.get("REPRO_CACHE_DIR"))


@dataclass(frozen=True)
class PruneReport:
    """Outcome of :meth:`ResultCache.prune`."""

    removed_entries: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int


def _record(key: bytes, blob: bytes, stamp: int, digest: bytes) -> bytes:
    """One record's bytes: header, key, blob."""
    fields = _FIELDS.pack(len(key), len(blob), stamp, digest)
    crc = zlib.crc32(key, zlib.crc32(fields)).to_bytes(4, "little")
    return b"".join((_MAGIC, crc, fields, key, blob))


def _blob_of(record: bytes, key: bytes) -> bytes | None:
    """The blob of one record read whole from disk, or ``None`` unless it
    is ``key``'s record and every byte of it checks out."""
    if len(record) < _HEADER_SIZE:
        return None
    magic, crc, key_len, blob_len, _stamp, digest = _HEADER.unpack_from(record)
    key_end = _HEADER_SIZE + key_len
    if (
        magic != _MAGIC
        or key_end + blob_len != len(record)
        or record[_HEADER_SIZE:key_end] != key
        or zlib.crc32(memoryview(record)[_CRC_FROM:key_end]) != crc
        or hashlib.sha256(memoryview(record)[_HEADER_SIZE:]).digest() != digest
    ):
        return None
    return record[key_end:]


def _fingerprint(key: bytes) -> int:
    """A key's 64-bit pack fingerprint.  A collision costs a recompute, not
    a wrong value: every read compares the stored key."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def _store_files(directory: str) -> tuple[list[str], list[str]]:
    """The segment and pack names in ``directory``."""
    try:
        names = os.listdir(directory)
    except OSError:
        return [], []
    return (
        [name for name in names if name.endswith(_SEGMENT_SUFFIX)],
        [name for name in names if name.endswith(_PACK_SUFFIX)],
    )


def _scan(fd: int, offset: int, size: int, searching: bool, found) -> tuple[int, bool]:
    """Call ``found(key, offset, length, stamp, blob_len)`` for each whole
    record in ``[offset, size)`` of an open segment or pack.

    Reads at most :data:`_PIECE` bytes at a time and keeps only headers and
    keys; a blob that runs past the piece is skipped without being read.
    Returns where the next scan resumes: the first incomplete record (a torn
    tail or a write in progress), or the end.  ``searching`` means the bytes
    at ``offset`` follow a damaged header, so the next valid header has to
    be found first.  A file whose first four bytes are not this layout's
    magic (the pickle era's ``RCS1``, say) holds no record of it: the scan
    reads those four bytes and reports the end.
    """
    if offset == 0 and size >= len(_MAGIC) and os.pread(fd, len(_MAGIC), 0) != _MAGIC:
        return size, False
    while offset + _HEADER_SIZE <= size:
        piece = os.pread(fd, min(_PIECE, size - offset), offset)
        end = len(piece)
        pos = 0
        while True:
            if searching:
                found_at = piece.find(_MAGIC, pos)
                if found_at < 0:
                    # Keep a tail that may hold a magic cut in two.
                    pos = max(pos, end - len(_MAGIC) + 1)
                    break
                pos = found_at
            if pos + _HEADER_SIZE > end:
                break
            magic, crc, key_len, blob_len, stamp, _digest = _HEADER.unpack_from(piece, pos)
            key_end = pos + _HEADER_SIZE + key_len
            if magic == _MAGIC and key_len <= _KEY_LIMIT and key_end > end:
                if offset + key_end > size:
                    return offset + pos, searching  # incomplete tail
                break  # the key continues in the next piece
            if (magic != _MAGIC or key_len > _KEY_LIMIT
                    or zlib.crc32(piece[pos + _CRC_FROM : key_end]) != crc):
                searching = True
                pos += 1
                continue
            if offset + key_end + blob_len > size:
                return offset + pos, False  # incomplete tail
            searching = False
            length = _HEADER_SIZE + key_len + blob_len
            found(piece[pos + _HEADER_SIZE : key_end], offset + pos, length, stamp, blob_len)
            pos = key_end + blob_len
        if pos == 0:
            break  # no progress: the file shrank under the read
        offset += pos
    return offset, searching


class _Pack:
    """One pack's table, loaded whole (33 bytes per record)."""

    __slots__ = ("columns", "count")

    def __init__(self, columns: array, count: int) -> None:
        self.columns = columns
        self.count = count

    @property
    def records_end(self) -> int:
        """Where the records stop and the table starts."""
        return self.columns[4 * self.count]

    def records(self, source: int):
        """``(fingerprint, stamp, source, offset, length, blob_len)`` of
        every record, in fingerprint order."""
        columns, count = self.columns, self.count
        for at in range(count):
            start = columns[3 * count + at]
            yield (columns[at], columns[count + at], source, start,
                   columns[3 * count + at + 1] - start, columns[2 * count + at])

    def lookup(self, fingerprint: int) -> list[tuple[int, int, int, int]]:
        """``(offset, length, stamp, blob_len)`` of the records with
        ``fingerprint``."""
        columns, count = self.columns, self.count
        at = bisect.bisect_left(columns, fingerprint, 0, count)
        hits = []
        while at < count and columns[at] == fingerprint:
            start = columns[3 * count + at]
            end = columns[3 * count + at + 1]
            hits.append((start, end - start, columns[count + at], columns[2 * count + at]))
            at += 1
        return hits


def _read_pack(fd: int) -> _Pack | None:
    """The table of the pack open as ``fd``; ``None`` while it is still
    being written, or if it was torn or damaged."""
    size = os.fstat(fd).st_size
    if size < _FOOTER.size:
        return None
    magic, crc, count = _FOOTER.unpack(os.pread(fd, _FOOTER.size, size - _FOOTER.size))
    table_size = (4 * count + 1) * 8
    if magic != _PACK_MAGIC or table_size + _FOOTER.size > size:
        return None
    columns = array("Q", [0]) * (4 * count + 1)
    if os.preadv(fd, [columns], size - _FOOTER.size - table_size) != table_size:
        return None
    if zlib.crc32(columns) != crc:
        return None
    if sys.byteorder == "big":
        columns.byteswap()
    return _Pack(columns, count)


def _load_pack(path: str) -> _Pack | None:
    try:
        with open(path, "rb", buffering=0) as handle:
            return _read_pack(handle.fileno())
    except OSError:
        return None


def _write_all(fd: int, data: bytes) -> None:
    if os.write(fd, data) != len(data):
        raise OSError(errno.ENOSPC, "short write to cache file")


def _write_pack(root: str, records) -> None:
    """Write ``records`` — ``(fingerprint, stamp, blob_len, record bytes)``
    in fingerprint order — as one new pack in ``root``; on failure nothing
    of it is left behind."""
    columns = [array("Q") for _ in range(4)]
    fingerprints, stamps, blob_lengths, offsets = columns
    path = os.path.join(root, f"{os.getpid()}-{secrets.token_hex(6)}{_PACK_SUFFIX}")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        pending: list[bytes] = []
        buffered = position = 0
        for fingerprint, stamp, blob_len, record in records:
            fingerprints.append(fingerprint)
            stamps.append(stamp)
            blob_lengths.append(blob_len)
            offsets.append(position)
            position += len(record)
            pending.append(record)
            buffered += len(record)
            if buffered >= _PIECE:
                _write_all(fd, b"".join(pending))
                pending, buffered = [], 0
        offsets.append(position)
        _write_all(fd, b"".join(pending))
        crc = 0
        for column in columns:
            if sys.byteorder == "big":
                column.byteswap()
            crc = zlib.crc32(column, crc)
            _write_all(fd, column.tobytes())
        _write_all(fd, _FOOTER.pack(_PACK_MAGIC, crc, len(fingerprints)))
    except BaseException:
        os.close(fd)
        Path(path).unlink(missing_ok=True)
        raise
    os.close(fd)


@contextmanager
def _directory_lock(root: str, *, wait: bool):
    """Hold ``root``'s maintenance lock (an ``flock`` on the directory), so
    merges, prunes and clears take turns.  Yields whether it is held: not
    when ``wait`` is false and another process holds it, nor when the
    directory cannot be opened."""
    try:
        fd = os.open(root, os.O_RDONLY)
    except OSError:
        yield False
        return
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
        except OSError:
            yield False
            return
        yield True
    finally:
        os.close(fd)


def _newest_of_each(records):
    """The last record of each run of equal fingerprints: with records in
    (fingerprint, stamp) order, each key's newest."""
    previous = None
    for record in records:
        if previous is not None and record[0] != previous[0]:
            yield previous
        previous = record
    if previous is not None:
        yield previous


def _merge(root: str) -> None:
    """Merge ``root``'s idle segments and its smaller packs into one new
    pack.

    A segment is idle when no writer holds its ``flock``: its process
    closed it or died.  Packs join smallest first, each only while it is at
    most twice the size of everything taken before it, so pack sizes grow
    geometrically: a directory holds about log2(cache / segment) packs, and
    a record is rewritten about that many times, not once per merge.  The
    newest record of each key survives.  Packs stream through in
    fingerprint order, so memory stays bounded by the idle segments'
    records.  Skipped while another process merges, prunes or clears; a
    merge that cannot finish (a full disk) leaves every file as it was.
    """
    with _directory_lock(root, wait=False) as locked:
        if not locked:
            return
        segments, packs = _store_files(root)
        opened: list[int] = []  # every descriptor; a segment's holds its lock
        merged: list[tuple[str, int]] = []
        fresh: list[tuple] = []  # the idle segments' records
        taken = 0  # bytes of the files merged so far
        try:
            for name in segments:
                try:
                    fd = os.open(os.path.join(root, name), os.O_RDONLY)
                except OSError:
                    continue
                opened.append(fd)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    continue  # a live writer's

                def found(key, offset, length, stamp, blob_len, source=len(merged)):
                    fresh.append((_fingerprint(key), stamp, source, offset, length, blob_len))

                size = os.fstat(fd).st_size
                _scan(fd, 0, size, False, found)
                merged.append((name, fd))
                taken += size
            fresh.sort()
            runs = [fresh]
            sized = []
            for name in packs:
                try:
                    fd = os.open(os.path.join(root, name), os.O_RDONLY)
                except OSError:
                    continue
                opened.append(fd)
                pack = _read_pack(fd)
                if pack is None:
                    # Under the lock no pack is being written: this one was
                    # torn by a merge or prune that died.
                    Path(root, name).unlink(missing_ok=True)
                    continue
                sized.append((os.fstat(fd).st_size, name, fd, pack))
            for size, name, fd, pack in sorted(sized, key=lambda item: item[:2]):
                if merged and size > 2 * taken:
                    break
                runs.append(pack.records(len(merged)))
                merged.append((name, fd))
                taken += size
            if not fresh and len(merged) < 2:
                return
            _write_pack(root, (
                (fingerprint, stamp, blob_len, os.pread(merged[source][1], length, offset))
                for fingerprint, stamp, source, offset, length, blob_len
                in _newest_of_each(heapq.merge(*runs))
            ))
            for name, _fd in merged:
                Path(root, name).unlink(missing_ok=True)
        finally:
            for fd in opened:
                os.close(fd)


class _Appender:
    """This process's segment handles, one per cache directory it writes.

    Bounded to :data:`_APPEND_HANDLE_LIMIT` open handles; a handle whose
    segment was unlinked (by ``clear``/``prune``/a merge, or a removed
    directory) or outgrew :data:`_SEGMENT_BYTES` is closed before the next
    append, so a long-lived worker neither leaks descriptors nor pins
    deleted segments' disk space, and its closed segments can be merged.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handles: OrderedDict[str, int] = OrderedDict()  # guarded-by: _lock
        self._last_stamp = 0  # guarded-by: _lock

    def write_record(self, where: str, key: bytes, blob: bytes) -> None:
        """Append one record, stamped now, to the segment for directory
        ``where`` (an absolute path); raises ``OSError`` when it did not
        land whole."""
        if len(key) > _KEY_LIMIT:
            raise OSError(errno.ENAMETOOLONG, f"cache key of {len(key)} bytes")
        digest = hashlib.sha256(key)
        digest.update(blob)
        with self._lock:
            # Strictly increasing within the process, so entries written in
            # order rank in order even when the clock does not move.
            stamp = self._last_stamp = max(time.time_ns(), self._last_stamp + 1)
            record = _record(key, blob, stamp, digest.digest())
            fd = self._handle_locked(where)
            if os.write(fd, record) != len(record):
                # A torn record ends this segment; later ones go to a new one.
                self._close_locked(where)
                raise OSError(errno.ENOSPC, "short write to cache segment", where)

    @contextmanager
    def exclusive(self, where: str):
        """Hold off this process's appends (and its forks) with no handle
        open on directory ``where``, while a prune or clear rewrites it."""
        with self._lock:
            self._close_locked(where)
            yield

    def _handle_locked(self, where: str) -> int:
        fd = self._handles.get(where)
        if fd is not None:
            status = os.fstat(fd)
            if status.st_nlink and status.st_size < _SEGMENT_BYTES:
                self._handles.move_to_end(where)
                return fd
            self._close_locked(where)  # unlinked or full: start afresh
        for other, handle in list(self._handles.items()):
            if not os.fstat(handle).st_nlink:
                self._close_locked(other)
        os.makedirs(where, exist_ok=True)
        segments, packs = _store_files(where)
        if len(segments) + len(packs) >= _MERGE_AT:
            try:
                _merge(where)
            except OSError:
                pass  # the files stay as they were; the append goes ahead
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND
        while True:
            name = f"{os.getpid()}-{secrets.token_hex(6)}{_SEGMENT_SUFFIX}"
            fd = os.open(os.path.join(where, name), flags, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                pass  # no locks on this file system: merges never take it
            if os.fstat(fd).st_nlink:
                break
            os.close(fd)  # a merge took it before the lock did: take another
        self._handles[where] = fd
        while len(self._handles) > _APPEND_HANDLE_LIMIT:
            self._close_locked(next(iter(self._handles)))
        return fd

    def _close_locked(self, where: str) -> None:
        fd = self._handles.pop(where, None)
        if fd is not None:
            os.close(fd)

    def abandon(self) -> None:
        """Drop every handle: only for a just-forked child, whose copy of
        the lock the forking thread took.  The parent's descriptors (and so
        its segment locks) stay open."""
        for fd in self._handles.values():  # repro: allow[lock-discipline]
            try:
                os.close(fd)
            except OSError:
                pass


_APPENDER = _Appender()


def _before_fork() -> None:
    # Merges, prunes and clears run under the append lock, so no child is
    # forked holding a copy of their directory or segment locks.
    _APPENDER._lock.acquire()


def _after_fork_in_parent() -> None:
    _APPENDER._lock.release()


def _after_fork_in_child() -> None:
    # A forked child must never append to its parent's segments.
    global _APPENDER
    _APPENDER.abandon()
    _APPENDER = _Appender()


os.register_at_fork(
    before=_before_fork,
    after_in_parent=_after_fork_in_parent,
    after_in_child=_after_fork_in_child,
)


class ResultCache:
    """Two-level (memory + disk) store of finished job results.

    The in-memory level keeps the record bytes rather than the live
    object: every :meth:`get` decodes a fresh copy, so callers can
    never corrupt the cache through a returned record.  It is an LRU
    bounded to :data:`MEMORY_ENTRY_LIMIT` blobs; evicted entries simply fall
    back to the disk level.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        #: Where the segments live, resolved once against the current directory.
        self._root = os.path.abspath(self.directory)
        self._memory: OrderedDict[str, bytes] = OrderedDict()  # guarded-by: _memory_lock
        # One cache instance is shared by concurrent BatchRunner.run() calls
        # (the serving front-end's background jobs); the recency reordering
        # and bound eviction must not race each other's lookups.
        self._memory_lock = threading.Lock()
        #: key -> (segment, record offset, record length, stamp, blob
        #: length) of the key's newest record in a segment.
        self._index: dict[str, tuple] = {}  # guarded-by: _index_lock
        #: segment -> (offset of its next unread header, size last seen,
        #: searching for a header after damage).
        self._segments: dict[str, tuple[int, int, bool]] = {}  # guarded-by: _index_lock
        #: pack -> its table.
        self._packs: dict[str, _Pack] = {}  # guarded-by: _index_lock
        self._write_failures = 0  # guarded-by: _index_lock
        self._index_lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached result for ``key``, or :data:`MISS`."""
        blob = self._memory_get(key)
        if blob is None:
            blob = self._load([key]).get(key)
            if blob is None:
                return MISS
            self._remember(key, blob)
        return self._decode(key, blob)

    def _memory_get(self, key: str) -> bytes | None:
        """Memory-level lookup, refreshing the entry's LRU recency."""
        with self._memory_lock:
            blob = self._memory.get(key)
            if blob is not None:
                self._memory.move_to_end(key)
            return blob

    def get_many(self, keys: list[str]) -> dict[str, object]:
        """Batched lookup: the subset of ``keys`` that are cached, decoded.

        One index refresh covers the whole batch, and only keys the index
        or a pack table knows are read — on a cold sweep, where nearly every
        key misses, a miss costs a dictionary lookup and a binary search.
        """
        found: dict[str, object] = {}
        need: list[str] = []
        for key in dict.fromkeys(keys):
            blob = self._memory_get(key)
            if blob is None:
                need.append(key)
                continue
            value = self._decode(key, blob)
            if value is not MISS:
                found[key] = value
        for key, blob in self._load(need).items():
            self._remember(key, blob)
            value = self._decode(key, blob)
            if value is not MISS:
                found[key] = value
        return found

    def missing(self, keys: list[str]) -> list[str]:
        """The subset of ``keys`` with no cache entry, without reading any.

        A pure index and table probe: no record is read or decoded — the
        cost profile the serving front-end needs to classify a request as
        cache-warm or cold before deciding whether to answer synchronously.
        A damaged record that :meth:`get` would treat as a miss can
        therefore still count as present here; the serving path tolerates
        that by re-running the jobs the subsequent full read reports missing.
        """
        with self._memory_lock:
            need = [key for key in dict.fromkeys(keys) if key not in self._memory]
        if not need:
            return []
        self._refresh()
        with self._index_lock:
            return [key for key in need if self._newest_locked(key) is None]

    def get_blob(self, key: str) -> bytes | None:
        """The stored record bytes for ``key``, or ``None`` — no decoding.

        The transport form of the cache-replication path: the fabric
        coordinator serves entries to ``cache pull`` peers as raw bytes, so
        the receiver can digest-verify and store them without trusting (or
        paying for) a deserialise on the wire boundary.
        """
        blob = self._memory_get(key)
        if blob is not None:
            return blob
        blob = self._load([key]).get(key)
        if blob is not None:
            self._remember(key, blob)
        return blob

    def keys(self) -> list[str]:
        """Every on-disk entry key, sorted.

        The coordinator's ``/v1/cache/keys`` inventory: a peer diffs this
        against its own :meth:`missing` probe to decide what to pull.
        """
        return sorted(self._entries()[0])

    def _decode(self, key: str, blob: bytes):
        try:
            return records.decode(blob)
        except records.RecordError:
            # A blob that is no record is a miss: drop the entry so its job
            # gets rebuilt.
            with self._memory_lock:
                self._memory.pop(key, None)
            with self._index_lock:
                self._index.pop(key, None)
            return MISS

    def _remember(self, key: str, blob: bytes) -> None:
        with self._memory_lock:
            self._memory[key] = blob
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_ENTRY_LIMIT:
                self._memory.popitem(last=False)

    def put(self, key: str, value: object) -> None:
        """Store one finished result under ``key``."""
        self.put_blob(key, records.encode(value))

    def put_blob(self, key: str, blob: bytes) -> None:
        """Store one entry's already-encoded bytes under ``key``.

        The write half of the replication path (:meth:`get_blob` is the read
        half): a digest-verified entry received from a peer lands byte-for-
        byte, so the two caches stay content-identical under the same key.
        A failed write is counted, not raised: the entry stays in the memory
        level and the caller's results are unaffected.
        """
        self._remember(key, blob)
        try:
            _APPENDER.write_record(self._root, key.encode(), blob)
        except OSError as error:
            with self._index_lock:
                self._write_failures += 1
                first = self._write_failures == 1
            if first:
                print(
                    f"[repro.cache] cannot write to {self.directory}: {error}; "
                    "results are still returned but not cached",
                    file=sys.stderr,
                    flush=True,
                )

    @property
    def write_failures(self) -> int:
        """Puts through this instance that failed with ``OSError``; other
        instances' and other processes' failures are not counted here."""
        with self._index_lock:
            return self._write_failures

    # ------------------------------------------------------------------
    # Disk level
    # ------------------------------------------------------------------
    def _newest_locked(self, key: str) -> tuple | None:
        """``(file, offset, length, stamp, blob_len)`` of ``key``'s newest
        record in a segment or pack, or ``None``."""
        where = self._index.get(key)
        if self._packs:
            fingerprint = _fingerprint(key.encode())
            for name, pack in self._packs.items():
                for offset, length, stamp, blob_len in pack.lookup(fingerprint):
                    if where is None or stamp > where[3]:
                        where = (name, offset, length, stamp, blob_len)
        return where

    def _load(self, keys: list[str]) -> dict[str, bytes]:
        """Checked blobs of those ``keys`` that are on disk."""
        if not keys:
            return {}
        self._refresh()
        by_file: dict[str, list[tuple[str, tuple]]] = {}
        with self._index_lock:
            for key in keys:
                where = self._newest_locked(key)
                if where is not None:
                    by_file.setdefault(where[0], []).append((key, where))
        blobs: dict[str, bytes] = {}
        damaged: list[tuple[str, tuple]] = []
        for name, wanted in by_file.items():
            for key, where, blob in self._read_records(name, wanted):
                if blob is None:
                    damaged.append((key, where))
                else:
                    blobs[key] = blob
        if damaged:
            with self._index_lock:
                for key, where in damaged:
                    if self._index.get(key) == where:
                        del self._index[key]
        return blobs

    def _read_records(self, name: str, wanted: list[tuple[str, tuple]]):
        """``(key, where, blob)`` for one file's ``(key, where)`` records;
        ``blob`` is ``None`` where the record fails its checks.  Yields
        nothing once the file is gone (deleted by clear/prune/a merge)."""
        try:
            store = open(os.path.join(self._root, name), "rb", buffering=0)
        except OSError:
            return
        with store:
            for key, where in wanted:
                record = os.pread(store.fileno(), where[2], where[1])
                yield key, where, _blob_of(record, key.encode())

    def _refresh(self) -> None:
        """Index the segment records appended since the last look and load
        the tables of packs not seen before."""
        segments, packs = _store_files(self._root)
        with self._index_lock:
            if not (self._segments.keys() <= set(segments) and self._packs.keys() <= set(packs)):
                # A file vanished (clear/prune/a merge): its keys may live on
                # in a file already read, so re-index from scratch.
                self._index, self._segments, self._packs = {}, {}, {}
            for name in packs:
                if name not in self._packs:
                    pack = _load_pack(os.path.join(self._root, name))
                    if pack is not None:
                        self._packs[name] = pack
            for name in segments:
                try:
                    size = os.stat(os.path.join(self._root, name)).st_size
                except OSError:
                    continue
                offset, seen, searching = self._segments.get(name, (0, -1, False))
                if size == seen:
                    continue
                if size < offset:  # truncated underneath us: start over
                    self._index = {k: v for k, v in self._index.items() if v[0] != name}
                    offset, searching = 0, False
                offset, searching = self._scan_locked(name, offset, size, searching)
                self._segments[name] = (offset, size, searching)

    def _scan_locked(
        self, name: str, offset: int, size: int, searching: bool
    ) -> tuple[int, bool]:
        """Index the whole records in ``[offset, size)`` of one segment;
        returns where the next refresh resumes (see :func:`_scan`)."""
        index = self._index

        def found(key_bytes, at, length, stamp, blob_len):
            key = key_bytes.decode("utf-8", "replace")
            known = index.get(key)
            if known is None or stamp >= known[3]:
                index[key] = (name, at, length, stamp, blob_len)

        try:
            segment = open(os.path.join(self._root, name), "rb", buffering=0)
        except OSError:
            return offset, searching
        with segment:
            return _scan(segment.fileno(), offset, size, searching, found)

    def _entries(self) -> tuple[dict[str, tuple], dict[str, set[str]]]:
        """Every entry's newest record — key -> (file, offset, length,
        stamp, blob_len) — over all segments and packs, and the files of
        each key stored more than once.

        A full scan of every file's headers and keys, for maintenance and
        inventory; lookups never take this path.
        """
        newest: dict[str, tuple] = {}
        holders: dict[str, set[str]] = {}
        segments, packs = _store_files(self._root)
        for name in segments + packs:

            def found(key_bytes, at, length, stamp, blob_len, name=name):
                key = key_bytes.decode("utf-8", "replace")
                known = newest.get(key)
                if known is not None:
                    holders.setdefault(key, {known[0]}).add(name)
                if known is None or stamp >= known[3]:
                    newest[key] = (name, at, length, stamp, blob_len)

            try:
                store = open(os.path.join(self._root, name), "rb", buffering=0)
            except OSError:
                continue
            with store:
                fd = store.fileno()
                if name.endswith(_PACK_SUFFIX):
                    pack = _read_pack(fd)
                    if pack is None:
                        continue
                    end = pack.records_end
                else:
                    end = os.fstat(fd).st_size
                _scan(fd, 0, end, False, found)
        return newest, holders

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry (memory and disk); returns entries removed."""
        with self._memory_lock:
            self._memory.clear()
        with _APPENDER.exclusive(self._root), _directory_lock(self._root, wait=True):
            removed = len(self._entries()[0])
            segments, packs = _store_files(self._root)
            for name in segments + packs:
                Path(self._root, name).unlink(missing_ok=True)
        with self._index_lock:
            self._index, self._segments, self._packs = {}, {}, {}
        return removed

    def prune(
        self, max_size_bytes: int | None = None, *, prefix: str | None = None
    ) -> PruneReport:
        """Evict entries by LRU size bound, key prefix, or both.

        With ``max_size_bytes``, entries are ranked by write stamp (ties
        broken by key for determinism) and the least recently written are
        evicted first until the remaining entries' blobs total at most the
        bound.  Every ``put`` stamps its record anew, so write order
        approximates LRU for the sweep workloads that funnel through the
        runner.

        With ``prefix``, only entries whose key starts with it are
        considered — and if no size bound is given, *every* matching entry
        is evicted.  That is how a finished DSE campaign (``prefix="dse-"``)
        is dropped without touching figure results; the report's
        ``remaining`` counts then cover only the matching keys.

        Only the files holding an evicted record are rewritten, one at a
        time: a file left with no survivors is deleted first, the others
        have their survivors copied, stamps intact, into a new pack before
        they are deleted.  A file whose copy fails (a full disk) is deleted
        anyway and its survivors count as evicted — they recompute — so a
        prune always frees space.
        """
        if max_size_bytes is None and prefix is None:
            raise ValueError("prune needs a size bound, a key prefix, or both")
        if max_size_bytes is not None and max_size_bytes < 0:
            raise ValueError("max_size_bytes must be non-negative")
        bound = 0 if max_size_bytes is None else max_size_bytes
        with _APPENDER.exclusive(self._root), _directory_lock(self._root, wait=True):
            newest, holders = self._entries()
            ranked = sorted(
                (where[3], key)
                for key, where in newest.items()
                if prefix is None or key.startswith(prefix)
            )
            total = sum(newest[key][4] for _stamp, key in ranked)
            evicted: list[str] = []
            for _stamp, key in ranked:
                if total <= bound:
                    break
                evicted.append(key)
                total -= newest[key][4]
            lost = self._compact(newest, holders, set(evicted)) if evicted else []
        gone = evicted + lost
        with self._memory_lock:
            for key in gone:
                self._memory.pop(key, None)
        lost_here = [key for key in lost if prefix is None or key.startswith(prefix)]
        return PruneReport(
            removed_entries=len(gone),
            freed_bytes=sum(newest[key][4] for key in gone),
            remaining_entries=len(ranked) - len(evicted) - len(lost_here),
            remaining_bytes=total - sum(newest[key][4] for key in lost_here),
        )

    def _compact(
        self, newest: dict[str, tuple], holders: dict[str, set[str]], evicted: set[str]
    ) -> list[str]:
        """Rewrite every file holding a record of an ``evicted`` key without
        those keys; returns the survivors lost to a failed copy."""
        touched: set[str] = set()
        for key in evicted:
            touched.add(newest[key][0])
            touched.update(holders.get(key, ()))
        survivors: dict[str, list[tuple[str, tuple]]] = {}
        for key, where in newest.items():
            if where[0] in touched and key not in evicted:
                survivors.setdefault(where[0], []).append((key, where))
        lost: list[str] = []
        # Files with no survivors go first: deleting them frees space
        # before anything is copied.
        for name in sorted(touched, key=lambda name: (name in survivors, name)):
            kept = survivors.get(name)
            if kept:
                try:
                    self._repack(name, kept)
                except OSError:
                    lost.extend(key for key, _where in kept)
            Path(self._root, name).unlink(missing_ok=True)
        with self._index_lock:
            self._index, self._segments, self._packs = {}, {}, {}
        return lost

    def _repack(self, name: str, kept: list[tuple[str, tuple]]) -> None:
        """Copy one file's ``kept`` records, stamps intact, into a new pack."""
        ordered = sorted((_fingerprint(key.encode()), where) for key, where in kept)
        with open(os.path.join(self._root, name), "rb", buffering=0) as source:
            _write_pack(self._root, (
                (fingerprint, where[3], where[4], os.pread(source.fileno(), where[2], where[1]))
                for fingerprint, where in ordered
            ))

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return len(self._entries()[0])

    def size_bytes(self) -> int:
        """Total bytes of the on-disk entries' stored blobs."""
        return sum(where[4] for where in self._entries()[0].values())

    def stats_report(self) -> dict[str, object]:
        """One full scan, with layout telemetry.

        Returns the entry/byte totals, the segment and pack counts and how
        long the scan itself took — the number ``python -m repro cache
        stats`` reports as scan throughput.
        """
        start = time.perf_counter()
        newest, _holders = self._entries()
        segments, packs = _store_files(self._root)
        return {
            "directory": str(self.directory),
            "entries": len(newest),
            "size_bytes": sum(where[4] for where in newest.values()),
            "segments": len(segments),
            "packs": len(packs),
            "scan_seconds": time.perf_counter() - start,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.directory)!r})"
