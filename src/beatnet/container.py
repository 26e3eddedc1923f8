"""The checksummed file frame shared by dataset caches and checkpoints.

A framed file is: 4 magic bytes, a little-endian u16 format version,
the body, and an 8-byte blake2b digest of everything before it.

Framed files and the text artifacts of a run (reports, charts, config
snapshots, logs) alike are written to a temporary name in the target
directory and renamed into place, so an interrupted write never leaves
a partial file under the final name.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

from .errors import DataError

_DIGEST_BYTES = 8


def _checksum(payload) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).digest()


def pack_str(s: str) -> bytes:
    """u16 byte length followed by the UTF-8 bytes of ``s``."""
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DataError(f"string too long for a framed file: "
                        f"{len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _write_atomic(path, write) -> None:
    """Call ``write`` on a binary file handle opened on a temporary name
    beside ``path``, then rename it to ``path``; on any failure the
    temporary is removed and an earlier ``path`` stays as it was. An
    ``OSError`` is raised as a DataError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically."""
    _write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def write_framed(path, magic: bytes, version: int, parts) -> None:
    """Write magic, version, the ``parts`` and the digest, atomically.

    Each part is ``bytes`` or a C-contiguous buffer such as a NumPy
    array, written as its raw bytes.
    """
    def write(fh):
        digest = hashlib.blake2b(digest_size=_DIGEST_BYTES)
        for part in (magic, struct.pack("<H", version), *parts):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())

    _write_atomic(path, write)


class FramedReader:
    """Cursor over a framed file's body; every overrun raises DataError."""

    def __init__(self, body: memoryview, path):
        self.body = body
        self.path = path
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.body):
            raise DataError(f"{self.path} is truncated")
        out = self.body[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path} holds a string that is not "
                            f"UTF-8: {exc}") from exc

    def finish(self) -> None:
        """Fail unless the whole body has been consumed."""
        if self.pos != len(self.body):
            raise DataError(f"{len(self.body) - self.pos} trailing bytes "
                            f"in {self.path}")


def read_framed(path, magic: bytes, version: int) -> FramedReader:
    """Check a framed file and return a reader positioned after its version.

    Unreadable, short, checksum-damaged or foreign files, and a version
    other than ``version``, raise DataError.
    """
    try:
        data = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(data) < len(magic) + 2 + _DIGEST_BYTES:
        raise DataError(f"{path} is too small")
    payload = data[:-_DIGEST_BYTES]
    if _checksum(payload) != data[-_DIGEST_BYTES:]:
        raise DataError(f"checksum mismatch in {path}")
    reader = FramedReader(payload, path)
    if reader.take(len(magic)) != magic:
        raise DataError(f"bad magic in {path}")
    (found,) = reader.unpack("<H")
    if found != version:
        raise DataError(f"{path} has format version {found}, "
                        f"expected {version}")
    return reader
