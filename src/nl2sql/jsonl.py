"""Append-only JSON-lines logs: the replay cache, the evaluation checkpoint
and the trace file share this one read and append policy.

A record is one line of ASCII-escaped JSON with sorted keys, so any ``str``
round-trips, lone surrogates included. An appender writes each batch of
lines with a single ``os.write`` on an ``O_APPEND`` descriptor under a lock,
so lines from threads sharing the log do not interleave, nor, on a local
file system, lines from processes sharing the file. A line that does not
decode, such as the torn tail a kill mid-write leaves, is skipped by the
reader and written past by the next appender.
"""

import dataclasses
import json
import logging
import os
import threading
import weakref

logger = logging.getLogger(__name__)

# One encoder for every appended line. Records are trees the library
# builds, so the circular-reference check is skipped.
_ENCODER = json.JSONEncoder(ensure_ascii=True, sort_keys=True, check_circular=False)


def read_records(path, parse, label) -> list:
    """``parse(value)`` for the JSON value on each line of ``path``, in file
    order; empty when there is no file. A line that is not JSON, nests too
    deep to decode, or that ``parse`` rejects with ValueError, LookupError or
    TypeError, is skipped with a warning naming ``label``."""
    records = []
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return records
    with fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(parse(json.loads(line)))
            except (ValueError, LookupError, TypeError, RecursionError):
                logger.warning("%s %s: skipping unreadable line %d", label, path, number)
    return records


def check_fields(value, cls):
    """``value``, a decoded JSON value, when it is an object holding every
    field of the dataclass ``cls`` with a value of that field's type (an int
    passes for a float); raises TypeError or KeyError otherwise."""
    for f in dataclasses.fields(cls):
        kind = (int, float) if f.type is float else f.type
        if not isinstance(value[f.name], kind):
            raise TypeError(f"{cls.__name__}.{f.name} has the wrong type")
    return value


def _open_for_append(path) -> int:
    """An O_APPEND descriptor on ``path``, created, with any missing parent
    directory, if missing. A file that does not end in a newline gets one
    first, so the next record starts its own line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size:
            os.lseek(fd, size - 1, os.SEEK_SET)
            if os.read(fd, 1) != b"\n":
                os.write(fd, b"\n")
    except OSError:
        os.close(fd)
        raise
    return fd


class AppendLog:
    """Appends records to one JSON-lines file through a kept descriptor.

    The descriptor opens at ``open`` or the first ``append`` and stays open
    until ``close`` (or the end of a ``with`` block); an append after
    ``close`` opens it again. A log that is collected unclosed closes its
    descriptor.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._fd = None
        self._close_fd = None  # weakref.finalize closing _fd

    def open(self) -> None:
        """Opens the descriptor now, creating the file if it is missing."""
        with self._lock:
            self._open()

    def _open(self):
        if self._fd is None:
            self._fd = _open_for_append(self.path)
            self._close_fd = weakref.finalize(self, os.close, self._fd)

    def append(self, record) -> None:
        self.extend((record,))

    def extend(self, records) -> None:
        """Appends one line per record, all with one ``os.write`` (more
        only when the system writes less than asked); nothing for none."""
        data = "".join([_ENCODER.encode(record) + "\n" for record in records]).encode("ascii")
        if not data:
            return
        with self._lock:
            self._open()
            while data:
                data = data[os.write(self._fd, data):]

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                self._close_fd()
                self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
