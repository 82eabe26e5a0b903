"""A writer-preferring read-write lock.

``ReadWriteLock`` lets any number of reader threads proceed together
while giving a writer exclusive access, with *writer preference*: once a
writer is waiting, new readers queue behind it, so a stream of reads
cannot starve a commit.  The memory and file engines guard their state
with it, so a store server's connection threads read in parallel.

Re-entrancy rules (enforced, not advisory):

* a thread may nest read acquisitions inside read acquisitions;
* a thread may nest write acquisitions inside write acquisitions;
* a thread holding the *write* lock may take the read lock (it already
  excludes every other thread);
* a thread holding only the *read* lock may **not** request the write
  lock — the classic upgrade deadlock (two readers both waiting for the
  other to leave) is refused with ``RuntimeError`` so the bug surfaces
  at the call site instead of as a hang.  Release the read lock, take
  the write lock, and re-validate instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """Many readers or one writer; waiting writers block new readers."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: thread ident -> read depth, for every thread holding the
        #: read side (a writer taking the read side is counted here too).
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._write_depth = 0
        self._writers_waiting = 0

    # -- read side -------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        if self._writer is not None or self._writers_waiting:
            # Back off on plain attribute loads (GIL-atomic) *before*
            # touching the condition's mutex.  A stampede of reader
            # threads repeatedly acquiring and releasing that C-level
            # mutex can starve a writer's own mutex acquire for an
            # unbounded time on few-core hosts (mutex barging: the
            # thread already running wins the grab every time).
            # Sleeping also releases the GIL, so the writer's commit
            # work proceeds instead of waiting out switch intervals.
            # Nested acquisitions must not wait (the writer could be
            # queued behind this thread's own read hold — deadlock).
            if self._writer != me and me not in self._readers:
                while self._writer is not None or self._writers_waiting:
                    time.sleep(0.0005)
        with self._cond:
            if self._writer == me or me in self._readers:
                # Nested read (or read under our own write lock): granted
                # immediately — blocking on a waiting writer here would
                # deadlock against ourselves.
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me)
            if depth is None:
                raise RuntimeError("release_read without acquire_read")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    # -- write side ------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "read-to-write upgrade would deadlock; release the "
                    "read lock, acquire the write lock, and re-validate"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._write_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write without acquire_write")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ------------------------------------------------

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
