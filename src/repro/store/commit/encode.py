"""The parallel encode phase of stabilisation.

:meth:`~repro.store.objectstore.ObjectStore.stabilize` runs in three
phases — a reachability *walk*, this *encode* phase and a *commit*
phase.  The unit of work here is a **chunk** of dirty
:class:`~repro.store.serializer.Record` objects: per record the worker
runs ``Record.to_bytes()``, the ``zlib.crc32`` signature and the
optional per-record codec (:class:`~repro.store.serializer.RecordCodec`).
crc32 and compression release the GIL on bytes, so chunks genuinely
overlap on multi-core hosts.

Chunks are *streamed* back in completion order — no barrier — so the
caller's :class:`~repro.store.engine.base.WriteBatch` fills as chunks
finish rather than waiting for the slowest worker.  Over a sharded
engine the chunk planner aligns chunks with ``shard_of``, so each
encoded chunk's writes land on a single shard and the engine's prepare
phase (which builds the per-shard staging batches in parallel on the
shard pool) gets contiguous runs.

``encode_chunk`` is deliberately a module-level function: the
failure-injection tests monkeypatch it to raise mid-stream and pin that
an aborted encode phase leaves no partial bookkeeping behind.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.store.oids import Oid
from repro.store.serializer import Record, RecordCodec

#: Records per encode chunk.  Small enough that a typical incremental
#: stabilise (a handful of dirty records) stays a single inline chunk;
#: large enough that a bulk load amortises the per-chunk handoff.
DEFAULT_CHUNK_RECORDS = 32


def default_workers() -> int:
    """Encoder pool size when the store is not told one: bounded by the
    host's cores — encode work is CPU-plus-compression, not I/O."""
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class EncodedRecord:
    """One dirty record, encoded and ready to commit."""

    oid: Oid
    #: The bytes handed to the engine (codec-framed when that is smaller).
    stored: bytes
    #: ``(len, crc32)`` of the *raw* (uncompressed) record bytes — the
    #: store's dirty filter compares signatures over raw bytes whatever
    #: codec is in force, so legacy and compressed stores interoperate.
    sig: tuple[int, int]
    #: Length of the raw encoding (observability: ``encoded_bytes``).
    raw_len: int


def encode_record(record: Record,
                  codec: Optional[RecordCodec]) -> EncodedRecord:
    """Serialise one record and (optionally) compress it."""
    raw = record.to_bytes()
    sig = (len(raw), zlib.crc32(raw))
    stored = codec.wrap(raw) if codec is not None else raw
    return EncodedRecord(record.oid, stored, sig, len(raw))


def encode_chunk(chunk: list[Record],
                 codec: Optional[RecordCodec]) -> list[EncodedRecord]:
    """Encode one chunk of records (the workers' unit of work; the
    failure-injection tests monkeypatch this to raise mid-stream)."""
    return [encode_record(record, codec) for record in chunk]


def plan_chunks(records: Iterable[Record], chunk_records: int,
                group_of: Optional[Callable[[Oid], int]] = None,
                ) -> list[list[Record]]:
    """Split the dirty set into encode chunks.

    With ``group_of`` (a sharded engine's ``shard_of``) records are
    bucketed by group first, so every chunk's writes belong to one
    shard; without it the dirty set is split in walk order.
    """
    if group_of is None:
        flat = list(records)
        return [flat[start:start + chunk_records]
                for start in range(0, len(flat), chunk_records)]
    groups: dict[int, list[Record]] = {}
    for record in records:
        groups.setdefault(group_of(record.oid), []).append(record)
    chunks: list[list[Record]] = []
    for _, members in sorted(groups.items()):
        chunks.extend(members[start:start + chunk_records]
                      for start in range(0, len(members), chunk_records))
    return chunks


class EncoderPool:
    """The dedicated worker pool behind the stabilize encode phase.

    The pool starts lazily on the first dirty set large enough to split:
    ``workers=0`` disables it entirely and small dirty sets (at most one
    chunk) are always encoded inline on the calling thread — a thread
    handoff costs more than encoding a handful of records, which keeps
    the single-threaded incremental-stabilise profile at its
    pre-pipeline cost.
    """

    def __init__(self, workers: Optional[int] = None,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if workers is None:
            workers = default_workers()
        if workers < 0:
            raise ValueError(f"encode_workers must be >= 0, got {workers}")
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.workers = workers
        self.chunk_records = chunk_records
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        # Native encode telemetry (pull gauges via obs): chunk count,
        # wall time inside encode_chunk, and byte totals before/after
        # the codec (their ratio is the realised compression ratio).
        self.chunks_encoded = 0
        self.encode_ns = 0
        self.raw_bytes = 0
        self.stored_bytes = 0

    @property
    def started(self) -> bool:
        """Whether the worker threads exist yet (observability)."""
        return self._executor is not None

    def _encode_chunk_timed(self, chunk: list[Record],
                            codec: Optional[RecordCodec],
                            ) -> list[EncodedRecord]:
        """One chunk through the module-level ``encode_chunk`` (looked
        up at call time so the failure-injection monkeypatch still
        lands), with the pool's counters updated around it."""
        start = time.perf_counter_ns()
        encoded = encode_chunk(chunk, codec)
        self.encode_ns += time.perf_counter_ns() - start
        self.chunks_encoded += 1
        for record in encoded:
            self.raw_bytes += record.raw_len
            self.stored_bytes += len(record.stored)
        return encoded

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-stabilize-encode")
            return self._executor

    def encode_stream(self, records: Iterable[Record],
                      codec: Optional[RecordCodec],
                      group_of: Optional[Callable[[Oid], int]] = None,
                      ) -> Iterator[list[EncodedRecord]]:
        """Encode the dirty set, yielding chunks in *completion* order.

        A raising chunk propagates to the caller as soon as it is
        observed; chunks not yet started are cancelled, already-running
        ones finish and are discarded — the pool itself is never
        poisoned and serves the next stabilise normally.
        """
        chunks = plan_chunks(records, self.chunk_records, group_of)
        # Inline below one chunk's worth of *records* (not chunks: shard
        # grouping splits even a two-record dirty set into two chunks).
        # A worker handoff costs more than encoding a handful of records
        # — and under heavy reader traffic on few cores, waking a pool
        # thread per tiny incremental stabilise degrades into a GIL
        # convoy.  Inline keeps the small-commit profile at its
        # pre-pipeline cost.
        total = sum(len(chunk) for chunk in chunks)
        if self.workers == 0 or total <= self.chunk_records:
            for chunk in chunks:
                yield self._encode_chunk_timed(chunk, codec)
            return
        executor = self._ensure_executor()
        pending = {executor.submit(self._encode_chunk_timed, chunk, codec)
                   for chunk in chunks}
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        finally:
            for future in pending:
                future.cancel()

    def close(self) -> None:
        """Stop the workers; the pool restarts lazily if used again."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
