"""The orthogonally persistent object store.

This is the PJama analogue: "a persistent store with root(s), reachability
and referential integrity" (paper, Section 1).  Key behaviours:

* **Roots** — named entry points (:meth:`ObjectStore.set_root`).
* **Persistence by reachability** — :meth:`stabilize` makes durable exactly
  the storable nodes reachable from the roots by strong edges; no explicit
  "save this object" calls are needed for interior objects.
* **Referential integrity** — stored objects refer to each other by OID,
  OIDs are never reused, and garbage collection only frees what is
  unreachable, so a stored reference always resolves.
* **Identity** — fetching an OID twice returns the same live object
  (:class:`~repro.store.serve.cache.ObjectCache`).
* **Typed fidelity** — instances are rebuilt from their *registered* class
  after a schema-fingerprint check (:mod:`repro.store.registry`).
* **Weak references** — :class:`~repro.store.weakrefs.PersistentWeakRef`
  edges do not make their target reachable; the collector clears dead ones
  (paper Figure 7).
* **Crash safety and layout** — delegated to a pluggable
  :class:`~repro.store.engine.base.StorageEngine`.  The default
  :class:`~repro.store.engine.filesystem.FileEngine` stabilises atomically
  through a write-ahead log in a directory of ``store.heap``, ``store.wal``
  and ``store.manifest`` files; a
  :class:`~repro.store.engine.memory.MemoryEngine` serves ephemeral stores,
  and any engine can sit behind a commit pipeline
  (:mod:`repro.store.commit`) for group or asynchronous durability.

Stabilisation is **incremental**: the store keeps a shallow snapshot of
every clean live object (see :meth:`~repro.store.serializer.Serializer.
snapshot`) and re-serialises only objects that were mutated or newly
reached since the last stabilise.  The engine's ``record_writes`` counter
makes that observable.

**One thread owns a store**: the thread that constructs an
``ObjectStore`` is its owner, and a call from any other thread raises
:class:`~repro.errors.StoreThreadError` (the contract ``sqlite3``
enforces with ``check_same_thread``).  Concurrency lives one layer
down: engines serve concurrent readers, and a
:class:`~repro.store.net.server.StoreServer` serves many client
processes, each with its own store.  At most one store *writes* through
an engine: a commit whose engine root table or allocator cursor moved
since this store last read or wrote them raises
:class:`~repro.errors.StoreConflictError` instead of overwriting another
writer's roots with OIDs that collide with its own.

Faulting a missing subgraph plans its reference closure in
engine-parallel waves (:class:`~repro.store.serve.prefetch.FetchPlanner`
over :meth:`~repro.store.engine.base.StorageEngine.fetch_many`) and then
installs the planned records.  With ``cache_objects`` set, the identity
map is a bounded :class:`~repro.store.serve.cache.ObjectCache` — at most
that many clean objects stay strongly pinned; the tail is demoted to
weak references and re-faulted on demand.
"""

from __future__ import annotations

import time
import zlib
from _thread import get_ident  # what threading.get_ident re-exports
from typing import Any, NoReturn, Optional

from repro.errors import (
    StoreClosedError,
    StoreConflictError,
    StoreThreadError,
    UnknownOidError,
    UnknownRootError,
)
from repro.store.commit.encode import EncoderPool
from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.engine.filesystem import FileEngine
from repro.store.engine.memory import MemoryEngine
from repro.store.obs import MetricsRegistry, TimedEngine, bind_engine_metrics
from repro.store.obs.trace import (
    TraceLog,
    Tracer,
    current_span,
    span as trace_span,
)
from repro.store.oids import Oid, OidAllocator
from repro.store.registry import ClassRegistry
from repro.store.serializer import (
    KIND_WEAKREF,
    Record,
    RecordCodec,
    Ref,
    Serializer,
    parse_codec,
    record_refs,
    snapshots_equal,
    unwrap_record,
)
from repro.store.serve.cache import ObjectCache
from repro.store.serve.prefetch import FetchPlan, FetchPlanner
from repro.store.weakrefs import PersistentWeakRef

__all__ = ["ObjectStore", "StoreStatistics", "record_refs"]

#: Sentinel distinguishing "weakref never stored" from "stored with a
#: cleared (None) target" in the ``_weak_stored`` cache — ``None`` is a
#: legal cached value there.
_WEAK_UNKNOWN = object()

class StoreStatistics:
    """A point-in-time summary of store contents (used by the browser)."""

    def __init__(self, object_count: int, root_count: int, live_count: int,
                 heap_pages: int, next_oid: int):
        self.object_count = object_count
        self.root_count = root_count
        self.live_count = live_count
        self.heap_pages = heap_pages
        self.next_oid = next_oid

    def __repr__(self) -> str:
        return (f"StoreStatistics(objects={self.object_count}, "
                f"roots={self.root_count}, live={self.live_count}, "
                f"pages={self.heap_pages}, next_oid={self.next_oid})")


class ObjectStore:
    """An orthogonally persistent object store over a storage engine."""

    def __init__(self, directory: str | None = None,
                 registry: ClassRegistry | None = None, *,
                 engine: StorageEngine | None = None,
                 cache_objects: int | None = None,
                 compress: str | RecordCodec | None = None,
                 encode_workers: int | None = None,
                 metrics: bool | MetricsRegistry = True,
                 slow_op_ms: float | None = None,
                 trace_sample: int | None = None,
                 slow_trace_ms: float | None = None,
                 trace_log: str | None = None):
        #: The owner thread: every checked call must come from it.
        #: ``close()`` clears it, so one compare refuses both a closed
        #: store and a foreign thread.
        self._owner: Optional[int] = get_ident()
        if engine is None:
            if directory is None:
                raise ValueError(
                    "ObjectStore needs a directory (file engine) or an "
                    "explicit engine"
                )
            engine = FileEngine(directory)
        elif directory is not None:
            raise ValueError(
                "pass either a directory or an engine, not both — an "
                "explicit engine decides where (and whether) data lives"
            )
        # The store's telemetry registry.  ``metrics=True`` (the
        # default) creates an enabled one and wraps the engine in a
        # TimedEngine; ``metrics=False`` creates a disabled registry —
        # every instrument below becomes the shared no-op and the engine
        # stays unwrapped, so the hot paths pay nothing.  Passing a
        # ``MetricsRegistry`` shares one registry across stores.
        if isinstance(metrics, MetricsRegistry):
            self._metrics = metrics
        elif isinstance(engine, TimedEngine) and metrics:
            # An engine the factory already instrumented: the store
            # joins its registry instead of keeping a second one.
            self._metrics = engine.metrics
        else:
            self._metrics = MetricsRegistry(enabled=bool(metrics))
        if self._metrics.enabled or slow_op_ms is not None:
            if not isinstance(engine, TimedEngine):
                engine = TimedEngine(engine, self._metrics,
                                     slow_op_ms=slow_op_ms)
            bind_engine_metrics(engine, self._metrics)
        # The span tracer.  Default-off: with ``trace_sample=0`` (or
        # unset), no slow-trace threshold and no sink, ``root()``
        # returns the shared null scope and the store pays one method
        # call per fault/stabilise — the cached-read fast path never
        # touches the tracer at all.
        self._tracer = Tracer(
            sample=trace_sample or 0,
            slow_ms=slow_trace_ms,
            log=TraceLog(trace_log) if trace_log else None,
        )
        self._engine = engine
        # One registry instance is threaded through every layer that
        # resolves classes (serializer, link store, compiler, evolution).
        # A store that is not handed a registry gets its own private one
        # rather than a process-wide global, so two stores can never
        # accidentally share schema state.
        self.registry = registry if registry is not None else ClassRegistry()
        self._serializer = Serializer(self.registry)
        # The identity map: unbounded (the default) it pins everything;
        # with a capacity it keeps an LRU hot set strongly and demotes
        # the clean tail to weak references.  The guard keeps dirty
        # objects strongly held until stabilised; the hook drops the
        # demoted object's clean-state snapshot, which would otherwise
        # pin its children through the bookkeeping.
        self._identity = ObjectCache(cache_objects, guard=self._may_demote,
                                     on_demoted=self._on_demoted)
        #: The single-writer fence: the engine's root table and
        #: allocator cursor as this store last read or committed them.
        #: A commit that finds either moved raises StoreConflictError.
        self._engine_roots: dict[str, Oid] = engine.roots()
        self._engine_next_oid = int(engine.next_oid)
        self._allocator = OidAllocator(max(self._engine_next_oid, 1))
        self._planner = FetchPlanner(engine)
        self._roots: dict[str, Oid] = dict(self._engine_roots)
        #: oid -> (len, crc) of the stored record bytes *before* codec
        #: framing — signatures are always over raw record bytes, so a
        #: store reopened under a different ``compress=`` setting keeps
        #: its dirty filter intact.  Rebuilt lazily.
        self._stored_sig: dict[Oid, tuple[int, int]] = {}
        #: oid -> shallow state snapshot of the clean live object.
        self._shadow: dict[Oid, Any] = {}
        #: oid -> target OID of the last *stored* weak-reference record.
        #: Weak records used to be rebuilt and re-serialised on every
        #: stabilise "just in case"; this cache (the weakref analogue of
        #: the shadow snapshot — weakrefs have no snapshot by design)
        #: skips the rebuild when the resolved target has not moved.
        self._weak_stored: dict[Oid, Optional[Oid]] = {}
        #: Objects serialised since open (incremental stabilisation
        #: keeps this close to the dirty count).
        self.encode_count = 0
        #: Weak-reference records actually rebuilt (the `_weak_stored`
        #: cache keeps this from growing on clean re-stabilises).
        self.weak_rebuilds = 0
        self._active_txn = None
        self._closed = False
        #: The per-record codec new writes go through (``None``: raw).
        self._codec = parse_codec(compress)
        #: The encode phase's worker pool (``encode_workers=0`` keeps
        #: encoding inline on the stabilising thread).
        self._encoder = EncoderPool(workers=encode_workers)
        #: Cumulative stabilise-phase counters behind :meth:`stats`, now
        #: registry instruments (``stats()`` stays as the compat view).
        #: Instrument references are cached here so the commit path
        #: never takes the registry's creation mutex.
        m = self._metrics
        self._phase_counters = {
            "stabilize_count": m.counter("store_stabilize_total"),
            "walk_ns": m.counter("store_walk_ns_total"),
            "encode_ns": m.counter("store_encode_ns_total"),
            "commit_ns": m.counter("store_commit_ns_total"),
            "encoded_bytes": m.counter("store_encoded_bytes_total"),
            "compressed_bytes": m.counter("store_compressed_bytes_total"),
        }
        #: ``object_for`` calls answered from the identity map.  A
        #: plain int + pull gauge, *not* a Counter: the hottest read
        #: path in the store pays one ``+= 1``, identical with metrics
        #: on or off (a Counter would cost a bound-method call per
        #: hit either way: the real ``inc`` or the null instrument's).
        self._fastpath_hits = 0
        m.gauge_fn("store_fastpath_hits_total",
                   lambda: self._fastpath_hits)
        # Pull gauges over the serving components' native counters.
        m.gauge_fn("store_cache_live_objects",
                   lambda: len(self._identity))
        m.gauge_fn("store_cache_demotions_total",
                   lambda: self._identity.demotions)
        m.gauge_fn("store_cache_weak_deaths_total",
                   lambda: self._identity.weak_deaths)
        m.gauge_fn("store_fault_plans_total",
                   lambda: self._planner.plans)
        m.gauge_fn("store_fault_waves_total",
                   lambda: self._planner.total_waves)
        m.gauge_fn("store_encode_chunks_total",
                   lambda: self._encoder.chunks_encoded)
        m.gauge_fn("store_encode_pool_ns_total",
                   lambda: self._encoder.encode_ns)
        m.gauge_fn("store_encode_raw_bytes_total",
                   lambda: self._encoder.raw_bytes)
        m.gauge_fn("store_encode_stored_bytes_total",
                   lambda: self._encoder.stored_bytes)
        #: Ticket of the most recent engine commit this store submitted
        #: (for awaiting an ``async``-policy engine's durability).
        self.last_commit = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str,
             registry: ClassRegistry | None = None) -> "ObjectStore":
        """Open (creating if necessary) a file-backed store in
        ``directory``."""
        return cls(directory, registry)

    @classmethod
    def in_memory(cls,
                  registry: ClassRegistry | None = None) -> "ObjectStore":
        """An ephemeral store over a fresh
        :class:`~repro.store.engine.memory.MemoryEngine`; nothing survives
        :meth:`close`."""
        return cls(registry=registry, engine=MemoryEngine())

    @classmethod
    def from_url(cls, url: str,
                 registry: ClassRegistry | None = None) -> "ObjectStore":
        """Open a store over the backend a storage URL names.

        ``"file:/path"``, ``"sqlite:/path"``, ``"memory:"`` and
        ``"sharded:N:CHILD-URL"`` (plus bare paths, which mean the file
        backend) are understood — see
        :func:`repro.store.engine.factory.engine_from_url`.  Store-level
        query parameters are split off here; everything else tunes the
        engine.  ``?cache_objects=50000`` bounds the object cache,
        ``?compress=zlib:1`` (or ``lzma:0``) compresses new record
        writes per record, and ``?encode_workers=N`` sizes the stabilise
        encode pool (``0`` keeps encoding inline).  Telemetry defaults
        on: ``?metrics=0`` disables it, ``?slow_op_ms=N`` logs one
        structured line per engine op slower than N milliseconds.
        Tracing defaults off: ``?trace_sample=N`` head-samples one in N
        faults/stabilises into a span tree, ``?slow_trace_ms=N`` keeps
        every trace slower than N milliseconds, and ``?trace_log=PATH``
        appends kept spans to a JSONL sink.
        """
        from repro.store.engine.factory import (
            engine_from_url,
            split_store_url,
        )
        engine_url, store_options = split_store_url(url)
        return cls(registry=registry, engine=engine_from_url(engine_url),
                   **store_options)

    def close(self) -> None:
        """Flush and close; the store object is unusable afterwards.

        Closing an engine with a commit pipeline drains the pipeline
        first: every in-flight ``async`` commit is either durable when
        ``close`` returns or the pipeline's failure is raised — the
        store is marked closed either way, never half-open.
        """
        if self._closed:
            return
        self._closed = True
        self._owner = None
        self._encoder.close()
        self._engine.close()
        self._tracer.close()

    def flush(self) -> None:
        """Durability barrier: block until every commit this store has
        submitted is durable (a no-op over direct engines, whose
        ``apply`` already returns post-commit).  Re-raises the commit
        pipeline's failure if an ``async`` commit was lost."""
        self._check_open()
        self._engine.flush()

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def engine(self) -> StorageEngine:
        """The storage engine this store runs over."""
        return self._engine

    @property
    def directory(self) -> Optional[str]:
        """The backing directory, or ``None`` for non-file engines."""
        return getattr(self._engine, "directory", None)

    @property
    def is_closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if get_ident() != self._owner:
            self._refuse()

    def _refuse(self) -> NoReturn:
        if self._closed:
            raise StoreClosedError("the store has been closed")
        raise StoreThreadError(
            f"this store is owned by thread {self._owner} and cannot be "
            f"used from thread {get_ident()}"
        )

    # ------------------------------------------------------------------
    # roots
    # ------------------------------------------------------------------

    def set_root(self, name: str, obj: Any) -> Oid:
        """Bind ``obj`` as the persistent root called ``name``.

        The binding becomes durable at the next :meth:`stabilize`.
        """
        self._check_open()
        oid = self._ensure_oid(obj)
        self._roots[name] = oid
        return oid

    def get_root(self, name: str) -> Any:
        """The object bound to root ``name`` (fetched if not yet live)."""
        if get_ident() != self._owner:  # _check_open, inlined: hot path
            self._refuse()
        try:
            oid = self._roots[name]
        except KeyError:
            raise UnknownRootError(name) from None
        return self.object_for(oid)

    def delete_root(self, name: str) -> None:
        """Unbind a root; its objects survive until garbage collection."""
        self._check_open()
        if name not in self._roots:
            raise UnknownRootError(name)
        del self._roots[name]

    def has_root(self, name: str) -> bool:
        return name in self._roots

    def root_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._roots))

    def root_oid(self, name: str) -> Oid:
        try:
            return self._roots[name]
        except KeyError:
            raise UnknownRootError(name) from None

    def root_bindings(self) -> dict[str, Oid]:
        """A copy of the current name -> OID root table (transactions use
        this to snapshot and restore bindings without reaching into store
        internals)."""
        return dict(self._roots)

    def restore_root_bindings(self, bindings: dict[str, Oid]) -> None:
        """Replace the live root table (transaction abort)."""
        self._check_open()
        self._roots = dict(bindings)

    # ------------------------------------------------------------------
    # identity / oids
    # ------------------------------------------------------------------

    def oid_of(self, obj: Any) -> Optional[Oid]:
        """The OID of a live object, or ``None`` if it has none yet."""
        return self._identity.oid_for(obj)

    def _ensure_oid(self, obj: Any) -> Oid:
        oid = self._identity.oid_for(obj)
        if oid is None:
            if type(obj) is not PersistentWeakRef:
                # Validate up front that the object is storable at all, so
                # errors surface at set_root time rather than at stabilise.
                self._serializer.references_of(obj)
            oid = self._allocator.allocate()
            # No capacity enforcement here: a stabilise walk registering
            # thousands of new (dirty, pinned) objects must not demote
            # the clean tail one victim at a time mid-walk; the next
            # fetch trims.
            self._identity.add(oid, obj, enforce=False)
        return oid

    def is_stored(self, oid: Oid) -> bool:
        return self._engine.contains(oid)

    def stored_oids(self) -> tuple[Oid, ...]:
        return tuple(sorted(self._engine.oids()))

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def object_for(self, oid: Oid) -> Any:
        """Materialise (or return the live) object named by ``oid``.

        Fetch is closure-based: the whole subgraph below ``oid`` that is
        not yet live is decoded in two phases (shells, then fills), so
        shared structure and cycles come back exactly as stored.
        """
        if get_ident() != self._owner:  # _check_open, inlined: hot path
            self._refuse()
        live = self._identity.object_for(oid)
        if live is not None:
            self._fastpath_hits += 1
            return live
        return self._fault(oid)

    def _is_live(self, oid: Oid) -> bool:
        """Planner liveness callback (no LRU side effects)."""
        return self._identity.peek(oid) is not None

    def _fault(self, oid: Oid) -> Any:
        with self._tracer.root("store.fault"):
            if not self._engine.contains(oid):
                raise UnknownOidError(int(oid))
            return self._plan_and_install(oid)

    def _plan_and_install(self, oid: Oid) -> Any:
        """Plan the closure below a non-live ``oid`` and install it.

        A plan goes stale only when a weak-tier object it counted on as
        live is collected before the install — CPython's GC may run at
        any allocation — and then it is simply planned again.
        """
        while True:
            plan = self._planner.closure([oid], self._is_live)
            obj = self._install_plan(oid, plan)
            if obj is not None:
                return obj

    def _install_plan(self, target: Oid, plan: FetchPlan) -> Optional[Any]:
        """Install a planned closure into the identity map; returns the
        target object, or ``None`` when the plan is stale and the caller
        must re-plan.
        """
        records = plan.records
        # Every reference must resolve within the plan or the live map.
        # Live dependencies are *pinned* (a strong reference held for
        # the rest of the install): a weak-tier dependency judged alive
        # here could otherwise be collected before phase 2 resolves it.
        pinned: dict[Oid, Any] = {}
        for _, record in records.values():
            for ref in record_refs(record, include_weak=True):
                if ref in records or ref in pinned:
                    continue
                live_ref = self._identity.peek(ref)
                if live_ref is None:
                    return None
                pinned[ref] = live_ref
        installed: list[Oid] = []
        try:
            # Phase 1: shells.  Capacity enforcement is deferred to the
            # end of the install: demoting an LRU victim mid-install
            # could kill an object a later fill still resolves.
            for record_oid, (_, record) in records.items():
                self._identity.add(record_oid,
                                   self._serializer.make_shell(record),
                                   enforce=False)
                installed.append(record_oid)
            # Phase 2: fill.
            for record_oid, (_, record) in records.items():
                shell = self._identity.peek(record_oid)
                self._serializer.fill_shell(shell, record, self._resolve)
        except BaseException:
            # A failed install (schema mismatch, converter error) must
            # not leave half-filled shells behind: a later fetch would
            # find them "live" and serve torn objects forever.
            for record_oid in installed:
                self._identity.evict(record_oid)
                self._shadow.pop(record_oid, None)
            raise
        # Phase 3: freshly materialised objects are clean by construction
        # (their live state *is* the stored state), so seed the dirty
        # tracker — unless an evolution converter ran, in which case the
        # next stabilise must rewrite the record under the new schema.
        for record_oid, (raw, record) in records.items():
            self._stored_sig[record_oid] = (len(raw), zlib.crc32(raw))
            obj = self._identity.peek(record_oid)
            snap = self._snapshot_if_clean(obj, record)
            if snap is not None:
                self._shadow[record_oid] = snap
        # Hold the target strongly before cache maintenance: were it
        # demoted here, nothing else would pin it yet and the weak
        # reference could die before the caller ever saw the object.
        result = self._identity.peek(target)
        self._identity.enforce_capacity()
        return result

    def _snapshot_if_clean(self, obj: Any, record: Record) -> Any:
        """A snapshot for a just-fetched object, or ``None`` when the live
        state already differs from the stored record (schema conversion)."""
        if record.kind == KIND_WEAKREF:
            return None
        snap = self._serializer.snapshot(obj)
        if snap is not None and snap[0] == "instance" \
                and snap[1] != record.fingerprint:
            return None
        return snap

    def _resolve(self, oid: Oid) -> Any:
        obj = self._identity.peek(oid)
        if obj is None:
            raise UnknownOidError(int(oid))
        return obj

    def _read_record(self, oid: Oid) -> Record:
        # Unwrap any codec frame first: stored signatures are over the
        # raw record bytes whatever codec wrote them.
        raw = unwrap_record(self._engine.read(oid))
        self._stored_sig[oid] = (len(raw), zlib.crc32(raw))
        return Record.from_bytes(raw)

    def refresh(self, obj: Any) -> Any:
        """Discard in-memory state of ``obj``'s OID and re-fetch from disk."""
        self._check_open()
        oid = self._identity.oid_for(obj)
        if oid is None or not self._engine.contains(oid):
            raise UnknownOidError("object is not stored")
        self._identity.evict(oid)
        self._shadow.pop(oid, None)
        return self._plan_and_install(oid)

    def evict_all(self) -> None:
        """Drop every live object; subsequent fetches re-read from disk.

        Used by transaction abort: live objects mutated inside the aborted
        transaction become unreachable through the store, and fresh fetches
        observe the last stabilised state.
        """
        self._check_open()
        self._identity.clear()
        self._shadow.clear()

    # -- bounded-cache policy ------------------------------------------

    def _may_demote(self, oid: Oid, obj: Any) -> bool:
        """Whether an LRU victim may leave the strong set: only objects
        whose current state still matches their last-stored state —
        unstabilised mutations must never become collectable.

        The cheap test is the clean-state snapshot; an object without
        one (promoted back from the weak tier — demotion dropped its
        snapshot — or registered by a walk) is re-encoded and its bytes
        compared against the stored signature instead.  Either check
        errs towards pinning.
        """
        shadow = self._shadow.get(oid)
        if shadow is not None:
            return snapshots_equal(shadow, self._serializer.snapshot(obj))
        sig = self._stored_sig.get(oid)
        if sig is None:
            return False  # never stored (or sig not yet seen): pin it

        def known_oid(child: Any) -> Oid:
            child_oid = self._identity.oid_for(child)
            if child_oid is None:
                # References an object the store has never seen: the
                # victim must be dirty (a new edge).
                raise LookupError(int(oid))
            return child_oid

        try:
            raw = self._serializer.encode_object(oid, obj, known_oid) \
                .to_bytes()
        except Exception:
            return False
        return (len(raw), zlib.crc32(raw)) == sig

    def _on_demoted(self, oid: Oid) -> None:
        """A demoted object's snapshot would pin its children (snapshots
        hold plain references); drop it — if the object survives and is
        walked again it is simply re-encoded, and the byte-signature
        filter suppresses the redundant write."""
        self._shadow.pop(oid, None)

    # ------------------------------------------------------------------
    # stabilisation (checkpoint)
    # ------------------------------------------------------------------

    def stabilize(self) -> int:
        """Make the state reachable from the roots durable; returns the
        number of records written.

        This is PJama's ``stabilizeAll``: persistence by reachability.  The
        live graph is walked from the root objects along strong edges, but
        only *dirty* nodes — mutated or newly reached since the last
        stabilise, per the snapshot tracker — are re-serialised.  Changed
        records go to the engine as one atomic batch.

        The work runs in **three phases**:

        1. *Walk* — reachability, dirty detection and flattening (OID
           assignment needs the identity map), which yields the dirty
           ``(oid, record)`` set and fresh shadows.
        2. *Encode* — the dirty set is chunked onto the encoder pool,
           where ``to_bytes()`` + crc signature + optional per-record
           compression run; encoded chunks stream into the write batch
           in completion order.
        3. *Commit* — the single-writer fence is checked, the batch
           submitted and the bookkeeping installed, with the pre-commit
           values kept so a failed durability wait re-dirties exactly
           what the batch covered.

        Over an ``async`` pipeline the call returns once the batch is
        submitted; ``self.last_commit`` is its durability ticket and
        :meth:`flush` the barrier.

        Raises :class:`~repro.errors.StoreConflictError`, writing
        nothing, when the engine's root table or allocator cursor moved
        since this store last read or committed them — another store
        wrote through the same engine, and committing would overwrite
        its roots with OIDs that collide with its own.  Two commits in
        flight at the same instant are not detected: that needs a
        compare-and-set inside the engine.
        """
        self._check_open()
        with self._tracer.root("store.stabilize"):
            return self._stabilize_traced()

    def _stabilize_traced(self) -> int:
        """The stabilise proper, run under :meth:`stabilize`'s root
        trace scope (the shared null scope when tracing is off)."""
        # ---- phase 1: walk --------------------------------------------
        walk_start = time.perf_counter_ns()
        _, records, fresh_shadows = self._flatten_from_roots()
        walk_ns = time.perf_counter_ns() - walk_start
        active = current_span()
        if active is not None:
            active.child("store.walk", time.time_ns() - walk_ns, walk_ns)

        # ---- phase 2: encode (chunks stream in) -----------------------
        encode_start = time.perf_counter_ns()
        batch = WriteBatch()
        written_sigs: dict[Oid, tuple[int, int]] = {}
        encoded_bytes = 0
        stored_bytes = 0
        group_of = getattr(self._engine, "shard_of", None)
        for chunk in self._encoder.encode_stream(records.values(),
                                                 self._codec,
                                                 group_of=group_of):
            for item in chunk:
                encoded_bytes += item.raw_len
                stored_bytes += len(item.stored)
                if self._stored_sig.get(item.oid) == item.sig:
                    # Bytes identical to the stored record (a
                    # conservative snapshot fired): nothing to write.
                    continue
                batch.write(item.oid, item.stored)
                written_sigs[item.oid] = item.sig
        encode_ns = time.perf_counter_ns() - encode_start
        active = current_span()
        if active is not None:
            active.child("store.encode", time.time_ns() - encode_ns,
                         encode_ns)

        # ---- phase 3: commit ------------------------------------------
        commit_start = time.perf_counter_ns()
        with trace_span("store.commit"):
            engine_roots = self._engine.roots()
            engine_next_oid = int(self._engine.next_oid)
            if (engine_roots != self._engine_roots
                    or engine_next_oid != self._engine_next_oid):
                raise StoreConflictError(
                    "another store has committed through this engine since "
                    "this store last read or wrote it (roots or OID "
                    "allocator moved); reopen the store to see its state"
                )
            weak_targets = {
                oid: (record.payload.oid
                      if isinstance(record.payload, Ref) else None)
                for oid, record in records.items()
                if record.kind == KIND_WEAKREF
            }
            if self._roots != engine_roots:
                batch.set_roots(self._roots)
            next_oid = int(self._allocator.next_oid)
            if next_oid != engine_next_oid:
                batch.advance_next_oid(next_oid)
            counters = self._phase_counters
            counters["stabilize_count"].inc()
            counters["walk_ns"].inc(walk_ns)
            counters["encode_ns"].inc(encode_ns)
            counters["encoded_bytes"].inc(encoded_bytes)
            counters["compressed_bytes"].inc(stored_bytes)
            # A fully-clean checkpoint (no writes, roots and allocator
            # cursor already durable) skips the engine entirely — no
            # fsyncs, no metadata rewrite.
            if batch.is_empty:
                self._shadow.update(fresh_shadows)
                self._weak_stored.update(weak_targets)
                counters["commit_ns"].inc(
                    time.perf_counter_ns() - commit_start)
                return 0
            # Bookkeeping is committed optimistically (a pipelined
            # engine's pending overlay already serves the new state);
            # the pre-commit values are kept so a failed commit
            # re-dirties exactly what it covered.
            rollback = (
                {oid: self._stored_sig.get(oid) for oid in written_sigs},
                {oid: self._shadow.get(oid) for oid in fresh_shadows},
                {oid: self._weak_stored.get(oid, _WEAK_UNKNOWN)
                 for oid in weak_targets},
                self._engine_roots, self._engine_next_oid,
            )
            ticket = self._engine.apply_async(batch)
            self.last_commit = ticket
            self._stored_sig.update(written_sigs)
            self._shadow.update(fresh_shadows)
            self._weak_stored.update(weak_targets)
            self._engine_roots = dict(self._roots)
            self._engine_next_oid = next_oid
        if not self._engine.asynchronous:
            try:
                ticket.result()
            except BaseException:
                self._rollback_bookkeeping(*rollback)
                raise
        counters["commit_ns"].inc(time.perf_counter_ns() - commit_start)
        return len(batch.writes)

    def _rollback_bookkeeping(self, prev_sigs: dict[Oid, Any],
                              prev_shadows: dict[Oid, Any],
                              prev_weak: dict[Oid, Any],
                              engine_roots: dict[str, Oid],
                              engine_next_oid: int) -> None:
        """Undo one failed commit's optimistic bookkeeping."""
        for oid, sig in prev_sigs.items():
            if sig is None:
                self._stored_sig.pop(oid, None)
            else:
                self._stored_sig[oid] = sig
        for oid, snap in prev_shadows.items():
            if snap is None:
                self._shadow.pop(oid, None)
            else:
                self._shadow[oid] = snap
        for oid, target in prev_weak.items():
            if target is _WEAK_UNKNOWN:
                self._weak_stored.pop(oid, None)
            else:
                self._weak_stored[oid] = target
        self._engine_roots = engine_roots
        self._engine_next_oid = engine_next_oid

    def _flatten_from_roots(self) -> tuple[set[Oid], dict[Oid, Record],
                                           dict[Oid, Any]]:
        """Walk the live graph from the roots; returns (reachable-oids,
        records-for-dirty-live-nodes, snapshots-to-commit-on-success).

        Clean nodes (snapshot matches the state stored at the last
        stabilise) are traversed but not re-serialised.  Roots that are
        not live (never fetched this session) contribute their *stored*
        subgraph to the reachable set without being decoded.
        """
        records: dict[Oid, Record] = {}
        fresh_shadows: dict[Oid, Any] = {}
        reachable: set[Oid] = set()
        live_worklist: list[Any] = []
        stored_worklist: list[Oid] = []

        # peek() rather than object_for(): a full walk must not churn
        # the bounded cache's recency order.
        for oid in self._roots.values():
            obj = self._identity.peek(oid)
            if obj is not None:
                live_worklist.append(obj)
            else:
                stored_worklist.append(oid)

        seen_ids: set[int] = set()
        weakrefs: list[tuple[Oid, PersistentWeakRef]] = []

        def walk_live(start: Any) -> None:
            pending = [start]
            while pending:
                obj = pending.pop()
                if id(obj) in seen_ids:
                    continue
                seen_ids.add(id(obj))
                oid = self._ensure_oid(obj)
                reachable.add(oid)
                if isinstance(obj, PersistentWeakRef):
                    weakrefs.append((oid, obj))
                    continue
                pending.extend(self._serializer.references_of(obj))
                old = self._shadow.get(oid)
                if old is not None:
                    snap = self._serializer.snapshot(obj)
                    if snapshots_equal(old, snap):
                        continue  # clean: stored record still current
                    fresh_shadows[oid] = snap
                else:
                    fresh_shadows[oid] = self._serializer.snapshot(obj)
                self.encode_count += 1
                records[oid] = self._serializer.encode_object(
                    oid, obj, self._ensure_oid
                )

        while live_worklist:
            walk_live(live_worklist.pop())

        # Stored-only roots: mark their stored closure reachable.  If the
        # walk reaches an OID whose object *is* live (fetched and possibly
        # mutated), switch back to the live walk so its current state is
        # re-encoded — otherwise mutations behind a never-fetched root
        # would silently miss the checkpoint.
        seen_stored: set[Oid] = set()
        while stored_worklist:
            oid = stored_worklist.pop()
            if oid in seen_stored or oid in reachable:
                continue
            live = self._identity.peek(oid)
            if live is not None:
                walk_live(live)
                continue
            seen_stored.add(oid)
            reachable.add(oid)
            if self._engine.contains(oid):
                for ref in record_refs(self._read_record(oid),
                                       include_weak=False):
                    stored_worklist.append(ref)

        # Weak references never pull their target into persistence: the
        # stored edge points at the target only if it is independently
        # persistent (already stored or strongly reachable this round).
        # This runs *after* both walks — the stored-root walk can switch
        # back into the live walk and surface more weakrefs, and every
        # one of them needs a record or its parent would reference a
        # missing OID.  A weakref whose stored target (per the
        # ``_weak_stored`` cache) is unchanged since its last commit is
        # skipped outright — previously every stabilise rebuilt and
        # re-serialised every live weakref just for the byte-signature
        # filter to discover it unchanged.
        for oid, weakref in weakrefs:
            target = weakref.get()
            target_oid = None
            if target is not None:
                candidate = self._identity.oid_for(target)
                if candidate is not None and (candidate in reachable
                                              or self._engine.contains(candidate)):
                    target_oid = candidate
            if (self._weak_stored.get(oid, _WEAK_UNKNOWN) == target_oid
                    and oid in self._stored_sig):
                continue  # stored weak record already points at target_oid
            self.weak_rebuilds += 1
            payload = Ref(target_oid) if target_oid is not None else None
            records[oid] = Record(oid, KIND_WEAKREF, "", "", payload)
        return reachable, records, fresh_shadows

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def collect_garbage(self) -> int:
        """Disk garbage collection: free stored objects unreachable from the
        roots along strong edges, and clear weak references to them.

        Returns the number of freed objects.  Mirrors the paper's Figure 7
        requirement: hyper-programs held only through weak references become
        collectable once no strong user references remain.
        """
        self._check_open()
        # Bring the durable state up to date first, so the mark phase can
        # run purely over stored records: collecting against a stale disk
        # image could free objects the durable graph still references.
        self.stabilize()
        marked: set[Oid] = set()
        worklist: list[Oid] = list(self._roots.values())
        while worklist:
            oid = worklist.pop()
            if oid in marked:
                continue
            marked.add(oid)
            if self._engine.contains(oid):
                for ref in record_refs(self._read_record(oid),
                                       include_weak=False):
                    if ref not in marked:
                        worklist.append(ref)

        victims = [oid for oid in self._engine.oids() if oid not in marked]
        batch = WriteBatch()
        freed = set(victims)
        for oid in victims:
            batch.delete(oid)
        # Clear stored weak references whose targets are being freed (or
        # were already missing).
        for oid in self._engine.oids():
            if oid in freed:
                continue
            record = self._read_record(oid)
            if record.kind == KIND_WEAKREF and isinstance(record.payload, Ref):
                target = record.payload.oid
                if target in freed or not self._engine.contains(target):
                    cleared = Record(oid, KIND_WEAKREF, "", "", None)
                    batch.write(oid, cleared.to_bytes())
                    live = self._identity.peek(oid)
                    if isinstance(live, PersistentWeakRef):
                        live.clear()
        # One atomic batch: deletions and weak-reference clears commit (and
        # recover) together, so a crash cannot leave a cleared weakref
        # without its deletion or vice versa.
        if not batch.is_empty:
            self._engine.apply(batch)
        for oid, raw in batch.writes:
            self._stored_sig[oid] = (len(raw), zlib.crc32(raw))
            # Every write here is a cleared weak record.
            self._weak_stored[oid] = None
        # Clear live weak references pointing at freed objects — before
        # the victims leave the identity map, while their targets still
        # resolve to OIDs.
        for oid, obj in self._identity.items():
            if isinstance(obj, PersistentWeakRef) and obj.get() is not None:
                target_oid = self._identity.oid_for(obj.get())
                if target_oid is not None and target_oid in freed:
                    obj.clear()
        for oid in victims:
            self._identity.evict(oid)
            self._shadow.pop(oid, None)
            self._stored_sig.pop(oid, None)
            self._weak_stored.pop(oid, None)
        # Reclaim space the deletions left behind.
        self._engine.compact()
        return len(victims)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> "Transaction":
        """A commit-on-success / revert-on-failure scope around mutations.

        See :class:`repro.store.transactions.Transaction`.
        """
        from repro.store.transactions import Transaction
        return Transaction(self)

    @property
    def active_transaction(self):
        """The currently open transaction, or ``None``."""
        return self._active_txn

    def _begin_transaction(self, txn: Any) -> None:
        from repro.errors import TransactionError
        if self._active_txn is not None:
            raise TransactionError("store already has an active transaction")
        self._active_txn = txn

    def _end_transaction(self, txn: Any) -> None:
        if self._active_txn is txn:
            self._active_txn = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def statistics(self) -> StoreStatistics:
        return StoreStatistics(
            object_count=self._engine.object_count,
            root_count=len(self._roots),
            live_count=len(self._identity),
            heap_pages=self._engine.page_count,
            next_oid=int(self._allocator.next_oid),
        )

    def stats(self) -> dict[str, Optional[int]]:
        """Stabilise-phase counters, cumulative over the store's life.

        ``walk_ns`` / ``encode_ns`` / ``commit_ns`` attribute each
        stabilise's wall time to its three phases (commit includes the
        durability wait on synchronous engines); ``encoded_bytes`` is
        the raw serialised volume and ``compressed_bytes`` the volume
        actually handed to the engine (equal when no codec is in force
        or compression never won).  ``encode_count`` counts dirty
        non-weak records serialised by walks; ``weak_rebuilds`` counts
        weak records rebuilt because their stored target changed.

        This is the compatibility view over the store's
        :class:`~repro.store.obs.MetricsRegistry` counters; with
        ``metrics=False`` nothing measured them, so the six registry-backed
        keys read ``None`` rather than a zero that never happened
        (``encode_count`` and ``weak_rebuilds`` keep counting).
        """
        measured = self._metrics.enabled
        out = {name: counter.value if measured else None
               for name, counter in self._phase_counters.items()}
        out["encode_count"] = self.encode_count
        out["weak_rebuilds"] = self.weak_rebuilds
        return out

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The store's telemetry registry (shared with its engine
        wrapper; disabled under ``metrics=False``)."""
        return self._metrics

    def metrics(self) -> dict:
        """A plain-dict snapshot of every store and engine instrument
        (see :meth:`repro.store.obs.MetricsRegistry.snapshot`)."""
        return self._metrics.snapshot()

    @property
    def tracer(self) -> Tracer:
        """The store's span tracer (inert unless ``trace_sample``,
        ``slow_trace_ms`` or ``trace_log`` configured it).  Kept traces
        land in ``tracer.spans`` (a :class:`~repro.store.obs.SpanLog`)
        and, when a sink path was given, in the JSONL trace log."""
        return self._tracer

    def stored_record(self, oid: Oid) -> Record:
        """The stored record for an OID (browser / debugging use)."""
        self._check_open()
        if not self._engine.contains(oid):
            raise UnknownOidError(int(oid))
        return self._read_record(oid)

    def verify_referential_integrity(self) -> list[str]:
        """Check that every stored reference resolves; returns problems found
        (empty list means the store is sound)."""
        problems: list[str] = []
        for oid in self._engine.oids():
            record = self._read_record(oid)
            for ref in record_refs(record, include_weak=True):
                if not self._engine.contains(ref):
                    problems.append(
                        f"oid {int(oid)} references missing oid {int(ref)}"
                    )
        for name, oid in self._roots.items():
            if not self._engine.contains(oid) and \
                    self._identity.peek(oid) is None:
                problems.append(f"root {name!r} names missing oid {int(oid)}")
        return problems
