"""Closure planning: fault an object graph in engine-parallel waves.

The original fetch loop issued one ``engine.read`` per OID while walking
the reference closure — fine over a dict, but over a sharded store every
record is a full engine round trip and the shard pool sits idle.
``FetchPlanner`` walks the closure in *waves*: every OID discovered in
one generation is fetched with a single
:meth:`~repro.store.engine.base.StorageEngine.fetch_many` call, which
the sharded engine fans out across its shards in parallel (and the
SQLite engine turns into one ``SELECT ... IN``).  A graph of depth *d*
costs *d* bulk reads instead of one read per node.

The planner performs **no identity-map mutation** — it only reads the
engine and peeks at liveness through the callback it is given.  The
store installs the planned records afterwards, and plans again if a
weak-tier object the plan counted on as live was collected in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import UnknownOidError
from repro.store.engine.base import StorageEngine
from repro.store.obs.trace import span as trace_span
from repro.store.oids import Oid
from repro.store.serializer import Record, record_refs, unwrap_record


@dataclass
class FetchPlan:
    """The outcome of one closure walk: every record needed to
    materialise the requested roots, with its raw bytes (for the store's
    stored-signature bookkeeping) and decoded form."""

    #: oid -> (raw record bytes, decoded record), discovery order.
    records: dict[Oid, tuple[bytes, Record]] = field(default_factory=dict)
    #: Number of bulk-read waves the walk took (observability).
    waves: int = 0

    def __len__(self) -> int:
        return len(self.records)


class FetchPlanner:
    """Plans reference-closure fetches as shard-parallel waves."""

    def __init__(self, engine: StorageEngine):
        self._engine = engine
        # Native fault telemetry (pull gauges via obs): closure plans
        # built and bulk-read waves issued across all of them.
        self.plans = 0
        self.total_waves = 0

    def closure(self, roots: Iterable[Oid],
                is_live: Callable[[Oid], bool]) -> FetchPlan:
        """Fetch every stored record reachable from ``roots`` that is not
        already live.

        ``is_live`` answers whether an OID already has a live object (the
        store passes an identity-map peek); live subgraphs are not
        descended into — their records are not needed and their own
        references are already materialised.

        Raises :class:`~repro.errors.UnknownOidError` when a root or a
        stored reference does not resolve, naming the referer when one is
        known.  Over a sharded engine mid-commit this can be a transient
        torn-window read; the store retries the plan.
        """
        plan = FetchPlan()
        referer: dict[Oid, Optional[Oid]] = {}
        frontier: list[Oid] = []
        for oid in roots:
            if oid not in referer and not is_live(oid):
                referer[oid] = None
                frontier.append(oid)
        self.plans += 1
        while frontier:
            plan.waves += 1
            self.total_waves += 1
            # One leaf span per bulk-read wave: a traced fault shows
            # the closure depth and where the wide waves were.
            with trace_span("planner.wave"):
                fetched = self._engine.fetch_many(frontier)
            next_frontier: list[Oid] = []
            for oid in frontier:
                raw = fetched.get(oid)
                if raw is None:
                    parent = referer.get(oid)
                    if parent is None:
                        raise UnknownOidError(int(oid))
                    raise UnknownOidError(
                        f"stored object {int(parent)} references missing "
                        f"oid {int(oid)}"
                    )
                # Codec-framed records are unwrapped here so the plan
                # carries *raw* bytes: the store's stored-signature
                # bookkeeping is defined over the uncompressed encoding.
                raw = unwrap_record(raw)
                record = Record.from_bytes(raw)
                plan.records[oid] = (raw, record)
                for ref in record_refs(record, include_weak=True):
                    if ref in referer or ref in plan.records:
                        continue
                    if is_live(ref):
                        continue
                    referer[ref] = oid
                    next_frontier.append(ref)
            frontier = next_frontier
        return plan
