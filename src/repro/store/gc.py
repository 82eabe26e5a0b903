"""Reachability analysis helpers over the stored graph.

:meth:`~repro.store.objectstore.ObjectStore.collect_garbage` is the actual
collector; this module exposes the analysis pieces separately so tests
and the browser can inspect reachability without mutating the store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.store.objectstore import record_refs
from repro.store.oids import Oid

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.objectstore import ObjectStore


def reachable_oids(store: "ObjectStore",
                   include_weak: bool = False) -> set[Oid]:
    """OIDs reachable from the roots over *stored* records.

    ``include_weak=False`` (the default) follows only strong edges — the
    reachability that decides liveness.  ``include_weak=True`` additionally
    follows weak edges, which is useful for computing what is *accessible*
    (e.g. through the paper's Figure 7 registry) rather than what is live.
    """
    marked: set[Oid] = set()
    worklist = [store.root_oid(name) for name in store.root_names()]
    while worklist:
        oid = worklist.pop()
        if oid in marked:
            continue
        marked.add(oid)
        if store.is_stored(oid):
            record = store.stored_record(oid)
            for ref in record_refs(record, include_weak=include_weak):
                if ref not in marked:
                    worklist.append(ref)
    return marked


def unreachable_oids(store: "ObjectStore") -> set[Oid]:
    """Stored OIDs that the next :meth:`collect_garbage` would free,
    assuming the live graph matches the stored graph."""
    marked = reachable_oids(store, include_weak=False)
    return {oid for oid in store.stored_oids() if oid not in marked}


def weakly_only_reachable(store: "ObjectStore") -> set[Oid]:
    """OIDs reachable through weak edges but not strong ones — exactly the
    population of collectable hyper-programs in the paper's Figure 7."""
    strong = reachable_oids(store, include_weak=False)
    accessible = reachable_oids(store, include_weak=True)
    return accessible - strong
