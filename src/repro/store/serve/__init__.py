"""The read-serving subsystem: faulting over a bounded cache.

* :class:`~repro.store.serve.locks.ReadWriteLock` — a writer-preferring
  read-write lock the memory and file engines guard their state with,
  so a store server's connection threads read in parallel.  (The store
  itself takes no lock: one thread owns it.)
* :class:`~repro.store.serve.cache.ObjectCache` — the bounded identity
  map: an LRU of strong references over a weak-reference tail, so a
  store serving millions of objects keeps at most ``cache_objects``
  clean objects pinned while identity is still preserved for every
  object the application can reach.
* :class:`~repro.store.serve.prefetch.FetchPlanner` — closure fetching
  in shard-parallel waves over the
  :meth:`~repro.store.engine.base.StorageEngine.fetch_many` bulk-read
  contract, instead of one engine round-trip per OID.
"""

from repro.store.serve.cache import ObjectCache
from repro.store.serve.locks import ReadWriteLock
from repro.store.serve.prefetch import FetchPlan, FetchPlanner

__all__ = ["ObjectCache", "ReadWriteLock", "FetchPlan", "FetchPlanner"]
