"""The identity map: the store's live-object cache, optionally bounded.

PJama guarantees that fetching the same persistent object twice yields the
*same* Java object — object identity is preserved across the store
boundary.  ``ObjectCache`` provides that guarantee: it is a bidirectional
association between OIDs and live Python objects, keyed by ``id()`` on the
object side (with the mapping itself keeping the object alive, so an id is
never reused while mapped).

With ``capacity=None`` every mapped object is pinned strongly and forever
— correct, and right for small stores — but a long read session over a
large store then grows without bound.  A ``capacity`` (the store's
``cache_objects`` setting) keeps the identity guarantee while bounding
what the *store itself* pins:

* the **hot set** — up to ``capacity`` objects held strongly, in LRU
  order (every :meth:`object_for` hit refreshes recency; internal walks
  use :meth:`peek` and do not);
* the **tail** — demoted objects held through :mod:`weakref`.  A demoted
  object stays resolvable exactly as long as anything else keeps it
  alive (application code, or a live parent object whose state
  references it); once the last strong reference goes, it is collected
  and a later fetch simply re-materialises it from the engine.  Identity
  is never violated: the weak entry resolves to the one live object or
  to nothing.

Eviction is *demotion*, never removal, because removing a live object
from the map would let a second copy materialise behind the
application's back (and let stabilise allocate it a second OID).  Three
kinds of victim refuse demotion and stay strong:

* **dirty objects** — the ``guard`` the store passes compares the victim's
  current state against its last-stored snapshot; unstabilised mutations
  must not become collectable;
* **non-weakrefable objects** — plain ``list``/``dict``/``set``/
  ``bytearray`` nodes cannot be weakly referenced in CPython, so the
  bound is enforced over registered-class instances (the overwhelming
  population in a hyper-program store) and container nodes stay pinned;
* objects the guard cannot judge (snapshot raises): kept, conservatively.

Demotion calls the store's ``on_demoted`` hook so the store drops its
clean-state snapshot of the victim — a snapshot holds strong references
to the victim's children and would otherwise keep whole demoted chains
alive through the bookkeeping rather than through the object graph.

The cache takes no lock: it belongs to one store, and a store to one
thread (see :class:`~repro.store.objectstore.ObjectStore`), so mutations
happen strictly between enforcement points and a dirty victim is always
refused.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Callable, Iterator, Optional

from repro.store.oids import Oid

#: ``guard(oid, obj) -> bool`` — may this clean victim be demoted?
DemotionGuard = Callable[[Oid, Any], bool]


class ObjectCache:
    """Bidirectional OID <-> live object association; with a ``capacity``,
    the strong set is bounded: LRU victims the ``guard`` allows are
    demoted to weak references and reported to ``on_demoted``."""

    def __init__(self, capacity: Optional[int] = None,
                 guard: Optional[DemotionGuard] = None,
                 on_demoted: Optional[Callable[[Oid], None]] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._guard = guard
        self._demotion_hook = on_demoted
        #: The strong tier, in LRU order.
        self._by_oid: OrderedDict[Oid, Any] = OrderedDict()
        self._oid_by_id: dict[int, Oid] = {}
        #: Demoted tail: oid -> (weak reference, id() at demotion time,
        #: so the reverse entry can be purged after the object dies).
        self._weak: dict[Oid, tuple[weakref.ref, int]] = {}
        #: Observability: demotions and weak-tier deaths since creation.
        self.demotions = 0
        self.weak_deaths = 0

    @property
    def capacity(self) -> Optional[int]:
        """Most clean objects held strongly, or ``None`` (unbounded)."""
        return self._capacity

    # -- lookups ---------------------------------------------------------

    def _weak_live(self, oid: Oid) -> Optional[Any]:
        """Resolve a weak entry, purging it if the object has died."""
        entry = self._weak.get(oid)
        if entry is None:
            return None
        obj = entry[0]()
        if obj is None:
            del self._weak[oid]
            if self._oid_by_id.get(entry[1]) == oid:
                del self._oid_by_id[entry[1]]
            self.weak_deaths += 1
        return obj

    def object_for(self, oid: Oid) -> Optional[Any]:
        """The live object for ``oid``.

        Unbounded, this is a bare ``dict.get``: there is no LRU order to
        maintain and nothing is ever demoted.  Bounded, a hit counts as
        a *use*: it refreshes recency and promotes a demoted object back
        to the hot set.
        """
        if self._capacity is None:
            return self._by_oid.get(oid)
        obj = self._by_oid.get(oid)
        if obj is not None:
            self._by_oid.move_to_end(oid)
            return obj
        obj = self._weak_live(oid)
        if obj is not None:
            # Promote back into the hot set; someone is using it.
            del self._weak[oid]
            self._by_oid[oid] = obj
            self.enforce_capacity()
        return obj

    def peek(self, oid: Oid) -> Optional[Any]:
        """Like :meth:`object_for` but without recency side effects —
        internal walks (stabilise, GC) use this so a full traversal does
        not churn the LRU order."""
        obj = self._by_oid.get(oid)
        if obj is not None:
            return obj
        return self._weak_live(oid)

    def oid_for(self, obj: Any) -> Optional[Oid]:
        oid = self._oid_by_id.get(id(obj))
        if oid is None:
            return None
        # Guard against id() collisions with unmapped objects: the entry
        # is only valid if the mapped object is this very object.
        if self._by_oid.get(oid) is obj:
            return oid
        entry = self._weak.get(oid)
        if entry is not None and entry[0]() is obj:
            return oid
        return None

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._by_oid or self._weak_live(oid) is not None

    def __len__(self) -> int:
        live_weak = sum(1 for ref, _ in self._weak.values()
                        if ref() is not None)
        return len(self._by_oid) + live_weak

    @property
    def strong_count(self) -> int:
        """Objects currently pinned by a strong reference."""
        return len(self._by_oid)

    # -- mutation --------------------------------------------------------

    def add(self, oid: Oid, obj: Any, enforce: bool = True) -> None:
        """Bind ``oid`` to ``obj`` in the strong tier.

        ``enforce=False`` defers capacity enforcement to an explicit
        :meth:`enforce_capacity` call: a bulk install (the store's fault
        path) must add every shell of a subgraph *before* any demotion
        runs, or an LRU victim another shell still needs could be
        demoted — and die — mid-installation.
        """
        existing = self._by_oid.get(oid)
        if existing is None:
            existing = self._weak_live(oid)
        if existing is not None:
            if existing is not obj:
                raise ValueError(
                    f"oid {oid} is already bound to another object")
            # Rebinding the same pair: treat as a use.
            if oid in self._weak:
                del self._weak[oid]
                self._by_oid[oid] = obj
            else:
                self._by_oid.move_to_end(oid)
        else:
            self._by_oid[oid] = obj
        self._oid_by_id[id(obj)] = oid
        if enforce:
            self.enforce_capacity()

    def evict(self, oid: Oid) -> None:
        obj = self._by_oid.pop(oid, None)
        if obj is not None:
            self._oid_by_id.pop(id(obj), None)
            return
        entry = self._weak.pop(oid, None)
        if entry is not None and self._oid_by_id.get(entry[1]) == oid:
            del self._oid_by_id[entry[1]]

    def clear(self) -> None:
        self._by_oid.clear()
        self._weak.clear()
        self._oid_by_id.clear()

    # -- views -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Oid, Any]]:
        """A snapshot of every live binding (safe to mutate the cache
        while iterating it)."""
        snapshot = list(self._by_oid.items())
        for oid in list(self._weak):
            obj = self._weak_live(oid)
            if obj is not None:
                snapshot.append((oid, obj))
        return iter(snapshot)

    def oids(self) -> set[Oid]:
        return {oid for oid, _ in self.items()}

    # -- demotion --------------------------------------------------------

    def enforce_capacity(self) -> int:
        """Demote LRU victims until the strong set fits the capacity;
        returns the number demoted.  A no-op when unbounded.

        Undemotable victims are rotated to the hot end (CLOCK-style) so
        the next pass examines fresh candidates, and the scan is
        budgeted: when the set is over capacity because of a large dirty
        or non-weakrefable population, one enforcement examines a
        bounded slice rather than re-judging every pinned entry (the
        guard can cost a re-encode per victim) on every fetch."""
        if self._capacity is None:
            return 0
        excess = len(self._by_oid) - self._capacity
        if excess <= 0:
            return 0
        budget = max(32, 4 * excess)
        demoted = 0
        for oid in list(self._by_oid.keys()):
            if len(self._by_oid) <= self._capacity or budget <= 0:
                break
            budget -= 1
            obj = self._by_oid.get(oid)
            if obj is None:
                continue
            if self._guard is not None:
                try:
                    allowed = self._guard(oid, obj)
                except Exception:
                    allowed = False  # cannot judge: keep it pinned
                if not allowed:
                    self._by_oid.move_to_end(oid)
                    continue
            try:
                ref = weakref.ref(obj)
            except TypeError:
                # Plain containers cannot be weakly referenced; they
                # stay strong (documented limitation).
                self._by_oid.move_to_end(oid)
                continue
            del self._by_oid[oid]
            self._weak[oid] = (ref, id(obj))
            demoted += 1
            self.demotions += 1
            if self._demotion_hook is not None:
                self._demotion_hook(oid)
        return demoted
