"""One owner thread per store, and one writing store per engine.

* **Threading contract.**  The thread that constructs an ``ObjectStore``
  owns it; any other thread calling into its object graph gets
  :class:`~repro.errors.StoreThreadError`, and the refused call leaves
  nothing behind — the owner carries on.  Checked on every backend of
  the ``store`` fixture.
* **Single-writer fence.**  Two stores writing through one engine would
  allocate the same OIDs and each overwrite the root table with its own,
  so the second writer would silently destroy the first one's data.  A
  commit raises :class:`~repro.errors.StoreConflictError` instead when
  the engine's roots or allocator cursor moved since the store last read
  or wrote them.  Checked on a shared ``MemoryEngine`` and on two ``remote:``
  clients of one store server.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    StoreClosedError,
    StoreConflictError,
    StoreThreadError,
)
from repro.store.engine import MemoryEngine
from repro.store.net.client import RemoteEngine
from repro.store.objectstore import ObjectStore

from tests.conftest import Person
from tests.store.conftest import _remote_endpoint, make_engine

#: Every graph-touching entry point, called as ``call(store, person,
#: oid)`` on a store whose root ``"p"`` is the stabilised ``person``.
CALLS = {
    "object_for": lambda store, person, oid: store.object_for(oid),
    "get_root": lambda store, person, oid: store.get_root("p"),
    "set_root": lambda store, person, oid: store.set_root("q", [1]),
    "stabilize": lambda store, person, oid: store.stabilize(),
    "refresh": lambda store, person, oid: store.refresh(person),
    "evict_all": lambda store, person, oid: store.evict_all(),
    "collect_garbage": lambda store, person, oid: store.collect_garbage(),
}


def call_from_another_thread(fn):
    """Run ``fn`` on a fresh thread; return what it raised (or None)."""
    outcome = []

    def run():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - returned below
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(30)
    assert outcome, "foreign call never returned"
    return outcome[0]


class TestThreadContract:
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_foreign_thread_is_refused_and_owner_carries_on(self, store,
                                                            name):
        person = Person("owned")
        store.set_root("p", person)
        store.stabilize()
        oid = store.oid_of(person)
        call = CALLS[name]

        error = call_from_another_thread(lambda: call(store, person, oid))
        assert isinstance(error, StoreThreadError)
        assert not store.has_root("q")  # the refused call did nothing

        call(store, person, oid)
        assert store.get_root("p").name == "owned"
        store.stabilize()
        assert store.verify_referential_integrity() == []

    def test_a_closed_store_reports_closed_to_every_thread(self, registry):
        store = ObjectStore.in_memory(registry=registry)
        store.close()
        error = call_from_another_thread(lambda: store.get_root("p"))
        assert isinstance(error, StoreClosedError)


class TestSingleWriterFence:
    def assert_second_writer_refused(self, first, second):
        first.set_root("a", ["from-a"])
        first.stabilize()
        second.set_root("b", ["from-b"])
        stored = second.engine.object_count
        with pytest.raises(StoreConflictError):
            second.stabilize()
        # Refused before anything reached the engine, and refused again:
        # the stale store's view did not silently become current.
        assert second.engine.object_count == stored
        with pytest.raises(StoreConflictError):
            second.stabilize()
        # The first writer's own view is still current.
        first.get_root("a").append("more")
        assert first.stabilize() == 1

    def assert_first_writer_survives(self, reader):
        assert reader.root_names() == ("a",)
        assert reader.get_root("a") == ["from-a", "more"]
        assert reader.verify_referential_integrity() == []

    def test_shared_memory_engine(self, registry):
        engine = MemoryEngine()
        first = ObjectStore(registry=registry, engine=engine)
        second = ObjectStore(registry=registry, engine=engine)
        self.assert_second_writer_refused(first, second)
        # A memory engine does not survive close: reopen over it live.
        self.assert_first_writer_survives(
            ObjectStore(registry=registry, engine=engine))
        first.close()

    def test_two_remote_clients_of_one_server(self, tmp_path, registry):
        first = ObjectStore(registry=registry,
                            engine=make_engine("remote", tmp_path))
        second = ObjectStore(registry=registry,
                             engine=RemoteEngine(_remote_endpoint(),
                                                 op_timeout=60))
        self.assert_second_writer_refused(first, second)
        first.close()
        second.close()
        with ObjectStore(registry=registry,
                         engine=RemoteEngine(_remote_endpoint(),
                                             op_timeout=60)) as reader:
            self.assert_first_writer_survives(reader)

    def test_a_store_opened_after_a_commit_may_write(self, registry):
        engine = MemoryEngine()
        first = ObjectStore(registry=registry, engine=engine)
        first.set_root("a", ["from-a"])
        first.stabilize()
        later = ObjectStore(registry=registry, engine=engine)
        later.set_root("b", ["from-b"])
        assert later.stabilize() == 1
        assert later.get_root("a") == ["from-a"]
        assert ObjectStore(registry=registry, engine=engine) \
            .root_names() == ("a", "b")
        first.close()
