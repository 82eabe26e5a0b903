"""The read-serving pieces: the engines' writer-preferring
:class:`~repro.store.serve.locks.ReadWriteLock` under real reader and
writer threads, the :class:`~repro.store.serve.prefetch.FetchPlanner`'s
wave shape, and the ``cache_objects`` bound (a full-graph walk leaves at
most N clean objects strongly held — verified with :mod:`weakref` and
:mod:`gc`).
"""

from __future__ import annotations

import gc
import random
import threading
import time
import weakref

import pytest

from repro.store import open_store
from repro.store.serve.locks import ReadWriteLock
from repro.store.serve.prefetch import FetchPlanner

from tests.conftest import Person


def populate_chains(store, clusters=10, chain=6):
    """Clusters of ``spouse``-linked Person chains; returns
    ``{name: oid}`` for every node."""
    heads = []
    people = []
    for cluster in range(clusters):
        nodes = [Person(f"c{cluster}n{index}") for index in range(chain)]
        for left, right in zip(nodes, nodes[1:]):
            left.spouse = right
        heads.append(nodes[0])
        people.extend(nodes)
    store.set_root("heads", heads)
    store.stabilize()
    return {person.name: store.oid_of(person) for person in people}


def run_threads(workers):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three readers inside simultaneously

        run_threads([reader] * 3)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        entered = threading.Event()

        def writer():
            with lock.write_locked():
                entered.set()
                time.sleep(0.05)
                order.append("writer")

        def reader():
            entered.wait(5)
            with lock.read_locked():
                order.append("reader")

        run_threads([writer, reader])
        assert order == ["writer", "reader"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        order = []
        reader_in = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_in.set()
                # Hold until the writer is queued and a second reader
                # has had a chance to try to barge past it.
                writer_waiting.wait(5)
                time.sleep(0.05)

        def writer():
            reader_in.wait(5)
            writer_waiting.set()
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            writer_waiting.wait(5)
            # Arrive strictly after the writer is queued on the lock.
            deadline = time.monotonic() + 5
            while lock._writers_waiting == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            with lock.read_locked():
                order.append("late-reader")

        run_threads([first_reader, writer, late_reader])
        # Writer preference: the late reader may not overtake the
        # queued writer.
        assert order == ["writer", "late-reader"]

    def test_read_reentrant(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                pass
        # Fully released: one more release is unbalanced.
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_write_reentrant_and_read_within_write(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():
                    pass
        # Both sides fully released: further releases are unbalanced.
        with pytest.raises(RuntimeError):
            lock.release_write()
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_upgrade_refused(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_unbalanced_releases_refused(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

class TestFetchPlanner:
    def test_waves_follow_graph_depth(self, store):
        oids = populate_chains(store, clusters=3, chain=5)
        store.evict_all()
        planner = FetchPlanner(store.engine)
        head = oids["c0n0"]
        plan = planner.closure([head], lambda oid: False)
        # One chain: five records, one wave per generation.
        assert len(plan) == 5
        assert plan.waves == 5

    def test_cold_fault_costs_one_engine_call_per_generation(self, store):
        """The planner's reason to exist: faulting a wide graph issues
        one bulk ``fetch_many`` per generation of the closure and no
        per-OID ``read`` at all, however many records come back."""
        people = [Person(f"p{index}") for index in range(60)]
        for index, person in enumerate(people):
            person.spouse = Person(f"s{index}")
        store.set_root("wide", people)
        store.stabilize()
        del people
        store.evict_all()

        def counts():
            """Engine calls by op, and fault waves, from one snapshot."""
            snapshot = store.metrics()
            calls = {key.split("op=")[1].rstrip("}"): hist["count"]
                     for key, hist in snapshot["histograms"].items()
                     if key.startswith("engine_op_ns")}
            return calls, snapshot["gauges"]["store_fault_waves_total"]

        before, waves_before = counts()
        names = [person.spouse.name for person in store.get_root("wide")]
        assert names == [f"s{index}" for index in range(60)]
        after, waves_after = counts()
        # list -> 60 people -> 60 spouses: 121 records, three waves.
        assert waves_after - waves_before == 3
        assert after["fetch_many"] - before.get("fetch_many", 0) == 3
        assert after.get("read", 0) == before.get("read", 0)

    def test_live_subgraphs_are_not_descended(self, store):
        oids = populate_chains(store, clusters=1, chain=4)
        store.evict_all()
        live = {oids["c0n2"], oids["c0n3"]}
        planner = FetchPlanner(store.engine)
        plan = planner.closure([oids["c0n0"]], lambda oid: oid in live)
        assert set(plan.records) == {oids["c0n0"], oids["c0n1"]}


class TestBoundedServing:
    """The acceptance bound: ``?cache_objects=N`` leaves at most N clean
    objects strongly held after a full-graph walk."""

    CAPACITY = 16

    def test_full_walk_leaves_at_most_n_strong(self, tmp_path, registry):
        url = f"file:{tmp_path / 's'}?cache_objects={self.CAPACITY}"
        with open_store(url, registry=registry) as store:
            chain = [Person(f"n{index}") for index in range(120)]
            for left, right in zip(chain, chain[1:]):
                left.spouse = right
            store.set_root("head", chain[0])
            store.stabilize()
            oids = [store.oid_of(person) for person in chain]
            del chain
            store.evict_all()

            refs = []
            for oid in oids:
                obj = store.object_for(oid)
                refs.append(weakref.ref(obj))
                del obj
            gc.collect()

            alive = sum(1 for ref in refs if ref() is not None)
            assert alive <= self.CAPACITY
            assert store._identity.strong_count <= self.CAPACITY
            # The tail was demoted, not lost: everything re-faults.
            head = store.get_root("head")
            count = 0
            node = head
            while node is not None:
                count += 1
                node = node.spouse
            assert count == 120

    def test_dirty_objects_are_never_demoted(self, tmp_path, registry):
        url = f"file:{tmp_path / 's'}?cache_objects=4"
        with open_store(url, registry=registry) as store:
            people = [Person(f"p{index}") for index in range(12)]
            store.set_root("people", people)
            store.stabilize()
            oids = [store.oid_of(person) for person in people]
            del people
            store.evict_all()
            # Fetch and immediately mutate every object.  The strong set
            # fills with dirty objects the cap cannot trim: a dirty
            # victim is always refused demotion, so enforcement demotes
            # only the clean newcomers.
            held = []
            for index, oid in enumerate(oids):
                person = store.object_for(oid)
                person.name = f"renamed{index}"
                held.append(person)
            assert store._identity.strong_count == 4  # all four dirty
            assert store._identity.enforce_capacity() == 0
            written = store.stabilize()
            assert written >= len(oids)
            # Stabilised and clean: the renames are durable whichever
            # tier serves them now.
            with_store = [store.object_for(oid).name for oid in oids]
            assert with_store == [f"renamed{i}" for i in range(len(oids))]

    def test_random_reads_respect_bound(self, tmp_path, registry):
        url = f"sharded:3:file:{tmp_path / 'cluster'}?cache_objects=24"
        with open_store(url, registry=registry) as store:
            people = [Person(f"p{index}") for index in range(96)]
            store.set_root("people", people)
            store.stabilize()
            oids = [store.oid_of(person) for person in people]
            del people
            store.evict_all()

            rng = random.Random(7)
            for _ in range(900):
                oid = rng.choice(oids)
                assert store.object_for(oid).name.startswith("p")
                assert store._identity.strong_count <= 24