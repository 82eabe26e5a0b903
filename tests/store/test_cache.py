"""The identity map (:class:`~repro.store.serve.cache.ObjectCache`):
bidirectional OID <-> object association, unbounded or bounded."""

import gc
import weakref

import pytest

from repro.store.oids import Oid
from repro.store.serve.cache import ObjectCache

from tests.conftest import Person


@pytest.fixture(params=[None, 64], ids=["unbounded", "bounded"])
def mapping(request):
    """The identity-map contract holds whatever the capacity (64 is
    never reached by these cases)."""
    return ObjectCache(capacity=request.param)


class TestIdentityContract:
    def test_add_and_lookup_both_directions(self, mapping):
        person = Person("x")
        mapping.add(Oid(1), person)
        assert mapping.object_for(Oid(1)) is person
        assert mapping.oid_for(person) == Oid(1)
        assert Oid(1) in mapping
        assert len(mapping) == 1

    def test_missing_lookups_return_none(self, mapping):
        assert mapping.object_for(Oid(9)) is None
        assert mapping.oid_for(Person("unmapped")) is None

    def test_rebinding_same_pair_is_idempotent(self, mapping):
        person = Person("x")
        mapping.add(Oid(1), person)
        mapping.add(Oid(1), person)
        assert len(mapping) == 1

    def test_rebinding_oid_to_other_object_rejected(self, mapping):
        mapping.add(Oid(1), Person("a"))
        with pytest.raises(ValueError):
            mapping.add(Oid(1), Person("b"))

    def test_evict_removes_both_directions(self, mapping):
        person = Person("x")
        mapping.add(Oid(1), person)
        mapping.evict(Oid(1))
        assert mapping.object_for(Oid(1)) is None
        assert mapping.oid_for(person) is None

    def test_evict_missing_is_noop(self, mapping):
        mapping.evict(Oid(404))

    def test_clear(self, mapping):
        mapping.add(Oid(1), Person("a"))
        mapping.add(Oid(2), Person("b"))
        mapping.clear()
        assert len(mapping) == 0

    def test_stale_id_reuse_not_confused(self, mapping):
        """oid_for validates the reverse entry against the forward map, so
        a recycled id() of a dead object cannot resolve to a stale OID."""
        person = Person("original")
        mapping.add(Oid(1), person)
        # Simulate the forward side being re-pointed (as evict+add would).
        mapping.evict(Oid(1))
        replacement = Person("replacement")
        mapping.add(Oid(1), replacement)
        assert mapping.oid_for(person) is None
        assert mapping.oid_for(replacement) == Oid(1)

    def test_items_snapshot_is_safe_to_mutate_over(self, mapping):
        for index in range(5):
            mapping.add(Oid(index + 1), Person(f"p{index}"))
        for oid, __ in mapping.items():
            mapping.evict(oid)  # no RuntimeError: items() snapshots
        assert len(mapping) == 0

    def test_oids_set(self, mapping):
        mapping.add(Oid(3), Person("a"))
        mapping.add(Oid(7), Person("b"))
        assert mapping.oids() == {Oid(3), Oid(7)}

    def test_within_capacity_enforcement_is_a_noop(self, mapping):
        mapping.add(Oid(1), Person("a"))
        assert mapping.enforce_capacity() == 0
        assert mapping.strong_count == 1


class TestObjectCache:
    """The bounded identity map: LRU hot set + weak-reference tail."""

    def fill(self, cache, count):
        people = [Person(f"p{index}") for index in range(count)]
        for index, person in enumerate(people):
            cache.add(Oid(index + 1), person)
        return people

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ObjectCache(capacity=0)

    def test_within_capacity_everything_stays_strong(self):
        cache = ObjectCache(capacity=8)
        self.fill(cache, 5)
        assert cache.capacity == 8
        assert cache.strong_count == 5
        assert cache.demotions == 0

    def test_lru_victims_are_demoted_not_dropped(self):
        cache = ObjectCache(capacity=3)
        people = self.fill(cache, 6)
        assert cache.strong_count == 3
        assert cache.demotions == 3
        # Every object is still resolvable (the holder list pins them).
        for index, person in enumerate(people):
            assert cache.peek(Oid(index + 1)) is person
            assert cache.oid_for(person) == Oid(index + 1)
        assert len(cache) == 6

    def test_hit_promotes_back_into_the_hot_set(self):
        cache = ObjectCache(capacity=3)
        people = self.fill(cache, 6)
        demoted_before = cache.demotions
        assert cache.object_for(Oid(1)) is people[0]  # was demoted
        assert cache.strong_count == 3
        # Promotion pushed some other victim out.
        assert cache.demotions == demoted_before + 1

    def test_peek_does_not_promote(self):
        cache = ObjectCache(capacity=3)
        people = self.fill(cache, 6)
        demoted_before = cache.demotions
        assert cache.peek(Oid(1)) is people[0]
        assert cache.demotions == demoted_before

    def test_dead_weak_entries_resolve_to_none(self):
        cache = ObjectCache(capacity=2)
        people = self.fill(cache, 5)
        dead_ref = weakref.ref(people[0])
        del people
        gc.collect()
        assert dead_ref() is None
        assert cache.object_for(Oid(1)) is None
        assert Oid(1) not in cache
        # The two hot-set survivors are all that is left.
        assert len(cache) == 2

    def test_demotion_guard_pins_refused_victims(self):
        pinned = {Oid(1), Oid(2), Oid(3)}
        cache = ObjectCache(capacity=2,
                            guard=lambda oid, obj: oid not in pinned)
        people = self.fill(cache, 5)
        assert people
        # The three guarded objects can never leave the strong set, even
        # though they exceed the capacity on their own.
        assert {oid for oid, _ in cache.items()
                if cache.peek(oid) is not None} >= pinned
        assert cache.strong_count >= 3
        for oid in pinned:
            assert cache.peek(oid) is not None

    def test_demotion_hook_fires_per_victim(self):
        demoted = []
        cache = ObjectCache(capacity=2, on_demoted=demoted.append)
        self.fill(cache, 5)
        assert len(demoted) == 3
        assert demoted == [Oid(1), Oid(2), Oid(3)]

    def test_non_weakrefable_objects_stay_strong(self):
        cache = ObjectCache(capacity=2)
        lists = [[index] for index in range(4)]
        for index, node in enumerate(lists):
            cache.add(Oid(index + 1), node)
        # Plain lists cannot be weakly referenced: the cap cannot evict
        # them, honestly.
        assert cache.strong_count == 4
        assert cache.demotions == 0

    def test_rebinding_oid_to_other_object_rejected_across_tiers(self):
        cache = ObjectCache(capacity=1)
        keep = self.fill(cache, 2)  # Oid(1) now demoted
        with pytest.raises(ValueError):
            cache.add(Oid(1), Person("impostor"))
        assert cache.peek(Oid(1)) is keep[0]

    def test_evict_removes_from_either_tier(self):
        cache = ObjectCache(capacity=1)
        people = self.fill(cache, 2)
        cache.evict(Oid(1))  # weak tier
        cache.evict(Oid(2))  # strong tier
        assert cache.peek(Oid(1)) is None
        assert cache.peek(Oid(2)) is None
        assert cache.oid_for(people[0]) is None
        assert cache.oid_for(people[1]) is None

    def test_items_and_oids_cover_both_tiers(self):
        cache = ObjectCache(capacity=2)
        people = self.fill(cache, 4)  # the list pins the demoted tail
        assert people
        assert cache.oids() == {Oid(1), Oid(2), Oid(3), Oid(4)}
        assert {oid for oid, _ in cache.items()} \
            == {Oid(1), Oid(2), Oid(3), Oid(4)}

    def test_unbounded_object_cache_never_demotes(self):
        cache = ObjectCache()
        self.fill(cache, 50)
        assert cache.capacity is None
        assert cache.strong_count == 50
        assert cache.demotions == 0


class TestObjectForHit:
    """``object_for`` backs the store's read path: a bare ``dict.get``
    on unbounded maps, a recency update (and promotion out of the weak
    tail) on bounded ones."""

    def test_unbounded_cache_hit_probes_strong_tier_only(self):
        cache = ObjectCache()  # capacity=None: nothing is ever demoted
        person = Person("y")
        cache.add(Oid(1), person)
        assert cache.object_for(Oid(1)) is person
        assert cache.object_for(Oid(2)) is None

    def test_bounded_cache_hit_promotes_from_the_weak_tier(self):
        cache = ObjectCache(capacity=3)
        people = [Person(f"p{i}") for i in range(6)]
        for index, person in enumerate(people):
            cache.add(Oid(index + 1), person)
        demotions = cache.demotions
        # Oid(1) was demoted to the weak tier (pinned by the list); a
        # bounded hit must still find it and promote it, which demotes
        # the least recent strong entry to keep the bound.
        assert cache.object_for(Oid(1)) is people[0]
        assert cache.peek(Oid(1)) is people[0]
        assert cache.strong_count == 3
        assert cache.demotions == demotions + 1
