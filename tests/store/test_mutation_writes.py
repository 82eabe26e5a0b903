"""Every in-place mutation reaches the disk, and no identical rebind does.

Incremental stabilise decides "dirty or clean" by comparing shallow
snapshots (:func:`repro.store.serializer.snapshots_equal`).  A comparison
that answers "equal" too eagerly loses an update silently: the stabilise
writes nothing and the change is gone after a reopen.  One that answers
"changed" too eagerly only costs a re-encode, which the byte-signature
filter then drops.  This module pins both directions over every storable
value kind, on one backend per engine family:

* each step mutates one root in place and stabilises once; the engine's
  ``record_writes`` delta must be 1 for a real change and 0 for an
  identical rebind (NaN and equal-but-distinct frozensets may write 1,
  as ``snapshots_equal`` documents);
* after all steps, the store is reopened and every root must come back
  exactly as the live graph last looked: type, float sign and NaN
  included.
"""

from __future__ import annotations

import pytest

from repro.store.engine import FileEngine, MemoryEngine, SqliteEngine
from repro.store.objectstore import ObjectStore
from repro.store.weakrefs import PersistentWeakRef

from tests.conftest import Person


class Holder:
    """An undeclared-fields instance: every public attribute is stored."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


NAN = float("nan")
EITHER = (0, 1)


def setf(name, value):
    return lambda holder: setattr(holder, name, value)


def item(key, value):
    return lambda container: container.__setitem__(key, value)


def fields_root():
    return Holder(i=1000, f=1.5, z=0.0, n=NAN, s="abc", b=b"xy",
                  m=1.0, c=1 + 2j, t=(1, "a", 0.0), fs=frozenset({1, 2}),
                  none=None, flag=False, x=1)


def weak_root():
    target, other = Person("target"), Person("other")
    return Holder(target=target, other=other,
                  weak=PersistentWeakRef(target))


ROOTS = {
    "fields": fields_root,
    "list": lambda: [1000, 0.0, "a", 1, None, (1, 2)],
    "dict": lambda: {"k": 1000, "z": 0.0, "x": 1, "s": "a", 1: "one"},
    "set": lambda: {1, 2, 3, "a"},
    "bytes": lambda: bytearray(b"abcdef"),
    "weak": weak_root,
}

#: (root, label, in-place mutation, allowed record-write counts).  Steps
#: run in order, so each sees the state the previous steps of its root
#: left behind.
STEPS = [
    # -- instance fields: rebinds, additions, deletions ----------------
    ("fields", "int rebound to an equal int", setf("i", int("1000")), 0),
    ("fields", "int changed", setf("i", 1001), 1),
    ("fields", "float rebound to an equal float", setf("f", float("1.5")), 0),
    ("fields", "float changed", setf("f", 2.5), 1),
    ("fields", "0.0 rebound to an equal 0.0", setf("z", float("0.0")), 0),
    ("fields", "0.0 -> -0.0", setf("z", -0.0), 1),
    ("fields", "-0.0 -> 0.0", setf("z", 0.0), 1),
    ("fields", "NaN rebound to another NaN", setf("n", float("nan")), EITHER),
    ("fields", "float -> NaN", setf("m", float("nan")), 1),
    ("fields", "str rebound to an equal str",
     setf("s", "".join(["ab", "c"])), 0),
    ("fields", "str changed", setf("s", "abd"), 1),
    ("fields", "bytes changed", setf("b", b"xz"), 1),
    ("fields", "complex rebound to an equal complex",
     setf("c", complex("1+2j")), 0),
    ("fields", "complex changed", setf("c", 1 - 2j), 1),
    ("fields", "tuple rebound to an equal tuple",
     setf("t", tuple([1, "a", 0.0])), 0),
    ("fields", "tuple element 0.0 -> -0.0", setf("t", (1, "a", -0.0)), 1),
    ("fields", "tuple element 1 -> 1.0", setf("t", (1.0, "a", -0.0)), 1),
    ("fields", "frozenset rebound to an equal frozenset",
     setf("fs", frozenset([2, 1])), EITHER),
    ("fields", "frozenset changed", setf("fs", frozenset({1, 2, 3})), 1),
    ("fields", "None -> 0", setf("none", 0), 1),
    ("fields", "False -> 0", setf("flag", 0), 1),
    ("fields", "1 -> True", setf("x", True), 1),
    ("fields", "True -> 1.0", setf("x", 1.0), 1),
    ("fields", "1.0 -> 1", setf("x", 1), 1),
    ("fields", "field added", setf("extra", "new"), 1),
    ("fields", "field deleted", lambda h: delattr(h, "extra"), 1),
    # -- list --------------------------------------------------------
    ("list", "element rebound to an equal int", item(0, int("1000")), 0),
    ("list", "element changed", item(0, 1001), 1),
    ("list", "element 0.0 -> -0.0", item(1, -0.0), 1),
    ("list", "element 1 -> True", item(3, True), 1),
    ("list", "element True -> 1.0", item(3, 1.0), 1),
    ("list", "append", lambda v: v.append("tail"), 1),
    ("list", "insert", lambda v: v.insert(0, "head"), 1),
    ("list", "pop", lambda v: v.pop(), 1),
    ("list", "delete a slice", lambda v: v.__delitem__(slice(0, 1)), 1),
    ("list", "extend", lambda v: v.extend([7, 8]), 1),
    ("list", "in-place concatenate", lambda v: v.__iadd__([9]), 1),
    ("list", "reverse", lambda v: v.reverse(), 1),
    ("list", "slice assignment", item(slice(0, 2), ["p", "q"]), 1),
    ("list", "clear", lambda v: v.clear(), 1),
    # -- dict --------------------------------------------------------
    ("dict", "value rebound to an equal int", item("k", int("1000")), 0),
    ("dict", "value changed", item("k", 1001), 1),
    ("dict", "value 0.0 -> -0.0", item("z", -0.0), 1),
    ("dict", "value 1 -> True", item("x", True), 1),
    ("dict", "value True -> 1.0", item("x", 1.0), 1),
    ("dict", "value str changed", item("s", "b"), 1),
    ("dict", "key 1 -> True", lambda d: d.__setitem__(True, d.pop(1)), 1),
    ("dict", "key added", item("new", 0), 1),
    ("dict", "setdefault of a new key",
     lambda d: d.setdefault("other", None), 1),
    ("dict", "setdefault of an existing key",
     lambda d: d.setdefault("new", 5), 0),
    ("dict", "key deleted", lambda d: d.__delitem__("new"), 1),
    ("dict", "update", lambda d: d.update({"u": 1, "k": 2}), 1),
    ("dict", "popitem", lambda d: d.popitem(), 1),
    ("dict", "reinsert moves a key to the end",
     lambda d: d.__setitem__("k", d.pop("k")), 1),
    ("dict", "clear", lambda d: d.clear(), 1),
    # -- set ---------------------------------------------------------
    ("set", "add an existing element", lambda s: s.add(1), 0),
    ("set", "add", lambda s: s.add(4), 1),
    ("set", "discard", lambda s: s.discard(4), 1),
    ("set", "remove", lambda s: s.remove("a"), 1),
    ("set", "element 1 -> 1.0", lambda s: (s.discard(1), s.add(1.0)), 1),
    ("set", "update", lambda s: s.update({5, 6}), 1),
    ("set", "difference update", lambda s: s.difference_update({5}), 1),
    ("set", "intersection update",
     lambda s: s.intersection_update({2, 3, 6}), 1),
    ("set", "pop", lambda s: s.pop(), 1),
    ("set", "clear", lambda s: s.clear(), 1),
    # -- bytearray ---------------------------------------------------
    ("bytes", "byte rebound to itself", lambda b: b.__setitem__(0, b[0]), 0),
    ("bytes", "byte changed", lambda b: b.__setitem__(0, ord("z")), 1),
    ("bytes", "append", lambda b: b.append(ord("g")), 1),
    ("bytes", "extend", lambda b: b.extend(b"hi"), 1),
    ("bytes", "delete", lambda b: b.__delitem__(0), 1),
    ("bytes", "clear", lambda b: b.clear(), 1),
    # -- weak references ---------------------------------------------
    ("weak", "re-pointed at the same target",
     lambda h: h.weak.set(h.target), 0),
    ("weak", "re-pointed at another target", lambda h: h.weak.set(h.other), 1),
    ("weak", "cleared", lambda h: h.weak.clear(), 1),
]


def canonical(value):
    """A comparable form that keeps what ``==`` forgets: the type of
    every scalar, the sign of zero, NaN, container order (sets aside)."""
    kind = type(value)
    if kind is float:
        return ("float", value.hex())
    if kind is complex:
        return ("complex", value.real.hex(), value.imag.hex())
    if kind in (list, tuple):
        return (kind.__name__, [canonical(item) for item in value])
    if kind in (set, frozenset):
        return (kind.__name__, sorted(map(repr, map(canonical, value))))
    if kind is dict:
        return ("dict", [(canonical(k), canonical(v))
                         for k, v in value.items()])
    if kind is bytearray:
        return ("bytearray", bytes(value))
    if kind is PersistentWeakRef:
        return ("weak", canonical(value.get()))
    if kind in (Holder, Person):
        return (kind.__name__, {name: canonical(field)
                                for name, field in vars(value).items()})
    return (kind.__name__, value)


def open_engine(kind, tmp_path):
    if kind == "memory":
        return MemoryEngine()
    if kind == "file":
        return FileEngine(str(tmp_path / "store"))
    return SqliteEngine(str(tmp_path / "store.sqlite"))


@pytest.mark.parametrize("kind", ["memory", "file", "sqlite"])
def test_every_mutation_is_written_once_and_survives_reopen(
        kind, tmp_path, registry):
    registry.register(Holder)
    store = ObjectStore(registry=registry,
                        engine=open_engine(kind, tmp_path))
    roots = {name: build() for name, build in ROOTS.items()}
    for name, root in roots.items():
        store.set_root(name, root)
    store.stabilize()

    wrong = []
    for name, label, mutate, allowed in STEPS:
        mutate(roots[name])
        before = store.engine.record_writes
        store.stabilize()
        written = store.engine.record_writes - before
        allowed = allowed if isinstance(allowed, tuple) else (allowed,)
        if written not in allowed:
            wrong.append(f"{name}: {label} wrote {written}, "
                         f"expected {' or '.join(map(str, allowed))}")
    assert wrong == []

    expected = {name: canonical(root) for name, root in roots.items()}
    if kind == "memory":
        # Nothing survives closing a memory engine: re-fault instead.
        store.evict_all()
    else:
        store.close()
        store = ObjectStore(registry=registry,
                            engine=open_engine(kind, tmp_path))
    try:
        for name in ROOTS:
            assert canonical(store.get_root(name)) == expected[name], name
    finally:
        store.close()
