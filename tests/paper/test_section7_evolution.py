"""Section 7 — schema evolution through linguistic reflection: the
archived source of a class is rewritten, recompiled and every stored
instance reconstructed, or nothing changes at all."""

import pytest

from repro.core.compiler import DynamicCompiler
from repro.core.hyperprogram import HyperProgram
from repro.errors import EvolutionError
from repro.evolve.evolution import EvolutionEngine, EvolutionStep

RECORD_SOURCE = (
    "class Record:\n"
    "    key: str\n"
    "    value: int\n"
    "    def __init__(self, key, value):\n"
    "        self.key = key\n"
    "        self.value = value\n"
)


@pytest.fixture
def populated(store, link_store):
    """A store of ``count`` Record instances whose class was compiled
    from archived source (so it can evolve)."""
    def populate(count):
        program = HyperProgram(RECORD_SOURCE, [], "Record")
        record_cls = DynamicCompiler.compile_hyper_program(program)
        record_cls.__module__ = "data"
        record_cls.__qualname__ = "Record"
        store.registry.register(record_cls)
        engine = EvolutionEngine(store)
        engine.archive_source("data.Record", program)
        store.set_root("records", [record_cls(f"k{index}", index)
                                   for index in range(count)])
        store.stabilize()
        return engine
    return populate


@pytest.mark.parametrize("count", [10, 200])
def test_evolution_reconstructs_every_stored_instance(store, populated,
                                                      count):
    """Section 7: one evolution step (here: widen Record by a field)
    converts the whole stored population, whatever its size."""
    engine = populated(count)
    engine.run(EvolutionStep(
        class_name="data.Record",
        rewrite=lambda src: src
            .replace("value: int", "value: int\n    note: str")
            .replace("self.value = value",
                     "self.value = value\n        self.note = ''"),
        convert=lambda old: {**old, "note": ""},
    ))
    assert engine.last_reconstructed == count
    records = store.get_root("records")
    assert [record.value for record in records] == list(range(count))
    assert all(record.note == "" for record in records)


def test_failed_evolution_rolls_back(store, populated):
    """Section 7: a rewrite that does not compile leaves every stored
    instance exactly as it was."""
    engine = populated(50)
    broken = EvolutionStep(
        class_name="data.Record",
        rewrite=lambda src: "class Record(:\n",
        convert=lambda old: old,
    )
    with pytest.raises(EvolutionError):
        engine.run(broken)
    records = store.get_root("records")
    assert [record.value for record in records] == list(range(50))
    assert not hasattr(records[0], "note")
