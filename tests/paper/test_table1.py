"""Table 1 — "denotable hyper-links and their productions" — regenerated
from the Java-subset grammar, the kinds-by-contexts legality matrix
that extends it to the Python side, and the factories for the array,
array-type and static-field rows taken through Go and a reopen."""

from contextlib import contextmanager

from repro.core.compiler import DynamicCompiler
from repro.core.hyperlink import HyperLinkHP
from repro.core.hyperprogram import HyperProgram
from repro.core.legality import (
    CONTEXTS,
    format_legality_matrix,
    legality_matrix,
)
from repro.core.linkkinds import LinkKind, PRODUCTION_FOR_KIND
from repro.javagrammar.productions import (
    derives,
    format_table1,
    hole,
    table1_rows,
)
from repro.core.linkstore import LinkStore
from repro.reflect.introspect import for_class
from repro.store.objectstore import ObjectStore

from tests.conftest import Person


class Tally:
    """A class with a static field, for the Field row."""

    count: int = 3


def test_every_table1_row_derives():
    """Table 1: each of the eleven link kinds derives exactly the
    production the paper pairs it with, in the paper's row order."""
    rows = table1_rows()
    assert [(kind, production) for kind, production, __ in rows] == \
        [(kind.value, PRODUCTION_FOR_KIND[kind]) for kind in LinkKind]
    assert all(ok for __, __, ok in rows)
    table = format_table1()
    for kind, production, __ in rows:
        assert kind in table and production in table


def test_no_kind_derives_another_kinds_production():
    """Table 1, off the diagonal: a hole derives a production other than
    its own only where the Java grammar genuinely nests the two (Literal
    and the access forms under Primary; class and interface share
    ClassType).  Method and constructor holes need their witnessing
    context on the diagonal — their Name use is context sensitive
    (Section 2)."""
    nested = {
        (LinkKind.PRIMITIVE_VALUE, "Primary"),
        (LinkKind.FIELD, "Primary"),
        (LinkKind.ARRAY_ELEMENT, "Primary"),
        (LinkKind.OBJECT, "Primary"),
        (LinkKind.ARRAY, "Primary"),
        (LinkKind.CLASS, "ClassType"),
        (LinkKind.INTERFACE, "ClassType"),
    }
    witness = {
        LinkKind.STATIC_METHOD: f"{hole(LinkKind.STATIC_METHOD)}()",
        LinkKind.CONSTRUCTOR: f"new {hole(LinkKind.CONSTRUCTOR)}()",
    }
    mismatches = []
    for kind in LinkKind:
        for production in sorted(set(PRODUCTION_FOR_KIND.values())):
            own = production == PRODUCTION_FOR_KIND[kind]
            text = witness.get(kind, hole(kind)) if own else hole(kind)
            expected = own or (kind, production) in nested
            if derives(production, text) != expected:
                mismatches.append((kind.value, production))
    assert mismatches == []


def test_legality_matrix_is_full_and_informative():
    """Table 1 extended: every (kind, context) pair is decided, every
    kind is legal in at least one context, and the matrix refuses some
    insertions — it constrains rather than admitting everything."""
    matrix = legality_matrix()
    assert len(matrix) == len(LinkKind) * len(CONTEXTS)
    for kind in LinkKind:
        assert any(matrix[(kind.value, context)] for context in CONTEXTS), \
            kind
    assert not all(matrix.values())
    table = format_legality_matrix()
    assert "yes" in table and "-" in table


# ---------------------------------------------------------------------------
# The array, array-type and static-field factories, through Go and reopen
# ---------------------------------------------------------------------------


@contextmanager
def linked_session(directory, registry):
    """A file store with the link registry installed for compiled code."""
    store = ObjectStore.open(directory, registry=registry)
    link_store = LinkStore(store)
    DynamicCompiler.install(link_store)
    try:
        yield store, link_store
    finally:
        DynamicCompiler.uninstall()
        store.close()


def returning(class_name, factory, entity):
    """``main`` returns the linked entity: ``return <link>``."""
    text = (f"class {class_name}:\n    @staticmethod\n"
            f"    def main(args):\n        return \n")
    program = HyperProgram(text, class_name=class_name)
    pos = text.index("return ") + len("return ")
    program.add_link(factory(entity, class_name.lower(), pos))
    return program


def go(program):
    compiled = DynamicCompiler.compile_hyper_program(program)
    return DynamicCompiler.run_main(compiled)


def reopened_link(store, link_store):
    """The stored program and its link, fetched through the Figure 7
    registry the compiled code uses."""
    program = store.get_root("program")
    index = link_store.index_of(program, link_store.password)
    assert index is not None
    return program, link_store.get_link(link_store.password, index, 0)


def test_array_link_survives_go_and_reopen(tmp_path, registry):
    directory = str(tmp_path / "store")
    with linked_session(directory, registry) as (store, _):
        array = [Person("a"), Person("b")]
        store.set_root("array", array)
        program = returning("ArrayLink", HyperLinkHP.to_array, array)
        assert go(program) is array
        store.set_root("program", program)
        store.stabilize()
    with linked_session(directory, registry) as (store, link_store):
        program, link = reopened_link(store, link_store)
        array = store.get_root("array")
        assert link.get_object() is array
        assert go(program) is array


def test_array_type_link_survives_go_and_reopen(tmp_path, registry):
    directory = str(tmp_path / "store")
    with linked_session(directory, registry) as (store, _):
        program = returning("ArrayTypeLink", HyperLinkHP.to_array_type,
                            Person)
        assert go(program) is Person
        store.set_root("program", program)
        store.stabilize()
    with linked_session(directory, registry) as (store, link_store):
        program, link = reopened_link(store, link_store)
        assert link.get_object().resolve(store.registry).python_class \
            is Person
        assert go(program) is Person


def test_static_field_link_survives_go_and_reopen(tmp_path, registry):
    registry.register(Tally)
    field = for_class(Tally).get_field("count")
    directory = str(tmp_path / "store")
    with linked_session(directory, registry) as (store, _):
        program = returning("FieldLink", HyperLinkHP.to_static_field, field)
        assert go(program) == Tally.count
        store.set_root("program", program)
        store.stabilize()
    with linked_session(directory, registry) as (store, link_store):
        program, link = reopened_link(store, link_store)
        resolved = link.get_object().resolve(store.registry)
        assert resolved.get_name() == "count"
        assert resolved.get_declaring_class().python_class is Tally
        assert go(program) == Tally.count
