"""Section 1 — the benefits of hyper-programming — set against the
conventional alternative: persistent objects named by textual
root-plus-path descriptions that are resolved when the program runs."""

import pytest

from repro.core.compiler import DynamicCompiler
from repro.core.hyperlink import HyperLinkHP
from repro.core.hyperprogram import HyperProgram
from repro.core.textual import PersistentLookup, TextualBaseline
from repro.errors import LinkKindError, NoSuchMemberError
from repro.reflect.introspect import for_class

from tests.conftest import Person


def spouse_chain(store, depth):
    """Root ``people`` -> p0 -> spouse -> ... -> p<depth>."""
    people = [Person(f"p{index}") for index in range(depth + 1)]
    for index in range(depth):
        people[index].spouse = people[index + 1]
    store.set_root("people", [people[0]])
    return people


@pytest.fixture
def baseline(store):
    """The textual baseline resolving against this test's store."""
    PersistentLookup.install(store)


def test_bad_reference_fails_at_composition_not_at_run_time(store,
                                                            baseline):
    """Section 1, "early program checking": a link to something that does
    not exist cannot even be composed, whereas the textual description of
    the same thing compiles silently and fails only when executed."""
    spouse_chain(store, 2)

    # A method that does not exist.
    with pytest.raises(NoSuchMemberError):
        for_class(Person).get_method("divorce")
    expression = TextualBaseline.expression("people", "0.divorce")
    code = compile(expression, "<baseline>", "eval")    # no complaint yet
    with pytest.raises(LookupError):
        eval(code, TextualBaseline.bindings())

    # An array element that does not exist.
    with pytest.raises(LinkKindError):
        HyperLinkHP.to_array_element([1, 2], 99, "x", 0)
    expression = TextualBaseline.expression("people", "99")
    code = compile(expression, "<baseline>", "eval")
    with pytest.raises(LookupError):
        eval(code, TextualBaseline.bindings())


def test_a_link_costs_no_source_text_at_any_depth(store, link_store,
                                                  baseline):
    """Section 1, "increased succinctness": a hyper-link occupies zero
    characters of program text wherever its target sits in the graph
    (its button label is display only, Section 5.4.1), while the textual
    description grows with every step of the path."""
    people = spouse_chain(store, 5)
    lengths = []
    for depth in (0, 2, 5):
        path = ".".join(["0"] + ["spouse"] * depth)
        lengths.append(len(TextualBaseline.expression("people", path)))

        text = "x = \n"
        program = HyperProgram(text, class_name="")
        program.add_link(HyperLinkHP.to_object(people[depth], "deep", 4))
        assert program.the_text == text
        assert "deep" not in program.the_text
    assert lengths == sorted(set(lengths))


@pytest.mark.parametrize("depth", [1, 5, 20])
def test_link_and_path_reach_the_same_object(store, link_store, baseline,
                                             depth):
    """Section 1, "ease of composition": the link, bound when the program
    was composed, reaches in one registry step the very object the
    baseline finds by walking ``depth`` path steps at run time."""
    people = spouse_chain(store, depth)
    path = ".".join(["0"] + ["spouse"] * depth)
    assert PersistentLookup.lookup("people", path) is people[depth]

    program = HyperProgram("x = \n", class_name="")
    program.add_link(HyperLinkHP.to_object(people[depth], "deep", 4))
    index = link_store.add_hp(program, link_store.password)
    link = DynamicCompiler.get_link(link_store.password, index, 0)
    assert link.get_object() is people[depth]


def test_value_link_binds_early_location_link_late(store):
    """Sections 1 and 7, "increased range of linking times": a link to a
    value is bound at composition and keeps denoting that object; a link
    to a location is re-read at every dereference."""
    person = Person("original")
    store.set_root("p", [person])
    value_link = HyperLinkHP.to_object(person, "v", 0)
    location_link = HyperLinkHP.to_field_location(person, "spouse",
                                                  "loc", 0)
    replacement = Person("replacement")
    person.spouse = replacement
    assert value_link.dereference() is person
    assert location_link.dereference() is replacement
    person.spouse = None
    assert location_link.dereference() is None
