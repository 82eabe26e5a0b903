"""Figures 5, 8 and 11 — the storage, textual and editing forms of one
hyper-program — and the translations between them."""

import pytest

from repro.core.compiler import DynamicCompiler
from repro.core.convert import editing_to_storage, storage_to_editing
from repro.core.hyperlink import HyperLinkHP
from repro.core.hyperprogram import HyperProgram
from repro.core.textual import generate_textual_form
from repro.reflect.introspect import for_class

from tests.conftest import Person

MARRY_TEXT = ("class MarryExample:\n"
              "    @staticmethod\n"
              "    def main(args):\n"
              "        (, )\n")


@pytest.fixture
def marry(people) -> HyperProgram:
    """MarryExample (Figure 2) in storage form: the text with three
    zero-width links spliced into ``(, )``."""
    vangelis, mary = people
    program = HyperProgram(MARRY_TEXT, class_name="MarryExample")
    pos = MARRY_TEXT.index("(, )")
    method = for_class(Person).get_method("marry")
    program.add_link(HyperLinkHP.to_static_method(method, "Person.marry",
                                                  pos))
    program.add_link(HyperLinkHP.to_object(vangelis, "vangelis", pos + 1))
    program.add_link(HyperLinkHP.to_object(mary, "mary", pos + 3))
    return program


def object_links_program(people, links: int) -> HyperProgram:
    """A synthetic hyper-program with one object link on each of
    ``links`` body lines."""
    lines = ["class Big:", "    @staticmethod", "    def main(args):"]
    offset = sum(len(line) + 1 for line in lines)
    positions = []
    for index in range(links):
        line = f"        x{index} = "
        positions.append(offset + len(line))
        lines.append(line)
        offset += len(line) + 1
    program = HyperProgram("\n".join(lines) + "\n", class_name="Big")
    for index, pos in enumerate(positions):
        program.add_link(HyperLinkHP.to_object(
            people[index % len(people)], f"obj{index}", pos))
    return program


def test_figure5_storage_form(marry):
    """Figure 5: the storage form is one text string plus a vector of
    HyperLinkHP carrying string positions and the isSpecial / isPrimitive
    flags; the links occupy no characters of the text."""
    assert marry.the_text == MARRY_TEXT
    call = MARRY_TEXT.index("(, )")
    assert [(link.label, link.string_pos) for link in marry.the_links] == [
        ("Person.marry", call), ("vangelis", call + 1), ("mary", call + 3)]
    assert [link.is_special for link in marry.the_links] == \
        [True, False, False]
    assert not any(link.is_primitive for link in marry.the_links)


def test_figure8_textual_form(link_store, marry):
    """Figure 8: in the textual form each object link has become a
    ``get_link('passwd', i, j).get_object()`` call — program index ``i``
    in the registry, link index ``j`` in the program — and the method
    link its qualified name."""
    source = DynamicCompiler.generate_textual_form(marry)
    index = link_store.index_of(marry, link_store.password)
    assert "Person.marry(" in source
    for link_index in (1, 2):
        assert (f"DynamicCompiler.get_link('passwd', {index}, "
                f"{link_index}).get_object()") in source
    assert source.count("get_link(") == 2


def test_figure11_editing_form(marry):
    """Figure 11: the editing form is a vector of lines, each owning its
    own text and the links anchored on it at line-relative positions."""
    form = storage_to_editing(marry)
    assert form.line_count() == 5
    assert [form.text_of_line(index) for index in range(5)] == \
        MARRY_TEXT.split("\n")
    column = MARRY_TEXT.split("\n")[3].index("(, )")
    assert [(link.label, link.pos) for link in form.links_on_line(3)] == [
        ("Person.marry", column), ("vangelis", column + 1),
        ("mary", column + 3)]
    assert form.link_count() == 3


def test_figure11_edits_stay_local_to_their_line(marry):
    """Figure 11's rationale — "optimised for editing operations": typing
    on one line moves no link on any other line, where the flat storage
    form must shift the absolute position of every later link."""
    form = storage_to_editing(marry)
    before = [link.pos for link in form.links_on_line(3)]
    typed = "# a comment typed above the call\n"
    form.insert_text(0, 0, typed)
    assert [link.pos for link in form.links_on_line(4)] == before
    shifted = editing_to_storage(form, "MarryExample")
    assert [link.string_pos for link in shifted.the_links] == \
        [link.string_pos + len(typed) for link in marry.the_links]


@pytest.mark.parametrize("links", [3, 30, 300])
def test_form_translations_preserve_text_and_link_positions(
        store, link_store, links):
    """Figures 5 <-> 11 and 5 -> 8: storage -> editing -> storage is
    lossless (text and every link position), and the textual form carries
    one get_link call per object link, whatever the program size."""
    people = [Person(f"p{index}") for index in range(10)]
    program = object_links_program(people, links)

    form = storage_to_editing(program)
    assert form.link_count() == links
    back = editing_to_storage(form, "Big")
    assert back.the_text == program.the_text
    assert [link.string_pos for link in back.the_links] == \
        [link.string_pos for link in program.the_links]
    assert [link.label for link in back.the_links] == \
        [link.label for link in program.the_links]

    index = link_store.add_hp(program, link_store.password)
    source, __ = generate_textual_form(program, index, link_store.password,
                                       store.registry)
    assert source.count("get_link(") == links
