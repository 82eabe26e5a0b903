"""Section 4.3 / Figure 9 — DynamicCompiler's two mechanisms (direct
invocation of the compiler, and a forked compiler process) and the
compilation of hyper-programs through them."""

import pytest

from repro.core.compiler import DynamicCompiler
from repro.core.hyperlink import HyperLinkHP
from repro.core.hyperprogram import HyperProgram

from tests.conftest import Person


def source_with_methods(methods):
    lines = ["class Generated:"]
    for index in range(methods):
        lines += ["    @staticmethod",
                  f"    def method_{index}():",
                  f"        return {index}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("methods", [1, 100])
def test_direct_and_forked_mechanisms_produce_the_same_class(link_store,
                                                             methods):
    """Section 4.3: the same source compiles by direct invocation ("fewer
    run-time overheads") and through a forked process ("a new
    instantiation of the JVM"); only the forked mechanism creates a
    process, and the two classes behave alike."""
    source = source_with_methods(methods)
    forks = DynamicCompiler.fork_count
    direct = DynamicCompiler.compile_class("Generated", source, None,
                                           "direct")
    assert DynamicCompiler.fork_count == forks
    forked = DynamicCompiler.compile_class("Generated", source, None,
                                           "forked")
    assert DynamicCompiler.fork_count == forks + 1
    last = f"method_{methods - 1}"
    assert direct.method_0() == forked.method_0() == 0
    assert getattr(direct, last)() == getattr(forked, last)() == methods - 1


@pytest.mark.parametrize("links", [1, 10, 100])
def test_compiled_hyper_program_resolves_every_link(store, link_store,
                                                    links):
    """Figure 9: compiling a hyper-program registers it, and running the
    compiled class resolves each link through
    ``DynamicCompiler.get_link`` to the very object linked at
    composition."""
    people = [Person(f"p{index}") for index in range(10)]
    lines = ["class Linked:", "    @staticmethod", "    def main(args):",
             "        return ["]
    offset = sum(len(line) + 1 for line in lines)
    positions = []
    for __ in range(links):
        line = "            ,"
        positions.append(offset + len(line) - 1)
        lines.append(line)
        offset += len(line) + 1
    lines.append("        ]")
    program = HyperProgram("\n".join(lines) + "\n", class_name="Linked")
    for index, pos in enumerate(positions):
        program.add_link(HyperLinkHP.to_object(people[index % 10],
                                               f"o{index}", pos))

    cls = DynamicCompiler.compile_hyper_program(program)
    result = DynamicCompiler.run_main(cls)
    assert len(result) == links
    assert all(got is people[index % 10]
               for index, got in enumerate(result))
    registered = link_store.index_of(program, link_store.password)
    link = DynamicCompiler.get_link(link_store.password, registered,
                                    links - 1)
    assert link.get_object() is people[(links - 1) % 10]
