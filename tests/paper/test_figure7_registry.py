"""Figure 7 — the password-protected registry of compiled hyper-programs
— in both reference modes of Section 4.1."""

import pytest

from repro.core.hyperlink import HyperLinkHP
from repro.core.hyperprogram import HyperProgram
from repro.core.linkstore import DEFAULT_PASSWORD, LinkStore

from tests.conftest import Person


def register_programs(store, link_store, count):
    """``count`` one-link programs sharing a target, each registered and
    each also held by a user reference (a persistent root)."""
    person = Person("shared target")
    store.set_root("target", [person])
    programs = []
    for index in range(count):
        text = f"x{index} = \n"
        program = HyperProgram(text, class_name="")
        program.add_link(HyperLinkHP.to_object(
            person, f"link{index}", text.index("= ") + 2))
        link_store.add_hp(program, DEFAULT_PASSWORD)
        programs.append(program)
    store.set_root("user-refs", list(programs))
    store.stabilize()
    return programs


@pytest.mark.parametrize("registered, kept", [(10, 5), (50, 20), (100, 50)])
def test_weakly_registered_programs_are_collected(store, registered, kept):
    """Figure 7 / Section 4.1, the paper's "next version": with weak
    references "hyper-programs may be garbage collected once no user
    references to them remain" — exactly the dropped ones, while the
    kept ones still resolve through getLink."""
    link_store = LinkStore(store, weak=True)
    programs = register_programs(store, link_store, registered)
    store.set_root("user-refs", programs[:kept])
    del programs
    freed = store.collect_garbage()
    assert freed >= registered - kept
    assert link_store.collected_count(DEFAULT_PASSWORD) == registered - kept
    assert link_store.count(DEFAULT_PASSWORD) == registered
    last_kept = link_store.get_link(DEFAULT_PASSWORD, kept - 1, 0)
    assert last_kept.label == f"link{kept - 1}"


@pytest.mark.parametrize("registered", [10, 50, 100])
def test_strongly_registered_programs_are_never_collected(store,
                                                          registered):
    """Figure 7 / Section 4.1, the paper's current implementation: "no
    hyper-program that is translated and compiled can be subsequently
    garbage collected" — dropping every user reference reclaims none."""
    link_store = LinkStore(store, weak=False)
    register_programs(store, link_store, registered)
    store.set_root("user-refs", [])
    store.collect_garbage()
    assert link_store.collected_count(DEFAULT_PASSWORD) == 0
    assert link_store.count(DEFAULT_PASSWORD) == registered
    last = link_store.get_link(DEFAULT_PASSWORD, registered - 1, 0)
    assert last.label == f"link{registered - 1}"
