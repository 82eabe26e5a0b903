"""Figure 12 — the integrated user interface: MarryExample composed,
linked, compiled and run entirely through the figure's gestures."""

from repro.ui.app import HyperProgrammingUI
from repro.ui.events import ButtonPress, RightClick

from tests.conftest import Person


def test_scripted_session_composes_links_compiles_and_runs(store,
                                                           link_store,
                                                           people):
    """Figure 12 / Section 5: type into the editor window, right-click
    browser entities to insert the method link and the two object links,
    press Go — and the two people are married.  Each gesture is logged,
    the composed program carries three links, and both windows render."""
    vangelis, mary = people
    ui = HyperProgrammingUI(store)
    browser_window = ui.open_browser()
    editor_window = ui.open_editor("MarryExample")
    editor = editor_window.editor
    editor.type_text("class MarryExample:\n"
                     "    @staticmethod\n"
                     "    def main(args):\n"
                     "        ")
    class_panel = browser_window.browser.open_class(Person)
    ui.right_click(RightClick(browser_window.id, class_panel.id,
                              "Person.marry"))
    editor.type_text("(")
    for person, suffix in ((vangelis, ", "), (mary, ")\n")):
        panel = browser_window.browser.open_object(person)
        ui.right_click(RightClick(browser_window.id, panel.id,
                                  panel.entities()[0].label))
        editor.type_text(suffix)
    assert vangelis.spouse is None
    ui.press_button(ButtonPress(editor_window.id, "Go"))

    assert vangelis.spouse is mary and mary.spouse is vangelis
    assert len(ui.event_log) == 4      # three right-clicks and Go
    program = editor.to_storage_form()
    assert [link.is_special for link in program.the_links] == \
        [True, False, False]
    rendered = ui.render()
    assert "MarryExample" in rendered
    assert "Hyper-Program Editor" in rendered
    assert "Object/Class Browser" in rendered
    # The browser shows its two front panels: the linked people.
    assert "'vangelis'" in rendered and "'mary'" in rendered
