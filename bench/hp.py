"""Driving the paper loop: compose or re-edit a hyper-program in the
editor, link objects from the browser, Go, store the program, stabilise.

Every gesture goes through the public surface a user's front end would
call (``HyperProgrammingUI``, ``HyperProgramEditor``, ``OCB``,
``DynamicCompiler``, ``LinkStore``).  On a traced run the bound methods
of the windows this module opens are wrapped in spans, and Go for the
Python form is replayed step by step through ``DynamicCompiler``'s
public methods so that each step has its own span.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro import (
    DynamicCompiler,
    HyperLinkHP,
    HyperProgram,
    LinkStore,
    MethodRef,
    ObjectStore,
    for_class,
)
from repro.ui import ButtonPress, HyperProgrammingUI, LinkPress, RightClick

from bench.corpus import (
    DEREF_PROGRAM,
    HELPER_LINES,
    Link,
    Person,
    ProgramSpec,
    helper_lines,
)
from bench.harness import Tracer, clock

Checker = Callable[[bool, str], None]
Pool = list[list[Person]]


def build_program(spec: ProgramSpec, pool: Pool) -> HyperProgram:
    """The storage form of ``spec`` built through the API (no editor)."""
    marry = for_class(Person).get_method("marry")
    text, holes = spec.text_and_links()
    links = []
    for position, link in holes:
        if link.what == "marry":
            links.append(HyperLinkHP.to_static_method(marry, "Person.marry",
                                                      position))
        else:
            person = link.person(pool)
            links.append(HyperLinkHP.to_object(person, person.name[:12],
                                               position))
    return HyperProgram(text, links, spec.class_name)


class Loop:
    """One programmer's session state over one open store."""

    def __init__(self, store: ObjectStore, tracer: Tracer, check: Checker,
                 probe: Optional[Callable[[], dict]] = None,
                 incr_phase: str = "incr"):
        self.store = store
        self.tracer = tracer
        self.check = check
        self.probe = probe
        #: Phase the per-session stabilise is filed under.
        self.incr_phase = incr_phase
        self.links = LinkStore(store)
        DynamicCompiler.install(self.links)
        self.password = self.links.password
        self.ui = HyperProgrammingUI(store)
        self.java_programs: list[HyperProgram] = []
        self.last_program: Optional[HyperProgram] = None
        self.lines_typed = 0
        self._stepwise: Optional[tuple[HyperProgram, type]] = None

    def close(self) -> None:
        DynamicCompiler.uninstall()

    # -- windows -----------------------------------------------------------

    def _open_windows(self, class_name: str):
        tracer = self.tracer
        with tracer.span("ui.gesture"):
            browser_window = self.ui.open_browser()
            editor_window = self.ui.open_editor(class_name)
        browser, editor = browser_window.browser, editor_window.editor
        tracer.wrap(browser, "open_class", "browser.open")
        tracer.wrap(browser, "open_object", "browser.open")
        tracer.wrap(browser, "select_entity", "browser.select")
        tracer.wrap(editor, "type_text", "editor.type")
        tracer.wrap(editor, "insert_link", "editor.insert_link")
        tracer.wrap(editor, "load", "editor.load")
        tracer.wrap(editor, "to_storage_form", "core.convert")
        if tracer.enabled:
            editor.go = lambda args=None: self._go_stepwise(editor)
        return browser_window, editor_window

    # -- gestures ----------------------------------------------------------

    def _type_lines(self, editor_window, browser_window,
                    lines: list, pool: Pool) -> None:
        """Type ``lines`` one by one; a link is inserted by browsing to
        its entity and right-clicking it."""
        editor = editor_window.editor
        for line in lines:
            pending = ""
            for part in line:
                if isinstance(part, Link):
                    if pending:
                        editor.type_text(pending)
                        pending = ""
                    self._link(browser_window, part, pool)
                else:
                    pending += part
            editor.type_text(pending + "\n")
        self.lines_typed += len(lines)

    def _link(self, browser_window, link: Link, pool: Pool) -> None:
        browser = browser_window.browser
        if link.what == "marry":
            panel = browser.open_class(Person)
            label = "Person.marry"
        else:
            panel = browser.open_object(link.person(pool))
            with self.tracer.span("browser.open"):
                label = panel.entities()[0].label
        with self.tracer.span("ui.gesture"):
            self.ui.right_click(RightClick(browser_window.id, panel.id,
                                           label))

    # -- Go ----------------------------------------------------------------

    def _go(self, editor_window, spec: ProgramSpec
            ) -> tuple[HyperProgram, type]:
        """Go pressed until ``main`` returned; gives back the program
        the compiler registered and its principal class."""
        editor = editor_window.editor
        with self.tracer.op("go_java" if spec.java else "go_py"):
            if spec.java:
                # The Java form has no button of its own: the editor's
                # document is handed to the Java entry point of the
                # compiler, as examples/java_marry.py does.
                program = editor.to_storage_form()
                with self.tracer.span("core.compile_java"):
                    compiled = DynamicCompiler.compile_java_hyper_program(
                        program)
                with self.tracer.span("core.run_main"):
                    DynamicCompiler.run_main(compiled)
                return program, compiled
            with self.tracer.span("ui.gesture"):
                self.ui.press_button(ButtonPress(editor_window.id, "Go"))
        if self._stepwise is not None:
            done, self._stepwise = self._stepwise, None
            return done
        program = self.links.get_hp(self.password,
                                    self.links.count(self.password) - 1)
        return program, editor.display_class()

    def _go_stepwise(self, editor) -> None:
        """What ``HyperProgramEditor.go`` does, one public call per span
        (traced runs only)."""
        tracer = self.tracer
        program = editor.to_storage_form()
        with tracer.span("core.linkstore_add"):
            DynamicCompiler.add_hp(program, self.password)
        with tracer.span("core.textual"):
            source = DynamicCompiler.generate_textual_form(program)
        with tracer.span("reflect.load"):
            compiled = DynamicCompiler.compile_class(
                program.get_class_name(), source, {"Person": Person})
        with tracer.span("core.run_main"):
            DynamicCompiler.run_main(compiled)
        self._stepwise = (program, compiled)

    # -- whole sessions ------------------------------------------------------

    def _session(self, spec: ProgramSpec, pool: Pool,
                 edit: Callable[[Any, Any], None],
                 keep: Callable[[HyperProgram], None]) -> type:
        """One session: open the windows, ``edit``, Go, ``keep`` the
        program under the ``programs`` root, stabilise; then the checks
        every session shares.  Returns the compiled class."""
        for couple in spec.couples:  # so that running is what marries them
            for person in pool[couple]:
                person.spouse = None
        tracer = self.tracer
        with tracer.op("session", self.probe):
            with tracer.op("compose"):
                browser_window, editor_window = self._open_windows(
                    spec.class_name)
                edit(browser_window, editor_window)
            program, compiled = self._go(editor_window, spec)
            keep(program)
            with tracer.op(self.incr_phase, self.probe):
                self.store.stabilize()
        self.ui.windows.close(browser_window)
        self.ui.windows.close(editor_window)
        for couple in spec.couples:
            a, b = pool[couple]
            self.check(a.spouse is b and b.spouse is a,
                       f"{spec.class_name}: couple {couple} not married")
        helper = getattr(compiled, f"helper_{spec.check_helper}")
        self.check(helper(7) == 7 + spec.check_helper + 3,
                   f"{spec.class_name}: helper_{spec.check_helper} wrong")
        self.last_program = program
        if spec.java:
            self.java_programs.append(program)
        return compiled

    def compose(self, spec: ProgramSpec, pool: Pool,
                programs: list) -> None:
        """Type a new program, link, Go, store it, stabilise."""
        self._session(
            spec, pool,
            lambda browser_window, editor_window: self._type_lines(
                editor_window, browser_window, spec.lines, pool),
            programs.append)

    def reedit(self, index: int, spec: ProgramSpec, pool: Pool,
               programs: list, rng: random.Random) -> None:
        """Load a stored program, press its first three links, type one
        more helper at a seeded position, Go, write it back, stabilise."""
        extra = rng.randrange(41)
        at_line = 1 + HELPER_LINES * rng.randrange(spec.helpers + 1)
        new_lines = [[text] for text in helper_lines(
            spec.java, f"extra_{extra}", extra, "vnew", "wnew")]
        pressed = []

        def edit(browser_window: Any, editor_window: Any) -> None:
            editor = editor_window.editor
            editor.load(programs[index])
            for link_index in range(3):
                with self.tracer.span("ui.gesture"):
                    pressed.append(self.ui.press_link(LinkPress(
                        editor_window.id, spec.first_marry_line,
                        link_index)))
            editor.basic.move_cursor(at_line, 0)
            self._type_lines(editor_window, browser_window, new_lines, pool)

        def write_back(program: HyperProgram) -> None:
            programs[index] = program

        compiled = self._session(spec, pool, edit, write_back)
        a, b = pool[spec.couples[0]]
        marry = MethodRef.of(for_class(Person).get_method("marry"))
        self.check(pressed[0] == marry and pressed[1] is a
                   and pressed[2] is b,
                   f"{spec.class_name}: pressed links do not resolve to "
                   f"the pool")
        self.check(getattr(compiled, f"extra_{extra}")(5) == 5 + extra + 3,
                   f"{spec.class_name}: extra_{extra} wrong")

    # -- dereference rate ----------------------------------------------------

    def deref_rate(self, pool: Pool, slice_s: float) -> float:
        """Object-link dereferences per second over one slice of
        ``slice_s`` seconds: ``main`` of the dereference program, built
        through the API and compiled outside the slice, looped."""
        compiled = DynamicCompiler.compile_hyper_program(
            build_program(DEREF_PROGRAM, pool))
        run_main = DynamicCompiler.run_main
        runs = 0
        start = clock()
        deadline = start + int(slice_s * 1e9)
        while clock() < deadline:
            for _ in range(20):
                run_main(compiled)
            runs += 20
        elapsed_s = (clock() - start) / 1e9
        for couple in DEREF_PROGRAM.couples:
            a, b = pool[couple]
            self.check(a.spouse is b and b.spouse is a,
                       f"dereference loop: couple {couple} not married")
        return 2 * len(DEREF_PROGRAM.couples) * runs / elapsed_s
