"""``DynamicCompiler`` (paper Figure 9).

"After generating the textual form, the system calls a standard Java
compiler dynamically, to compile the textual form into a class that is
equivalent to the original hyper-program."  The class provides the same
method family as Figure 9:

* ``compile_classes(class_names, class_defns)`` — compile source strings;
* ``compile_class(class_name, class_defn)`` — single-class convenience;
* ``compile_hyper_programs(hps)`` / ``compile_hyper_program(hp)`` —
  register each program in the link store (``add_hp``), generate its
  textual form, compile, and load;
* ``generate_textual_form(hp)`` — the storage-to-textual translation;
* ``get_link(password, hp_index, hl_index)`` — the run-time access path
  executed by compiled textual forms.

Two compilation mechanisms are implemented, exactly the trade-off of
Section 4.3:

* **direct invocation** — CPython's in-process ``compile()``/``exec``
  ("fewer run-time overheads");
* **forked process** — a separate interpreter process compiles the source
  to a marshalled code object on disk, which the parent then loads
  ("significant additional run-time resources ... creating a new
  instantiation of the JVM").

The direct mechanism is tried first and the forked one used as fallback,
matching Figure 9's control flow; ``mechanism="forked"`` forces the
fallback.
"""

from __future__ import annotations

import marshal
import os
import subprocess
import sys
import tempfile
from typing import Any, Optional, Sequence

from repro.core.hyperprogram import HyperProgram
from repro.core.linkstore import LinkStore
from repro.core.textual import generate_textual_form
from repro.errors import CompilationError, HyperProgramError, LoadingError
from repro.reflect.loader import ClassLoader, LoadedModule

_FORK_HELPER = (
    "import marshal, sys\n"
    "src_path, out_path, name = sys.argv[1], sys.argv[2], sys.argv[3]\n"
    "with open(src_path, 'r', encoding='utf-8') as fh:\n"
    "    source = fh.read()\n"
    "code = compile(source, f'<{name}>', 'exec')\n"
    "with open(out_path, 'wb') as fh:\n"
    "    marshal.dump(code, fh)\n"
)


class DynamicCompiler:
    """The hyper-program compiler; all methods are class-level, matching
    the static methods of the paper's Figure 9."""

    _link_store: Optional[LinkStore] = None
    _loader: ClassLoader = ClassLoader()
    #: Count of forked compilations (observable by tests).
    fork_count: int = 0
    #: Source map of the most recent textual-form generation, used to
    #: re-express diagnostics in hyper-program terms.
    last_source_map = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    @classmethod
    def install(cls, link_store: LinkStore) -> None:
        """Attach the compiler to a persistent link registry (Figure 7)."""
        cls._link_store = link_store
        cls._loader = ClassLoader({"DynamicCompiler": cls})

    @classmethod
    def installed_link_store(cls) -> LinkStore:
        if cls._link_store is None:
            raise HyperProgramError(
                "no LinkStore installed; call DynamicCompiler.install first"
            )
        return cls._link_store

    @classmethod
    def uninstall(cls) -> None:
        cls._link_store = None
        cls._loader = ClassLoader()

    # ------------------------------------------------------------------
    # run-time access path (executed by compiled textual forms)
    # ------------------------------------------------------------------

    @classmethod
    def get_link(cls, password: str, hp_index: int, hl_index: int):
        """``getLink`` — retrieve a hyper-link through the password-
        protected persistent structure."""
        return cls.installed_link_store().get_link(password, hp_index,
                                                   hl_index)

    getLink = get_link

    # ------------------------------------------------------------------
    # textual-form generation
    # ------------------------------------------------------------------

    @classmethod
    def add_hp(cls, program: HyperProgram, password: str) -> int:
        """``addHP`` — register a hyper-program for translation."""
        return cls.installed_link_store().add_hp(program, password)

    @classmethod
    def generate_textual_form(cls, program: HyperProgram) -> str:
        """``generateTextualForm`` — the compilable text of a registered
        hyper-program (registers it first if needed)."""
        source, __ = cls._textual_with_bindings(program)
        return source

    generateTextualForm = generate_textual_form

    @classmethod
    def _textual_with_bindings(cls, program: HyperProgram
                               ) -> tuple[str, dict[str, Any]]:
        from repro.core.textual import generate_textual_form_with_map

        link_store = cls.installed_link_store()
        password = link_store.password
        hp_index = link_store.add_hp(program, password)
        source, bindings, source_map = generate_textual_form_with_map(
            program, hp_index, password, link_store.store.registry)
        # Kept for hyper-terms error reporting (Section 5.4.2 future work).
        cls.last_source_map = source_map
        return source, bindings

    # ------------------------------------------------------------------
    # compilation of plain source (Figure 9, compileClasses(String[], String[]))
    # ------------------------------------------------------------------

    @classmethod
    def compile_classes(cls, class_names: Sequence[str],
                        class_defns: Sequence[str],
                        bindings: dict[str, Any] | None = None,
                        mechanism: str = "auto") -> list[type]:
        """Compile source strings and load the named classes.

        Definitions are loaded in order into a shared namespace, so later
        definitions can reference earlier ones (the classpath analogue).
        ``mechanism`` is ``"auto"`` (direct, fork on failure), ``"direct"``
        or ``"forked"``.
        """
        if len(class_names) != len(class_defns):
            raise CompilationError(
                f"{len(class_names)} names but {len(class_defns)} definitions"
            )
        shared: dict[str, Any] = dict(bindings or {})
        results: list[type] = []
        for name, defn in zip(class_names, class_defns):
            loaded = cls._compile_one(name, defn, shared, mechanism)
            klass = loaded.namespace.get(name)
            if not isinstance(klass, type):
                raise CompilationError(
                    f"compiled source does not define class {name!r}",
                    textual_form=defn,
                )
            results.append(klass)
            shared[name] = klass
        return results

    @classmethod
    def compile_class(cls, class_name: str, class_defn: str,
                      bindings: dict[str, Any] | None = None,
                      mechanism: str = "auto") -> type:
        """Compiles a single class using ``compile_classes`` above."""
        return cls.compile_classes([class_name], [class_defn],
                                   bindings, mechanism)[0]

    @classmethod
    def _compile_one(cls, name: str, source: str, bindings: dict[str, Any],
                     mechanism: str) -> LoadedModule:
        if mechanism not in ("auto", "direct", "forked"):
            raise CompilationError(f"unknown mechanism {mechanism!r}")
        if mechanism in ("auto", "direct"):
            try:  # Direct invocation of the standard compiler.
                return cls._loader.load_source(source, name=name,
                                               bindings=bindings)
            except LoadingError as exc:
                if mechanism == "direct":
                    raise CompilationError(
                        f"direct compilation of {name} failed: {exc}",
                        textual_form=source,
                        diagnostics=str(exc),
                    ) from exc
                # Fall through: "Direct invocation of compiler failed.
                # Fork an operating system process" (Figure 9).
        return cls._fork_compile(name, source, bindings)

    @classmethod
    def _fork_compile(cls, name: str, source: str,
                      bindings: dict[str, Any]) -> LoadedModule:
        """The forked-process mechanism: a child interpreter compiles the
        source to a marshalled code object (the ``.class`` file analogue),
        which the parent loads and links."""
        cls.fork_count += 1
        with tempfile.TemporaryDirectory(prefix="hyperc_") as workdir:
            src_path = os.path.join(workdir, "source.py")
            out_path = os.path.join(workdir, "compiled.marshal")
            with open(src_path, "w", encoding="utf-8") as fh:
                fh.write(source)
            proc = subprocess.run(
                [sys.executable, "-c", _FORK_HELPER, src_path, out_path, name],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                raise CompilationError(
                    f"forked compilation of {name} failed",
                    textual_form=source,
                    diagnostics=proc.stderr.strip(),
                )
            with open(out_path, "rb") as fh:
                code = marshal.load(fh)
        namespace: dict[str, Any] = {"__name__": name,
                                     "__builtins__": __builtins__}
        namespace.update(cls._loader._parent)
        namespace.update(bindings)
        try:
            exec(code, namespace)
        except Exception as exc:
            raise CompilationError(
                f"executing forked-compiled {name} failed: {exc}",
                textual_form=source,
                diagnostics=str(exc),
            ) from exc
        return LoadedModule(name, namespace, source)

    # ------------------------------------------------------------------
    # compilation of hyper-programs (Figure 9, compileClasses(HyperProgram[]))
    # ------------------------------------------------------------------

    @classmethod
    def compile_hyper_programs(cls, programs: Sequence[HyperProgram],
                               mechanism: str = "auto") -> list[type]:
        """Register, translate and compile a batch of hyper-programs."""
        class_names: list[str] = []
        class_defns: list[str] = []
        all_bindings: dict[str, Any] = {}
        for program in programs:
            source, bindings = cls._textual_with_bindings(program)
            class_names.append(program.get_class_name())
            class_defns.append(source)
            all_bindings.update(bindings)
        return cls.compile_classes(class_names, class_defns, all_bindings,
                                   mechanism)

    @classmethod
    def compile_hyper_program(cls, program: HyperProgram,
                              mechanism: str = "auto") -> type:
        """Compiles a single hyper-program using
        ``compile_hyper_programs`` above."""
        return cls.compile_hyper_programs([program], mechanism)[0]

    @classmethod
    def compile_java_hyper_program(cls, program: HyperProgram,
                                   mechanism: str = "auto") -> type:
        """Compile a hyper-program whose text is the *Java subset* — the
        paper's own source language (Figure 2) — by transpiling it through
        :mod:`repro.javagrammar.codegen` before invoking the standard
        compiler."""
        from repro.core.javaform import java_to_python_source

        link_store = cls.installed_link_store()
        password = link_store.password
        hp_index = link_store.add_hp(program, password)
        source, bindings = java_to_python_source(
            program, hp_index, password, link_store.store.registry)
        cls.last_source_map = None  # maps cover the Python form only
        return cls.compile_classes([program.get_class_name()], [source],
                                   bindings, mechanism)[0]

    compileClasses = compile_classes
    compileClass = compile_class

    # ------------------------------------------------------------------
    # execution ("Go" button, Section 5.4.2)
    # ------------------------------------------------------------------

    @classmethod
    def run_main(cls, principal_class: type,
                 args: Sequence[str] | None = None) -> Any:
        """Execute ``static void main(String[] args)`` of the principal
        class — the editor's Go button."""
        main = getattr(principal_class, "main", None)
        if main is None or not callable(main):
            raise HyperProgramError(
                f"class {principal_class.__name__} has no main method"
            )
        return main(list(args or []))
