"""The textual form (paper Sections 4.1–4.2, Figure 8).

"Standard Java compilers operate on textual source programs rather than
hyper-programs.  To enable a hyper-program to be compiled with such a
compiler, it is first translated into a purely textual form in which each
hyper-link is replaced by an equivalent textual denotation."

The denotation of each link depends on its kind:

* **object / array / array element / field location** — a retrieval
  expression through the password-protected registry, the exact shape of
  the paper's Figure 8::

      (DynamicCompiler.get_link("passwd", <hp index>, <link index>).get_object())

  Location links call ``.dereference()`` instead, so the value is read
  from the location at *run* time — delayed binding preserved (Section 7).
* **static method / constructor / class / static field** — the fully
  qualified textual name (``Person.marry``), with the defining class made
  visible to the compiled code.  The paper does this with generated
  ``import`` statements (Figure 8 lines 1–2); the Python analogue injects
  the class as a loader binding, recorded in the returned binding map and
  echoed as a header comment for fidelity.
* **primitive value** — the literal itself.

This module also provides :class:`TextualBaseline`, the conventional
programming model hyper-programming replaces (objects located by textual
root-plus-path descriptions, resolved at run time), which
``tests/paper/test_section1_benefits.py`` sets against hyper-links.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.core.hyperlink import (
    ArrayElementLocation,
    ClassRef,
    ConstructorRef,
    FieldLocation,
    FieldRef,
    HyperLinkHP,
    MethodRef,
)
from repro.core.hyperprogram import HyperProgram
from repro.errors import CompilationError, UnknownRootError
from repro.store.registry import ClassRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.objectstore import ObjectStore

#: Primitive type names that resolve to Python builtins rather than
#: registered classes (the PrimitiveType row of Table 1).
_BUILTIN_TYPES = {"int": int, "float": float, "bool": bool, "str": str,
                  "bytes": bytes, "complex": complex, "None": type(None)}


def textual_for_link(link: HyperLinkHP, hp_index: int, link_index: int,
                     password: str, registry: ClassRegistry,
                     bindings: dict[str, Any]) -> str:
    """The textual denotation of one hyper-link.

    ``bindings`` is extended in place with the loader bindings the
    denotation needs (the analogue of generated imports).
    """
    obj = link.hyper_link_object
    if link.is_primitive:
        return repr(obj)
    if isinstance(obj, MethodRef):
        method = obj.resolve(registry)
        declaring = method.get_declaring_class()
        bindings[declaring.get_simple_name()] = declaring.python_class
        return method.qualified_name()
    if isinstance(obj, FieldRef):
        field = obj.resolve(registry)
        declaring = field.get_declaring_class()
        bindings[declaring.get_simple_name()] = declaring.python_class
        return f"{declaring.get_simple_name()}.{field.get_name()}"
    if isinstance(obj, (ConstructorRef, ClassRef)):
        simple = obj.simple_name()
        if simple in _BUILTIN_TYPES:
            return simple
        klass = obj.resolve(registry).python_class
        bindings[simple] = klass
        return simple
    accessor = ("dereference"
                if isinstance(obj, (FieldLocation, ArrayElementLocation))
                else "get_object")
    return (f"(DynamicCompiler.get_link({password!r}, {hp_index}, "
            f"{link_index}).{accessor}())")


def generate_textual_form_with_map(program: HyperProgram, hp_index: int,
                                   password: str, registry: ClassRegistry
                                   ) -> tuple[str, dict[str, Any], "SourceMap"]:
    """Translate a storage-form hyper-program into compilable source.

    Returns ``(source, bindings, source_map)``: the compilable text, the
    names the loader must inject (``DynamicCompiler`` plus the defining
    classes of special links), and a source map that translates textual
    diagnostics back to hyper-program positions (the paper's Section 5.4.2
    "future version" of error reporting).
    """
    from repro.core.compiler import DynamicCompiler
    from repro.core.errormap import SourceMap

    bindings: dict[str, Any] = {"DynamicCompiler": DynamicCompiler}
    parts: list[str] = []
    pieces: list[tuple[int, int, int]] = []  # (hyper_start|-1, link|-1, len)
    cursor = 0
    ordered = sorted(enumerate(program.the_links),
                     key=lambda item: item[1].string_pos)
    for link_index, link in ordered:
        if link.string_pos < cursor:
            raise CompilationError(
                f"overlapping link positions at {link.string_pos}",
                textual_form=program.the_text,
            )
        verbatim = program.the_text[cursor:link.string_pos]
        parts.append(verbatim)
        pieces.append((cursor, -1, len(verbatim)))
        denotation = textual_for_link(link, hp_index, link_index, password,
                                      registry, bindings)
        parts.append(denotation)
        pieces.append((-1, link_index, len(denotation)))
        cursor = link.string_pos
    tail = program.the_text[cursor:]
    parts.append(tail)
    pieces.append((cursor, -1, len(tail)))
    body = "".join(parts)
    # Header comment mirroring Figure 8's generated import statements.
    header = ("# generated textual form of hyper-program "
              f"{hp_index} ({program.class_name or 'anonymous'})\n"
              f"# bindings: {', '.join(sorted(bindings))}\n")
    source_map = SourceMap(program, len(header))
    offset = len(header)
    for hyper_start, link_index, length in pieces:
        if link_index >= 0:
            source_map.add_link(offset, length, link_index)
        else:
            source_map.add_verbatim(offset, hyper_start, length)
        offset += length
    return header + body, bindings, source_map


def generate_textual_form(program: HyperProgram, hp_index: int,
                          password: str,
                          registry: ClassRegistry) -> tuple[str, dict[str, Any]]:
    """As :func:`generate_textual_form_with_map`, without the map."""
    source, bindings, __ = generate_textual_form_with_map(
        program, hp_index, password, registry)
    return source, bindings


# ---------------------------------------------------------------------------
# The conventional baseline: textual descriptions of how to locate objects
# ---------------------------------------------------------------------------

class PersistentLookup:
    """Run-time lookup of persistent objects by textual description.

    This is what a program must do *without* hyper-programming: name a
    root, then navigate a path of field names and indices, every step
    validated only when the program runs.  The baseline the Section 1
    benefits (early checking, succinctness) are checked against.
    """

    _store: "ObjectStore | None" = None

    @classmethod
    def install(cls, store: "ObjectStore") -> None:
        cls._store = store

    @classmethod
    def installed_store(cls) -> "ObjectStore":
        if cls._store is None:
            raise UnknownRootError("no store installed for PersistentLookup")
        return cls._store

    @classmethod
    def lookup(cls, root_name: str, path: str = "") -> Any:
        """Resolve ``root_name`` then follow ``path``.

        ``path`` is a dotted sequence of field names, where a purely
        numeric step indexes into a list — e.g. ``"people.0.spouse"``.
        """
        value = cls.installed_store().get_root(root_name)
        if not path:
            return value
        for step in path.split("."):
            if step.lstrip("-").isdigit():
                try:
                    value = value[int(step)]
                except (IndexError, TypeError, KeyError) as exc:
                    raise LookupError(
                        f"path step {step!r} failed on "
                        f"{type(value).__name__}: {exc}"
                    ) from exc
            else:
                try:
                    value = getattr(value, step)
                except AttributeError:
                    if isinstance(value, dict) and step in value:
                        value = value[step]
                    else:
                        raise LookupError(
                            f"path step {step!r} failed on "
                            f"{type(value).__name__}"
                        ) from None
        return value


class TextualBaseline:
    """Generates the baseline (non-hyper) source for locating an object.

    ``expression("people", "0.spouse")`` returns the source text a
    conventional program embeds where a hyper-program embeds a link.
    """

    @staticmethod
    def expression(root_name: str, path: str = "") -> str:
        if path:
            return f"PersistentLookup.lookup({root_name!r}, {path!r})"
        return f"PersistentLookup.lookup({root_name!r})"

    @staticmethod
    def bindings() -> dict[str, Any]:
        return {"PersistentLookup": PersistentLookup}
