"""Syntactic legality of hyper-link insertions.

Section 2: "The Napier88 hyper-programming system allows a hyper-link to be
inserted anywhere in a program whether it is a syntactically legal use or
not.  Illegal uses will result in compilation errors.  The same is true in
our present Java system but we intend to incorporate a parser into the
editing system to direct syntactically legal insertions of hyper-links."

This module implements that *intended* parser-directed checking (the
paper's planned extension) for the Python hyper-programs of this
reproduction: each link kind has a representative placeholder with the
shape of its Table 1 production, and an insertion is legal iff the program
with all links replaced by their placeholders still parses.  The
production-equivalence is "necessary but not sufficient" — the whole-
program parse supplies the context-sensitivity the paper describes.

The faithful *Java* production checking of Table 1 itself lives in
:mod:`repro.javagrammar`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.core.hyperlink import HyperLinkHP
from repro.core.hyperprogram import HyperProgram
from repro.core.linkkinds import LinkKind

#: A representative textual stand-in per kind, shaped like the kind's
#: Table 1 production (Name-like for methods/constructors, Literal for
#: primitive values, Primary for objects/arrays, access forms for
#: fields/elements, type names for type links).
PLACEHOLDERS: dict[LinkKind, str] = {
    LinkKind.CLASS: "__HPClass__",
    LinkKind.PRIMITIVE_TYPE: "int",
    LinkKind.INTERFACE: "__HPInterface__",
    LinkKind.ARRAY_TYPE: "list",
    # Object/array placeholders are call-shaped, matching the retrieval
    # expression the textual form really generates — and, like it, not
    # assignable (a value link is not a location).
    LinkKind.OBJECT: "(__hp_get_object__())",
    LinkKind.PRIMITIVE_VALUE: "0",
    LinkKind.FIELD: "__hp_holder__.__hp_field__",
    LinkKind.STATIC_METHOD: "__HPClass__.__hp_method__",
    LinkKind.CONSTRUCTOR: "__HPClass__",
    LinkKind.ARRAY: "(__hp_get_array__())",
    LinkKind.ARRAY_ELEMENT: "__hp_array__[0]",
}


def placeholder_for(kind: LinkKind) -> str:
    return PLACEHOLDERS[kind]


def textual_skeleton(text: str,
                     links: Iterable[HyperLinkHP]) -> str:
    """The program text with every link replaced by its placeholder —
    the parse-shaped silhouette of the hyper-program."""
    parts: list[str] = []
    cursor = 0
    for link in sorted(links, key=lambda item: item.string_pos):
        parts.append(text[cursor:link.string_pos])
        parts.append(placeholder_for(link.kind))
        cursor = link.string_pos
    parts.append(text[cursor:])
    return "".join(parts)


def skeleton_parses(text: str, links: Iterable[HyperLinkHP]) -> bool:
    try:
        ast.parse(textual_skeleton(text, links))
    except SyntaxError:
        return False
    return True


def is_legal_insertion(program: HyperProgram, pos: int,
                       kind: LinkKind) -> bool:
    """Would inserting a link of ``kind`` at ``pos`` keep the program
    syntactically legal?

    This is the editor-side check the paper plans in Section 2: the
    candidate link's placeholder is spliced in along with those of the
    existing links and the whole program is parsed.
    """
    if not 0 <= pos <= len(program.the_text):
        return False
    candidate = list(program.the_links)
    probe = HyperLinkHP.__new__(HyperLinkHP)
    probe.hyper_link_object = None
    probe.label = "?"
    probe.string_pos = pos
    probe.is_special = False
    probe.is_primitive = kind is LinkKind.PRIMITIVE_VALUE
    probe.kind_name = kind.value
    candidate.append(probe)
    return skeleton_parses(program.the_text, candidate)


# ---------------------------------------------------------------------------
# The legality matrix: link kinds x syntactic contexts
# ---------------------------------------------------------------------------

#: Canonical hole contexts; ``{}`` marks the hole.  Each corresponds to a
#: syntactic position a programmer might drop a link onto.
CONTEXTS: dict[str, str] = {
    "expression": "x = {}\n",
    "callee": "x = {}(1, 2)\n",
    "call argument": "f({})\n",
    "attribute base": "x = {}.field\n",
    "subscript base": "x = {}[0]\n",
    "subscript index": "x = a[{}]\n",
    "annotation": "def f(a: {}) -> None:\n    pass\n",
    "base class": "class C({}):\n    pass\n",
    "statement": "{}\n",
    "assign target": "{} = 1\n",
    "for iterable": "for i in {}:\n    pass\n",
}


def context_accepts(context_template: str, kind: LinkKind) -> bool:
    """Does the placeholder for ``kind`` parse in the given context?"""
    source = context_template.replace("{}", placeholder_for(kind))
    try:
        ast.parse(source)
    except SyntaxError:
        return False
    return True


def legality_matrix(kinds: Sequence[LinkKind] = tuple(LinkKind),
                    contexts: dict[str, str] | None = None
                    ) -> dict[tuple[str, str], bool]:
    """The full kinds-by-contexts legality matrix.

    Keys are ``(kind.value, context_name)``; it extends the paper's
    Table 1 from productions to syntactic contexts.
    """
    if contexts is None:
        contexts = CONTEXTS
    matrix: dict[tuple[str, str], bool] = {}
    for kind in kinds:
        for name, template in contexts.items():
            matrix[(kind.value, name)] = context_accepts(template, kind)
    return matrix


def format_legality_matrix(matrix: dict[tuple[str, str], bool] | None = None
                           ) -> str:
    """A printable table of the legality matrix."""
    if matrix is None:
        matrix = legality_matrix()
    kinds = sorted({key[0] for key in matrix},
                   key=lambda value: [k.value for k in LinkKind].index(value))
    contexts = sorted({key[1] for key in matrix},
                      key=lambda value: list(CONTEXTS).index(value)
                      if value in CONTEXTS else 99)
    width = max(len(kind) for kind in kinds) + 2
    header = " " * width + " ".join(f"{name[:10]:>10}" for name in contexts)
    rows = [header]
    for kind in kinds:
        cells = " ".join(
            f"{'yes' if matrix[(kind, name)] else '-':>10}"
            for name in contexts
        )
        rows.append(f"{kind:<{width}}{cells}")
    return "\n".join(rows)
