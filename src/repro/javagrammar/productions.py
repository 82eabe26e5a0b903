"""Production-level checking — the executable Table 1.

``parse_production(name, text)`` answers "can this text be derived from
production *name*?", for the nine productions Table 1 names.  A hyper-link
hole ``⟦kind⟧`` is accepted by a production exactly when Table 1 pairs the
kind with that production (or a production it derives from), which is the
paper's necessary condition; ``check_program`` then applies the full
context-sensitive check by parsing an entire hole-bearing program.
"""

from __future__ import annotations

from typing import Callable

from repro.core.linkkinds import LinkKind, PRODUCTION_FOR_KIND
from repro.errors import GrammarError, LexError, ParseError
from repro.javagrammar import ast_nodes as ast
from repro.javagrammar.lexer import HOLE_CLOSE, HOLE_OPEN
from repro.javagrammar.parser import Parser


def _parse_class_type(parser: Parser) -> ast.Node:
    node = parser.parse_type()
    if isinstance(node, ast.ClassTypeNode):
        return node
    if isinstance(node, ast.HoleType) and node.kind in (
            LinkKind.CLASS, LinkKind.INTERFACE):
        # InterfaceType and ClassType share the ClassOrInterfaceType shape;
        # the hole kind distinguishes them.
        return node
    raise ParseError("not a ClassType")


def _parse_interface_type(parser: Parser) -> ast.Node:
    node = parser.parse_type()
    if isinstance(node, ast.ClassTypeNode):
        return node
    if isinstance(node, ast.HoleType) and node.kind is LinkKind.INTERFACE:
        return node
    raise ParseError("not an InterfaceType")


def _parse_primitive_type(parser: Parser) -> ast.Node:
    node = parser.parse_type()
    if isinstance(node, ast.PrimitiveTypeNode):
        return node
    if isinstance(node, ast.HoleType) and \
            node.kind is LinkKind.PRIMITIVE_TYPE:
        return node
    raise ParseError("not a PrimitiveType")


def _parse_array_type(parser: Parser) -> ast.Node:
    node = parser.parse_type()
    if isinstance(node, ast.ArrayTypeNode):
        return node
    if isinstance(node, ast.HoleType) and node.kind is LinkKind.ARRAY_TYPE:
        return node
    raise ParseError("not an ArrayType")


def _parse_primary(parser: Parser) -> ast.Node:
    node = parser.parse_expression()
    acceptable = (ast.Literal, ast.ParenExpr, ast.ThisExpr, ast.NewExpr,
                  ast.NewArrayExpr, ast.FieldAccessExpr, ast.ArrayAccessExpr,
                  ast.MethodCallExpr, ast.HoleCallExpr)
    if isinstance(node, acceptable):
        return node
    if isinstance(node, ast.HoleExpr):
        # Object and array links are Primary (Table 1); value-ish holes
        # that are themselves access forms (field, array element, literal)
        # also derive from Primary in the Java grammar.
        if node.kind in (LinkKind.OBJECT, LinkKind.ARRAY, LinkKind.FIELD,
                         LinkKind.ARRAY_ELEMENT, LinkKind.PRIMITIVE_VALUE):
            return node
    raise ParseError("not a Primary")


def _parse_literal(parser: Parser) -> ast.Node:
    node = parser.parse_expression()
    if isinstance(node, ast.Literal):
        return node
    if isinstance(node, ast.HoleExpr) and \
            node.kind is LinkKind.PRIMITIVE_VALUE:
        return node
    raise ParseError("not a Literal")


def _parse_field_access(parser: Parser) -> ast.Node:
    node = parser.parse_expression()
    if isinstance(node, ast.FieldAccessExpr):
        return node
    if isinstance(node, ast.HoleExpr) and node.kind is LinkKind.FIELD:
        return node
    # Qualified names parse as NameExpr but denote field accesses once the
    # qualifier resolves to a value — accept a.b shapes.
    if isinstance(node, ast.NameExpr) and len(node.parts) >= 2:
        return node
    raise ParseError("not a FieldAccess")


def _parse_name(parser: Parser) -> ast.Node:
    node = parser.parse_expression()
    if isinstance(node, ast.NameExpr):
        return node
    # Method and constructor links occupy Name positions (Table 1); an
    # invocation or creation wrapping the hole witnesses the Name use.
    if isinstance(node, ast.HoleCallExpr):
        return node
    if isinstance(node, ast.NewExpr) and isinstance(node.created,
                                                    ast.HoleExpr):
        return node
    raise ParseError("not a Name")


def _parse_array_access(parser: Parser) -> ast.Node:
    node = parser.parse_expression()
    if isinstance(node, ast.ArrayAccessExpr):
        return node
    if isinstance(node, ast.HoleExpr) and \
            node.kind is LinkKind.ARRAY_ELEMENT:
        return node
    raise ParseError("not an ArrayAccess")


#: Production name -> checker.
PRODUCTIONS: dict[str, Callable[[Parser], ast.Node]] = {
    "ClassType": _parse_class_type,
    "PrimitiveType": _parse_primitive_type,
    "InterfaceType": _parse_interface_type,
    "ArrayType": _parse_array_type,
    "Primary": _parse_primary,
    "Literal": _parse_literal,
    "FieldAccess": _parse_field_access,
    "Name": _parse_name,
    "ArrayAccess": _parse_array_access,
}


def parse_production(production: str, text: str) -> ast.Node:
    """Parse ``text`` as one instance of ``production`` (whole input).

    Raises :class:`~repro.errors.ParseError` (or ``GrammarError``) when the
    text cannot be derived from the production.
    """
    checker = PRODUCTIONS.get(production)
    if checker is None:
        raise GrammarError(f"unknown production {production!r}; "
                           f"Table 1 names {sorted(PRODUCTIONS)}")
    parser = Parser(text)
    node = checker(parser)
    parser.expect_eof()
    return node


def derives(production: str, text: str) -> bool:
    """Boolean form of :func:`parse_production`."""
    try:
        parse_production(production, text)
    except (ParseError, LexError):
        return False
    return True


def hole(kind: LinkKind) -> str:
    """The hole text for a link of ``kind``."""
    return f"{HOLE_OPEN}{kind.value}{HOLE_CLOSE}"


def check_program(source: str) -> list[str]:
    """Parse a complete hole-bearing Java program; returns diagnostics
    (empty list = legal, holes included).

    This is the context-sensitive half of the paper's Section 2 rule: a
    hole that matches its production can still be illegal for its
    surroundings, and such programs produce diagnostics here.
    """
    try:
        Parser(source).parse_compilation_unit()
    except (ParseError, LexError) as exc:
        location = ""
        if getattr(exc, "line", 0):
            location = f" (line {exc.line}, column {exc.column})"
        return [f"{exc}{location}"]
    return []


def table1_rows() -> list[tuple[str, str, bool]]:
    """Regenerate Table 1: for every link kind, its production and whether
    a bare hole of that kind derives from that production.

    Method and constructor holes need their witnessing context (an
    invocation / a ``new``) because their ``Name`` use is context
    sensitive — exactly the paper's "necessary but not sufficient" remark.
    """
    witness: dict[LinkKind, str] = {
        LinkKind.STATIC_METHOD: f"{hole(LinkKind.STATIC_METHOD)}()",
        LinkKind.CONSTRUCTOR: f"new {hole(LinkKind.CONSTRUCTOR)}()",
    }
    rows: list[tuple[str, str, bool]] = []
    for kind in LinkKind:
        production = PRODUCTION_FOR_KIND[kind]
        text = witness.get(kind, hole(kind))
        rows.append((kind.value, production, derives(production, text)))
    return rows


def format_table1() -> str:
    """Printable Table 1 (checked by ``tests/paper/test_table1.py``)."""
    rows = table1_rows()
    width = max(len(row[0]) for row in rows) + 2
    lines = [f"{'Hyper-link To':<{width}}{'Production':<16}Derives",
             "-" * (width + 24)]
    for kind, production, ok in rows:
        lines.append(f"{kind:<{width}}{production:<16}"
                     f"{'yes' if ok else 'NO'}")
    return "\n".join(lines)
