"""Table 1 — "denotable hyper-links and their productions" — regenerated
from the Java-subset grammar, and the kinds-by-contexts legality matrix
that extends it to the Python side."""

from repro.core.legality import (
    CONTEXTS,
    format_legality_matrix,
    legality_matrix,
)
from repro.core.linkkinds import LinkKind, PRODUCTION_FOR_KIND
from repro.javagrammar.productions import (
    derives,
    format_table1,
    hole,
    table1_rows,
)


def test_every_table1_row_derives():
    """Table 1: each of the eleven link kinds derives exactly the
    production the paper pairs it with, in the paper's row order."""
    rows = table1_rows()
    assert [(kind, production) for kind, production, __ in rows] == \
        [(kind.value, PRODUCTION_FOR_KIND[kind]) for kind in LinkKind]
    assert all(ok for __, __, ok in rows)
    table = format_table1()
    for kind, production, __ in rows:
        assert kind in table and production in table


def test_no_kind_derives_another_kinds_production():
    """Table 1, off the diagonal: a hole derives a production other than
    its own only where the Java grammar genuinely nests the two (Literal
    and the access forms under Primary; class and interface share
    ClassType).  Method and constructor holes need their witnessing
    context on the diagonal — their Name use is context sensitive
    (Section 2)."""
    nested = {
        (LinkKind.PRIMITIVE_VALUE, "Primary"),
        (LinkKind.FIELD, "Primary"),
        (LinkKind.ARRAY_ELEMENT, "Primary"),
        (LinkKind.OBJECT, "Primary"),
        (LinkKind.ARRAY, "Primary"),
        (LinkKind.CLASS, "ClassType"),
        (LinkKind.INTERFACE, "ClassType"),
    }
    witness = {
        LinkKind.STATIC_METHOD: f"{hole(LinkKind.STATIC_METHOD)}()",
        LinkKind.CONSTRUCTOR: f"new {hole(LinkKind.CONSTRUCTOR)}()",
    }
    mismatches = []
    for kind in LinkKind:
        for production in sorted(set(PRODUCTION_FOR_KIND.values())):
            own = production == PRODUCTION_FOR_KIND[kind]
            text = witness.get(kind, hole(kind)) if own else hole(kind)
            expected = own or (kind, production) in nested
            if derives(production, text) != expected:
                mismatches.append((kind.value, production))
    assert mismatches == []


def test_legality_matrix_is_full_and_informative():
    """Table 1 extended: every (kind, context) pair is decided, every
    kind is legal in at least one context, and the matrix refuses some
    insertions — it constrains rather than admitting everything."""
    matrix = legality_matrix()
    assert len(matrix) == len(LinkKind) * len(CONTEXTS)
    for kind in LinkKind:
        assert any(matrix[(kind.value, context)] for context in CONTEXTS), \
            kind
    assert not all(matrix.values())
    table = format_legality_matrix()
    assert "yes" in table and "-" in table
