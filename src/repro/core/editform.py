"""The editing form (paper Figure 11).

"The hyper-program editing form is the data structure used in the basic
editor.  It is similar to the storage form but is optimised for editing
operations. ... The textual part of each line is kept in a separate string.
The position of each hyper-link is defined by a pair of values (line
number, offset)."  (Section 5.2)

The form is a vector of :class:`HyperLine` instances; each line owns its
text and the links anchored on it.  All editing operations (insertion and
deletion of text and links, line split/join) are local to the lines they
touch — which is exactly why this form beats the flat storage form for
editing (the paper's Figure 11 design rationale).

A link is a zero-width anchor between two characters of its line; edits
shift anchors on the same line, and deletions remove the links whose
anchor falls strictly inside the deleted range.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.core.linkkinds import LinkKind
from repro.errors import EditPositionError


class HyperLink:
    """An editing-form link: label, offset-in-line, flags, linked object.

    Mirrors the storage form's :class:`~repro.core.hyperlink.HyperLinkHP`
    but positioned with a line-local offset (Figure 11).
    """

    __slots__ = ("hyper_link_object", "label", "pos", "is_special",
                 "is_primitive", "kind_name")

    def __init__(self, hyper_link_object: Any, label: str, pos: int,
                 is_special: bool, is_primitive: bool,
                 kind: LinkKind | str = LinkKind.OBJECT):
        if pos < 0:
            raise EditPositionError(f"negative link offset {pos}")
        self.hyper_link_object = hyper_link_object
        self.label = label
        self.pos = pos
        self.is_special = is_special
        self.is_primitive = is_primitive
        self.kind_name = kind.value if isinstance(kind, LinkKind) else kind

    @property
    def kind(self) -> LinkKind:
        return LinkKind(self.kind_name)

    def clone(self) -> "HyperLink":
        return HyperLink(self.hyper_link_object, self.label, self.pos,
                         self.is_special, self.is_primitive, self.kind_name)

    def __repr__(self) -> str:
        return f"HyperLink({self.label!r}@{self.pos}, {self.kind_name})"


class HyperLine:
    """One line of the editing form: text plus the links anchored on it."""

    __slots__ = ("text", "links")

    def __init__(self, text: str = "",
                 links: Optional[Iterable[HyperLink]] = None):
        self.text = text
        self.links: list[HyperLink] = sorted(
            (links or []), key=lambda link: link.pos
        )
        for link in self.links:
            if link.pos > len(text):
                raise EditPositionError(
                    f"link {link.label!r} at offset {link.pos} beyond line "
                    f"of length {len(text)}"
                )

    def __repr__(self) -> str:
        return f"HyperLine({self.text!r}, links={len(self.links)})"


class EditForm:
    """The editing form: a vector of :class:`HyperLine`."""

    def __init__(self, lines: Optional[Iterable[HyperLine]] = None):
        self.lines: list[HyperLine] = list(lines or [HyperLine()])
        if not self.lines:
            self.lines = [HyperLine()]

    # -- queries -----------------------------------------------------------

    def line_count(self) -> int:
        return len(self.lines)

    def line(self, index: int) -> HyperLine:
        self._check_line(index)
        return self.lines[index]

    def text_of_line(self, index: int) -> str:
        return self.line(index).text

    def all_links(self) -> Iterator[tuple[int, HyperLink]]:
        """Yield (line_number, link) for every link, in document order."""
        for line_no, line in enumerate(self.lines):
            for link in sorted(line.links, key=lambda item: item.pos):
                yield line_no, link

    def link_count(self) -> int:
        return sum(len(line.links) for line in self.lines)

    def char_count(self) -> int:
        return sum(len(line.text) for line in self.lines) + \
            max(0, len(self.lines) - 1)

    def _check_line(self, index: int) -> None:
        if not 0 <= index < len(self.lines):
            raise EditPositionError(
                f"line {index} out of range (document has "
                f"{len(self.lines)} lines)"
            )

    def _check_pos(self, line: int, col: int) -> None:
        self._check_line(line)
        if not 0 <= col <= len(self.lines[line].text):
            raise EditPositionError(
                f"column {col} out of range on line {line} of length "
                f"{len(self.lines[line].text)}"
            )

    # -- text editing -----------------------------------------------------

    def insert_text(self, line: int, col: int, text: str) -> tuple[int, int]:
        """Insert ``text`` (may contain newlines) at (line, col); returns
        the position just after the inserted text."""
        self._check_pos(line, col)
        pieces = text.split("\n")
        target = self.lines[line]
        # Links have *left gravity*: an anchor exactly at the insertion
        # point stays put (text typed at the cursor goes after a link just
        # inserted there), anchors strictly beyond it shift right.
        if len(pieces) == 1:
            target.text = target.text[:col] + text + target.text[col:]
            for link in target.links:
                if link.pos > col:
                    link.pos += len(text)
            return line, col + len(text)
        # Multi-line insert: split the target line at col, distribute.
        head, tail = target.text[:col], target.text[col:]
        moved = [link for link in target.links if link.pos > col]
        target.links = [link for link in target.links if link.pos <= col]
        target.text = head + pieces[0]
        new_lines = [HyperLine(piece) for piece in pieces[1:]]
        last = new_lines[-1]
        end_col = len(last.text)
        last.text += tail
        for link in moved:
            link.pos = link.pos - col + end_col
            last.links.append(link)
        last.links.sort(key=lambda item: item.pos)
        self.lines[line + 1:line + 1] = new_lines
        return line + len(new_lines), end_col

    def delete_range(self, start: tuple[int, int],
                     end: tuple[int, int]) -> str:
        """Delete text between ``start`` and ``end`` (inclusive-exclusive
        character positions); returns the deleted text.  Links anchored
        strictly inside the range are removed; links at the boundaries
        survive."""
        (l1, c1), (l2, c2) = start, end
        self._check_pos(l1, c1)
        self._check_pos(l2, c2)
        if (l2, c2) < (l1, c1):
            raise EditPositionError("range end precedes range start")
        if l1 == l2:
            line = self.lines[l1]
            deleted = line.text[c1:c2]
            line.text = line.text[:c1] + line.text[c2:]
            kept = []
            for link in line.links:
                if c1 < link.pos < c2:
                    continue  # deleted with the range
                if link.pos >= c2:
                    link.pos -= (c2 - c1)
                kept.append(link)
            line.links = kept
            return deleted
        first, last = self.lines[l1], self.lines[l2]
        deleted_parts = [first.text[c1:]]
        deleted_parts.extend(line.text for line in self.lines[l1 + 1:l2])
        deleted_parts.append(last.text[:c2])
        deleted = "\n".join(deleted_parts)
        surviving_links = [link for link in first.links if link.pos <= c1]
        for link in last.links:
            if link.pos >= c2:
                link.pos = link.pos - c2 + c1
                surviving_links.append(link)
        first.text = first.text[:c1] + last.text[c2:]
        first.links = sorted(surviving_links, key=lambda item: item.pos)
        del self.lines[l1 + 1:l2 + 1]
        return deleted

    def split_line(self, line: int, col: int) -> None:
        """Break a line in two at (line, col) — the Enter key."""
        self.insert_text(line, col, "\n")

    def join_lines(self, line: int) -> None:
        """Join ``line`` with the following line — Delete at end of line."""
        self._check_line(line)
        if line + 1 >= len(self.lines):
            raise EditPositionError(f"no line after {line} to join")
        self.delete_range((line, len(self.lines[line].text)), (line + 1, 0))

    # -- link editing --------------------------------------------------------

    def insert_link(self, line: int, col: int, link: HyperLink) -> HyperLink:
        """Anchor ``link`` at (line, col); returns the (re-positioned) link."""
        self._check_pos(line, col)
        link.pos = col
        self.lines[line].links.append(link)
        self.lines[line].links.sort(key=lambda item: item.pos)
        return link

    def remove_link(self, line: int, link: HyperLink) -> None:
        self._check_line(line)
        try:
            self.lines[line].links.remove(link)
        except ValueError:
            raise EditPositionError(
                f"link {link.label!r} is not anchored on line {line}"
            ) from None

    def links_on_line(self, line: int) -> list[HyperLink]:
        return sorted(self.line(line).links, key=lambda item: item.pos)

    # -- rendering -------------------------------------------------------------

    def render(self, open_mark: str = "[", close_mark: str = "]") -> str:
        """Text with link labels spliced in as buttons, per line."""
        rendered = []
        for line in self.lines:
            parts: list[str] = []
            cursor = 0
            for link in sorted(line.links, key=lambda item: item.pos):
                parts.append(line.text[cursor:link.pos])
                parts.append(f"{open_mark}{link.label}{close_mark}")
                cursor = link.pos
            parts.append(line.text[cursor:])
            rendered.append("".join(parts))
        return "\n".join(rendered)

    def clone(self) -> "EditForm":
        copy = EditForm([])
        copy.lines = [
            HyperLine(line.text, [link.clone() for link in line.links])
            for line in self.lines
        ]
        return copy

    def __repr__(self) -> str:
        return (f"EditForm(lines={len(self.lines)}, "
                f"links={self.link_count()})")
