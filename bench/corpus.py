"""Seeded inputs: the ``Person`` class, the people corpus and the
hyper-program sources.

Object counts, string lengths and program sizes are the same for every
seed (so stored bytes and typed characters do not depend on it); the
seed picks the characters, the identifiers, the order, and which
objects a program links to.  The program under test only ever sees the
generated inputs, never the seed.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro import ClassRegistry

#: Persons in the store scenario (-> 10 001 records: one per person,
#: one per notes list, one for the root list).
PEOPLE = 5000
STORE_RECORDS = 2 * PEOPLE + 1
#: Couples in the hyper-programming pool (800 persons).
POOL_COUPLES = 400


class Person:
    """The paper's Figure 3 class, plus a notes list so that a person
    is more than one record."""

    name: str
    spouse: object
    notes: list

    def __init__(self, name: str, notes: list):
        self.name = name
        self.spouse = None
        self.notes = notes

    @staticmethod
    def marry(a: "Person", b: "Person") -> None:
        a.spouse = b
        b.spouse = a


def make_registry() -> ClassRegistry:
    registry = ClassRegistry()
    registry.register(Person)
    return registry


def letters(rng: random.Random, count: int) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=count))


def make_people(seed: int, count: int) -> list[Person]:
    """``count`` unmarried persons: names of 8-200 characters, 0-5 notes
    of 3-30 characters each.  The lengths come in the same order for
    every seed, so that stored bytes do not depend on it."""
    shapes = [(8 + i % 193,
               [3 + (i + 5 * j) % 28 for j in range(i % 6)])
              for i in range(count)]
    random.Random("people shapes").shuffle(shapes)
    text = letters(random.Random(f"people:{seed}"),
                   sum(name_len + sum(note_lens)
                       for name_len, note_lens in shapes))
    people, at = [], 0
    for name_len, note_lens in shapes:
        name, at = text[at:at + name_len], at + name_len
        notes = []
        for note_len in note_lens:
            notes.append(text[at:at + note_len])
            at += note_len
        people.append(Person(name, notes))
    return people


def make_married_people(seed: int) -> list[Person]:
    """The store scenario's corpus: neighbours are married."""
    people = make_people(seed, PEOPLE)
    for i in range(0, PEOPLE, 2):
        Person.marry(people[i], people[i + 1])
    return people


def make_pool(seed: int) -> list[list[Person]]:
    """The hyper-programming pool: couples not yet married (running a
    composed program is what marries them)."""
    people = make_people(seed, 2 * POOL_COUPLES)
    return [[people[i], people[i + 1]]
            for i in range(0, 2 * POOL_COUPLES, 2)]


# ---------------------------------------------------------------------------
# hyper-program sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """A hole in a source line: ``what`` is ``"marry"`` (the static
    method), ``"a"`` or ``"b"`` (one person of couple ``couple``)."""

    what: str
    couple: int

    def person(self, pool: list[list[Person]]) -> Person:
        return pool[self.couple][0 if self.what == "a" else 1]


#: One source line: text pieces with links between them.
Line = list[Union[str, Link]]


def helper_lines(java: bool, name: str, constant: int, var: str,
                 counter: str) -> list[str]:
    """A six-line method ``name(x)`` returning ``x + constant + 3``."""
    if java:
        return [
            f"  public static int {name}(int x) {{",
            f"    int {var} = x;",
            f"    for (int {counter} = 0; {counter} < {constant}; "
            f"{counter}++)",
            f"      {var} = {var} + 1;",
            f"    return {var} + 3;",
            "  }",
        ]
    return [
        "    @staticmethod",
        f"    def {name}(x):",
        f"        {var} = x",
        f"        for {counter} in range({constant}):",
        f"            {var} = {var} + 1",
        f"        return {var} + 3",
    ]


HELPER_LINES = 6


@dataclass
class ProgramSpec:
    """One generated hyper-program: its lines and what running it must
    do."""

    class_name: str
    java: bool
    helpers: int
    couples: tuple[int, ...]
    lines: list[Line] = field(repr=False)
    #: ``helper_<check_helper>(x)`` must return ``x + check_helper + 3``.
    check_helper: int
    #: Line number of the first ``marry`` statement.
    first_marry_line: int

    def text_and_links(self) -> tuple[str, list[tuple[int, Link]]]:
        """The storage-form text and the links' absolute positions."""
        pieces: list[str] = []
        links: list[tuple[int, Link]] = []
        position = 0
        for line in self.lines:
            for part in line:
                if isinstance(part, Link):
                    links.append((position, part))
                else:
                    pieces.append(part)
                    position += len(part)
            pieces.append("\n")
            position += 1
        return "".join(pieces), links


def program_spec(class_name: str, java: bool, helpers: int,
                 couples: tuple[int, ...], var: str, counter: str,
                 check_helper: int) -> ProgramSpec:
    """The lines of one program: the class header, ``helpers`` helper
    methods, and a ``main`` that marries each of ``couples``."""
    lines: list[Line] = [[f"public class {class_name} {{" if java
                          else f"class {class_name}:"]]
    for i in range(helpers):
        lines.extend([text] for text in
                     helper_lines(java, f"helper_{i}", i, var, counter))
    if java:
        lines.append(["  public static void main(String[] args) {"])
    else:
        lines.extend([["    @staticmethod"], ["    def main(args):"]])
    first_marry_line = len(lines)
    indent = "    " if java else "        "
    for couple in couples:
        lines.append([indent, Link("marry", couple), "(", Link("a", couple),
                      ", ", Link("b", couple), ");" if java else ")"])
    if java:
        lines.extend([["  }"], ["}"]])
    return ProgramSpec(class_name, java, helpers, couples, lines,
                       check_helper, first_marry_line)


#: The program whose ``main`` the dereference-rate loop runs: Python
#: form, the largest ``main`` the generator makes (10 ``marry``
#: statements, 20 object links).
DEREF_PROGRAM = program_spec("DerefLoop", False, 4, tuple(range(10)),
                             "total", "step", 0)


def _spread(low: int, high: int, count: int) -> list[int]:
    if count == 1:
        return [high]
    return [low + round(k * (high - low) / (count - 1))
            for k in range(count)]


def make_programs(seed: int, count: int, couples: int) -> list[ProgramSpec]:
    """``count`` programs, even ones in the Python form and odd ones in
    the Java form, each with 4-40 helper methods and 1-10
    ``Person.marry(a, b)`` statements.  Sizes, their pairing and their
    order are the same for every seed (medians over a dozen sessions
    would otherwise move with the draw); the seed picks identifiers,
    the couples linked and the helper that is checked."""
    rng = random.Random(f"programs:{seed}")
    fixed = random.Random("program shapes")
    shapes: dict[bool, Iterator[tuple[int, int]]] = {}
    for java, amount in ((False, (count + 1) // 2), (True, count // 2)):
        helpers = _spread(4, 40, max(1, amount))
        marries = _spread(1, 10, max(1, amount))
        fixed.shuffle(helpers)
        fixed.shuffle(marries)
        shapes[java] = iter(zip(helpers, marries))
    specs = []
    for index in range(count):
        java = index % 2 == 1
        helpers, marries = next(shapes[java])
        specs.append(program_spec(
            f"P{index:04d}_{letters(rng, 4)}", java, helpers,
            tuple(rng.sample(range(couples), marries)),
            "v" + letters(rng, 4), "w" + letters(rng, 4),
            rng.randrange(helpers)))
    return specs
