"""Reopen durable stores in a fresh interpreter and check seeded samples.

Reads a JSON list of expectations on standard input (see
``bench/workloads.py``), prints one line per problem and exits non-zero
if there was any.  Run by the benchmark after it has closed its stores.
"""

from __future__ import annotations

import json
import sys

from repro import LinkStore, MethodRef, ObjectStore, open_store

from bench.corpus import Person, make_registry


def check_people(store: ObjectStore, expected: dict) -> list[str]:
    people = store.get_root("people")
    problems = []
    if len(people) != expected["count"]:
        problems.append(f"{len(people)} people, not {expected['count']}")
    for index, name, spouse in expected["sample"]:
        person = people[index]
        if person.name != name:
            problems.append(f"person {index} is named {person.name[:20]!r}")
        if person.spouse is not people[spouse] or \
                people[spouse].spouse is not person:
            problems.append(f"person {index} is not married to {spouse}")
    return problems


def check_hp(store: ObjectStore, expected: dict) -> list[str]:
    LinkStore(store)  # registers the hyper-programming classes
    programs = store.get_root("programs")
    pool = store.get_root("pool")
    problems = []
    if len(programs) != expected["programs"]:
        problems.append(f"{len(programs)} programs, "
                        f"not {expected['programs']}")
    for index, class_name, couples in expected["sample"]:
        program = programs[index]
        if program.class_name != class_name:
            problems.append(f"program {index} is {program.class_name}")
        targets = [link.hyper_link_object for link in
                   sorted(program.the_links, key=lambda l: l.string_pos)]
        wanted: list = []
        for couple in couples:
            wanted.extend((MethodRef(f"{Person.__module__}.Person", "marry"),
                           *pool[couple]))
        if len(targets) != len(wanted) or any(
                (got != want) if isinstance(want, MethodRef)
                else (got is not want)
                for got, want in zip(targets, wanted)):
            problems.append(f"program {index}: links do not resolve to "
                            f"the pool's objects")
        for couple in couples:
            a, b = pool[couple]
            if a.spouse is not b or b.spouse is not a:
                problems.append(f"program {index}: couple {couple} is not "
                                f"married")
    return problems


def main() -> int:
    failed = False
    for expected in json.load(sys.stdin):
        check = check_hp if expected["kind"] == "hp" else check_people
        with open_store(expected["url"], registry=make_registry()) as store:
            for problem in check(store, expected):
                failed = True
                print(f"{expected['url']}: {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
