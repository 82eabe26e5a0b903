"""The password-protected persistent link registry (paper Figure 7).

"To ensure that every hyper-link has such a textual form, the system
records a reference to each hyper-program submitted for translation, in a
password-protected location in the persistent store.  The hyper-linked
entities will thus remain accessible by the compiled form even if the
original hyper-program is discarded. ... the password protection prevents
any accidental or malicious tampering with the data structure."
(Section 4.1)

The structure at the persistent root is exactly Figure 7: a vector of
references to :class:`~repro.core.hyperprogram.HyperProgram` instances,
reached through a password-checking access path.  Two reference modes are
provided, reproducing the paper's evolution:

* ``weak=False`` — the paper's *current implementation*: strong references,
  under which "no hyper-program that is translated and compiled can be
  subsequently garbage collected";
* ``weak=True`` (default) — the paper's *next version* (JDK 1.2 weak
  references): each entry is a
  :class:`~repro.store.weakrefs.PersistentWeakRef`, "so that hyper-programs
  may be garbage collected once no user references to them remain".

``tests/paper/test_figure7_registry.py`` runs both modes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.hyperlink import DESCRIPTOR_CLASSES, HyperLinkHP
from repro.core.hyperprogram import HyperProgram
from repro.errors import (
    BadPasswordError,
    HyperProgramCollectedError,
    UnknownHyperLinkError,
    UnknownHyperProgramError,
)
from repro.store.objectstore import ObjectStore
from repro.store.weakrefs import PersistentWeakRef

#: The persistent root under which the Figure 7 structure lives.
REGISTRY_ROOT = "_hyperprogram_registry"

#: "The password used in the calls to getLink ... is built into the
#: system" (Section 4.2).
DEFAULT_PASSWORD = "passwd"


def register_core_classes(store: ObjectStore) -> None:
    """Make the hyper-programming classes storable in ``store``."""
    for cls in (HyperProgram, HyperLinkHP) + DESCRIPTOR_CLASSES:
        store.registry.register(cls)


class LinkStore:
    """Access path to the Figure 7 structure in a persistent store."""

    def __init__(self, store: ObjectStore,
                 password: str = DEFAULT_PASSWORD,
                 weak: bool = True):
        self._store = store
        self._weak = weak
        register_core_classes(store)
        if not store.has_root(REGISTRY_ROOT):
            store.set_root(REGISTRY_ROOT,
                           {"password": password, "programs": []})

    @property
    def _structure(self) -> dict:
        # Fetched through the root on every access (the identity map makes
        # this cheap) so the link store never holds a stale reference after
        # a transaction abort or evolution flush.
        return self._store.get_root(REGISTRY_ROOT)

    # -- password checking --------------------------------------------------

    def _check_password(self, password: str) -> None:
        if password != self._structure["password"]:
            raise BadPasswordError(
                "wrong password for the hyper-program registry"
            )

    @property
    def password(self) -> str:
        """The built-in system password (not part of the paper's public
        interface; exposed for the compiler, which embeds it in generated
        textual forms)."""
        return self._structure["password"]

    @property
    def store(self) -> ObjectStore:
        return self._store

    @property
    def uses_weak_references(self) -> bool:
        return self._weak

    # -- Figure 9 operations --------------------------------------------------

    def add_hp(self, program: HyperProgram, password: str) -> int:
        """``addHP`` — record ``program`` (if not already present); returns
        its unique index in the persistent vector."""
        self._check_password(password)
        programs = self._structure["programs"]
        for index, entry in enumerate(programs):
            target = entry.get() if isinstance(entry, PersistentWeakRef) \
                else entry
            if target is program:
                return index
        entry = PersistentWeakRef(program) if self._weak else program
        programs.append(entry)
        index = len(programs) - 1
        # The program itself must stay strongly reachable until stabilised
        # even in weak mode; the *caller* holds the strong reference (the
        # paper's "user references").
        return index

    def get_hp(self, password: str, hp_index: int) -> HyperProgram:
        """The registered hyper-program at ``hp_index``."""
        self._check_password(password)
        programs = self._structure["programs"]
        if not 0 <= hp_index < len(programs):
            raise UnknownHyperProgramError(hp_index)
        entry = programs[hp_index]
        if isinstance(entry, PersistentWeakRef):
            target = entry.get()
            if target is None:
                raise HyperProgramCollectedError(
                    f"hyper-program {hp_index} has been garbage collected"
                )
            return target
        return entry

    def get_link(self, password: str, hp_index: int,
                 hl_index: int) -> HyperLinkHP:
        """``getLink`` — "returns representation of a given hyper-link"
        (Figure 9), the access path executed by compiled textual forms."""
        program = self.get_hp(password, hp_index)
        links = program.get_the_links()
        if not 0 <= hl_index < len(links):
            raise UnknownHyperLinkError(
                f"hyper-program {hp_index} has no link {hl_index}"
            )
        return links[hl_index]

    def index_of(self, program: HyperProgram, password: str) -> Optional[int]:
        """The index of a registered program, or ``None``."""
        self._check_password(password)
        for index, entry in enumerate(self._structure["programs"]):
            target = entry.get() if isinstance(entry, PersistentWeakRef) \
                else entry
            if target is program:
                return index
        return None

    def count(self, password: str) -> int:
        self._check_password(password)
        return len(self._structure["programs"])

    def collected_count(self, password: str) -> int:
        """How many weak entries have been cleared by garbage collection."""
        self._check_password(password)
        return sum(
            1 for entry in self._structure["programs"]
            if isinstance(entry, PersistentWeakRef) and entry.is_cleared
        )

    def stabilize(self) -> int:
        """Persist the registry (and everything reachable from it)."""
        return self._store.stabilize()
