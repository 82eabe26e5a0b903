"""Exception hierarchy for the hyper-programming system.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications can catch the whole family with a single handler while the
subsystems keep distinct, documented failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Persistent store
# ---------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for persistent-store failures."""


class StoreClosedError(StoreError):
    """An operation was attempted on a closed store."""


class StoreThreadError(StoreError):
    """A store was used from a thread other than the one that opened it
    (one thread owns an ``ObjectStore``, as with ``sqlite3``'s
    ``check_same_thread``)."""


class StoreConflictError(StoreError):
    """A stabilise found that another store committed through the same
    engine since this store last read or wrote it; nothing was written."""


class UnknownRootError(StoreError, KeyError):
    """A named persistent root does not exist."""


class UnknownOidError(StoreError, KeyError):
    """An OID is not present in the store (referential-integrity breach)."""


class SerializationError(StoreError):
    """An object could not be serialised into the typed storage format."""


class DeserializationError(StoreError):
    """Stored bytes could not be decoded back into an object."""


class ClassNotRegisteredError(SerializationError):
    """A user-defined class was stored or fetched without being registered."""


class SchemaMismatchError(DeserializationError):
    """A stored object's schema fingerprint no longer matches its class."""


class TransactionError(StoreError):
    """Base class for transaction failures."""


class NoTransactionError(TransactionError):
    """Commit or abort was called with no transaction in progress."""


class TransactionAbortedError(TransactionError):
    """The enclosing transaction has been aborted."""


class CorruptHeapError(StoreError):
    """The on-disk heap or log failed an integrity check."""


class CommitPipelineError(StoreError):
    """A group/async commit pipeline failed; pending commits were
    aborted and the pipeline accepts no further work."""


class RemoteStoreError(StoreError):
    """A request to a remote store server failed.

    Raised by the ``remote:`` engine when the server reports an error
    that has no local exception type, and as the base class of every
    network-layer failure, so callers can catch the whole family."""


class WireProtocolError(RemoteStoreError):
    """A wire frame violated the store network protocol (bad CRC,
    oversized length, truncated frame, unknown opcode or a malformed
    payload).  The connection it arrived on is no longer trustworthy
    and is dropped."""


class RemoteDisconnectedError(RemoteStoreError, ConnectionError):
    """The server connection was lost (or timed out) before a reply
    arrived.  Idempotent reads retry through a fresh connection up to
    the engine's retry bound before surfacing this; writes surface it
    immediately — the caller cannot know whether the batch applied."""


# ---------------------------------------------------------------------------
# Hyper-program core
# ---------------------------------------------------------------------------

class HyperProgramError(ReproError):
    """Base class for hyper-program representation errors."""


class LinkPositionError(HyperProgramError, ValueError):
    """A hyper-link position lies outside its program text."""


class LinkKindError(HyperProgramError, ValueError):
    """A hyper-link was built with an inconsistent kind/value combination."""


class IllegalLinkInsertionError(HyperProgramError):
    """A hyper-link kind is not legal at the requested syntactic position."""


class LinkStoreError(HyperProgramError):
    """Base class for the password-protected link registry (Figure 7)."""


class BadPasswordError(LinkStoreError, PermissionError):
    """The password supplied to the link registry was wrong."""


class UnknownHyperProgramError(LinkStoreError, KeyError):
    """No hyper-program is registered under the given index."""


class UnknownHyperLinkError(LinkStoreError, KeyError):
    """A hyper-program has no link at the given index."""


class HyperProgramCollectedError(LinkStoreError):
    """The weakly-referenced hyper-program has been garbage collected."""


class CompilationError(HyperProgramError):
    """The textual form of a hyper-program failed to compile.

    Carries the generated *textual form* and the underlying compiler
    diagnostic, matching the paper's Section 5.4.2 behaviour of reporting
    errors in terms of the translated text.
    """

    def __init__(self, message: str, textual_form: str | None = None,
                 diagnostics: str | None = None):
        super().__init__(message)
        self.textual_form = textual_form
        self.diagnostics = diagnostics


class LoadingError(HyperProgramError):
    """A compiled class could not be loaded into the running system."""


# ---------------------------------------------------------------------------
# Java grammar / legality
# ---------------------------------------------------------------------------

class GrammarError(ReproError):
    """Base class for the Java-subset grammar package."""


class LexError(GrammarError):
    """The lexer met an unrecognised character sequence."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class ParseError(GrammarError):
    """The parser could not derive the requested production."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Editor / browser / UI
# ---------------------------------------------------------------------------

class EditorError(ReproError):
    """Base class for editor failures."""


class EditPositionError(EditorError, ValueError):
    """An editing operation addressed a position outside the buffer."""


class NothingToUndoError(EditorError):
    """Undo/redo was requested with an empty history."""


class BrowserError(ReproError):
    """Base class for Object/Class Browser failures."""


class NoSuchPanelError(BrowserError, KeyError):
    """A browser panel id does not exist."""


class UIError(ReproError):
    """Base class for the windowing-simulation UI."""


class NoFrontWindowError(UIError):
    """An action needed a front-most window of a given kind and none exists."""


# ---------------------------------------------------------------------------
# Reflection / evolution
# ---------------------------------------------------------------------------

class ReflectionError(ReproError):
    """Base class for the meta-object / linguistic-reflection layer."""


class NoSuchMemberError(ReflectionError, AttributeError):
    """A requested method, field or constructor does not exist."""


class EvolutionError(ReproError):
    """A schema-evolution step failed; the transaction is rolled back."""
