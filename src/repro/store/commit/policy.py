"""Durability policies: when a commit call may return.

A policy decides two things for a :class:`~repro.store.commit.pipeline.
CommitPipeline`:

* whether ``apply`` blocks until the batch is durable (``waits``);
* whether a dedicated committer thread drains a queue (``threaded``),
  which is what lets concurrent submitters share one fsync.

========  =====  ========  ==========================================
policy    waits  threaded  meaning
========  =====  ========  ==========================================
sync      yes    no        each batch commits by itself, inline; the
                           submission path is serialised, so the
                           pipeline is safe for many threads
group     yes    yes       batches queued by concurrent submitters
                           are coalesced into one group commit (one
                           engine ``apply_many``); every submitter
                           still returns only once its batch is
                           durable
async     no     yes       submission returns immediately; durability
                           happens behind the caller, observable via
                           the returned ticket or ``flush()``
========  =====  ========  ==========================================

``group_window_ms`` adds an optional linger: after the first batch of a
group arrives, the committer waits up to the window for more arrivals
before committing.  The default of 0 relies on *natural batching* —
whatever queued while the previous group was fsyncing forms the next
group — which adds no latency.
"""

from __future__ import annotations


class DurabilityPolicy:
    """Base policy; concrete policies set the class attributes."""

    name: str = "abstract"
    #: ``apply`` blocks until the batch is durable.
    waits: bool = True
    #: A dedicated committer thread drains the queue.
    threaded: bool = False
    #: Linger (seconds) after the first arrival of a group; 0 commits
    #: as soon as the committer gets the queue.
    window_s: float = 0.0
    #: Most batches one group commit may coalesce.
    max_batches: int = 1
    #: Most submitted-but-uncommitted batches before submit blocks
    #: (backpressure; bounds the pipeline's memory).
    max_pending: int = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SyncPolicy(DurabilityPolicy):
    """One inline, serialised, durable commit per batch."""

    name = "sync"


class GroupPolicy(DurabilityPolicy):
    """Coalesce concurrent commits; every submitter waits for its own
    batch's durability, but a whole group shares one commit cost."""

    name = "group"
    threaded = True

    def __init__(self, window_ms: float = 0.0, max_batches: int = 64,
                 max_pending: int = 256):
        if window_ms < 0:
            raise ValueError(f"group_window_ms must be >= 0, got {window_ms}")
        if max_batches < 1:
            raise ValueError(
                f"group_max_batches must be >= 1, got {max_batches}")
        if max_pending < 1:
            raise ValueError(
                f"async_max_pending must be >= 1, got {max_pending}")
        self.window_s = window_ms / 1000.0
        self.max_batches = max_batches
        self.max_pending = max_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(window_ms={self.window_s * 1000!r}, "
                f"max_batches={self.max_batches}, "
                f"max_pending={self.max_pending})")


class AsyncPolicy(GroupPolicy):
    """Group machinery without the wait: submission acknowledges, the
    committer makes it durable behind the caller."""

    name = "async"
    waits = False


_POLICY_KINDS = ("sync", "group", "async")


def make_policy(kind: str, *, window_ms: float = 0.0, max_batches: int = 64,
                max_pending: int = 256) -> DurabilityPolicy:
    """The policy object a ``durability=...`` URL parameter names."""
    if kind == "sync":
        return SyncPolicy()
    if kind == "group":
        return GroupPolicy(window_ms=window_ms, max_batches=max_batches,
                           max_pending=max_pending)
    if kind == "async":
        return AsyncPolicy(window_ms=window_ms, max_batches=max_batches,
                           max_pending=max_pending)
    raise ValueError(
        f"unknown durability policy {kind!r}; "
        f"expected one of {', '.join(_POLICY_KINDS)}"
    )
