"""Where a workload's stores live: one directory per store inside the
benchmark's work directory and, for ``remote``, one store-server
subprocess serving that directory on loopback."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from repro import ClassRegistry, ObjectStore, open_store
from repro.store import engine_from_url

from bench.harness import (
    EngineProxy,
    Tracer,
    engine_op_totals,
    file_engine_gauges,
    store_counters,
)

ROOT = Path(__file__).resolve().parent.parent
SERVER_SCRIPT = ROOT / "scripts" / "store_server.py"
WORK_ROOT = Path(__file__).resolve().parent / ".work"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Site:
    """One durable store: its directory, its URL and (remote) its
    server process."""

    def __init__(self, backend: str, directory: Path, tracer: Tracer):
        self.backend = backend
        self.directory = directory
        self.tracer = tracer
        self.server: Optional[subprocess.Popen] = None
        self.proxy: Optional[EngineProxy] = None
        directory.mkdir(parents=True)
        if backend == "file":
            self.url = f"file:{directory}"
        elif backend == "sqlite":
            self.url = f"sqlite:{directory / 'store.sqlite'}"
        else:
            self.start_server()

    # -- the server process (remote only) --------------------------------

    def start_server(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT), f"file:{self.directory}",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=child_env())
        line = self.server.stdout.readline()
        if not line.startswith("LISTENING "):
            self.stop_server()
            raise RuntimeError(f"store server failed to start: {line!r}")
        self.url = "remote:" + line.split()[-1]

    def stop_server(self) -> None:
        """Stop the server and wait for it (its engine closes, so the
        directory is in its at-rest state afterwards)."""
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    # -- opening -----------------------------------------------------------

    def open(self, registry: ClassRegistry,
             inline_encode: bool = False) -> ObjectStore:
        """Open the store; on a traced run the engine is built apart
        (``engine.open`` span) and handed over behind the proxy.
        ``inline_encode`` turns the stabilise encoder pool off
        (``?encode_workers=0``), so that records reach the engine in
        walk order."""
        workers = 0 if inline_encode else None
        if not self.tracer.enabled:
            query = "?encode_workers=0" if inline_encode else ""
            return open_store(self.url + query, registry=registry)
        with self.tracer.span("engine.open"):
            engine = engine_from_url(self.url)
        self.proxy = EngineProxy(engine, self.tracer)
        return ObjectStore(engine=self.proxy, registry=registry,
                           encode_workers=workers)

    def probe(self, store: Optional[ObjectStore] = None) -> dict[str, Any]:
        """Monotonic counts at this instant (traced runs): the program's
        own counters, the proxy's, and for ``remote`` the server's.
        Without a store (before a cold open) only the server's, read
        over a connection of the probe's own."""
        out: dict[str, Any] = {"srv.engine_ns": 0}
        snapshot = None
        if store is not None:
            snapshot = store.metrics()
            out.update(store_counters(snapshot))
            out.update(engine_op_totals(snapshot, store.engine.name))
            out.update(self.proxy.totals())
        if self.backend == "remote":
            client = store.engine if store is not None \
                else engine_from_url(self.url)
            snapshot = client.stats_full()["metrics"]
            if store is None:
                client.close()
            out["srv.engine_ns"] = sum(
                value for key, value in
                engine_op_totals(snapshot, "file").items()
                if key.startswith("prog.ns."))
        if snapshot is not None:
            out.update(file_engine_gauges(snapshot))
        return out

    # -- at rest -----------------------------------------------------------

    def data_bytes(self) -> int:
        """Bytes of every file in the data directory (store closed and,
        for ``remote``, server stopped)."""
        return sum(path.stat().st_size
                   for path in self.directory.rglob("*") if path.is_file())

    def bytes_at_rest(self) -> int:
        """``data_bytes`` with the server stopped around the reading."""
        serving = self.server is not None
        self.stop_server()
        try:
            return self.data_bytes()
        finally:
            if serving:
                self.start_server()

    def reopen_url(self) -> str:
        """The URL a fresh process reopens this store with (the
        directory itself once a remote site's server is gone)."""
        if self.backend == "remote" and self.server is None:
            return f"file:{self.directory}"
        return self.url

    def discard(self) -> None:
        self.stop_server()
        shutil.rmtree(self.directory, ignore_errors=True)


class Sites:
    """The work directory of one run and every site made in it."""

    def __init__(self, backend: str, label: str, tracer: Tracer):
        self.backend = backend
        self.tracer = tracer
        self.base = WORK_ROOT / f"{label}-{os.getpid()}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.sites: list[Site] = []

    def new(self, name: str) -> Site:
        site = Site(self.backend, self.base / name, self.tracer)
        self.sites.append(site)
        return site

    def close(self) -> None:
        for site in self.sites:
            site.stop_server()
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
