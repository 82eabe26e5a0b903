"""The five workloads.

Two flows share their phases.  ``run_hp`` (``hp_compose``,
``hp_reopen``) keeps a pool of 400 couples and the hyper-programs that
link to them in a ``file:`` store; ``run_store`` (``store_file``,
``store_sqlite``, ``store_remote``) keeps 5 000 married persons in the
named backend.  Each flow asks every end-to-end question, so that each
metric is measured on each workload: the store flow ends with a few
paper-loop sessions against its large store, and the hp flow puts its
own (small) store through the full, cold-fault, warm, cold-root and
garbage-collection phases.

A run is a sequence of *rounds*; a round does one repetition of every
phase (and a handful of sessions and incremental stabilises), so that
each phase's samples are spread over the whole run and a burst of
interference from the host hits a minority of them, which the median
then sets aside.  Round and repetition counts below are for scale 1.0
(about fifteen seconds a run on a two-core host); ``--seconds`` scales
them.  Object counts and program sizes never scale.  Before every
repetition the previous one's graph is released and ``gc.collect()``
runs; the collector is otherwise left at its defaults.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import ClassRegistry, DynamicCompiler, ObjectStore

from bench import corpus, layers
from bench.corpus import PEOPLE, POOL_COUPLES, STORE_RECORDS, ProgramSpec
from bench.harness import Tracer, clock
from bench.hp import Loop, build_program
from bench.sites import Site, Sites, child_env

VERIFIER = Path(__file__).resolve().parent / "verify_store.py"

#: Rounds at scale 1.0, and how often a round repeats the phases it
#: does more than once; every other phase runs once a round.
ROUNDS = {
    "hp": {"rounds": 7, "sessions": 14},
    "file": {"rounds": 5, "sessions": 3, "incr": 6},
    "sqlite": {"rounds": 5, "sessions": 3, "incr": 6},
    "remote": {"rounds": 5, "sessions": 3, "incr": 4},
}
#: Fewer than two sessions would leave one source form unmeasured.
MIN_PER_ROUND = {"sessions": 2, "incr": 1}
RENAMES = 50
WARM_LOOKUPS = 100_000
DEREF_SLICE_S = 0.3
#: Programs an hp round drops before its garbage collection.
GC_DROP = 12


@dataclass
class Run:
    """What one pass over a workload leaves behind."""

    workload: str
    seed: int
    scale: float
    tracer: Tracer
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Measurements that are not operation durations:
    sessions_wall_s: float = 0.0
    lines_typed: int = 0
    deref_rates: list[float] = field(default_factory=list)
    bytes_per_record: float = 0.0
    #: Direct drives of single layers (traced runs).
    probes: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def plan(self, table: dict[str, int]) -> dict[str, int]:
        """Rounds, and per-round counts, at this run's scale: the
        totals scale, and below scale 1.0 the rounds go first."""
        rounds = max(1, round(table["rounds"] * self.scale))
        plan = {"rounds": rounds}
        for phase, per_round in table.items():
            if phase != "rounds":
                total = per_round * table["rounds"] * self.scale
                plan[phase] = max(MIN_PER_ROUND[phase], round(total / rounds))
        return plan


def run_workload(workload: str, seed: int, scale: float, traced: bool,
                 started_ns: int) -> Run:
    run = Run(workload, seed, scale, Tracer(traced))
    if workload.startswith("hp_"):
        _run_hp(run, started_ns)
    else:
        _run_store(run, started_ns, workload.removeprefix("store_"))
    run.tracer.finish()
    return run


def _measure_setup(run: Run, started_ns: int,
                   make_inputs: Callable[[], Any]) -> Any:
    """Generate the inputs three times (once below a fifth of the full
    scale); set-up time is what had passed before the first generation
    (the imports, the first store site and its server) plus the median
    generation."""
    before = (clock() - started_ns) / 1e9
    times = []
    for _ in range(3 if run.scale >= 0.2 else 1):
        gc.collect()
        start = clock()
        inputs = make_inputs()
        times.append((clock() - start) / 1e9)
    run.setup_s = before + sorted(times)[len(times) // 2]
    return inputs


# ---------------------------------------------------------------------------
# phases both flows share
# ---------------------------------------------------------------------------

def _first_stabilise(run: Run, site: Site, store: ObjectStore,
                     measured: bool, expected: int) -> None:
    phase = "full" if measured else "full_warmup"
    with run.tracer.op(phase, lambda: site.probe(store)) as op:
        op.count = store.stabilize()
    run.check(op.count == expected,
              f"first stabilise wrote {op.count}, not {expected}")


def _cold_open(run: Run, site: Site, registry: ClassRegistry,
               roots: tuple[str, ...], with_loop: bool):
    """``open_store`` on the closed store (plus the ``LinkStore`` of an
    hp session) and fetch the roots' closures; returns the open store,
    the hp loop state and the root objects."""
    gc.collect()
    opened: list[ObjectStore] = []
    with run.tracer.op("cold_fault", lambda: site.probe(*opened)) as op:
        store = site.open(registry)
        opened.append(store)
        loop = Loop(store, run.tracer, run.check,
                    lambda: site.probe(store)) if with_loop else None
        fetched = [store.get_root(name) for name in roots]
    op.count = store.statistics().live_count
    return store, loop, fetched, op.count


def _warm_slice(run: Run, site: Site, store: ObjectStore,
                live: list) -> None:
    """``object_for`` over every live OID, round after round."""
    oids = [store.oid_of(obj) for obj in live]
    rounds = max(2, round(WARM_LOOKUPS * min(1.0, run.scale)) // len(oids))
    object_for = store.object_for
    with run.tracer.op("warm", lambda: site.probe(store)) as op:
        for _ in range(rounds):
            for oid in oids:
                object_for(oid)
    op.count = rounds * len(oids)
    rng = random.Random(run.seed)
    for index in rng.sample(range(len(oids)), min(20, len(oids))):
        run.check(object_for(oids[index]) is live[index],
                  f"warm lookup of oid {int(oids[index])} lost identity")


def _sessions(run: Run, loop: Loop, sessions: list[Callable[[], None]],
              pool: list) -> None:
    """One round's sessions, then one slice of the dereference loop."""
    start = clock()
    for session in sessions:
        session()
    run.sessions_wall_s += (clock() - start) / 1e9
    run.lines_typed += loop.lines_typed
    run.deref_rates.append(loop.deref_rate(
        pool, max(0.01, DEREF_SLICE_S * min(1.0, run.scale))))


def _coldroot(run: Run, site: Site, registry: ClassRegistry,
              rng: random.Random) -> None:
    """Reopen, fetch nothing, bind a new three-element root, stabilise."""
    gc.collect()
    store = site.open(registry)
    store.set_root("scratch",
                   [f"{rng.randrange(10**6):06d}" for _ in range(3)])
    with run.tracer.op("coldroot", lambda: site.probe(store)) as op:
        op.count = store.stabilize()
    run.check(op.count == 1, f"cold-root stabilise wrote {op.count}")
    store.close()


def _verify_in_fresh_process(run: Run, expectations: list[dict]) -> None:
    """A fresh interpreter reopens every durable store and checks the
    seeded samples; it prints one line per problem."""
    done = subprocess.run(
        [sys.executable, str(VERIFIER)], input=json.dumps(expectations),
        capture_output=True, text=True, env=child_env(), timeout=150)
    problems = [line for line in done.stdout.splitlines() if line]
    if done.returncode != 0 and not problems:
        problems = [f"verifier exited {done.returncode}: "
                    f"{done.stderr.strip()[-300:]}"]
    run.attempted += len(expectations)
    run.failed += len(problems)
    run.failures.extend("fresh process: " + problem for problem in problems)


# ---------------------------------------------------------------------------
# hp_compose / hp_reopen
# ---------------------------------------------------------------------------

#: The pool (a list of couples, each a list of two persons with a notes
#: list each), the ``programs`` list, and the link registry's dict and
#: vector.
HP_BASE_RECORDS = 1 + 5 * POOL_COUPLES + 1 + 2


def _program_records(specs: list[ProgramSpec]) -> int:
    """Records stored programs occupy: the program, its link vector,
    one per link, and a method descriptor per ``marry`` link."""
    return sum(2 + 4 * len(spec.couples) for spec in specs)


def _build_hp_store(run: Run, site: Site, registry: ClassRegistry,
                    prebuilt: list[ProgramSpec], measured: bool) -> None:
    """full: a fresh store, both roots bound, the first stabilise."""
    pool = corpus.make_pool(run.seed)
    gc.collect()
    store = site.open(registry)
    loop = Loop(store, run.tracer, run.check)
    store.set_root("pool", pool)
    store.set_root("programs",
                   [build_program(spec, pool) for spec in prebuilt])
    _first_stabilise(run, site, store, measured,
                     HP_BASE_RECORDS + _program_records(prebuilt))
    loop.close()
    store.close()


def _run_hp(run: Run, started_ns: int) -> None:
    reopen = run.workload == "hp_reopen"
    tracer, plan = run.tracer, run.plan(ROUNDS["hp"])
    per_round = plan["sessions"]
    registry = corpus.make_registry()
    sites = Sites("file", run.workload, tracer)
    try:
        home = sites.new("home")
        specs = _measure_setup(  # the pool is made again for each store
            run, started_ns,
            lambda: (corpus.make_pool(run.seed),
                     corpus.make_programs(run.seed,
                                          per_round * plan["rounds"],
                                          POOL_COUPLES))[1])
        rng = random.Random(f"{run.workload}:{run.seed}")
        prebuilt = specs if reopen else []
        # The programs the store holds, in the order of its list: those
        # not yet re-edited come first.
        stored, untouched = list(prebuilt), len(prebuilt)
        garbage = 0  # records the next collection must free besides
        _build_hp_store(run, home, registry, prebuilt, measured=False)

        for round_no in range(plan["rounds"]):
            site = sites.new(f"full{round_no}")
            _build_hp_store(run, site, registry, prebuilt, measured=True)
            site.discard()

            store, loop, (programs, pool), _live = _cold_open(
                run, home, registry, ("programs", "pool"), with_loop=True)
            run.check(len(pool) == POOL_COUPLES
                      and [program.class_name for program in programs]
                      == [spec.class_name for spec in stored],
                      "cold fault did not bring back the pool and programs")

            if reopen:  # the last programs not yet re-edited
                todo = range(untouched - per_round, untouched)
                untouched -= per_round
                # A re-edit leaves the old program, its link vector and
                # its links behind; the method descriptors carry over.
                garbage += sum(2 + 3 * len(stored[index].couples)
                               for index in todo)
                _sessions(run, loop, [
                    lambda index=index: loop.reedit(
                        index, stored[index], pool, programs, rng)
                    for index in todo], pool)
            else:
                todo = specs[round_no * per_round:
                             (round_no + 1) * per_round]
                stored.extend(todo)
                _sessions(run, loop, [
                    lambda spec=spec: loop.compose(spec, pool, programs)
                    for spec in todo], pool)
            people = [person for couple in pool for person in couple]
            last_round = round_no == plan["rounds"] - 1
            if tracer.enabled and last_round:
                layers.probe_layers(run, loop, home, store, people)
            _warm_slice(run, home, store,
                        [pool, programs, *pool, *people,
                         *(person.notes for person in people), *programs])
            if last_round:
                run.check(store.verify_referential_integrity() == [],
                          "referential integrity broken after the sessions")
                records = store.statistics().object_count
            loop.close()
            store.close()
            del store, loop, programs, pool, people
            if last_round:
                run.bytes_per_record = home.data_bytes() / records

            _coldroot(run, home, registry, rng)
            garbage += round_no > 0  # the scratch list just replaced

            # gc: drop the programs at the end of the list and collect.
            gc.collect()
            store = home.open(registry)
            loop = Loop(store, tracer, run.check)
            programs = store.get_root("programs")
            drop = min(GC_DROP, len(stored) - untouched - 1)
            dropped, stored = stored[-drop:], stored[:-drop]
            del programs[-drop:]
            with tracer.op("gc", lambda: home.probe(store)) as op:
                op.count = store.collect_garbage()
            run.check(op.count == _program_records(dropped) + garbage,
                      f"gc freed {op.count}, not "
                      f"{_program_records(dropped) + garbage}")
            garbage = 0
            if last_round:
                run.check(store.verify_referential_integrity() == [],
                          "referential integrity broken after gc")
            loop.close()
            store.close()
            del store, loop, programs

        sample = rng.sample(range(untouched, len(stored)),
                            min(10, len(stored) - untouched))
        _verify_in_fresh_process(run, [{
            "kind": "hp", "url": home.reopen_url(), "programs": len(stored),
            "sample": [[i, stored[i].class_name, list(stored[i].couples)]
                       for i in sample]}])
    finally:
        DynamicCompiler.uninstall()
        sites.close()


# ---------------------------------------------------------------------------
# store_file / store_sqlite / store_remote
# ---------------------------------------------------------------------------

def _people_expectation(site: Site, names: list[str], count: int,
                        rng: random.Random) -> dict:
    """What a fresh process must find: ``count`` persons, and for a
    seeded sample the name and the identity of the spouse."""
    return {"kind": "people", "url": site.reopen_url(), "count": count,
            "sample": [[i, names[i], i ^ 1]
                       for i in rng.sample(range(count), 40)]}


def _build_people_store(run: Run, site: Site, registry: ClassRegistry,
                        people: list, measured: bool) -> None:
    """full: a fresh store, the root bound, the first stabilise; then,
    when measured, gc on that same store: cut the list in half and
    collect.  The unmeasured warm-up store stays intact; its bytes at
    rest are reported, so it encodes inline: the encoder pool hands
    chunks over in completion order, and how full SQLite leaves its
    pages moves by 4 % with that order."""
    gc.collect()
    store = site.open(registry, inline_encode=not measured)
    store.set_root("people", people)
    _first_stabilise(run, site, store, measured, STORE_RECORDS)
    if measured:
        del people[PEOPLE // 2:]
        with run.tracer.op("gc", lambda: site.probe(store)) as op:
            op.count = store.collect_garbage()
        run.check(op.count == PEOPLE, f"gc freed {op.count}, not {PEOPLE}")
    store.close()


def _run_store(run: Run, started_ns: int, backend: str) -> None:
    tracer, plan = run.tracer, run.plan(ROUNDS[backend])
    per_round = plan["sessions"]
    registry = corpus.make_registry()
    sites = Sites(backend, run.workload, tracer)
    try:
        home = sites.new("home")
        people, specs = _measure_setup(
            run, started_ns,
            lambda: (corpus.make_married_people(run.seed),
                     corpus.make_programs(run.seed,
                                          per_round * plan["rounds"],
                                          PEOPLE // 2)))
        rng = random.Random(f"{run.workload}:{run.seed}")
        names = [person.name for person in people]
        original_names = list(names)
        expectations = []
        _build_people_store(run, home, registry, people, measured=False)
        del people
        run.bytes_per_record = home.bytes_at_rest() / STORE_RECORDS

        for round_no in range(plan["rounds"]):
            site = sites.new(f"full{round_no}")
            _build_people_store(run, site, registry,
                                corpus.make_married_people(run.seed),
                                measured=True)
            site.stop_server()
            expectations.append(_people_expectation(
                site, original_names, PEOPLE // 2, rng))

            store, _loop, (people,), live = _cold_open(
                run, home, registry, ("people",), with_loop=False)
            run.check(live == STORE_RECORDS
                      and [person.name for person in people] == names,
                      f"cold fault brought back {live} records or "
                      f"other names")

            # incr: rename 50 seeded persons, stabilise.
            for _ in range(plan["incr"]):
                for i in rng.sample(range(PEOPLE), RENAMES):
                    names[i] = people[i].name = corpus.letters(
                        rng, len(names[i]))
                with tracer.op("incr", lambda: home.probe(store)) as op:
                    op.count = store.stabilize()
                run.check(op.count == RENAMES,
                          f"incremental stabilise wrote {op.count}")

            _warm_slice(run, home, store,
                        [people, *people,
                         *(person.notes for person in people)])

            # A few sessions of the paper loop against this store.
            loop = Loop(store, tracer, run.check, lambda: home.probe(store),
                        incr_phase="session_incr")
            if round_no == 0:
                store.set_root("programs", [])
            programs = store.get_root("programs")
            pool = [people[i:i + 2] for i in range(0, PEOPLE, 2)]
            _sessions(run, loop, [
                lambda spec=spec: loop.compose(spec, pool, programs)
                for spec in specs[round_no * per_round:
                                  (round_no + 1) * per_round]], pool)
            if tracer.enabled and round_no == plan["rounds"] - 1:
                layers.probe_layers(run, loop, home, store, people)
            run.check([person.name for person in people] == names
                      and all(people[i].spouse is people[i ^ 1]
                              for i in range(PEOPLE)),
                      "the sessions disturbed the people")
            loop.close()
            store.close()
            del store, loop, pool, programs, people

            _coldroot(run, home, registry, rng)

        expectations.append(_people_expectation(home, names, PEOPLE, rng))
        _verify_in_fresh_process(run, expectations)
    finally:
        DynamicCompiler.uninstall()
        sites.close()
