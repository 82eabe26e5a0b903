"""Per-layer metrics of a traced run.

Three sources, all outside the program: self time of the benchmark's
spans (``Tracer``), counter deltas around each timed operation (the
engine proxy's, and the program's own from ``store.metrics()``), and a
few direct drives of one layer's public functions on inputs the run
produced (``probe_layers``).
"""

from __future__ import annotations

import random
from statistics import median
from typing import Any

from repro import ObjectStore
from repro.core.javaform import hole_marked_java
from repro.editor.hyper import HyperProgramEditor
from repro.javagrammar.codegen import JavaToPython
from repro.javagrammar.lexer import Lexer
from repro.javagrammar.parser import Parser
from repro.store.oids import Oid
from repro.store.serializer import Record, Serializer

from bench.harness import ENGINE_OPS, clock

APPLY_SPANS = ("engine.apply", "engine.apply_many", "engine.apply_async")
POINT_READ_SPANS = ("engine.read", "engine.contains")
#: Phases whose operation is exactly one ``stabilize()`` call.
STABILISE_PHASES = ("full", "incr", "session_incr", "coldroot")


# ---------------------------------------------------------------------------
# direct drives
# ---------------------------------------------------------------------------

def _timed_ms(call, *args: Any) -> tuple[float, Any]:
    start = clock()
    result = call(*args)
    return (clock() - start) / 1e6, result


def probe_layers(run, loop, site, store: ObjectStore, people: list) -> None:
    """Drive single layers on this run's own programs and objects; the
    results land in ``run.probes``."""
    probes: dict[str, Any] = {}

    # javagrammar: lexer, parser and code generator apart, on the
    # hole-marked source of every Java-form program of the run.
    lex, parse, codegen, chars = [], [], [], 0
    for program in loop.java_programs:
        marked = hole_marked_java(program)
        chars += len(marked)
        lex.append(_timed_ms(Lexer(marked).tokens)[0])
        parser = Parser(marked)
        took, unit = _timed_ms(parser.parse_compilation_unit)
        parse.append(took)
        codegen.append(_timed_ms(
            JavaToPython(lambda ordinal, kind: "None").transpile_unit,
            unit)[0])
    probes["lex_ms"], probes["parse_ms"] = median(lex), median(parse)
    probes["codegen_ms"] = median(codegen)
    probes["java_chars_per_s"] = chars / (
        (sum(lex) + sum(parse) + sum(codegen)) / 1e3)

    # core: LinkStore.get_link in a loop, and loading the last program
    # run into an editor.
    links, password, program = loop.links, loop.password, loop.last_program
    index = links.index_of(program, password)
    calls = 5000
    start = clock()
    for _ in range(calls):
        links.get_link(password, index, 0)
    probes["get_link_ns"] = (clock() - start) / calls
    probes["load_ms"] = median(
        _timed_ms(HyperProgramEditor().load, program)[0] for _ in range(5))

    # serializer: encode and decode a sample of the corpus.
    rng = random.Random(run.seed)
    sample = []
    for person in rng.sample(people, min(500, len(people))):
        sample.extend((person, person.notes))
    serializer = Serializer(store.registry)
    start = clock()
    raws = [serializer.encode_object(Oid(index + 1), obj,
                                     lambda _obj: Oid(1)).to_bytes()
            for index, obj in enumerate(sample)]
    probes["encode_us_per_rec"] = (clock() - start) / len(sample) / 1e3
    start = clock()
    for raw in raws:
        record = Record.from_bytes(raw)
        serializer.fill_shell(serializer.make_shell(record), record,
                              lambda _oid: None)
    probes["decode_us_per_rec"] = (clock() - start) / len(sample) / 1e3

    # net: the round trip of the cheapest request.
    probes["rtt_us"] = 0.0
    if site.backend == "remote":
        oid = store.oid_of(people[0])
        pings = []
        for _ in range(200):
            start = clock()
            store.engine.contains(oid)
            pings.append((clock() - start) / 1e3)
        probes["rtt_us"] = median(pings)
    run.probes = probes


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def _median(samples: list[float]) -> float:
    return median(samples) if samples else 0.0


def counter_mismatches(run) -> list[str]:
    """Where the benchmark's view and the program's disagree: per timed
    operation the proxy's call count of each engine operation must equal
    the program's ``engine_op_ns`` count, and the program's walk, encode
    and commit time must fit inside the stabilise the benchmark timed."""
    problems = []
    for phase, ops in run.tracer.ops.items():
        for index, op in enumerate(ops):
            if not op.counters:
                continue
            for engine_op in ENGINE_OPS:
                seen = op.counters[f"px.calls.{engine_op}"]
                told = op.counters[f"prog.calls.{engine_op}"]
                if seen != told:
                    problems.append(
                        f"{phase}[{index}] engine.{engine_op}: proxy saw "
                        f"{seen} calls, program counted {told}")
            if phase in STABILISE_PHASES:
                inside = sum(op.counters[key] for key in
                             ("walk_ns", "encode_ns", "commit_ns"))
                if inside > op.ns:
                    problems.append(
                        f"{phase}[{index}]: walk+encode+commit "
                        f"{inside / 1e6:.3f} ms exceed the stabilise span "
                        f"{op.ms:.3f} ms")
    return problems


def per_layer(run, primary_untraced: float, primary_traced: float,
              lower_is_better: bool) -> dict[str, float]:
    """Every per-layer metric of a traced run, by name."""
    tracer, probes = run.tracer, run.probes
    remote = run.workload == "store_remote"

    def layer(phase: str, *names: str) -> float:
        return _median(tracer.layer_ms(phase, *names))

    def count(phase: str, key: str) -> float:
        return _median(tracer.counter(phase, key))

    def counter_ms(phase: str, key: str) -> float:
        return count(phase, key) / 1e6

    def round_trips(phase: str) -> float:
        if not remote:
            return 0.0
        return _median([sum(op.counters[f"px.calls.{name}"]
                            for name in ENGINE_OPS)
                        for op in tracer.ops.get(phase, [])])

    def wire_ms(phase: str) -> float:
        if not remote:
            return 0.0
        return _median([(sum(op.counters[f"px.ns.{name}"]
                             for name in ENGINE_OPS)
                         - op.counters["srv.engine_ns"]) / 1e6
                        for op in tracer.ops.get(phase, [])])

    sessions = tracer.ops["session"]
    typed_ms = sum(tracer.layer_ms("session", "editor.type"))
    loaded = [ms for ms in tracer.layer_ms("session", "editor.load") if ms]
    session_ns = sum(op.ns for op in sessions)
    glue_ns = sum(op.layers.get("op.session", 0) for op in sessions)
    incr_ops = tracer.ops["incr"]
    overhead = (primary_traced - primary_untraced) / primary_untraced * 100
    out = {
        "ui.gesture_ms": layer("session", "ui.gesture"),
        "editor.type_ms": layer("session", "editor.type"),
        "editor.type_us_per_line": typed_ms * 1e3 / run.lines_typed,
        "editor.insert_link_ms": layer("session", "editor.insert_link"),
        "editor.load_ms": _median(loaded) if loaded else probes["load_ms"],
        "browser.open_ms": layer("session", "browser.open"),
        "browser.select_ms": layer("session", "browser.select"),
        "core.convert_ms": layer("session", "core.convert"),
        "core.textual_ms": layer("go_py", "core.textual"),
        "core.compile_py_ms": layer("go_py", "core.linkstore_add",
                                    "core.textual", "reflect.load"),
        "core.linkstore_add_us": layer("go_py", "core.linkstore_add") * 1e3,
        "core.run_main_us": _median(
            tracer.layer_ms("go_py", "core.run_main")
            + tracer.layer_ms("go_java", "core.run_main")) * 1e3,
        "reflect.load_ms": layer("go_py", "reflect.load"),
        "javagrammar.lex_ms": probes["lex_ms"],
        "javagrammar.parse_ms": probes["parse_ms"],
        "javagrammar.codegen_ms": probes["codegen_ms"],
        "javagrammar.chars_per_s": probes["java_chars_per_s"],
        "core.get_link_ns": probes["get_link_ns"],
        "store.encode_ms.full": counter_ms("full", "encode_ns"),
        "engine.records_written.incr": count("incr", "px.records_written"),
        "engine.bytes_written.full": count("full", "px.bytes_written"),
        "engine.open_ms": layer("cold_fault", "engine.open"),
        "engine.fetch_many_ms.cold_fault": layer("cold_fault",
                                                 "engine.fetch_many"),
        "engine.fetch_many_calls.cold_fault": count("cold_fault",
                                                    "px.calls.fetch_many"),
        "serve.fault_plans.cold_fault": count("cold_fault", "fault_plans"),
        "serve.fault_waves.cold_fault": count("cold_fault", "fault_waves"),
        "engine.contains_calls.coldroot": count("coldroot",
                                                "px.calls.contains"),
        "manifest.fsyncs": count("full", "manifest_fsyncs"),
        "engine.checkpoints": count("full", "checkpoints"),
        "heap.page_hits": count("cold_fault", "page_hits"),
        "heap.page_misses": count("cold_fault", "page_misses"),
        "serve.fastpath_hit_share": _median(
            [op.counters["fastpath_hits"] / op.count
             for op in tracer.ops["warm"]]),
        "serializer.encode_us_per_rec": probes["encode_us_per_rec"],
        "serializer.decode_us_per_rec": probes["decode_us_per_rec"],
        "net.rtt_us": probes["rtt_us"],
        "obs.trace_overhead_pct": overhead if lower_is_better else -overhead,
        "obs.counter_mismatch": float(len(counter_mismatches(run))),
        "obs.accounted_pct.session": 100 * (session_ns - glue_ns)
        / session_ns,
        "obs.accounted_pct.incr": 100 * sum(
            op.counters["walk_ns"] + op.counters["encode_ns"]
            + op.counters["commit_ns"] for op in incr_ops)
        / sum(op.ns for op in incr_ops),
    }
    for phase in ("full", "incr", "coldroot", "cold_fault", "gc"):
        out[f"store.self_ms.{phase}"] = layer(phase, "op." + phase)
        out[f"net.round_trips.{phase}"] = round_trips(phase)
    for phase in ("full", "incr", "coldroot"):
        out[f"store.walk_ms.{phase}"] = counter_ms(phase, "walk_ns")
    for phase in ("full", "incr"):
        out[f"store.commit_ms.{phase}"] = counter_ms(phase, "commit_ns")
        out[f"engine.apply_ms.{phase}"] = layer(phase, *APPLY_SPANS)
        out[f"wal.fsyncs.{phase}"] = count(phase, "wal_fsyncs")
    for phase in ("coldroot", "gc"):
        out[f"engine.read_calls.{phase}"] = count(phase, "px.calls.read")
        out[f"engine.point_read_ms.{phase}"] = layer(phase,
                                                     *POINT_READ_SPANS)
    for phase in ("full", "cold_fault"):
        out[f"net.wire_ms.{phase}"] = wire_ms(phase)
    return out
