"""The four workloads, each with an untraced and a traced mode.

Batch workloads drive ``QuerySession.run(Path)`` (what ``gcx run`` does)
and ``MultiQuerySession.run(Path)`` (what ``gcx run-multi`` does); serve
drives a ``gcx serve`` subprocess over TCP.  End-to-end metrics come from
untraced runs only.  A traced run alternates untraced and traced rounds of
the same work, reports per-layer metrics per traced round, and the ratio
of the two rounds' wall times as the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle
import serveload
from hostclock import HostClock, LoadSampler
from layertrace import SELF_LAYERS, Tracer, resolve

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

#: Serve offered rates in requests per second, frozen after measuring the
#: highest open-loop rate with a flat backlog on the seed commit (about 30
#: requests/s on a 2-core host, ``python3 perfbench/serveload.py``): light
#: is about a quarter of it, heavy about a half.  At three quarters, the
#: host's own slowdowns (up to 1.6x over seconds) pushed the server past
#: capacity in 2 of 10 runs and its latency up tenfold.  BENCHMARK.json
#: repeats the rates in the serve workload's reason.
SERVE_RATES = {"light": 8.0, "heavy": 15.0}
#: Share of the run each rate gets.  Heavy-load latency is the end-to-end
#: figure, so it gets the samples.  At the light rate the host idles
#: between requests and wakes at varying clock speeds, which made the
#: light-phase percentiles swing by 20-30 % from run to run.
SERVE_SHARES = {"light": 0.25, "heavy": 0.75}
#: Set-up is repeated and its median reported, so one slow start (a cold
#: page cache, a collection) does not move it.
SETUP_REPEATS = 15
SERVE_SETUP_REPEATS = 3
#: A generator that sends more than this late has itself fallen behind:
#: the latencies then describe the client, not the server.
GEN_LATE_LIMIT_MS = 50.0


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    valid: bool = True

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"failed: {what}")


def quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) by ``statistics.quantiles``; a lone sample is both."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def prepare_batch(workload: str, seed: int, size: str) -> oracle.Inputs:
    """Generate inputs and reference digests in a child process.

    The child's generator and DOM never touch this process's memory, so
    ``peak_rss_mb`` measures the engine, not the oracle.
    """
    outdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), workload, str(seed), size,
         str(outdir)],
        check=True,
        timeout=150,
    )
    data = json.loads((outdir / "inputs.json").read_text())
    return oracle.Inputs(**data)


# ----------------------------------------------------------------------
# batch: selective, buffering (QuerySession) and standing (MultiQuerySession)
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One timed operation: a query over a document, or a shared pass."""

    key: str  # query name (single) or document index (standing)
    seconds: float  # wall
    reference: float  # reference-host seconds (HostClock)
    results: dict[str, Any]  # query name -> RunResult


class Batch:
    """A batch workload: the sessions, the inputs, and one round of work."""

    def __init__(self, workload: str, inputs: oracle.Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.standing = workload == "standing"
        self.paths = [Path(p) for p in inputs.documents]
        self.sessions: Any = None

    def build(self) -> None:
        if self.standing:
            from repro.engine.multi import MultiQuerySession

            self.sessions = MultiQuerySession(dict(self.inputs.queries))
        else:
            from repro.engine.session import QuerySession

            self.sessions = {
                name: QuerySession(text)
                for name, text in self.inputs.queries.items()
            }

    def warm(self) -> None:
        """Fill the lazy matcher tables on a small document, untimed."""
        warm = Path(self.inputs.warmup)
        if self.standing:
            self.sessions.run(warm)
        else:
            for session in self.sessions.values():
                session.run(warm)

    def operations(self) -> list[tuple[str, Callable[[Any], dict[str, Any]]]]:
        """One round: (key, call taking the document argument) per op."""
        if self.standing:
            return [
                (str(index), self.sessions.run)
                for index in range(len(self.paths))
            ]
        return [
            (name, lambda doc, s=session, n=name: {n: s.run(doc)})
            for name, session in self.sessions.items()
        ]

    def document(self, key: str) -> int:
        return int(key) if self.standing else 0

    def verify(self, outcome: Outcome, op: Pass) -> None:
        expected = self.inputs.expected[self.document(op.key)]
        for name, result in op.results.items():
            outcome.check(
                oracle.digest(result.output) == expected[name],
                f"{name} on document {self.document(op.key)}",
            )


def timed_round(
    batch: Batch,
    outcome: Outcome,
    clock: HostClock,
    tracer: Tracer | None = None,
) -> list[Pass]:
    passes = []
    for key, call in batch.operations():
        path = batch.paths[batch.document(key)]
        document: Any = path
        gc.collect()
        before = clock.samples[-1]
        if tracer is not None:
            tracer.begin_run(run_layer(batch, key))
            document = traced_tokens(tracer, path)
        started = time.perf_counter_ns()
        try:
            results = call(document)
        except Exception as error:  # an engine failure is a failed op
            outcome.check(False, f"{key}: {type(error).__name__}: {error}")
            continue
        elapsed = time.perf_counter_ns() - started
        if tracer is not None:
            tracer.end_run(f"{batch.workload}:{key}", elapsed)
        seconds = elapsed / 1e9
        reference = clock.reference(seconds, before, clock.sample())
        op = Pass(key, seconds, reference, results)
        batch.verify(outcome, op)
        passes.append(op)
    return passes


def run_layer(batch: Batch, key: str) -> str:
    if batch.standing:
        return "engine.evaluator"
    compiled = batch.sessions[key].compiled
    constraints = getattr(compiled, "constraints", None)
    if getattr(constraints, "zero_buffer", None) is not None:
        return "engine.direct"
    return "engine.evaluator"


def traced_tokens(tracer: Tracer, path: Path) -> Any:
    """The file token iterator, timed; the path itself if the lexer moved."""
    found = resolve("repro.xmlio.filelexer:tokenize_file")
    if found is None:
        tracer.missing.add("xmlio.lexer")
        return path
    return tracer.tokens(found[2](path))


def setup_batch(
    workload: str, inputs: oracle.Inputs, clock: HostClock
) -> tuple[Batch, float]:
    """Build the sessions several times; the median set-up, host-scaled."""
    times = []
    batch = Batch(workload, inputs)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = clock.sample()
        started = time.perf_counter()
        batch.build()
        elapsed = time.perf_counter() - started
        times.append(clock.reference(elapsed, before, clock.sample()))
    batch.warm()
    return batch, statistics.median(times)


def batch_untraced(
    workload: str, seed: int, seconds: float, size: str
) -> Outcome:
    outcome = Outcome()
    inputs = prepare_batch(workload, seed, size)
    clock = HostClock()
    batch, setup_s = setup_batch(workload, inputs, clock)
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        passes += timed_round(batch, outcome, clock)
        rounds += 1
    by_key: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for op in passes:
        by_key.setdefault(op.key, []).append(op.reference)
        wall.setdefault(op.key, []).append(op.seconds)
    per_round = sum(statistics.median(v) for v in by_key.values())
    wall_round = sum(statistics.median(v) for v in wall.values())
    if batch.standing:
        megabytes = sum(inputs.sizes) / 1e6
        hwm = batch.sessions.peak_live_bytes
    else:
        megabytes = inputs.sizes[0] * len(by_key) / 1e6
        first = {op.key: op for op in reversed(passes)}
        hwm = sum(r.hwm_bytes for op in first.values() for r in op.results.values())
    # Rounds always complete, so every run has the same mix of operations.
    latency_ms = statistics.median(op.reference * 1e3 for op in passes)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "mb_per_s": (megabytes / per_round, "MB/s"),
        "hwm_bytes": (float(hwm), "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_ms.p50": (latency_ms, "ms"),
    }
    outcome.notes.append(
        f"{len(passes)} passes in {rounds} rounds over "
        f"{len(inputs.documents)} document(s), {sum(inputs.sizes)} bytes"
    )
    outcome.notes.append(
        f"host speed {clock.speed:.3f} x reference; wall-clock "
        f"{megabytes / wall_round:.4g} MB/s"
    )
    return outcome


def batch_traced(
    workload: str, seed: int, seconds: float, size: str
) -> Outcome:
    outcome = Outcome()
    inputs = prepare_batch(workload, seed, size)
    tracer = Tracer()
    clock = HostClock()
    tracer.install()
    try:
        tracer.begin_run("engine.evaluator")
        batch, _setup = setup_batch(workload, inputs, clock)
        compile_span = tracer.end_run("setup", 0)
    finally:
        tracer.uninstall()
    plain_walls: list[float] = []
    traced: list[list[Pass]] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain = timed_round(batch, outcome, clock)
        plain_walls.append(sum(op.seconds for op in plain))
        tracer.reset_observations()
        tracer.install()
        try:
            traced.append(timed_round(batch, outcome, clock, tracer))
        finally:
            tracer.uninstall()
    outcome.spans = tracer.spans
    run_spans = [span for span in tracer.spans if span["run"] != "setup"]
    outcome.metrics = layer_metrics(
        tracer,
        run_spans,
        rounds=len(traced),
        last_round=traced[-1],
        compile_span=compile_span,
        compiled_queries=len(inputs.queries) * SETUP_REPEATS,
        plain_wall=statistics.median(plain_walls),
    )
    return outcome


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

PER_LAYER_UNITS = {
    "xmlio.lexer.busy_s": "s",
    "xmlio.lexer.tokens": "count",
    "xmlio.lexer.ns_per_token": "ns",
    "stream.lane.busy_s": "s",
    "stream.lane.calls": "count",
    "stream.lane.ns_per_token": "ns",
    "stream.lane.buffered_share": "ratio",
    "stream.pump.busy_s": "s",
    "stream.matcher.table_hit_rate": "ratio",
    "stream.matcher.states": "count",
    "stream.shared.busy_s": "s",
    "stream.shared.route_share": "ratio",
    "buffer.nodes_created": "count",
    "buffer.recycle_rate": "ratio",
    "buffer.hwm_nodes": "count",
    "buffer.roles_assigned": "count",
    "buffer.signoffs_executed": "count",
    "buffer.gc_invocations": "count",
    "buffer.tokens_held_before_emit": "count",
    "buffer.early_flushes": "count",
    "engine.evaluator.busy_s": "s",
    "engine.evaluator.output_tokens": "count",
    "engine.relops.join_probes": "count",
    "engine.relops.join_hit_rate": "ratio",
    "engine.relops.acc_updates": "count",
    "engine.direct.busy_s": "s",
    "engine.multi.busy_s": "s",
    "engine.session.busy_s": "s",
    "engine.session.start_us": "us",
    "xmlio.serialize.busy_s": "s",
    "xmlio.serialize.bytes": "bytes",
    "analysis.compile.busy_s": "s",
    "serve.engine_ms.p50": "ms",
    "serve.overhead_ms.p50": "ms",
    "serve.gen_late_ms": "ms",
    "serve.latency_ms.p50.light": "ms",
    "serve.latency_ms.p90.light": "ms",
    "serve.latency_ms.p50.heavy": "ms",
    "serve.latency_ms.p90.heavy": "ms",
    "serve.backlog.light.start": "count",
    "serve.backlog.light.end": "count",
    "serve.backlog.heavy.start": "count",
    "serve.backlog.heavy.end": "count",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
}

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    run_spans: list[dict[str, Any]],
    *,
    rounds: int,
    last_round: list[Pass],
    compile_span: dict[str, Any],
    compiled_queries: int,
    plain_wall: float,
    serve: dict[str, float] | None = None,
) -> dict[str, tuple[float | None, str]]:
    """Per-round means of the traced spans, plus counters of one round."""
    ns: dict[str, float] = {layer: 0.0 for layer in SELF_LAYERS}
    calls: dict[str, float] = {layer: 0.0 for layer in SELF_LAYERS}
    wall_ns = 0.0
    for span in run_spans:
        wall_ns += span["wall_ns"]
        for layer, (spent, count) in span["layers"].items():
            ns[layer] = ns.get(layer, 0.0) + spent
            calls[layer] = calls.get(layer, 0.0) + count
    per_round = {layer: value / rounds / 1e9 for layer, value in ns.items()}
    count = {layer: value / rounds for layer, value in calls.items()}
    wall = wall_ns / rounds / 1e9

    stats = [r.stats for op in last_round for r in op.results.values()]
    total = {
        name: float(sum(getattr(s, name, 0) for s in stats))
        for name in (
            "nodes_created", "nodes_recycled", "hwm_nodes", "roles_assigned",
            "signoffs_executed", "gc_invocations", "tokens_held_before_emit",
            "early_flushes", "join_probes", "join_probe_hits", "acc_updates",
        )
    }
    outputs = [r.output for op in last_round for r in op.results.values()]
    hits, misses, states = tracer.matcher_counts()
    dispatched = read = queries = 0
    for run in tracer.multi_runs:
        run_stats = run.stats
        dispatched += run_stats.dispatched_tokens
        read += run_stats.tokens_read
        queries = run_stats.query_count
    lexer_tokens = count.get("xmlio.lexer", 0.0)
    lane_calls = count.get("stream.lane", 0.0)
    session_calls = count.get("engine.session", 0.0)
    compile_ns, _ = compile_span["layers"].get("analysis.compile", (0, 0))
    metrics: dict[str, float] = {
        "xmlio.lexer.busy_s": per_round["xmlio.lexer"],
        "xmlio.lexer.tokens": lexer_tokens,
        "xmlio.lexer.ns_per_token": _ratio(
            per_round["xmlio.lexer"] * 1e9, lexer_tokens
        ),
        "stream.lane.busy_s": per_round["stream.lane"],
        "stream.lane.calls": lane_calls,
        "stream.lane.ns_per_token": _ratio(per_round["stream.lane"] * 1e9, lane_calls),
        "stream.lane.buffered_share": _ratio(total["nodes_created"], lane_calls),
        "stream.pump.busy_s": per_round["stream.pump"] + per_round["stream.shared"],
        "stream.matcher.table_hit_rate": _ratio(hits, hits + misses),
        "stream.matcher.states": float(states),
        "stream.shared.busy_s": per_round["stream.shared"],
        "stream.shared.route_share": _ratio(dispatched, read * queries),
        "buffer.nodes_created": total["nodes_created"],
        "buffer.recycle_rate": _ratio(total["nodes_recycled"], total["nodes_created"]),
        "buffer.hwm_nodes": total["hwm_nodes"],
        "buffer.roles_assigned": total["roles_assigned"],
        "buffer.signoffs_executed": total["signoffs_executed"],
        "buffer.gc_invocations": total["gc_invocations"],
        "buffer.tokens_held_before_emit": total["tokens_held_before_emit"],
        "buffer.early_flushes": total["early_flushes"],
        "engine.evaluator.busy_s": per_round["engine.evaluator"],
        "engine.evaluator.output_tokens": count.get("xmlio.serialize", 0.0),
        "engine.relops.join_probes": total["join_probes"],
        "engine.relops.join_hit_rate": _ratio(
            total["join_probe_hits"], total["join_probes"]
        ),
        "engine.relops.acc_updates": total["acc_updates"],
        "engine.direct.busy_s": per_round["engine.direct"],
        "engine.multi.busy_s": per_round["engine.multi"],
        "engine.session.busy_s": per_round["engine.session"],
        "engine.session.start_us": _ratio(
            per_round["engine.session"] * 1e6, session_calls
        ),
        "xmlio.serialize.busy_s": per_round["xmlio.serialize"],
        "xmlio.serialize.bytes": float(sum(len(o.encode("utf-8")) for o in outputs)),
        "analysis.compile.busy_s": _ratio(compile_ns / 1e9, compiled_queries),
        "trace.overhead": _ratio(wall, plain_wall),
        "trace.wall_s": wall,
        "trace.residual_s": wall - sum(per_round.values()),
    }
    for name in PER_LAYER_UNITS:
        if name.startswith("serve."):
            metrics[name] = (serve or {}).get(name, 0.0)
    # A layer whose boundary no longer exists reports null, not a number.
    result: dict[str, tuple[float | None, str]] = {}
    for name, unit in PER_LAYER_UNITS.items():
        layer = ".".join(name.split(".")[:2])
        result[name] = (None if layer in tracer.missing else metrics[name], unit)
    return result


# ----------------------------------------------------------------------
# serve: open loop against a gcx serve subprocess
# ----------------------------------------------------------------------


@dataclass
class ServePlan:
    """Documents, reference digests and the seeded request stream."""

    queries: dict[str, str]
    documents: list[str]
    expected: list[dict[str, str]]
    phases: list[tuple[str, float, list[serveload.Request]]]

    def requests(self) -> list[serveload.Request]:
        return [request for _name, _rate, batch in self.phases for request in batch]


def serve_plan(
    seed: int,
    seconds: float,
    size: str,
    rates: dict[str, float] = SERVE_RATES,
    shares: dict[str, float] = SERVE_SHARES,
) -> ServePlan:
    queries = oracle.query_texts(oracle.SERVE)
    documents = oracle.documents("serve", seed, size)
    expected = [oracle.reference_digests(queries, doc) for doc in documents]
    # The seed picks the documents' content.  The request order is one
    # fixed shuffle shared by every seed, so that every seed offers the
    # same arrival pattern of aliases and document sizes: with a seeded
    # order, which requests happen to overlap on the server moved the
    # latency percentiles by 15-20 % from seed to seed.  Whole decks of
    # every (alias, document) pair keep the mix balanced.
    order = random.Random(0)
    pairs = [(alias, doc) for alias in oracle.SERVE for doc in range(len(documents))]
    deck: list[tuple[str, int]] = []
    phases = []
    index = 0
    for name, rate in rates.items():
        batch = []
        for _ in range(max(1, round(rate * seconds * shares[name]))):
            if not deck:
                deck = list(pairs)
                order.shuffle(deck)
            alias, doc = deck.pop()
            batch.append(
                serveload.Request(
                    index, name, alias, doc,
                    serveload.eval_frame(alias, documents[doc]),
                )
            )
            index += 1
        phases.append((name, rate, batch))
    return ServePlan(queries, documents, expected, phases)


def xmark_dtd() -> str:
    from repro.xmark.schema import xmark_schema

    return xmark_schema().to_dtd()


def serve_load(
    plan: ServePlan, outcome: Outcome, clock: HostClock
) -> tuple[float, float, dict[str, serveload.PhaseMarks]]:
    """Start the server (median of several starts), warm it, run the load.

    Returns the host-scaled set-up seconds, the factor that scales the
    load's wall times to the reference host, and the phase marks.
    """
    dtd = xmark_dtd()
    setups: list[float] = []
    server: serveload.Server | None = None
    connections: list[serveload.Connection] = []
    try:
        for attempt in range(SERVE_SETUP_REPEATS):
            before = clock.sample()
            server, connections, seconds = serveload.start(
                plan.queries, dtd, oracle.SERVE_SCHEMA_QUERIES
            )
            setups.append(clock.reference(seconds, before, clock.sample()))
            if attempt + 1 < SERVE_SETUP_REPEATS:
                for connection in connections:
                    connection.close()
                server.stop()
        # Warm each alias on each connection once, untimed and unchecked
        # against the schedule: the first pass fills the lazy matchers.
        for connection in connections:
            for alias in plan.queries:
                serveload.evaluate(connection, alias, plan.documents[0])
        sampler = LoadSampler()
        try:
            marks = serveload.run_open_loop(connections, plan.phases)
            scale = sampler.scale()
        finally:
            sampler.close()
    finally:
        for connection in connections:
            connection.close()
        if server is not None:
            server.stop()
    for request in plan.requests():
        ok = request.error is None and (
            oracle.digest("".join(request.fragments))
            == plan.expected[request.doc][request.alias]
        )
        outcome.check(
            ok, f"request {request.index} ({request.alias}): {request.error}"
        )
    return statistics.median(setups), scale, marks


def serve_metrics(
    plan: ServePlan, marks: dict[str, serveload.PhaseMarks], outcome: Outcome
) -> dict[str, float]:
    """Client-side figures of the load phases, keyed by metric name."""
    requests = plan.requests()
    late = [((r.sent or r.due) - r.due) * 1e3 for r in requests]
    served = [r for r in requests if r.latency_ms is not None]
    figures: dict[str, float] = {"serve.gen_late_ms": max(late)}
    if max(late) > GEN_LATE_LIMIT_MS:
        outcome.valid = False
        outcome.notes.append(
            f"invalid: the load generator sent {max(late):.1f} ms late"
        )
    for name, _rate, _batch in plan.phases:
        phase = [r.latency_ms for r in served if r.phase == name]
        if phase:
            p50, p90 = quantiles(phase)
            figures[f"serve.latency_ms.p50.{name}"] = p50
            figures[f"serve.latency_ms.p90.{name}"] = p90
        figures[f"serve.backlog.{name}.start"] = float(marks[name].backlog_start)
        figures[f"serve.backlog.{name}.end"] = float(marks[name].backlog_end)
    if served:
        figures["serve.engine_ms.p50"] = statistics.median(
            r.engine_ms for r in served
        )
        figures["serve.overhead_ms.p50"] = statistics.median(
            r.latency_ms - r.engine_ms for r in served
        )
    return figures


def serve_untraced(seed: int, seconds: float, size: str) -> Outcome:
    outcome = Outcome()
    plan = serve_plan(seed, seconds, size)
    clock = HostClock()
    setup_s, scale, marks = serve_load(plan, outcome, clock)
    figures = serve_metrics(plan, marks, outcome)
    served = [r for r in plan.requests() if r.latency_ms is not None]
    if not served:
        return outcome
    span = max(r.done for r in served) - min(r.due for r in plan.requests())
    megabytes = sum(len(plan.documents[r.doc].encode("utf-8")) for r in served) / 1e6
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "mb_per_s": (megabytes / span, "MB/s"),
        # Mean over requests: a max over a few dozen small documents
        # follows whichever one holds the longest item, seed by seed.
        "hwm_bytes": (statistics.mean(r.hwm_bytes or 0 for r in served), "bytes"),
        # The servers are this process's only children.
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        # The heavy phase (see SERVE_SHARES); the traced run reports both
        # phases' p50 and p90.
        "latency_ms.p50": (figures["serve.latency_ms.p50.heavy"] * scale, "ms"),
    }
    outcome.notes.append(
        f"{len(served)}/{len(plan.requests())} requests served; rates "
        + ", ".join(f"{k} {v:g}/s" for k, v in SERVE_RATES.items())
        + f"; generator at most {figures['serve.gen_late_ms']:.2f} ms late"
        + f"; host speed {1 / scale:.3f} x reference"
    )
    for name in SERVE_RATES:
        outcome.notes.append(
            f"{name}: latency p50 {figures[f'serve.latency_ms.p50.{name}']:.1f} ms"
            f", p90 {figures[f'serve.latency_ms.p90.{name}']:.1f} ms; backlog "
            f"{figures[f'serve.backlog.{name}.start']:.0f} at start, "
            f"{figures[f'serve.backlog.{name}.end']:.0f} at end"
        )
    return outcome


def serve_traced(seed: int, seconds: float, size: str) -> Outcome:
    """Load phases for the serve.* figures, then an in-process replay.

    The replay runs the same request stream through one
    ``SessionPool.run`` per alias on this thread, alternating untraced and
    traced rounds, to split the engine's time by layer.
    """
    from repro.engine.pool import SessionPool
    from repro.xmark.schema import xmark_schema

    outcome = Outcome()
    plan = serve_plan(seed, seconds / 2, size)
    _setup, _scale, marks = serve_load(plan, outcome, HostClock())
    figures = serve_metrics(plan, marks, outcome)

    tracer = Tracer()
    pools: dict[str, Any] = {}
    tracer.install()
    try:
        for alias, text in plan.queries.items():
            schema = xmark_schema() if alias in oracle.SERVE_SCHEMA_QUERIES else None
            pools[alias] = SessionPool(text, schema=schema, max_workers=2)
        compile_span = tracer.end_run("setup", 0)
    finally:
        tracer.uninstall()
    try:
        layers = {}
        for alias, pool in pools.items():
            constraints = getattr(pool.compiled, "constraints", None)
            direct = getattr(constraints, "zero_buffer", None) is not None
            layers[alias] = "engine.direct" if direct else "engine.evaluator"
        payloads = [doc.encode("utf-8") for doc in plan.documents]
        tokenize = resolve("repro.xmlio.lexer:tokenize")
        requests = plan.requests()

        def replay(traced: bool) -> list[Pass]:
            passes = []
            for request in requests:
                document: Any = payloads[request.doc]
                if traced:
                    tracer.begin_run(layers[request.alias])
                    if tokenize is None:
                        tracer.missing.add("xmlio.lexer")
                    else:
                        document = tracer.tokens(tokenize[2](document))
                started = time.perf_counter_ns()
                try:
                    result = pools[request.alias].run(document)
                except Exception as error:
                    outcome.check(False, f"replay {request.index}: {error}")
                    continue
                elapsed = time.perf_counter_ns() - started
                if traced:
                    tracer.end_run(f"serve:{request.alias}", elapsed)
                outcome.check(
                    oracle.digest(result.output)
                    == plan.expected[request.doc][request.alias],
                    f"replay {request.index} ({request.alias})",
                )
                passes.append(
                    Pass(request.alias, elapsed / 1e9, elapsed / 1e9,
                         {request.alias: result})
                )
            return passes

        for alias, pool in pools.items():  # warm, as the server was
            pool.run(payloads[0])
        plain_walls: list[float] = []
        traced_rounds: list[list[Pass]] = []
        deadline = time.perf_counter() + seconds / 2
        while not traced_rounds or time.perf_counter() < deadline:
            gc.collect()
            plain = replay(False)
            plain_walls.append(sum(op.seconds for op in plain))
            tracer.reset_observations()
            gc.collect()
            tracer.install()
            try:
                traced_rounds.append(replay(True))
            finally:
                tracer.uninstall()
    finally:
        for pool in pools.values():
            pool.close()
    outcome.spans = tracer.spans
    outcome.metrics = layer_metrics(
        tracer,
        [span for span in tracer.spans if span["run"] != "setup"],
        rounds=len(traced_rounds),
        last_round=traced_rounds[-1],
        compile_span=compile_span,
        compiled_queries=len(pools),
        plain_wall=statistics.median(plain_walls),
        serve=figures,
    )
    return outcome


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    if workload == "serve":
        return (serve_traced if trace else serve_untraced)(seed, seconds, size)
    return (batch_traced if trace else batch_untraced)(workload, seed, seconds, size)
