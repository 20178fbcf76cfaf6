"""Outside-in layer tracing: timing wrappers installed on public boundaries.

The benchmark never edits the engine.  A traced run instead replaces, for
its duration, the methods at each layer boundary with wrappers that charge
``perf_counter_ns`` to the layer, and restores the originals afterwards.
Self time is kept on a stack: a wrapper adds its duration to its own layer
and subtracts it from the enclosing span, so every nanosecond lands in
exactly one layer and the per-layer self times plus a residual add up to
the traced wall time.

Boundaries are named by dotted path (``module:Class.attr``).  A target that
no longer exists -- the code was deleted or renamed -- is not an error: the
layer is reported as missing, its metrics come out as ``null``, and a
warning goes to stderr.

The trace keeps one span per (run, layer): accumulated nanoseconds and a
call count.  Per-token records would be millions of entries.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Iterator

#: Label of the run-iterator boundary; the benchmark says per run which
#: layer owns it (the generic evaluator or the schema-certified direct one).
RUN = "<run>"

#: Timed boundaries: (layer, dotted target).  Several targets may share a
#: layer.  ``stream.shared`` is the shared pump's own dispatch time; the
#: reported ``stream.pump.busy_s`` adds it to the single-query pump.
TIMED_HOOKS: tuple[tuple[str, str], ...] = (
    ("engine.session", "repro.engine.session:QuerySession.run_streaming"),
    ("engine.session", "repro.engine.pool:SessionPool.run_streaming"),
    ("engine.session", "repro.engine.multi:MultiQuerySession.run_streaming"),
    (RUN, "repro.engine.session:StreamingRun.__next__"),
    ("engine.multi", "repro.engine.multi:MultiStreamingRun.__next__"),
    ("stream.pump", "repro.stream.preprojector:StreamPreprojector.pull"),
    ("stream.shared", "repro.stream.shared:SharedPreprojector.pull"),
    ("stream.lane", "repro.stream.preprojector:ProjectionLane.open"),
    ("stream.lane", "repro.stream.preprojector:ProjectionLane.close"),
    ("stream.lane", "repro.stream.preprojector:ProjectionLane.text"),
    ("xmlio.serialize", "repro.xmlio.serialize:StringSink.write"),
)

#: Module-level functions timed wherever a ``repro`` module imported them.
FUNCTION_HOOKS: tuple[tuple[str, str], ...] = (
    ("analysis.compile", "repro.analysis.compile:compile_query"),
)

#: Where lane matchers are observed (the matcher's counters are public).
LANE_INIT = "repro.stream.preprojector:ProjectionLane.__init__"
#: Where the multi-query pass object is observed (its ``stats`` property).
MULTI_RUN = "repro.engine.multi:MultiQuerySession.run_streaming"

#: Layers whose self times partition a traced run's wall time.
SELF_LAYERS = (
    "engine.session",
    "engine.evaluator",
    "engine.direct",
    "engine.multi",
    "stream.pump",
    "stream.shared",
    "stream.lane",
    "xmlio.lexer",
    "xmlio.serialize",
)


def resolve(target: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, original)`` for a dotted target, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # Look in the class dict, not through getattr: a property or an
    # inherited method must be restored exactly as it was found.
    namespace = vars(owner)
    if attribute not in namespace:
        return None
    return owner, attribute, namespace[attribute]


class Tracer:
    """Per-(run, layer) accumulators behind installable timing wrappers."""

    def __init__(self) -> None:
        self.missing: set[str] = set()
        self._installed: list[tuple[Any, str, Any]] = []
        # Child-time accumulators of the open spans; the bottom entry
        # absorbs top-level spans, so wrappers never test for emptiness.
        self._stack: list[int] = [0]
        #: Layer charged for the run-iterator boundary of the current run.
        self.run_layer = "engine.evaluator"
        # [ns, calls] per layer, zeroed in place between runs: wrappers
        # hold their layer's list and update it without a lookup.
        self._layers: dict[str, list[int]] = {
            layer: [0, 0] for layer in (*SELF_LAYERS, "analysis.compile")
        }
        #: Finished spans: one dict per run, layer -> [ns, calls].
        self.spans: list[dict[str, Any]] = []
        self.matchers: dict[int, tuple[Any, int, int]] = {}
        self.multi_runs: list[Any] = []
        self._warned: set[str] = set()

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        """Swap every reachable boundary for its timing wrapper."""
        if self._installed:
            return
        for layer, target in TIMED_HOOKS:
            found = self._resolve(target, layer)
            if found is not None:
                owner, attribute, original = found
                self._swap(owner, attribute, self._timed(layer, original))
        for layer, target in FUNCTION_HOOKS:
            found = self._resolve(target, layer)
            if found is None:
                continue
            _module, attribute, original = found
            wrapper = self._timed(layer, original)
            # Rebind every module that imported the function by name.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if (
                    name.startswith("repro")
                    and vars(module).get(attribute) is original
                ):
                    self._swap(module, attribute, wrapper)
        found = self._resolve(LANE_INIT, "stream.matcher")
        if found is not None:
            self._swap(found[0], found[1], self._lane_observer(found[2]))
        found = self._resolve(MULTI_RUN, "stream.shared")
        if found is not None:
            # The timed wrapper may already sit there; observe around it.
            owner, attribute, _ = found
            current = vars(owner)[attribute]
            self._swap(owner, attribute, self._multi_observer(current))

    def uninstall(self) -> None:
        """Restore every original, in reverse order of installation."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _resolve(self, target: str, layer: str) -> tuple[Any, str, Any] | None:
        found = resolve(target)
        if found is None:
            if layer == RUN:
                self.missing.update(("engine.evaluator", "engine.direct"))
            self.missing.add(layer)
            if target not in self._warned:
                self._warned.add(target)
                print(
                    f"perfbench: trace boundary {target} not found; "
                    f"layer {layer} reported as null",
                    file=sys.stderr,
                )
        return found

    def _swap(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._installed.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    # -- wrappers --------------------------------------------------------

    def _timed(self, layer: str, original: Callable) -> Callable:
        stack = self._stack
        layers = self._layers
        clock = time.perf_counter_ns
        tracer = self

        if layer == RUN:  # the layer is decided per run

            def run_wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                stack.append(0)
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    span = layers[tracer.run_layer]
                    span[0] += elapsed - stack.pop()
                    span[1] += 1
                    stack[-1] += elapsed

            return run_wrapper
        span = layers[layer]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append(0)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span[0] += elapsed - stack.pop()
                span[1] += 1
                stack[-1] += elapsed

        return wrapper

    def tokens(self, iterator: Iterator) -> Iterator:
        """Time ``next()`` on the token iterator handed to the engine."""
        stack = self._stack
        span = self._layers["xmlio.lexer"]
        clock = time.perf_counter_ns
        step = iterator.__next__

        def timed() -> Iterator:
            while True:
                start = clock()
                try:
                    token = step()
                except StopIteration:
                    token = None
                elapsed = clock() - start
                span[0] += elapsed
                stack[-1] += elapsed
                if token is None:
                    return
                span[1] += 1
                yield token

        # The generator frame itself runs inside the caller's span, so the
        # resumption overhead stays with the pump that pulled the token.
        return timed()

    def _lane_observer(self, original: Callable) -> Callable:
        matchers = self.matchers

        def wrapper(lane: Any, *args: Any, **kwargs: Any) -> None:
            original(lane, *args, **kwargs)
            matcher = getattr(lane, "matcher", None)
            if matcher is not None and id(matcher) not in matchers:
                matchers[id(matcher)] = (
                    matcher,
                    matcher.table_hits,
                    matcher.table_misses,
                )

        return wrapper

    def _multi_observer(self, original: Callable) -> Callable:
        runs = self.multi_runs

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            run = original(*args, **kwargs)
            runs.append(run)
            return run

        return wrapper

    # -- spans -----------------------------------------------------------

    def begin_run(self, run_layer: str) -> None:
        self.run_layer = run_layer
        self._zero()

    def end_run(self, label: str, wall_ns: int) -> dict[str, Any]:
        span = {
            "run": label,
            "wall_ns": wall_ns,
            "layers": {
                layer: list(v) for layer, v in self._layers.items() if v[1]
            },
        }
        self.spans.append(span)
        self._zero()
        return span

    def _zero(self) -> None:
        for span in self._layers.values():
            span[0] = span[1] = 0
        self._stack[:] = [0]

    def matcher_counts(self) -> tuple[int, int, int]:
        """(hits, misses, states) accrued by matchers seen since reset."""
        hits = misses = states = 0
        for matcher, hits0, misses0 in self.matchers.values():
            hits += matcher.table_hits - hits0
            misses += matcher.table_misses - misses0
            states += matcher.state_count
        return hits, misses, states

    def reset_observations(self) -> None:
        self.matchers.clear()
        self.multi_runs.clear()
