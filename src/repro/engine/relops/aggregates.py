"""O(1) aggregate accumulators for ``count``/``sum``/``avg``.

A naive reading of Definition 2 would give ``count($x/path)`` a
``path/dos::node()`` dependency and buffer every matched subtree until the
aggregate is evaluated.  The accumulator replaces that buffering with a
constant-size state per binding of ``$x``: the projection lane feeds every
open/text/close token through a small path automaton, and by the time the
binding's subtree is finished the state holds the aggregate outright.

The automaton runs per lane and per *group* — a distinct ``(var, path)``
navigated by some aggregate call.  It mirrors the evaluator's witness
semantics exactly (``_iter_path`` counts path *matches*, so a node
reachable two ways counts twice):

* A *frame* is created whenever a binding of ``var`` opens (the anchor).
  Its aggregate state ``[count, total, numeric_n]`` lives on the anchor's
  :class:`~repro.buffer.node.BufferNode` (the ``acc`` dict), where the
  evaluator reads it after the subtree is finished.
* Each open element extends every live frame with a vector ``cnt[0..k]``
  / ``cum[0..k]``: ``cnt[i]`` is the number of ways this element matches
  the path prefix of length ``i`` (``cnt[0] = 1`` only at the anchor
  itself), ``cum[i]`` accumulates ``cnt[i]`` over the element's ancestor
  chain.  Child steps read the parent's ``cnt``, descendant steps the
  parent's ``cum``.  A frame whose vector can no longer contribute is
  dropped, so the per-depth work is bounded by the number of live frames.
* A terminal element match credits ``cnt[k]`` to the count and — for
  ``sum``/``avg`` — opens a *capture* that collects the subtree's text
  (its string value) until the element closes.  A terminal ``text()``
  match credits the text node directly.

Non-numeric values are ignored by ``sum``/``avg`` (tracked by
``numeric_n``), matching the evaluator's comparison semantics of trying
``float()`` first.

Paths carrying positional predicates (``[1]``/``[last()]``) fall outside
the automaton; :func:`accumulable` rejects them and the analysis keeps a
real buffered dependency instead (see ``repro.analysis.dependencies``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffer.buffer import BufferTree
from repro.buffer.node import BufferNode
from repro.xquery.ast import ROOT_VAR, Aggregate, Query, walk
from repro.xquery.paths import Axis, Path

__all__ = [
    "AccSite",
    "AccumulatorRuntime",
    "accumulable",
    "collect_aggregate_sites",
    "format_number",
]


@dataclass(frozen=True, slots=True)
class AccSite:
    """One accumulator group: a distinct ``(var, path)`` some aggregate
    navigates.  ``needs_values`` is true when any call on this path is
    ``sum``/``avg`` (text must be captured, not just counted)."""

    var: str
    path: Path
    needs_values: bool


def accumulable(path: Path) -> bool:
    """Can ``path`` be served by the accumulator automaton?"""
    return not any(step.first or step.last for step in path)


def collect_aggregate_sites(query: Query) -> list[AccSite]:
    """The deduplicated accumulator groups of a (rewritten) query."""
    needs: dict[tuple[str, Path], bool] = {}
    for expr in walk(query.root):
        if isinstance(expr, Aggregate) and accumulable(expr.path):
            key = (expr.var, expr.path)
            needs[key] = needs.get(key, False) or expr.func in ("sum", "avg")
    return [
        AccSite(var=var, path=path, needs_values=nv)
        for (var, path), nv in needs.items()
    ]


def format_number(value: float) -> str:
    """Render an aggregate value (whole numbers without the ``.0``)."""
    if value != value or value in (float("inf"), float("-inf")):
        return repr(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Frame:
    """One (group, anchor) vector at one stack entry."""

    __slots__ = ("gi", "state", "cnt", "cum")

    def __init__(self, gi: int, state: list, cnt: list, cum: list) -> None:
        self.gi = gi
        self.state = state
        self.cnt = cnt
        self.cum = cum


class AccumulatorRuntime:
    """The per-lane accumulator automaton.

    The projection lane calls :meth:`on_open` / :meth:`on_text` /
    :meth:`on_close` for every token it observes (the compile-time acc
    chains guarantee the matcher keeps relevant subtrees alive, see
    ``repro.analysis.projection_tree.attach_aggregate_chains``).
    """

    __slots__ = ("_groups", "_var_groups", "_stack", "_captures", "_stats")

    def __init__(self, sites: list[AccSite], buffer: BufferTree) -> None:
        self._groups = list(sites)
        self._var_groups: dict[str, list[int]] = {}
        for gi, group in enumerate(self._groups):
            self._var_groups.setdefault(group.var, []).append(gi)
        self._stats = buffer.stats
        self._captures: list[list] = []  # [depth, state, m, parts]
        base: list[_Frame] = []
        # $root frames exist from the start; their anchor is the document
        # node, which matches only the empty prefix (it is not an element).
        for gi in self._var_groups.get(ROOT_VAR, ()):
            group = self._groups[gi]
            k = len(group.path)
            cnt = [0] * (k + 1)
            cum = [0] * (k + 1)
            cnt[0] = cum[0] = 1
            base.append(_Frame(gi, self._state_of(buffer.document, group), cnt, cum))
        self._stack: list[list[_Frame]] = [base]

    # -- state bootstrap -------------------------------------------------

    def _state_of(self, anchor: BufferNode, group: AccSite) -> list:
        acc = anchor.acc
        if acc is None:
            acc = anchor.acc = {}
        key = (group.var, group.path)
        state = acc.get(key)
        if state is None:
            state = acc[key] = [0, 0.0, 0]  # count, total, numeric_n
        return state

    # -- token hooks -----------------------------------------------------

    def on_open(self, tag: str, matches, buffer_node: BufferNode | None) -> None:
        parent = self._stack[-1]
        entry: list[_Frame] = []
        depth = len(self._stack) + 1
        credits = 0
        for frame in parent:
            group = self._groups[frame.gi]
            credits += self._extend(
                entry, group, frame.gi, frame.state, frame.cnt, frame.cum, 0,
                tag, depth,
            )
        # Seed frames for bindings opening at this element.
        if matches and buffer_node is not None:
            for pt_node in matches:
                var = pt_node.var
                if var is None:
                    continue
                for gi in self._var_groups.get(var, ()):
                    group = self._groups[gi]
                    k = len(group.path)
                    zeros = [0] * (k + 1)
                    credits += self._extend(
                        entry, group, gi, self._state_of(buffer_node, group),
                        zeros, zeros, 1, tag, depth,
                    )
        self._stack.append(entry)
        if credits:
            self._stats.acc_updates += credits

    def _extend(
        self,
        entry: list[_Frame],
        group: AccSite,
        gi: int,
        state: list,
        pcnt: list,
        pcum: list,
        cnt0: int,
        tag: str,
        depth: int,
    ) -> int:
        """Advance one frame through an opening element; returns credits."""
        path = group.path
        k = len(path)
        ncnt = [0] * (k + 1)
        ncum = [0] * (k + 1)
        ncnt[0] = cnt0
        ncum[0] = pcum[0] + cnt0
        for i in range(1, k + 1):
            step = path[i - 1]
            if step.axis is Axis.CHILD:
                base = pcnt[i - 1]
            elif step.axis is Axis.DESCENDANT:
                base = pcum[i - 1]
            else:  # DOS: a self-or-descendant of any prefix match so far
                base = ncum[i - 1]
            if base and step.test.matches_element(tag):
                ncnt[i] = base
            ncum[i] = pcum[i] + ncnt[i]
        m = ncnt[k]
        if m:
            state[0] += m
            if group.needs_values:
                self._captures.append([depth, state, m, []])
        if self._viable(path, ncnt, ncum):
            entry.append(_Frame(gi, state, ncnt, ncum))
        return m

    @staticmethod
    def _viable(path: Path, cnt: list, cum: list) -> bool:
        """Can this vector still produce matches deeper in the document?"""
        for i, step in enumerate(path):
            if step.axis is Axis.CHILD:
                if cnt[i]:
                    return True
            elif cum[i]:
                return True
        return False

    def on_text(self, token) -> None:
        """``token`` is a ``str`` or a :class:`~repro.xmlio.tokens.Text`;
        its content is materialized (decoded) only when some frame needs
        the value or a capture is open."""
        content: str | None = None
        credits = 0
        for frame in self._stack[-1]:
            group = self._groups[frame.gi]
            step = group.path[-1]
            if not step.test.matches_text():
                continue
            k = len(group.path)
            base = frame.cnt[k - 1] if step.axis is Axis.CHILD else frame.cum[k - 1]
            if not base:
                continue
            credits += base
            frame.state[0] += base
            if group.needs_values:
                if content is None:
                    content = token if isinstance(token, str) else token.content
                try:
                    value = float(content)
                except ValueError:
                    pass
                else:
                    frame.state[1] += base * value
                    frame.state[2] += base
        if self._captures:
            if content is None:
                content = token if isinstance(token, str) else token.content
            for capture in self._captures:
                capture[3].append(content)
        if credits:
            self._stats.acc_updates += credits

    def live(self) -> bool:
        """Can a token below the element opened last change some state?

        True while a frame is still viable there or a capture is open.
        The projection lane consults this before withholding a subtree.
        """
        return bool(self._stack[-1]) or bool(self._captures)

    def on_close(self) -> None:
        depth = len(self._stack)
        captures = self._captures
        while captures and captures[-1][0] == depth:
            _depth, state, m, parts = captures.pop()
            try:
                value = float("".join(parts))
            except ValueError:
                continue
            state[1] += m * value
            state[2] += m
        self._stack.pop()
