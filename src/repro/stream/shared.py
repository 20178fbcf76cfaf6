"""The token pump: one token pass feeding N query lanes.

:class:`SharedPreprojector` pumps one tokenizer into N
:class:`~repro.stream.preprojector.ProjectionLane` objects — the runtime
half of the multi-query engine (:mod:`repro.engine.multi`) and, with one
lane, of every single-query run
(:class:`~repro.stream.preprojector.StreamPreprojector` wires its lane
behind a one-lane dispatcher and has no dispatch code of its own).  The
document is tokenized exactly once (``tokens_read`` counts the single
scan, the invariant the benchmark gate asserts); each surviving token is
routed to the subset of lanes that still care about it.

Routing maintains the *live bitmask* the union projection tree
(:mod:`repro.analysis.union_tree`) describes statically, as three
disjoint lane sets:

* **active** lanes receive every token;
* **parked** lanes declared the current subtree dead
  (:meth:`ProjectionLane.subtree_dead`: the element was not preserved and
  its frame carries no matches — nothing below can ever concern the
  query).  A parked lane is withheld the whole subtree except the closing
  tag of the element it parked at, which pops its stack and reactivates
  it.  Parks are subtree-shaped, so the park registry is a stack whose
  depths strictly increase;
* **retired** lanes finished their evaluation — every signOff executed —
  and receive nothing further, not even stream-end bookkeeping, because
  their buffers have already been released to their owners.

This is the merged-signoff release rule in dynamic form: a document
region stops being scanned on behalf of a query exactly when that query
has either proven the region irrelevant (park) or signed off everything
it held (retire); the region leaves the *shared* pass when every
interested query has done one or the other.

Dead-subtree skip
-----------------
When no lane is active — after every park of a one-lane pump — the next
:meth:`~SharedPreprojector.pull` reads the withheld tokens in one tight
loop that only counts depth on ``token.__class__``: no matcher, lane,
accumulator or text-decode work.  It stops at the closing tag that
reactivates the top park and dispatches that tag as usual.  The skip runs
on the pull *after* the park, never on the parking pull, so every buffer
state an evaluator observes between pulls also occurs in the
token-at-a-time stream, and outputs and emission points are unchanged.

Positions
---------
A lane's ``buffer.stats.tokens_routed`` counts the tokens dispatched to
it, so ``RunResult.stats.tokens_routed`` reports each query's routed
share of the single scan.  Its ``buffer.stats.tokens_read`` is a stream
*position*: the number of shared-stream tokens read up to the last one
the lane saw.  Withheld tokens still count — the pump brings a lane's
position up to date when it reactivates the lane and at stream end, and
:meth:`SharedPreprojector.catch_up` does so for a parked lane whose
evaluator is about to run — so buffer birth stamps,
``tokens_held_before_emit`` and ``StreamingRun.tokens_consumed`` read the
same numbers as if every token had been dispatched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.xmlio.tokens import EndTag, StartTag, Text, Token

if TYPE_CHECKING:
    from repro.stream.preprojector import ProjectionLane

__all__ = ["LaneView", "SharedPreprojector"]


class SharedPreprojector:
    """One tokenizer scan dispatched to N projection lanes."""

    def __init__(self, tokens: Iterator[Token], lanes: list[ProjectionLane]) -> None:
        if not lanes:
            raise ValueError("SharedPreprojector needs at least one lane")
        self._tokens = tokens
        self.lanes = list(lanes)
        #: Tokens read from the shared stream — the single-scan count; the
        #: whole point of the subsystem is that this stays one document
        #: scan however many queries run.
        self.tokens_read = 0
        self.exhausted = False
        self._depth = 0
        self._active: list[int] = list(range(len(lanes)))
        # Stack of (depth, [lane indices]) parks; depths strictly increase,
        # so the closing tag at the top entry's depth is the reactivation
        # point for exactly those lanes.
        self._parked: list[tuple[int, list[int]]] = []
        self._retired: set[int] = set()

    # -- routing telemetry ----------------------------------------------

    @property
    def active_mask(self) -> int:
        """The live bitmask: queries currently receiving tokens."""
        mask = 0
        for index in self._active:
            mask |= 1 << index
        return mask

    @property
    def parked_count(self) -> int:
        return sum(len(indices) for _depth, indices in self._parked)

    # -- lane lifecycle --------------------------------------------------

    def retire(self, index: int) -> None:
        """Stop routing to lane ``index`` forever (its run completed).

        A retired lane's buffer belongs to its owner again (it may already
        be recycled into another run), so the dispatcher must never touch
        the lane after this — including the stream-end bookkeeping.
        """
        self._retired.add(index)
        try:
            self._active.remove(index)
        except ValueError:
            pass  # parked (or already retired): the park pop skips it

    def catch_up(self, index: int) -> None:
        """Advance lane ``index``'s position to the shared stream's.

        A parked lane has implicitly read every token withheld from it;
        its evaluator must see that position before it emits (an active
        lane is always up to date, so this is a no-op for it).
        """
        self.lanes[index].buffer.stats.tokens_read = self.tokens_read

    def view(self, index: int) -> "LaneView":
        """The per-query facade evaluators drive their demand through."""
        return LaneView(self, self.lanes[index])

    # -- the shared pump -------------------------------------------------

    def pull(self) -> bool:
        """Read one token from the shared stream and route it.

        When no lane is active, first read the withheld subtree up to the
        closing tag that reactivates the top park (see the module
        docstring), then route that tag.  Returns False when the input is
        exhausted, after marking every non-retired lane's stream finished.
        """
        if self.exhausted:
            return False
        if self._active or not self._parked:
            token = next(self._tokens, None)
        else:
            token = self._skip_withheld()
        if token is None:
            self.exhausted = True
            for index, lane in enumerate(self.lanes):
                if index not in self._retired:
                    self.catch_up(index)
                    lane.finish_stream()
            return False
        self.tokens_read += 1
        lanes = self.lanes
        active = self._active
        if isinstance(token, StartTag):
            self._depth += 1
            tag = token.tag
            newly_parked: list[int] | None = None
            for index in active:
                lane = lanes[index]
                lane.open(tag)
                if lane.subtree_dead():
                    if newly_parked is None:
                        newly_parked = []
                    newly_parked.append(index)
            if newly_parked is not None:
                for index in newly_parked:
                    active.remove(index)
                self._parked.append((self._depth, newly_parked))
        elif isinstance(token, EndTag):
            for index in active:
                lanes[index].close()
            if self._parked and self._parked[-1][0] == self._depth:
                _depth, indices = self._parked.pop()
                for index in indices:
                    if index not in self._retired:
                        # Pop the element the lane parked at; the subtree
                        # between open and close was withheld entirely,
                        # but its tokens still count towards the position.
                        lane = lanes[index]
                        lane.buffer.stats.tokens_read = self.tokens_read - 1
                        lane.close()
                        active.append(index)
            self._depth -= 1
        elif isinstance(token, Text):
            # Hand lanes the token, not ``token.content``: decoding a
            # LazyText here would charge every skipped subtree for a str
            # conversion its lanes never asked for.
            for index in active:
                lanes[index].text(token)
        return True

    def _skip_withheld(self) -> Token | None:
        """Read past every token no lane can see.

        Returns the closing tag that reactivates the top park (not yet
        counted or routed), or None when the input ends first.
        """
        depth = self._depth
        stop = self._parked[-1][0]
        skipped = 0
        for token in self._tokens:
            cls = token.__class__
            if cls is EndTag:
                if depth == stop:
                    break
                depth -= 1
            elif cls is StartTag:
                depth += 1
            skipped += 1
        else:
            token = None
        self.tokens_read += skipped
        self._depth = depth
        return token

    def run_to_completion(self) -> None:
        """Drain the shared stream (all lanes projected in one scan)."""
        while self.pull():
            pass


class LaneView:
    """One query's demand-driven view of the shared pass.

    Implements the slice of the preprojector interface the evaluator and
    the run machinery use — ``pull()`` and ``exhausted`` — so a per-query
    :class:`~repro.engine.evaluator.Evaluator` drives the *shared* pump
    without knowing other queries exist.  A pull advances the shared
    stream by one token, which is dispatched to every live lane: demand
    from any query fills all queries' buffers.
    """

    __slots__ = ("_shared", "_lane")

    def __init__(self, shared: SharedPreprojector, lane: ProjectionLane) -> None:
        self._shared = shared
        self._lane = lane

    @property
    def buffer(self):
        return self._lane.buffer

    @property
    def exhausted(self) -> bool:
        return self._lane.exhausted

    @property
    def depth(self) -> int:
        return self._lane.depth

    def pull(self) -> bool:
        return self._shared.pull()
