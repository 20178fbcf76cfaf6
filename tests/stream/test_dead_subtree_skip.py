"""The dead-subtree skip is invisible to everything but the clock.

When no lane is active, the token pump reads a withheld subtree in one
tight loop (docs/ARCHITECTURE.md).  Every run here is compared with a
reference in which :meth:`ProjectionLane.subtree_dead` always answers
``False`` — no lane ever parks, so every token is dispatched — and the
output, the high watermarks, ``tokens_read``, ``tokens_held_before_emit``
and the ``tokens_consumed`` position after every output token must match.

The malformed-input cases place the error inside a skipped subtree: the
message and byte offset must be the frozen reference lexer's, through
every document spelling.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.bench.baseline import benchmark_document
from repro.engine.multi import MultiQuerySession
from repro.engine.session import EngineOptions, QuerySession
from repro.stream.preprojector import ProjectionLane
from repro.stream.shared import SharedPreprojector
from repro.xmark import generate_xmark
from repro.xmark.queries import XMARK_QUERIES
from repro.xmlio import StringSink
from repro.xmlio._reference_lexer import reference_tokenize
from repro.xmlio.filelexer import tokenize_file
from repro.xmlio.lexer import XMLSyntaxError
from repro.xmlio.tokens import EndTag, StartTag, Text

QUERY_NAMES = sorted(XMARK_QUERIES)


def splice(document: str, tag: str, fragment: str) -> str:
    """Insert ``fragment`` right after the first ``<tag ...>`` opening tag."""
    at = document.index(f"<{tag}")
    end = document.index(">", at) + 1
    return document[:end] + fragment + document[end:]


def hostile(fragment: str) -> str:
    """A small XMark document with ``fragment`` in dead and live regions."""
    document = generate_xmark(0.001, seed=7)
    for tag in ("site", "person", "item", "closed_auction"):
        document = splice(document, tag, fragment)
    return document


HOSTILE_SHAPES = {
    "deep": "<deep>" * 200 + "<name>n</name>" + "</deep>" * 200,
    "wide": "<wide>" + "<w>t</w>" * 3000 + "</wide>",
    "huge-text": "<huge>" + "lorem ipsum " * 20_000 + "</huge>",
}


@pytest.fixture(scope="module")
def documents() -> dict[str, str]:
    shapes = {name: hostile(fragment) for name, fragment in HOSTILE_SHAPES.items()}
    return {"bench": benchmark_document(), **shapes}


def observe_single(query: str, document: str) -> tuple:
    run = QuerySession(query).run_streaming(document)
    sink = StringSink()
    consumed = []
    for token in run:
        sink.write(token)
        consumed.append(run.tokens_consumed)
    sink.close()
    stats = run.result.stats
    observed = (
        sink.getvalue(),
        stats.hwm_bytes,
        stats.hwm_nodes,
        stats.tokens_read,
        stats.tokens_held_before_emit,
        consumed,
    )
    return observed, stats.tokens_routed


def observe_multi(document: str) -> tuple[dict, dict]:
    session = MultiQuerySession(
        {name: XMARK_QUERIES[name].adapted for name in QUERY_NAMES}
    )
    stream = session.run_streaming(document)
    runs = dict(stream._runs)
    sinks = {name: StringSink() for name in QUERY_NAMES}
    consumed: dict[str, list[int]] = {name: [] for name in QUERY_NAMES}
    for name, token in stream:
        sinks[name].write(token)
        consumed[name].append(runs[name].tokens_consumed)
    observed = {}
    for name in QUERY_NAMES:
        sinks[name].close()
        stats = stream.results[name].stats
        observed[name] = (
            sinks[name].getvalue(),
            stats.hwm_bytes,
            stats.hwm_nodes,
            stats.tokens_read,
            stats.tokens_held_before_emit,
            consumed[name],
        )
    return observed, stream.stats.lane_tokens


@pytest.mark.parametrize("shape", ["bench", *HOSTILE_SHAPES])
class TestSkipIsInvisible:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_single_query(self, shape, name, documents, monkeypatch):
        query = XMARK_QUERIES[name].adapted
        document = documents[shape]
        skipped, routed = observe_single(query, document)
        monkeypatch.setattr(ProjectionLane, "subtree_dead", lambda self: False)
        reference, reference_routed = observe_single(query, document)
        assert skipped == reference
        # The comparison is not vacuous: the skip withheld tokens.
        assert routed < reference_routed == reference[3]

    def test_multi_query(self, shape, documents, monkeypatch):
        document = documents[shape]
        skipped, routed = observe_multi(document)
        monkeypatch.setattr(ProjectionLane, "subtree_dead", lambda self: False)
        reference, reference_routed = observe_multi(document)
        for name in QUERY_NAMES:
            assert skipped[name] == reference[name], name
            assert routed[name] < reference_routed[name], name


# ----------------------------------------------------------------------
# malformed input inside a skipped subtree
# ----------------------------------------------------------------------

#: /site/regions comes first in an XMark document and is dead for Q1.
Q1 = XMARK_QUERIES["Q1"].adapted


def _error_documents() -> dict[str, str]:
    document = generate_xmark(0.001, seed=7)
    first_close = document.index("</item>")
    assert first_close < document.index("<people>")
    return {
        "mismatched-close": (
            document[:first_close] + "</itme>" + document[first_close + 7 :]
        ),
        "eof-inside-skip": document[:first_close],
    }


ERROR_DOCUMENTS = _error_documents()


def reference_error(document: str) -> XMLSyntaxError:
    with pytest.raises(XMLSyntaxError) as caught:
        for _token in reference_tokenize(document):
            pass
    return caught.value


def _as_str(document: str, tmp_path: Path):
    return document


def _as_path(document: str, tmp_path: Path):
    path = tmp_path / "bad.xml"
    path.write_text(document, encoding="utf-8")
    return path


def _as_file_object(document: str, tmp_path: Path):
    return tokenize_file(io.BytesIO(document.encode("utf-8")), chunk_size=64)


SPELLINGS = {"str": _as_str, "path": _as_path, "file-object": _as_file_object}


class TestErrorsInsideTheSkip:
    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    @pytest.mark.parametrize("case", sorted(ERROR_DOCUMENTS))
    def test_same_error_and_offset_as_reference(
        self, case, spelling, tmp_path, monkeypatch
    ):
        document = ERROR_DOCUMENTS[case]
        skips = []
        skip = SharedPreprojector._skip_withheld

        def counting_skip(shared):
            skips.append(shared.tokens_read)
            return skip(shared)

        monkeypatch.setattr(SharedPreprojector, "_skip_withheld", counting_skip)
        with pytest.raises(XMLSyntaxError) as caught:
            QuerySession(Q1).run(SPELLINGS[spelling](document, tmp_path))
        expected = reference_error(document)
        assert str(caught.value) == str(expected)
        assert caught.value.position == expected.position
        # The error surfaced while a dead subtree was being skipped.
        assert skips


def _truncated_tokens(cut: int):
    names = "site regions item name".split()
    tokens = [StartTag(name) for name in names]
    tokens += [Text("x"), EndTag("name"), EndTag("item"), EndTag("regions")]
    tokens += [StartTag("people"), StartTag("person"), StartTag("name")]
    tokens += [Text("A"), EndTag("name"), EndTag("person"), EndTag("people")]
    tokens.append(EndTag("site"))
    return iter(tokens[:cut])


PEOPLE_QUERY = "<o>{for $p in /site/people/person return $p/name}</o>"


class TestTruncatedTokenIterator:
    """A hand-built iterator may end inside a parked subtree."""

    @pytest.mark.parametrize("cut", [3, 5, 7])
    def test_strict_run_reports_the_unfinished_buffer(self, cut):
        with pytest.raises(AssertionError, match="input exhausted but the buffer"):
            QuerySession(PEOPLE_QUERY).run(_truncated_tokens(cut))

    @pytest.mark.parametrize("cut", [3, 5, 7])
    def test_lenient_run_finishes_with_an_empty_result(self, cut):
        session = QuerySession(PEOPLE_QUERY, EngineOptions(strict=False))
        result = session.run(_truncated_tokens(cut))
        assert result.output == "<o/>"
        assert result.exhausted_input
        # The position counts every token read, skipped ones included.
        assert result.stats.tokens_read == cut
        assert result.stats.tokens_routed == 2

    @pytest.mark.parametrize("cut", [3, 5, 7])
    def test_multi_query_reports_the_unfinished_buffer(self, cut):
        session = MultiQuerySession({"a": PEOPLE_QUERY, "b": PEOPLE_QUERY})
        with pytest.raises(AssertionError, match="input exhausted but the buffer"):
            session.run(_truncated_tokens(cut))


class TestDeepDeadSubtree:
    DEPTH = 100_000
    DOCUMENT = (
        "<site><regions>"
        + "<a>" * DEPTH
        + "</a>" * DEPTH
        + "</regions><people>A</people></site>"
    )
    QUERY = "<o>{for $p in /site/people return $p/text()}</o>"

    def test_single_query_skips_without_recursion(self):
        result = QuerySession(self.QUERY).run(self.DOCUMENT)
        assert result.output == "<o>A</o>"
        assert result.stats.tokens_read == 2 * self.DEPTH + 7
        assert result.stats.tokens_routed < 10

    def test_multi_query_skips_without_recursion(self):
        session = MultiQuerySession({"a": self.QUERY, "b": self.QUERY})
        results = session.run(self.DOCUMENT)
        for result in results.values():
            assert result.output == "<o>A</o>"
            assert result.stats.tokens_routed < 10


# ----------------------------------------------------------------------
# aggregates reaching below the skipped elements
# ----------------------------------------------------------------------

AGGREGATE_DOCUMENTS = {
    "nested": "<r><a><a>1</a></a></r>",
    "deep": (
        "<r><z><q><a><b>1</b></a></q></z>"
        "<v><a><b><c>7</c></b></a><n><a><b><c>8</c></b><b>2</b></a></n></v>"
        "<v/><w><x><y><a><b>x</b><b>4</b></a></y></x></w></r>"
    ),
}

AGGREGATE_QUERIES = {
    "count-root-dos": "<out>{count($root//a)}</out>",
    "sum-root-dos": "<out>{sum($root//a/b)}</out>",
    "avg-root-dos": "<out>{avg($root//a/b)}</out>",
    "sum-text": "<out>{sum($root//b/text())}</out>",
    "count-var-dos": "<out>{for $v in /r/v return <n>{count($v//c)}</n>}</out>",
    "sum-var-children": "<out>{for $v in /r/v return <n>{sum($v/a/b)}</n>}</out>",
    "avg-var-deep": "<out>{for $v in /r/v return <n>{avg($v//a/b/c)}</n>}</out>",
}


def _without_aggregate_chains(monkeypatch) -> None:
    """Compile without the accumulator chains in the projection tree.

    The chains keep the matcher's frames alive wherever an accumulator
    still needs tokens; without them only the lane's own check of the
    accumulator automaton stands between an aggregate and the skip.
    """
    import repro.analysis.compile as compile_module

    monkeypatch.setattr(
        compile_module, "attach_aggregate_chains", lambda tree, sites: None
    )


@pytest.mark.parametrize("chains", ["with-chains", "without-chains"])
@pytest.mark.parametrize("doc", sorted(AGGREGATE_DOCUMENTS))
class TestAggregatesSeeSkippedSubtrees:
    """The accumulators observe every token an aggregate path can reach."""

    @pytest.mark.parametrize("name", sorted(AGGREGATE_QUERIES))
    def test_single_query_matches_naive_dom(self, chains, doc, name, monkeypatch):
        from repro.baselines import NaiveDomEngine

        query, document = AGGREGATE_QUERIES[name], AGGREGATE_DOCUMENTS[doc]
        expected = NaiveDomEngine().run(query, document).output
        if chains == "without-chains":
            _without_aggregate_chains(monkeypatch)
        assert QuerySession(query).run(document).output == expected

    def test_multi_query_matches_naive_dom(self, chains, doc, monkeypatch):
        from repro.baselines import NaiveDomEngine

        document = AGGREGATE_DOCUMENTS[doc]
        expected = {
            name: NaiveDomEngine().run(query, document).output
            for name, query in AGGREGATE_QUERIES.items()
        }
        if chains == "without-chains":
            _without_aggregate_chains(monkeypatch)
        results = MultiQuerySession(AGGREGATE_QUERIES).run(document)
        for name in AGGREGATE_QUERIES:
            assert results[name].output == expected[name], name
