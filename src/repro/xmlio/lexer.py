"""A streaming XML tokenizer that scans raw UTF-8 bytes.

The tokenizer is the lowest layer of the GCX architecture (Figure 11): the
stream preprojector pulls tokens from it one at a time, so the tokenizer must
never materialize the whole document.  It is deliberately written from
scratch (no ``xml.sax``) so the repository is self-contained and the token
boundaries match the paper's stream model exactly.

Bytes-domain hot path (see docs/PERFORMANCE.md)
-----------------------------------------------
The scanner operates on **bytes end to end** — ``str`` input is encoded
once up front, file input is mmap-mapped (:mod:`repro.xmlio.filelexer`) —
and decoding is deferred to the consumers that actually need characters:

* *``bytes.find`` jumps* — character data, tag bodies and skipped
  constructs are located by C-speed substring search over the raw buffer
  (an ``mmap`` works directly: it supports ``find`` and slicing), never by
  per-character stepping.  Every markup delimiter is ASCII, so a multi-byte
  UTF-8 sequence can never be split by a token boundary.
* *byte-interned tags* — ``StartTag``/``EndTag`` tokens are cached keyed by
  the **undecoded** tag slice; a tag name is UTF-8-decoded (and
  ``sys.intern``-ed, so the matcher's ``(state, tag)`` table keys share one
  cached hash) exactly once per distinct spelling per document.
* *decode-on-demand text* — character data is emitted as
  :class:`~repro.xmlio.tokens.LazyText` carrying the raw byte span; UTF-8
  decode and entity unescape run only when ``.content`` is first read,
  i.e. only for nodes that survive projection.  Skipped subtrees never pay
  ``str`` conversion at all (``text_decode_count`` proves it).
* *batch scanning* — as before the rewrite, the scanner fills token
  batches that ``next_token`` serves by index; a batch now stops after a
  byte budget (:data:`BATCH_BYTES`, or the chunk size in file mode, so the
  file-backed subclass can compact its window between batches) instead of
  a token count, which removes a length check from the per-token loop.

Positions (``XMLSyntaxError.position``) are document-absolute **byte**
offsets; ``.line``/``.column`` are computed lazily from the offending
window on first access.  The pre-batching implementation is preserved
verbatim in :mod:`repro.xmlio._reference_lexer`; differential tests
assert both emit identical token streams, and the CI perf gate tracks the
speedup.

Supported XML subset
--------------------
* elements with start/end/bachelor tags,
* character data with the predefined entities,
* attributes, which are converted to leading subelements (the adaptation the
  paper applies to XMark: "we converted XML attributes into subelements"),
* comments, processing instructions, XML declarations and DOCTYPE clauses,
  which are skipped,
* CDATA sections, which become text.

Namespaces are treated literally (a tag ``a:b`` is just the name ``a:b``).
Input must be UTF-8; whitespace *inside markup* is ASCII whitespace (as the
XML grammar's ``S`` production requires).
"""

from __future__ import annotations

import re
from sys import intern
from typing import Iterator

from repro.xmlio.tokens import EndTag, LazyCData, LazyText, StartTag, Token

__all__ = ["XMLSyntaxError", "XMLTokenizer", "tokenize", "BATCH_BYTES"]

#: Byte budget per scan batch for in-memory input: one internal scan
#: call advances at most this far before handing the batch to the
#: iterator.  Large enough to amortize the per-batch setup over thousands
#: of tokens, small enough that time-to-first-token and the token batch
#: stay bounded.  (The file-backed subclass overrides the budget with its
#: chunk size so window compaction keeps pace with scanning.)
BATCH_BYTES = 1 << 16

_LT = 0x3C  # ``<``
_SLASH = 0x2F  # ``/``
_BANG = 0x21  # ``!``
_QMARK = 0x3F  # ``?``

#: UTF-8 encodings of every code point ``str.strip()`` treats as
#: whitespace.  ``bytes.isspace()`` only knows the ASCII six; this pattern
#: covers the rest (NEL, NBSP, the U+2000 block, …) so whitespace-only
#: classification matches the str-domain reference *without decoding*.
_UNICODE_WS = re.compile(
    rb"(?:[ \t\n\r\x0b\x0c\x1c-\x1f]"
    rb"|\xc2[\x85\xa0]"
    rb"|\xe1\x9a\x80"
    rb"|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]"
    rb"|\xe2\x81\x9f"
    rb"|\xe3\x80\x80)+\Z"
).match


#: One C-level scan for ASCII whitespace inside a tag body.  (``b" " in
#: body`` looks cheaper but is ~6x slower than the str equivalent on
#: CPython, which is exactly the kind of regression a bytes rewrite
#: invites; a single compiled-pattern search beats four of them.)
_WS_SEARCH = re.compile(rb"[ \t\r\n]").search


#: Slot-descriptor store for ``LazyText._raw``: the hot loop builds text
#: tokens as ``__new__`` + one descriptor call, bypassing both the
#: constructor frame and the frozen-dataclass ``__setattr__`` dispatch.
_SET_RAW = LazyText._raw.__set__


def _tag_entry(name_key: bytes) -> "tuple[StartTag, tuple]":
    """Intern one distinct tag spelling: build its table entry once.

    The entry pairs the shared :class:`StartTag` with its *closer*
    ``(b"name>", len, EndTag, "name")`` — the end-tag fast path compares
    upcoming bytes against ``closer[0]`` of the innermost open element, so
    one ``bytes.__eq__`` both resolves the token and proves the match.
    """
    tag = intern(name_key.decode("utf-8"))
    return (
        StartTag(tag),
        (name_key + b">", len(name_key) + 1, EndTag(tag), tag),
    )


def _ws_only(raw: bytes) -> bool:
    """True when ``raw`` decodes to whitespace-only text (without decoding).

    Mirrors the reference lexer's ``content.strip() == ""`` check in the
    bytes domain.
    """
    if not raw:
        return True
    first = raw[0]
    if first >= 33 and first < 0xC2:
        return False  # common case: text starts with a printable ASCII byte
    return raw.isspace() or _UNICODE_WS(raw) is not None


class XMLSyntaxError(ValueError):
    """Raised when the input is not well-formed within the supported subset.

    ``position`` is the document-absolute **byte** offset of the offending
    construct (for pure-ASCII documents this coincides with the character
    offset the pre-bytes lexers reported).  ``line`` and ``column`` (both
    1-based; the column counts bytes) are computed lazily from the window
    the lexer attached at raise time — ``None`` when no window is available
    (e.g. errors raised by the frozen reference lexer).
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self._message = message
        self.position = position
        self._window: bytes | None = None
        self._window_offset = 0
        self._nl_before = 0
        self._last_nl_abs = -1
        self._line: int | None = None
        self._column: int | None = None
        self._located = False

    def __reduce__(self):
        return (XMLSyntaxError, (self._message, self.position))

    @property
    def line(self) -> int | None:
        self.ensure_location()
        return self._line

    @property
    def column(self) -> int | None:
        self.ensure_location()
        return self._column

    def ensure_location(self) -> None:
        """Force the lazy line/column computation now.

        ``tokenize_file`` calls this before an error propagates out of an
        mmap-backed scan, because unwinding the generator closes the map
        the window points into.
        """
        if self._located:
            return
        self._located = True
        window = self._window
        rel = self.position - self._window_offset
        if window is None or rel < 0:
            return
        # ``bytes(...)`` also copies mmap windows, which lack ``count``.
        prefix = bytes(window[: min(rel, len(window))])
        self._line = self._nl_before + prefix.count(b"\n") + 1
        last = prefix.rfind(b"\n")
        if last != -1:
            self._column = rel - last
        elif self._last_nl_abs >= 0:
            self._column = self.position - self._last_nl_abs
        else:
            self._column = self.position + 1


class XMLTokenizer:
    """Incrementally tokenize an XML document held as UTF-8 bytes.

    The tokenizer checks well-formedness of tag nesting as it goes and
    raises :class:`XMLSyntaxError` on mismatched or dangling tags.  Errors
    surface in stream order: tokens scanned before the offending construct
    are delivered first, exactly like the pre-batching implementation.

    Parameters
    ----------
    text:
        The document: ``str`` (encoded to UTF-8 once), ``bytes``, a
        ``bytearray``/``memoryview`` (copied to ``bytes``), or an
        ``mmap.mmap`` (scanned in place; slices taken from it are plain
        ``bytes``, so emitted tokens never keep the map alive).
    strip_whitespace:
        When true (the default), text tokens consisting purely of whitespace
        between elements are dropped.  XMark documents carry no meaningful
        inter-element whitespace, and the paper's data model has no notion of
        ignorable whitespace either.
    convert_attributes:
        When true (the default), attributes are emitted as leading
        subelements in document order: ``<a x="1">`` becomes
        ``<a><x>1</x>...``.  This mirrors the paper's benchmark adaptation.
    """

    def __init__(
        self,
        text: "str | bytes | bytearray | memoryview",
        *,
        strip_whitespace: bool = True,
        convert_attributes: bool = True,
    ) -> None:
        if isinstance(text, str):
            data = text.encode("utf-8")
        elif isinstance(text, (bytearray, memoryview)):
            data = bytes(text)  # slices must be hashable bytes
        else:
            data = text  # bytes or mmap: find + slicing, scanned in place
        self._data = data
        self._pos = 0
        self._offset = 0  # bytes discarded by compaction (file mode)
        self._strip_whitespace = strip_whitespace
        self._convert_attributes = convert_attributes
        # Innermost-first stack of *closers* (see :func:`_tag_entry`)
        # for the currently open elements; ``closer[3]`` is the tag.
        self._open_tags: list[tuple] = []
        self._seen_root = False
        self._done = False
        # Batch machinery: tokens are scanned a batch at a time into
        # ``_out`` and served by index.  ``_batch_bytes`` caps how far one
        # batch may advance (the file subclass sets it to the chunk size so
        # compaction keeps up with scanning).
        self._out: list[Token] = []
        self._out_pos = 0
        self._batch_bytes = BATCH_BYTES
        self._error: XMLSyntaxError | None = None
        # Interning tables keyed by the *undecoded* tag slice: one token
        # object — and one UTF-8 decode — per distinct tag spelling.
        # ``_start_tags`` values are :func:`_tag_entry` pairs; ``_end_tags``
        # caches the slow end-tag path (whitespace spellings and mismatches).
        self._start_tags: dict[bytes, tuple[StartTag, tuple]] = {}
        self._end_tags: dict[bytes, EndTag] = {}
        # Newline bookkeeping for lazy line/column on errors: counts for
        # the compacted-away prefix (file mode keeps these current).
        self._nl_before = 0
        self._last_nl_abs = -1

    def _refill(self) -> bool:
        """Ask for more input.  The in-memory tokenizer has none; the
        file-backed subclass appends the next chunk and returns True."""
        return False

    def _before_batch(self) -> None:
        """Hook run before scanning a batch (the file subclass compacts)."""

    def __iter__(self) -> Iterator[Token]:
        # Iteration bypasses per-token method dispatch entirely: the
        # generator marks each batch served and delegates to the list
        # iterator, so the steady-state cost of one token is a generator
        # resume plus a list-iterator step.  Mixing ``next_token()`` calls
        # *into* an in-progress iteration is not supported (the engine
        # drives one or the other, never both).
        out = self._out
        pos = self._out_pos
        while pos < len(out):
            # Leftovers from earlier ``next_token()`` pulls, served first.
            self._out_pos = pos + 1
            yield out[pos]
            pos = self._out_pos
        while True:
            if not self._fill():
                if self._error is not None:
                    raise self._error
                self._finish_checks()
                return
            self._out_pos = len(self._out)
            yield from self._out

    def __next__(self) -> Token:
        # Token-at-a-time protocol for direct (non-``__iter__``) callers.
        out = self._out
        pos = self._out_pos
        if pos < len(out):
            self._out_pos = pos + 1
            return out[pos]
        token = self.next_token()
        if token is None:
            raise StopIteration
        return token

    def next_token(self) -> Token | None:
        """Return the next token, or ``None`` when the stream is exhausted."""
        out = self._out
        pos = self._out_pos
        if pos < len(out):
            self._out_pos = pos + 1
            return out[pos]
        while True:
            if not self._fill():
                if self._error is not None:
                    raise self._error
                self._finish_checks()
                return None
            if self._out:
                self._out_pos = 1
                return self._out[0]

    # ------------------------------------------------------------------
    # scanning machinery
    # ------------------------------------------------------------------

    def _fill(self) -> bool:
        """Scan the next batch of tokens into ``_out``.

        Returns False when the stream is exhausted (or a deferred syntax
        error is pending); True when the batch may hold tokens — possibly
        zero, when the byte budget was spent on skipped constructs.
        """
        if self._error is not None:
            return False
        self._before_batch()
        out = self._out
        out.clear()
        self._out_pos = 0
        append = out.append
        data = self._data
        find = data.find
        pos = self._pos
        scan_start = pos
        limit = pos + self._batch_bytes
        offset = self._offset
        strip_ws = self._strip_whitespace
        seen_root = self._seen_root
        open_tags = self._open_tags
        pop = open_tags.pop
        push = open_tags.append
        start_tags = self._start_tags
        start_get = start_tags.get
        end_tags = self._end_tags
        lazy_new = LazyText.__new__
        lazy_cls = LazyText
        set_raw = _SET_RAW
        try:
            while pos <= limit:
                # EAFP bounds handling: indexing past the window raises
                # instead of paying a ``pos >= n`` compare per token
                # (zero-cost try on CPython 3.11+ exception tables).
                try:
                    first_byte = data[pos]
                except IndexError:
                    self._pos = pos
                    if not self._refill():
                        break
                    data = self._data
                    find = data.find
                    continue
                if first_byte != _LT:
                    # -- character data run ------------------------------
                    end = find(b"<", pos)
                    if end == -1:
                        self._pos = pos
                        while end == -1:
                            # Resume the search where the old data ended:
                            # rescanning from ``pos`` would make one long
                            # text run quadratic in the number of refills.
                            old_length = len(data)
                            if not self._refill():
                                break
                            data = self._data
                            find = data.find
                            end = find(b"<", old_length)
                        if end == -1:
                            end = len(data)
                    raw = data[pos:end]
                    start = pos
                    pos = end
                    if (first_byte < 33 or first_byte >= 0xC2) and (
                        raw.isspace() or _UNICODE_WS(raw) is not None
                    ):
                        if strip_ws:
                            continue
                    elif not open_tags:
                        raise XMLSyntaxError(
                            "character data outside the root element",
                            start + offset,
                        )
                    # Inlined LazyText construction (``__new__`` plus one
                    # slot-descriptor store, no constructor frame): this
                    # runs once per text node in the document.
                    token = lazy_new(lazy_cls)
                    set_raw(token, raw)
                    append(token)
                    continue
                try:
                    second = data[pos + 1]
                except IndexError:
                    # ``<`` is the window's last byte: in file mode the
                    # construct continues in the next chunk.
                    self._pos = pos
                    while pos + 1 >= len(data) and self._refill():
                        data = self._data
                        find = data.find
                    second = data[pos + 1] if pos + 1 < len(data) else -1
                if second == _SLASH:
                    # -- end tag -----------------------------------------
                    # Fast path: compare the upcoming bytes against the
                    # precomputed ``name>`` closer of the innermost open
                    # element.  A hit resolves the token, proves the match
                    # and advances — no ``find``, no name parse.
                    if open_tags:
                        closer = open_tags[-1]
                        skip = closer[1]
                        if data[pos + 2 : pos + 2 + skip] == closer[0]:
                            pop()
                            pos = pos + 2 + skip
                            append(closer[2])
                            continue
                    # Slow path: whitespace inside the tag, a mismatch or
                    # a chunk boundary mid-tag.
                    end = find(b">", pos)
                    if end == -1:
                        self._pos = pos
                        end = self._find(b">", pos)
                        if end == -1:
                            raise XMLSyntaxError(
                                "unterminated end tag", pos + offset
                            )
                        data = self._data
                        find = data.find
                    key = data[pos + 2 : end]
                    token = end_tags.get(key)
                    if token is None:
                        stripped = key.strip()
                        if not stripped:
                            raise XMLSyntaxError("empty end tag", pos + offset)
                        token = end_tags[key] = EndTag(
                            intern(stripped.decode("utf-8"))
                        )
                    name = token.tag
                    if not open_tags:
                        raise XMLSyntaxError(
                            f"closing tag </{name}> with no open element",
                            pos + offset,
                        )
                    expected = open_tags[-1][3]
                    if expected != name:
                        raise XMLSyntaxError(
                            f"mismatched closing tag </{name}>, "
                            f"expected </{expected}>",
                            pos + offset,
                        )
                    pop()
                    pos = end + 1
                    append(token)
                    continue
                if second == _BANG or second == _QMARK:
                    self._pos = pos
                    # Make the construct kind decidable even when a chunk
                    # boundary splits the prefix (longest is <![CDATA[);
                    # only this rare branch pays for the lookahead check.
                    if len(data) - pos < 9:
                        while len(data) - pos < 9 and self._refill():
                            data = self._data
                        find = data.find
                    if data[pos : pos + 4] == b"<!--":
                        end = self._find(b"-->", pos)
                        if end == -1:
                            raise XMLSyntaxError(
                                "unterminated construct, expected '-->'",
                                pos + offset,
                            )
                        data = self._data
                        find = data.find
                        pos = end + 3
                        continue
                    if data[pos : pos + 9] == b"<![CDATA[":
                        end = self._find(b"]]>", pos)
                        if end == -1:
                            raise XMLSyntaxError(
                                "unterminated CDATA section", pos + offset
                            )
                        data = self._data
                        find = data.find
                        content = data[pos + 9 : end]
                        if not open_tags:
                            raise XMLSyntaxError(
                                "character data outside the root element",
                                pos + offset,
                            )
                        pos = end + 3
                        if strip_ws and _ws_only(content):
                            continue
                        append(LazyCData(content))
                        continue
                    if second == _QMARK:
                        end = self._find(b"?>", pos)
                        if end == -1:
                            raise XMLSyntaxError(
                                "unterminated construct, expected '?>'",
                                pos + offset,
                            )
                        data = self._data
                        find = data.find
                        pos = end + 2
                        continue
                    pos = self._skip_doctype(pos)
                    data = self._data
                    find = data.find
                    continue
                # -- start tag -------------------------------------------
                end = find(b">", pos)
                if end == -1:
                    self._pos = pos
                    end = self._find(b">", pos)
                    if end == -1:
                        raise XMLSyntaxError(
                            "unterminated start tag", pos + offset
                        )
                    data = self._data
                    find = data.find
                if data[end - 1] == _SLASH:
                    self_closing = True
                    body = data[pos + 1 : end - 1]
                else:
                    self_closing = False
                    body = data[pos + 1 : end]
                # Interned fast path: every cached key is whitespace-free
                # (guarded at the insertion sites), so a hit proves the
                # body is a bare, already-seen tag name and the whitespace
                # scan and name parse can be skipped entirely.
                entry = start_get(body)
                if entry is not None:
                    token, closer = entry
                    attributes = ()
                elif _WS_SEARCH(body) is not None:
                    name_key, attributes = self._parse_tag_body(body, pos)
                    entry = start_get(name_key)
                    if entry is None:
                        entry = start_tags[name_key] = _tag_entry(name_key)
                    token, closer = entry
                else:
                    if not body:
                        raise XMLSyntaxError("empty start tag", pos + offset)
                    token, closer = start_tags[body] = _tag_entry(body)
                    attributes = ()
                if not open_tags:
                    if seen_root:
                        raise XMLSyntaxError(
                            "document has more than one root element",
                            pos + offset,
                        )
                    seen_root = True
                pos = end + 1
                append(token)
                if attributes and self._convert_attributes:
                    for attr_name, attr_value in attributes:
                        attr_entry = start_get(attr_name)
                        if attr_entry is None:
                            attr_entry = _tag_entry(attr_name)
                            # Pathological attr names (empty, or containing
                            # whitespace) stay uncached: the start-tag fast
                            # path relies on cached keys being bare names.
                            if attr_name and _WS_SEARCH(attr_name) is None:
                                start_tags[attr_name] = attr_entry
                        append(attr_entry[0])
                        if attr_value:
                            append(LazyText(attr_value))
                        append(attr_entry[1][2])
                if self_closing:
                    append(closer[2])
                else:
                    push(closer)
        except XMLSyntaxError as error:
            # Deliver already-scanned tokens first, then the error — the
            # stream behaves exactly like the token-at-a-time oracle.
            self._attach_location(error)
            self._error = error
            self._pos = pos
            self._seen_root = seen_root
            return bool(out)
        self._pos = pos
        self._seen_root = seen_root
        if out:
            return True
        # No tokens: either the stream ended, or the budget went into
        # skipped constructs / stripped whitespace and scanning continues.
        # (``pos > scan_start``: every loop iteration that saw input either
        # appended a token or advanced the scan position.)
        return pos > scan_start and (pos < len(self._data) or not self._at_eof())

    def _at_eof(self) -> bool:
        return not self._refill()

    def _find(self, needle: bytes, start: int) -> int:
        """``bytes.find`` that refills until the needle appears or input ends."""
        end = self._data.find(needle, start)
        while end == -1:
            old_length = len(self._data)
            if not self._refill():
                return -1
            # The needle may straddle the old chunk boundary.
            rescan_from = max(start, old_length - len(needle) + 1)
            end = self._data.find(needle, rescan_from)
        return end

    def _skip_doctype(self, pos: int) -> int:
        # DOCTYPE may contain an internal subset in square brackets.
        depth = 0
        i = pos
        while True:
            while i >= len(self._data):
                if not self._refill():
                    raise XMLSyntaxError(
                        "unterminated <!DOCTYPE ...> clause", pos + self._offset
                    )
            ch = self._data[i]
            if ch == 0x5B:  # ``[``
                depth += 1
            elif ch == 0x5D:  # ``]``
                depth -= 1
            elif ch == 0x3E and depth <= 0:  # ``>``
                return i + 1
            i += 1

    def _parse_tag_body(
        self, body: bytes, pos: int
    ) -> tuple[bytes, list[tuple[bytes, bytes]]]:
        body = body.strip()
        if not body:
            raise XMLSyntaxError("empty start tag", pos + self._offset)
        i = 0
        length = len(body)
        while i < length and body[i] not in b" \t\r\n":
            i += 1
        name = body[:i]
        attributes: list[tuple[bytes, bytes]] = []
        while i < length:
            while i < length and body[i] in b" \t\r\n":
                i += 1
            if i >= length:
                break
            eq = body.find(b"=", i)
            if eq == -1:
                raise XMLSyntaxError(
                    f"malformed attribute in <{name.decode('utf-8')}>",
                    pos + self._offset,
                )
            attr_name = body[i:eq].strip()
            j = eq + 1
            while j < length and body[j] in b" \t\r\n":
                j += 1
            if j >= length or body[j] not in b"\"'":
                raise XMLSyntaxError(
                    f"unquoted attribute value in <{name.decode('utf-8')}>",
                    pos + self._offset,
                )
            quote = body[j]
            close = body.find(quote, j + 1)
            if close == -1:
                raise XMLSyntaxError(
                    "unterminated attribute value in "
                    f"<{name.decode('utf-8')}>",
                    pos + self._offset,
                )
            attributes.append((attr_name, body[j + 1 : close]))
            i = close + 1
        return name, attributes

    def _finish_checks(self) -> None:
        if self._done:
            return
        self._done = True
        # ``_pos`` is window-relative in chunked file mode; add the
        # compacted-away prefix so positions stay document-absolute.
        position = self._pos + self._offset
        if self._open_tags:
            error = XMLSyntaxError(
                f"input exhausted with unclosed element <{self._open_tags[-1][3]}>",
                position,
            )
            self._attach_location(error)
            raise error
        if not self._seen_root:
            error = XMLSyntaxError("document has no root element", position)
            self._attach_location(error)
            raise error

    def _attach_location(self, error: XMLSyntaxError) -> None:
        """Give the error what lazy line/column needs: the current window
        (which contains the offending byte) and the newline counts for the
        prefix that compaction already discarded."""
        error._window = self._data
        error._window_offset = self._offset
        error._nl_before = self._nl_before
        error._last_nl_abs = self._last_nl_abs


def tokenize(
    text: "str | bytes | bytearray | memoryview",
    *,
    strip_whitespace: bool = True,
    convert_attributes: bool = True,
) -> Iterator[Token]:
    """Tokenize ``text`` into a stream of :class:`~repro.xmlio.tokens.Token`.

    Accepts ``str`` (encoded once) or raw UTF-8 bytes.
    """
    return iter(
        XMLTokenizer(
            text,
            strip_whitespace=strip_whitespace,
            convert_attributes=convert_attributes,
        )
    )
