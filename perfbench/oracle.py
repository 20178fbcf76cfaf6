"""Benchmark inputs and their reference outputs.

Every document comes from ``repro.xmark.generator`` with a seed derived
from the benchmark's ``--seed``.  Reference outputs come from the naive
in-memory DOM engine (``repro.baselines.naive``), never from the engine
under test.  The naive engine's value joins (Q8, Q9) are quadratic, so
reference digests are cached under ``perfbench/.cache/`` keyed by the
SHA-256 of query text and document bytes: a repeated (query, seed, size)
costs nothing, and a changed generator or query can never hit a stale
entry.

The batch workloads run this module as a child process
(``python3 perfbench/oracle.py WORKLOAD SEED SIZE OUTDIR``), so that the
generator's and the DOM's memory never shows in the measured process's
peak RSS.  It writes the documents and ``inputs.json`` into OUTDIR.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"

SELECTIVE = ("Q1", "Q5", "Q13", "Q15", "Q17", "Q20")
BUFFERING = ("Q6", "Q8", "Q9")
STANDING = ("Q1", "Q5", "Q6", "Q8", "Q9", "Q13", "Q15", "Q17", "Q20")
#: Serve aliases; Q6 is registered with the XMark DTD, which certifies it
#: zero-buffer so the server runs it on the direct evaluator.
SERVE = ("Q1", "Q5", "Q13", "Q6")
SERVE_SCHEMA_QUERIES = ("Q6",)


@dataclass(frozen=True)
class Sizes:
    """XMark scale factors (about 40 MB per unit) of one benchmark size."""

    selective: float
    buffering: float
    standing_docs: int
    standing: tuple[float, float]
    serve_docs: int
    serve: tuple[float, float]
    warmup: float


SIZES = {
    # selective ~1.2 MB, so that a 20 s run has ~8 passes per query;
    # buffering ~0.5 MB, because the naive oracle's quadratic joins cost
    # ~3.5 s there and ~14 s at 1 MB; standing 3 documents of ~0.2-0.35 MB;
    # 40 serve documents of ~4-40 KB.
    "full": Sizes(0.03, 0.012, 3, (0.005, 0.0085), 40, (0.0001, 0.001), 0.002),
    # The smoke check's size: every code path, a few seconds in all.
    "tiny": Sizes(0.002, 0.001, 2, (0.0005, 0.001), 4, (0.0001, 0.0003), 0.0005),
}


def query_texts(names: tuple[str, ...]) -> dict[str, str]:
    from repro.xmark.queries import XMARK_QUERIES

    return {name: XMARK_QUERIES[name].adapted for name in names}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def documents(workload: str, seed: int, size: str) -> list[str]:
    """The seeded input documents of one workload (warm-up excluded)."""
    from repro.xmark.generator import generate_xmark

    sizes = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("selective", "buffering"):
        scale = getattr(sizes, workload)
        return [generate_xmark(scale, seed=rng.randrange(2**31))]
    # Sizes are fixed and spread evenly over the range (log-evenly for
    # serve: many small documents, a few large ones); the seed picks the
    # content.  Seeds then differ in what the documents say, not in how
    # much work they are, which keeps run-to-run spread low.
    if workload == "standing":
        low, high = sizes.standing
        count = sizes.standing_docs
        return [
            generate_xmark(
                low + (high - low) * index / max(1, count - 1),
                seed=rng.randrange(2**31),
            )
            for index in range(count)
        ]
    if workload == "serve":
        low, high = sizes.serve
        count = sizes.serve_docs
        return [
            generate_xmark(
                low * (high / low) ** ((index + 0.5) / count),
                seed=rng.randrange(2**31),
            )
            for index in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_document(size: str) -> str:
    """A small document that fills the matchers' lazy transition tables."""
    from repro.xmark.generator import generate_xmark

    return generate_xmark(SIZES[size].warmup, seed=1)


def reference_digests(queries: dict[str, str], document: str) -> dict[str, str]:
    """SHA-256 of the naive DOM engine's output for each query."""
    from repro.baselines.naive import NaiveDomEngine, evaluate_on_tree
    from repro.xmlio.serialize import StringSink
    from repro.xmlio.tree import parse_tree

    doc_key = hashlib.sha256(document.encode("utf-8")).hexdigest()
    result: dict[str, str] = {}
    engine = NaiveDomEngine()
    tree = None
    for name, text in queries.items():
        key = hashlib.sha256(f"{text}\0{doc_key}".encode("utf-8")).hexdigest()
        entry = CACHE / f"{key}.sha256"
        if entry.is_file():
            result[name] = entry.read_text().strip()
            continue
        if tree is None:  # one parse serves every query of the document
            tree = parse_tree(document)
        # NaiveDomEngine.run, minus its per-query re-parse.
        sink = StringSink()
        evaluate_on_tree(engine.compile(text).normalized, tree, sink)
        result[name] = digest(sink.getvalue())
        CACHE.mkdir(exist_ok=True)
        partial = entry.with_suffix(".tmp")
        partial.write_text(result[name])
        partial.replace(entry)
    return result


@dataclass(frozen=True)
class Inputs:
    """What the measured process needs: files and expected digests."""

    queries: dict[str, str]
    documents: list[str]  # paths
    sizes: list[int]  # bytes per document
    expected: list[dict[str, str]]  # per document: query -> digest
    warmup: str  # path


def prepare(workload: str, seed: int, size: str, outdir: Path) -> Inputs:
    """Generate the workload's files under ``outdir`` with their digests."""
    names = SELECTIVE if workload == "selective" else (
        BUFFERING if workload == "buffering" else STANDING
    )
    queries = query_texts(names)
    outdir.mkdir(parents=True, exist_ok=True)
    paths, sizes, expected = [], [], []
    for index, document in enumerate(documents(workload, seed, size)):
        path = outdir / f"doc{index}.xml"
        data = document.encode("utf-8")
        path.write_bytes(data)
        paths.append(str(path))
        sizes.append(len(data))
        expected.append(reference_digests(queries, document))
    warmup = outdir / "warmup.xml"
    warmup.write_text(warmup_document(size), encoding="utf-8")
    return Inputs(queries, paths, sizes, expected, str(warmup))


def main(argv: list[str]) -> int:
    workload, seed, size, outdir = argv
    inputs = prepare(workload, int(seed), size, Path(outdir))
    (Path(outdir) / "inputs.json").write_text(json.dumps(asdict(inputs)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
