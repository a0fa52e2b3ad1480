"""Per-layer tracing from outside the program.

The tracer replaces public functions at the names their callers look
up (``citecode.pipeline.parse_document``, ``citecode.ingest.
segment_sentences``, ``CueLexicon.match``, ...) with wrappers that
record a span or a count, and puts the originals back on ``remove``.
Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, doc_id]``. Spans and counts
live in per-thread buffers, so the pipeline's worker threads never
contend on shared state; a span's parent is the innermost open span
of the same thread, and a span without its own document id takes the
one of its nearest ancestor that has one. Tiny hot functions
(``normalize_author_key``, ``tokenize``, ``CueLexicon.match``) get
counts only: a span around each call would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

_perf = time.perf_counter


# (span name, module, attribute, where the document id comes from: the
# returned Document, the Document passed first, or nowhere).
# The module is the one whose namespace the caller reads the name from.
SPANS = (
    ("pipeline.read_manifest", "citecode.pipeline", "read_manifest", None),
    ("pipeline.run", "citecode.pipeline", "run_pipeline", None),
    ("pipeline.parse_corpus", "citecode.pipeline", "parse_corpus", None),
    ("ingest.parse", "citecode.pipeline", "parse_document", "result"),
    ("sentences.segment", "citecode.ingest", "segment_sentences", None),
    ("refparse.entry", "citecode.ingest", "parse_reference_entry", None),
    ("pipeline.code_corpus", "citecode.pipeline", "code_corpus", None),
    ("citations.extract", "citecode.pipeline", "extract_citations", "args"),
    ("citations.link", "citecode.citations", "link_citation", None),
    ("network.build", "citecode.pipeline", "build_coauthor_graph", None),
    ("network.capital", "citecode.pipeline", "capital_scores", None),
    ("network.harmonic", "citecode.network", "centrality_harmonic", None),
    ("network.betweenness", "citecode.network", "centrality_betweenness", None),
    ("network.percentile", "citecode.network", "percentile_ranks", None),
    ("pipeline.code_document", "citecode.pipeline", "code_document", "args"),
    ("citations.context", "citecode.pipeline", "extract_context", "args"),
    ("semantic.function", "citecode.pipeline", "code_function", None),
    ("semantic.disposition", "citecode.pipeline", "code_disposition", None),
    ("semantic.focus", "citecode.pipeline", "code_focus", None),
    ("semantic.focus", "citecode.pipeline", "document_focus_matches", "args"),
    ("syntactic.code", "citecode.pipeline", "code_location", None),
    ("syntactic.code", "citecode.pipeline", "code_style", None),
    ("syntactic.code", "citecode.pipeline", "code_document_type", None),
    ("syntactic.code", "citecode.pipeline", "code_authorship", None),
    ("syntactic.code", "citecode.pipeline", "code_frequency", None),
    ("network.relation", "citecode.pipeline", "code_relation", None),
    ("records.assemble", "citecode.pipeline", "assemble_record", None),
    ("pipeline.write_outputs", "citecode.pipeline", "write_outputs", None),
    ("records.write", "citecode.pipeline", "write_jsonl", None),
    ("network.edges_write", "citecode.pipeline", "write_edge_list", None),
    ("records.read", "citecode.cli", "read_jsonl", None),
    ("aggregate.table", "citecode.cli", "aggregate", None),
    ("aggregate.table", "citecode.cli", "table_to_csv", None),
    ("metrics.agreement", "citecode.cli", "agreement_report", None),
)

# (counter name, module, attribute). Counted functions are replaced in
# every citecode module that binds them, because several callers
# import them under their own module's name.
COUNTED = (
    ("names.normalize", "citecode.names", "normalize_author_key"),
    ("semantic.tokenize", "citecode.semantic", "tokenize"),
)


class _ThreadState:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_names: set[str] = set()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, function, doc_from: str | None):
        observe = _OBSERVERS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            index = len(state.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            state.spans.append(record)
            stack.append(index)
            record[1] = _perf()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = _perf()
                stack.pop()
            if doc_from == "result":
                record[4] = result.metadata.doc_id
            elif doc_from == "args":
                record[4] = args[0].metadata.doc_id
            if observe is not None:
                observe(state, args, result)
            return result

        return wrapper

    def _counted(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = self._state()
            state.counts[name + "_calls"] += 1
            if name == "names.normalize":
                state.distinct_names.add(args[0])
            return function(*args, **kwargs)

        return wrapper

    def _match_counted(self, function):
        @functools.wraps(function)
        def wrapper(lexicon, tokens):
            self._state().counts["semantic.match_calls"] += 1
            return function(lexicon, tokens)

        return wrapper

    # -- install / remove -----------------------------------------------

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._installed.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every traced name; raises if a name no longer exists."""
        wrapped: dict[tuple[str, str], object] = {}
        for name, module_name, attribute, doc_from in SPANS:
            module = sys.modules[module_name]
            if not hasattr(module, attribute):
                raise AttributeError(f"{module_name}.{attribute} is gone; cannot trace {name}")
            wrapped[(module_name, attribute)] = self._span(
                name, getattr(module, attribute), doc_from
            )
        for (module_name, attribute), wrapper in wrapped.items():
            self._replace(sys.modules[module_name], attribute, wrapper)

        for name, module_name, attribute in COUNTED:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._counted(name, original)
            for module_key, module in list(sys.modules.items()):
                if module_key.startswith("citecode") and getattr(module, attribute, None) is original:
                    self._replace(module, attribute, wrapper)

        lexicon_class = sys.modules["citecode.semantic"].CueLexicon
        self._replace(lexicon_class, "match", self._match_counted(lexicon_class.match))

    def remove(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def spans(self) -> list[list]:
        """All spans, parents as global indices, document ids inherited."""
        merged: list[list] = []
        for state in self._states:
            base = len(merged)
            for name, start, end, parent, doc_id in state.spans:
                merged.append([name, start, end, parent + base if parent >= 0 else -1, doc_id])
        for record in merged:
            if record[4] is None and record[3] >= 0:
                # Parents precede their children, so theirs is already final.
                record[4] = merged[record[3]][4]
        return merged

    def counts(self) -> Counter:
        total: Counter = Counter()
        distinct: set[str] = set()
        for state in self._states:
            total.update(state.counts)
            distinct |= state.distinct_names
        total["names.normalize_distinct"] = len(distinct)
        return total


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON object per span; parent is the id of the parent span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for index, (name, start, end, parent, doc_id) in enumerate(spans):
            out.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent if parent >= 0 else None, "doc_id": doc_id,
            }) + "\n")


def _observe_parse(state, args, result):
    state.counts["ingest.docs"] += 1
    data = args[0]
    state.counts["ingest.bytes"] += len(data if isinstance(data, bytes) else data.encode("utf-8"))


def _observe_segment(state, args, result):
    state.counts["sentences.calls"] += 1
    state.counts["sentences.chars"] += len(args[0])


def _observe_refparse(state, args, result):
    state.counts["refparse.entries"] += 1


def _observe_extract(state, args, result):
    for citation in result:
        state.counts[f"citations.{citation.link_status}"] += 1


def _observe_link(state, args, result):
    # link_citation examines every entry of the list it is handed.
    state.counts["citations.link_calls"] += 1
    state.counts["citations.refs_examined"] += len(args[1])


def _observe_build(state, args, result):
    state.counts["network.authors"] += len(result.nodes)
    state.counts["network.edges"] += len(result.edges)


def _observe_relation(state, args, result):
    state.counts["network.relation_calls"] += 1


def _observe_assemble(state, args, result):
    state.counts["records.assemble_calls"] += 1


def _observe_write_jsonl(state, args, result):
    state.counts["records.bytes_written"] += Path(args[1]).stat().st_size


_OBSERVERS = {
    "ingest.parse": _observe_parse,
    "sentences.segment": _observe_segment,
    "refparse.entry": _observe_refparse,
    "citations.extract": _observe_extract,
    "citations.link": _observe_link,
    "network.build": _observe_build,
    "network.relation": _observe_relation,
    "records.assemble": _observe_assemble,
    "records.write": _observe_write_jsonl,
}


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total time, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children; children always lie inside their parent's interval.
    """
    total: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[index]
    return total, self_time, calls
