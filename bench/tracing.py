"""Spans and call counts recorded around the program's public functions.

The tracer replaces module attributes (``epix.annotator.annotate_entities``,
``epix.llm.Transport.read_cached``, ...) with wrappers while it is
installed, and puts the originals back when it is removed. A timed target
records one span per call: its name, its parent span on the same thread,
the thread, start and end, and how many documents the call covered. A
counted target only counts calls, because it runs too often for a span
each (``fold`` runs once per token). Spans from worker threads are kept.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path


def _one(args, result):
    return 1


def _len_first(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


def _len_golds(args, result):
    return len(args[1])


# (span name, module, attribute path, documents covered by one call).
# Attributes the CLI imported by name are wrapped where the CLI looks them up.
TIMED = (
    ("corpus.ingest", "epix.cli", "parse_promed_post", _one),
    ("corpus.ingest", "epix.cli", "parse_don_article", _one),
    ("corpus.load", "epix.cli", "load_corpus", _len_result),
    ("annotator.entities", "epix.annotator", "annotate_entities", _one),
    ("annotator.counts", "epix.annotator", "annotate_counts", _one),
    ("annotator.dates", "epix.annotator", "annotate_dates", _one),
    ("annotator.filter", "epix.annotator", "filter_key_entities", _one),
    ("llm.build_messages", "epix.llm", "build_messages", _one),
    ("llm.digest", "epix.llm", "request_digest", _one),
    ("llm.island", "epix.llm", "extract_json_island", _one),
    ("llm.parse_fields", "epix.llm", "parse_fields", _one),
    ("llm.extract_documents", "epix.llm", "extract_documents", _len_first),
    ("llm.extract_with_llm", "epix.llm", "extract_with_llm", _one),
    ("llm.complete", "epix.llm", "complete", _one),
    ("llm.cache_read", "epix.llm", "Transport.read_cached", _one),
    ("llm.cache_write", "epix.llm", "Transport.write_cached", _one),
    ("ensemble.vote", "epix.cli", "ensemble_records", _one),
    ("ensemble.record_encode", "epix.ensemble", "ExtractionRecord.to_json", _one),
    ("ensemble.record_decode", "epix.ensemble", "ExtractionRecord.from_json", _one),
    ("evaluation.evaluate", "epix.cli", "evaluate", _len_golds),
    ("evaluation.render", "epix.cli", "render_report", _one),
)

# (counter name, module, attribute path)
COUNTED = (
    ("gazetteer.fold", "epix.gazetteer", "fold"),
    ("gazetteer.fold", "epix.normalize", "fold"),
    ("gazetteer.fold", "epix.annotator", "fold"),
    ("gazetteer.resolve_key", "epix.gazetteer", "Gazetteer.resolve_key"),
    ("evaluation.values_match", "epix.evaluation", "values_match"),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, thread, start_ns, end_ns, docs)
        self._ids = itertools.count(1)
        self._local = threading.local()  # per thread: open span ids, call tallies
        self._tallies: list[Counter] = []  # every thread's tally, for readout
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, func, docs):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("ids", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            # list.append is atomic, so worker threads can share the list.
            spans.append(
                (span_id, parent, name, threading.get_ident(), start, end, docs(args, result))
            )
            return result

        return wrapper

    def _counted(self, name, func):
        local, tallies = self._local, self._tallies

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tally = local.__dict__.get("tally")
            if tally is None:
                tally = local.tally = Counter()
                tallies.append(tally)
            tally[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _patch(self, module, path, make):
        owner, attr = _owner(module, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, module, path, docs in TIMED:
            self._patch(module, path, lambda f, n=name, d=docs: self._timed(n, f, d))
        for name, module, path in COUNTED:
            self._patch(module, path, lambda f, n=name: self._counted(n, f))

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- readout ----------------------------------------------------------

    def counts(self) -> Counter:
        """Calls per counted target since the last reset, over all threads."""
        return sum(self._tallies, Counter())

    def reset(self) -> None:
        self.spans.clear()
        for tally in self._tallies:
            tally.clear()


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, documents covered and total busy time in ns."""
    out: dict[str, dict] = {}
    for _, _, name, _, start, end, docs in spans:
        entry = out.setdefault(name, {"calls": 0, "docs": 0, "ns": 0})
        entry["calls"] += 1
        entry["docs"] += docs
        entry["ns"] += end - start
    return out


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, thread, start, end, docs in spans:
            fh.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "name": name, "thread": thread,
                     "start_ns": start, "end_ns": end, "docs": docs}
                )
                + "\n"
            )
