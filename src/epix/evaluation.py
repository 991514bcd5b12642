"""Scoring of extraction records against gold annotations.

Each (document, field) pair is a binary classification: the negative class
means no information is attached. Pairs are tallied into TP/FP/FN/TN per
extractor and field, from which Precision, Recall, and F1 follow.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import ExtractionRecord, GoldAnnotation
from .errors import AlignmentError, EmptyReport, SchemaError
from .normalize import FIELDS, comparison_key, values_match


class MatchMode(str, Enum):
    # STRICT_VALUE scores a present-but-wrong value as a false positive;
    # DETECTION_ONLY credits any present prediction when gold is present.
    STRICT_VALUE = "STRICT_VALUE"
    DETECTION_ONLY = "DETECTION_ONLY"


class Outcome(str, Enum):
    TP = "TP"
    FP = "FP"
    FN = "FN"
    TN = "TN"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricTriple:
    precision: float
    recall: float
    f1: float


def classify_pair(gold, pred, field: str, mode: MatchMode) -> Outcome:
    """Classify one (gold, prediction) value pair.

    Absence on both sides is a true negative; a spurious prediction is a
    false positive; a missed gold value is a false negative. When both are
    present the mode decides whether value equality is required.
    """
    if gold is None and pred is None:
        return Outcome.TN
    if gold is None:
        return Outcome.FP
    if pred is None:
        return Outcome.FN
    if mode is MatchMode.DETECTION_ONLY:
        return Outcome.TP
    return Outcome.TP if values_match(field, gold, pred) else Outcome.FP


def gold_keys(golds: Iterable[GoldAnnotation]) -> dict[str, tuple]:
    """Each gold document's comparison keys, in FIELDS order, by document id."""
    keys: dict[str, tuple] = {}
    for gold in golds:
        if gold.document_id in keys:
            raise AlignmentError(f"duplicate gold annotation for {gold.document_id!r}")
        keys[gold.document_id] = tuple(comparison_key(f, gold.value(f)) for f in FIELDS)
    return keys


def record_keys(records: Iterable[ExtractionRecord]) -> dict[str, tuple]:
    """Each record's comparison keys, in FIELDS order, by document id."""
    keys: dict[str, tuple] = {}
    for record in records:
        if record.document_id in keys:
            raise AlignmentError(f"duplicate prediction for document {record.document_id!r}")
        keys[record.document_id] = tuple(
            comparison_key(f, record.normalized_value(f)) for f in FIELDS
        )
    return keys


def tally(
    golds: Mapping[str, tuple], preds: Mapping[str, tuple], mode: MatchMode
) -> dict[str, ConfusionCounts]:
    """Per field, the classify_pair outcomes over the gold documents, from comparison keys.

    ``golds`` and ``preds`` are ``gold_keys`` and ``record_keys`` maps. Every
    gold document must have a prediction (whose keys may be absent);
    predictions for documents outside the gold set are ignored, so a
    full-corpus prediction file can be scored on a subset.
    """
    # Per field, the TP, FP, FN and TN counts, in the order of the ConfusionCounts fields.
    counts = [[0, 0, 0, 0] for _ in FIELDS]
    strict = mode is MatchMode.STRICT_VALUE
    for doc_id, gold in golds.items():
        pred = preds.get(doc_id)
        if pred is None:
            raise AlignmentError(f"no prediction for gold document {doc_id!r}")
        for cell, g, p in zip(counts, gold, pred):
            if g is None:
                cell[3 if p is None else 1] += 1
            elif p is None:
                cell[2] += 1
            else:
                cell[1 if strict and g != p else 0] += 1
    return {field: ConfusionCounts(*cell) for field, cell in zip(FIELDS, counts)}


def accumulate_confusion(
    golds: Sequence[GoldAnnotation],
    preds: Sequence[ExtractionRecord],
    field: str,
    mode: MatchMode,
) -> ConfusionCounts:
    """Tally classify_pair outcomes of one field over gold documents.

    The one-field case of what ``evaluate`` tallies, with the same alignment
    rules and errors.
    """
    return tally(gold_keys(golds), record_keys(preds), mode)[field]


def precision(c: ConfusionCounts) -> float:
    if c.tp + c.fp > 0:
        return c.tp / (c.tp + c.fp)
    # No positive predictions at all: perfect only in the all-negative case.
    return 1.0 if c.fn == 0 and c.tn > 0 else 0.0


def recall(c: ConfusionCounts) -> float:
    if c.tp + c.fn > 0:
        return c.tp / (c.tp + c.fn)
    return 1.0 if c.fp == 0 and c.tn > 0 else 0.0


def f1(precision_value: float, recall_value: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision_value + recall_value == 0:
        return 0.0
    return 2 * precision_value * recall_value / (precision_value + recall_value)


def metric_triple(c: ConfusionCounts) -> MetricTriple:
    p = precision(c)
    r = recall(c)
    return MetricTriple(p, r, f1(p, r))


# --- reports ---------------------------------------------------------------


@dataclass(frozen=True)
class ReportCell:
    counts: ConfusionCounts
    metrics: MetricTriple


@dataclass(frozen=True)
class EvaluationReport:
    mode: MatchMode
    extractors: tuple[str, ...]
    cells: Mapping[str, Mapping[str, ReportCell]]  # extractor -> field -> cell
    gold_path: Optional[str] = None
    corpus_digest: Optional[str] = None
    timestamp: Optional[str] = None

    def to_json(self) -> dict:
        cells: dict[str, dict[str, dict]] = {}
        for row in _rows(self):
            extractor, field = row.pop("extractor"), row.pop("field")
            cells.setdefault(extractor, {})[field] = row
        return {
            "mode": self.mode.value,
            "gold_path": self.gold_path,
            "corpus_digest": self.corpus_digest,
            "timestamp": self.timestamp,
            "extractors": list(self.extractors),
            "cells": cells,
        }

    @staticmethod
    def from_json(data: Mapping) -> "EvaluationReport":
        """Read what to_json wrote; every extractor needs a valid cell for every field."""
        extractors = tuple(data["extractors"])
        return EvaluationReport(
            mode=MatchMode(data["mode"]),
            extractors=extractors,
            cells={
                extractor: {
                    field: _cell_from_json(data["cells"], extractor, field) for field in FIELDS
                }
                for extractor in extractors
            },
            gold_path=data.get("gold_path"),
            corpus_digest=data.get("corpus_digest"),
            timestamp=data.get("timestamp"),
        )


def evaluate(
    records_by_extractor: Mapping[str, Sequence[ExtractionRecord] | Mapping[str, tuple]],
    golds: Sequence[GoldAnnotation],
    mode: MatchMode = MatchMode.STRICT_VALUE,
    gold_path: str | None = None,
    corpus_digest: str | None = None,
    timestamp: str | None = None,
) -> EvaluationReport:
    """Score every extractor on every field against the gold annotations.

    An extractor's records may come as a sequence or already as their
    ``record_keys`` map. The gold keys are computed once for all extractors.
    """
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    gold = gold_keys(golds)
    cells: dict[str, dict[str, ReportCell]] = {}
    for extractor, records in records_by_extractor.items():
        keys = records if isinstance(records, Mapping) else record_keys(records)
        counts = tally(gold, keys, mode)
        cells[extractor] = {field: ReportCell(c, metric_triple(c)) for field, c in counts.items()}
    return EvaluationReport(
        mode=mode,
        extractors=tuple(records_by_extractor),
        cells=cells,
        gold_path=gold_path,
        corpus_digest=corpus_digest,
        timestamp=timestamp,
    )


# Every rendered format and the file `epix evaluate` writes it to.
REPORT_FORMATS = {
    "table": "report.txt",
    "csv": "report.csv",
    "jsonl": "report.jsonl",
    "plot": "report_plot.csv",
}
_COUNTS = tuple(f.name for f in dataclasses.fields(ConfusionCounts))
_METRICS = tuple(f.name for f in dataclasses.fields(MetricTriple))
_CSV_HEADER = ["extractor", "field", *_COUNTS, *_METRICS]


def _rows(report: EvaluationReport):
    """The report as one row per extractor and field, keyed by _CSV_HEADER in its order."""
    for extractor in report.extractors:
        for field in FIELDS:
            cell = report.cells[extractor][field]
            yield {
                "extractor": extractor,
                "field": field,
                **{name: getattr(cell.counts, name) for name in _COUNTS},
                **{name: getattr(cell.metrics, name) for name in _METRICS},
            }


def _cell_from_json(cells: Mapping, extractor: str, field: str) -> ReportCell:
    """The cell of report.json's ``cells`` for one extractor and field, checked."""
    where = f"cell {extractor!r}/{field}"
    try:
        values = cells[extractor][field]
        counts = [values[name] for name in _COUNTS]
        metrics = [values[name] for name in _METRICS]
    except LookupError as exc:
        raise SchemaError(f"{where}: missing {exc}") from None
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in counts):
        raise SchemaError(f"{where}: counts must be integers >= 0, got {counts}")
    if not all(isinstance(m, (int, float)) and not isinstance(m, bool) for m in metrics):
        raise SchemaError(f"{where}: metrics must be numbers, got {metrics}")
    return ReportCell(ConfusionCounts(*counts), MetricTriple(*metrics))


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _text(row: Mapping) -> list[str]:
    """A row as the text formats print it: metrics to 3 decimals, the rest as is."""
    return [_fmt(value) if name in _METRICS else str(value) for name, value in row.items()]


def render_report(report: EvaluationReport, fmt: str) -> bytes:
    """Render a report as an aligned table, CSV, JSONL rows, or plot series."""
    if not report.extractors:
        raise EmptyReport("report has no extractors")
    rows = list(_rows(report))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(_CSV_HEADER)
        writer.writerows(_text(row) for row in rows)
    elif fmt == "jsonl":
        for row in rows:
            rounded = {name: round(v, 3) if name in _METRICS else v for name, v in row.items()}
            buffer.write(json.dumps(rounded, ensure_ascii=False) + "\n")
    elif fmt == "plot":
        writer.writerow(["extractor", "field", "metric", "value"])
        for row in rows:
            for metric in _METRICS:
                writer.writerow([row["extractor"], row["field"], metric, _fmt(row[metric])])
    elif fmt == "table":
        texts = [_text(row) for row in rows]
        widths = [
            max(len(header), *(len(text[i]) for text in texts))
            for i, header in enumerate(_CSV_HEADER)
        ]
        gold = f" gold={report.gold_path}" if report.gold_path else ""
        buffer.write(f"# mode={report.mode.value}{gold}\n")
        for text in [_CSV_HEADER, *texts]:
            buffer.write("  ".join(v.ljust(w) for v, w in zip(text, widths)).rstrip() + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return buffer.getvalue().encode("utf-8")
