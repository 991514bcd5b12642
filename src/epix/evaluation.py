"""Scoring of extraction records against gold annotations.

Each (document, field) pair is a binary classification: the negative class
means no information is attached. Pairs are tallied into TP/FP/FN/TN per
extractor and field, from which Precision, Recall, and F1 follow.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Mapping, Optional, Sequence

from .corpus import ExtractionRecord, GoldAnnotation
from .errors import AlignmentError, EmptyReport
from .normalize import FIELDS, values_match


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

    def add(self, outcome: Outcome) -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + (outcome is Outcome.TP),
            self.fp + (outcome is Outcome.FP),
            self.fn + (outcome is Outcome.FN),
            self.tn + (outcome is Outcome.TN),
        )


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


def accumulate_confusion(
    golds: Sequence[GoldAnnotation],
    preds: Sequence[ExtractionRecord],
    field: str,
    mode: MatchMode,
) -> ConfusionCounts:
    """Tally classify_pair outcomes over gold documents.

    Every gold document must have exactly one prediction record (whose field
    value may be absent); predictions for documents outside the gold set are
    ignored, so a full-corpus prediction file can be scored on a subset.
    """
    by_id: dict[str, ExtractionRecord] = {}
    for record in preds:
        if record.document_id in by_id:
            raise AlignmentError(f"duplicate prediction for document {record.document_id!r}")
        by_id[record.document_id] = record

    counts = ConfusionCounts()
    seen: set[str] = set()
    for gold in golds:
        if gold.document_id in seen:
            raise AlignmentError(f"duplicate gold annotation for {gold.document_id!r}")
        seen.add(gold.document_id)
        record = by_id.get(gold.document_id)
        if record is None:
            raise AlignmentError(f"no prediction for gold document {gold.document_id!r}")
        outcome = classify_pair(
            gold.value(field), record.normalized_value(field), field, mode
        )
        counts = counts.add(outcome)
    return counts


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
        return {
            "mode": self.mode.value,
            "gold_path": self.gold_path,
            "corpus_digest": self.corpus_digest,
            "timestamp": self.timestamp,
            "extractors": list(self.extractors),
            "cells": {
                extractor: {
                    field: {
                        "tp": cell.counts.tp,
                        "fp": cell.counts.fp,
                        "fn": cell.counts.fn,
                        "tn": cell.counts.tn,
                        "precision": cell.metrics.precision,
                        "recall": cell.metrics.recall,
                        "f1": cell.metrics.f1,
                    }
                    for field, cell in fields.items()
                }
                for extractor, fields in self.cells.items()
            },
        }

    @staticmethod
    def from_json(data: Mapping) -> "EvaluationReport":
        cells = {}
        for extractor, fields in data["cells"].items():
            cells[extractor] = {}
            for field, cell in fields.items():
                counts = ConfusionCounts(cell["tp"], cell["fp"], cell["fn"], cell["tn"])
                metrics = MetricTriple(cell["precision"], cell["recall"], cell["f1"])
                cells[extractor][field] = ReportCell(counts, metrics)
        return EvaluationReport(
            mode=MatchMode(data["mode"]),
            extractors=tuple(data["extractors"]),
            cells=cells,
            gold_path=data.get("gold_path"),
            corpus_digest=data.get("corpus_digest"),
            timestamp=data.get("timestamp"),
        )


def evaluate(
    records_by_extractor: Mapping[str, Sequence[ExtractionRecord]],
    golds: Sequence[GoldAnnotation],
    mode: MatchMode = MatchMode.STRICT_VALUE,
    gold_path: str | None = None,
    corpus_digest: str | None = None,
    timestamp: str | None = None,
) -> EvaluationReport:
    """Score every extractor on every field against the gold annotations."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    cells: dict[str, dict[str, ReportCell]] = {}
    for extractor, records in records_by_extractor.items():
        cells[extractor] = {}
        for field in FIELDS:
            counts = accumulate_confusion(golds, records, field, mode)
            cells[extractor][field] = ReportCell(counts, metric_triple(counts))
    return EvaluationReport(
        mode=mode,
        extractors=tuple(records_by_extractor),
        cells=cells,
        gold_path=gold_path,
        corpus_digest=corpus_digest,
        timestamp=timestamp,
    )


REPORT_FORMATS = ("table", "csv", "jsonl", "plot")
_CSV_HEADER = ["extractor", "field", "tp", "fp", "fn", "tn", "precision", "recall", "f1"]


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _rows(report: EvaluationReport):
    for extractor in report.extractors:
        for field in FIELDS:
            cell = report.cells[extractor][field]
            yield extractor, field, cell


def render_report(report: EvaluationReport, fmt: str) -> bytes:
    """Render a report as an aligned table, CSV, JSONL rows, or plot series."""
    if not report.extractors:
        raise EmptyReport("report has no extractors")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for extractor, field, cell in _rows(report):
            writer.writerow(
                [
                    extractor, field,
                    cell.counts.tp, cell.counts.fp, cell.counts.fn, cell.counts.tn,
                    _fmt(cell.metrics.precision), _fmt(cell.metrics.recall),
                    _fmt(cell.metrics.f1),
                ]
            )
        return buffer.getvalue().encode("utf-8")
    if fmt == "jsonl":
        lines = []
        for extractor, field, cell in _rows(report):
            lines.append(
                json.dumps(
                    {
                        "extractor": extractor,
                        "field": field,
                        "tp": cell.counts.tp,
                        "fp": cell.counts.fp,
                        "fn": cell.counts.fn,
                        "tn": cell.counts.tn,
                        "precision": round(cell.metrics.precision, 3),
                        "recall": round(cell.metrics.recall, 3),
                        "f1": round(cell.metrics.f1, 3),
                    },
                    ensure_ascii=False,
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "plot":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["extractor", "field", "metric", "value"])
        for extractor, field, cell in _rows(report):
            for metric, value in (
                ("precision", cell.metrics.precision),
                ("recall", cell.metrics.recall),
                ("f1", cell.metrics.f1),
            ):
                writer.writerow([extractor, field, metric, _fmt(value)])
        return buffer.getvalue().encode("utf-8")
    if fmt == "table":
        rows = [
            [
                extractor, field,
                str(cell.counts.tp), str(cell.counts.fp), str(cell.counts.fn),
                str(cell.counts.tn),
                _fmt(cell.metrics.precision), _fmt(cell.metrics.recall),
                _fmt(cell.metrics.f1),
            ]
            for extractor, field, cell in _rows(report)
        ]
        widths = [
            max(len(header), *(len(row[i]) for row in rows))
            for i, header in enumerate(_CSV_HEADER)
        ]
        lines = [
            f"# mode={report.mode.value}"
            + (f" gold={report.gold_path}" if report.gold_path else ""),
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(_CSV_HEADER)).rstrip(),
        ]
        for row in rows:
            lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip())
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")
