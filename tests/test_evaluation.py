import csv
import io
import json
from collections import Counter
from datetime import date

import pytest
from hypothesis import given, strategies as st

from epix.corpus import GoldAnnotation, json_line, stored_keys
from epix.ensemble import ExtractionRecord
from epix.errors import AlignmentError, EmptyReport
from epix.evaluation import (
    ConfusionCounts,
    EvaluationReport,
    MatchMode,
    MetricTriple,
    Outcome,
    ReportCell,
    accumulate_confusion,
    classify_pair,
    evaluate,
    f1,
    metric_triple,
    precision,
    record_keys,
    recall,
    render_report,
)
from epix.normalize import (
    FIELD_TABLE,
    CanonicalDisease,
    CaseCount,
    CountAttribute,
    CountryCode,
    FIELDS,
    normalize_country,
    normalize_disease,
)


def _pred(doc, disease=None, extractor="x"):
    # predictions carry values produced by the real normalizer
    return ExtractionRecord(
        document_id=doc,
        extractor_id=extractor,
        disease=normalize_disease(disease) if disease else None,
        disease_raw=disease,
    )


# --- classify_pair ------------------------------------------------------------


def test_classify_definitions():
    assert classify_pair(None, None, "disease", MatchMode.STRICT_VALUE) is Outcome.TN
    assert classify_pair(None, CanonicalDisease("x", "x"), "disease", MatchMode.STRICT_VALUE) is Outcome.FP
    assert classify_pair("Nipah virus", None, "disease", MatchMode.STRICT_VALUE) is Outcome.FN
    nipah = CanonicalDisease("nipah-virus", "Nipah virus")
    assert classify_pair("Nipah virus", nipah, "disease", MatchMode.STRICT_VALUE) is Outcome.TP


def test_classify_mode_contract():
    ebola = CanonicalDisease("ebola-virus-disease", "Ebola virus disease")
    assert classify_pair("Nipah virus", ebola, "disease", MatchMode.STRICT_VALUE) is Outcome.FP
    assert classify_pair("Nipah virus", ebola, "disease", MatchMode.DETECTION_ONLY) is Outcome.TP


@given(
    st.one_of(st.none(), st.sampled_from(["a", "b"])),
    st.one_of(st.none(), st.builds(CanonicalDisease, st.sampled_from(["a", "b"]), st.just("d"))),
    st.sampled_from(list(MatchMode)),
)
def test_classify_outcomes_partition(gold, pred, mode):
    outcome = classify_pair(gold, pred, "disease", mode)
    assert outcome in set(Outcome)


# --- accumulate_confusion ----------------------------------------------------------


def test_four_document_oracle():
    # (gold, pred): (A, A), (A, B), (absent, C), (absent, absent)
    golds = [
        GoldAnnotation("d1", disease="Nipah virus"),
        GoldAnnotation("d2", disease="Nipah virus"),
        GoldAnnotation("d3"),
        GoldAnnotation("d4"),
    ]
    preds = [
        _pred("d1", "Nipah virus"),
        _pred("d2", "Ebola virus disease"),
        _pred("d3", "Zika virus"),
        _pred("d4"),
    ]
    counts = accumulate_confusion(golds, preds, "disease", MatchMode.STRICT_VALUE)
    assert counts == ConfusionCounts(tp=1, fp=2, fn=0, tn=1)
    assert counts.total == 4


def test_all_absent_is_all_tn():
    golds = [GoldAnnotation(f"d{i}") for i in range(10)]
    preds = [_pred(f"d{i}") for i in range(10)]
    counts = accumulate_confusion(golds, preds, "disease", MatchMode.STRICT_VALUE)
    assert counts == ConfusionCounts(tn=10)


def test_missing_prediction_is_alignment_error():
    golds = [GoldAnnotation("d1"), GoldAnnotation("d2")]
    with pytest.raises(AlignmentError):
        accumulate_confusion(golds, [_pred("d1")], "disease", MatchMode.STRICT_VALUE)


def test_duplicate_ids_are_alignment_errors():
    golds = [GoldAnnotation("d1")]
    with pytest.raises(AlignmentError):
        accumulate_confusion(golds, [_pred("d1"), _pred("d1")], "disease", MatchMode.STRICT_VALUE)
    with pytest.raises(AlignmentError):
        accumulate_confusion(
            [GoldAnnotation("d1"), GoldAnnotation("d1")],
            [_pred("d1")],
            "disease",
            MatchMode.STRICT_VALUE,
        )


def test_extra_predictions_are_ignored():
    golds = [GoldAnnotation("d1", disease="Cholera")]
    preds = [_pred("d1", "Cholera"), _pred("d99", "Measles")]
    counts = accumulate_confusion(golds, preds, "disease", MatchMode.STRICT_VALUE)
    assert counts == ConfusionCounts(tp=1)


@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=30))
def test_detection_dominates_strict(pairs):
    golds = []
    preds = []
    for i, (has_gold, has_pred) in enumerate(pairs):
        golds.append(GoldAnnotation(f"d{i}", disease="Nipah virus" if has_gold else None))
        preds.append(_pred(f"d{i}", "Ebola" if has_pred else None))
    strict = accumulate_confusion(golds, preds, "disease", MatchMode.STRICT_VALUE)
    detect = accumulate_confusion(golds, preds, "disease", MatchMode.DETECTION_ONLY)
    assert strict.tp <= detect.tp
    assert strict.total == detect.total == len(pairs)


# Per field: gold values (raw strings, dates, ints) and predictions as (raw,
# normalized) pairs, mixing values that match, values that differ and absence.
# A raw string without a normalized value is a field warning: it scores as
# absent, and its stored field holds only the raw string.
_GOLD_VALUES = {
    "disease": [None, "Nipah virus", "Ebola virus disease", "EVD", "Cholera", "no such disease"],
    "country": [None, "India", "IND", "Uganda", "Atlantis"],
    "date": [None, date(2019, 6, 11), date(2018, 5, 31)],
    "count": [None, 0, 15, 200],
}
_PRED_VALUES = {
    "disease": [
        (None, None), ("no such disease", None),
        *((raw, normalize_disease(raw)) for raw in ("Nipah virus", "Ebola", "Cholera", "Zika")),
    ],
    "country": [
        (None, None), ("Atlantis", None),
        *((raw, normalize_country(raw)) for raw in ("India", "Uganda", "France")),
    ],
    "date": [
        (None, None), ("sometime in June", None), (None, date(2019, 6, 11)),
        ("31 May 2018", date(2018, 5, 31)), ("1 January 2020", date(2020, 1, 1)),
    ],
    "count": [
        (None, None), ("dozens", None), ("15", CaseCount(15)),
        ("about 200 cases", CaseCount(200, approximate=True)),
        ("no deaths", CaseCount(0, attribute=CountAttribute.DEATH)),
    ],
}


def _draw_values(data, pools):
    return {field: data.draw(st.sampled_from(pool)) for field, pool in pools.items()}


def _draw_record(data, doc_id, extractor):
    values = {}
    for field, pool in _PRED_VALUES.items():
        raw, value = data.draw(st.sampled_from(pool))
        values[f"{field}_raw"], values[field] = raw, value
    return ExtractionRecord(doc_id, extractor, **values)


def _draw_run(data):
    """Gold documents, and per extractor a shuffled record of each plus a few extra ones."""
    n_docs = data.draw(st.integers(0, 8), label="gold documents")
    n_extra = data.draw(st.integers(0, 3), label="extra predictions")
    golds = [GoldAnnotation(f"d{i}", **_draw_values(data, _GOLD_VALUES)) for i in range(n_docs)]
    records = {}
    for extractor in ("a", "b"):
        preds = [_draw_record(data, f"d{i}", extractor) for i in range(n_docs + n_extra)]
        records[extractor] = data.draw(st.permutations(preds))
    return golds, records


def _oracle_counts(golds, preds, field, mode):
    by_id = {record.document_id: record for record in preds}
    outcomes = Counter(
        classify_pair(
            gold.value(field), by_id[gold.document_id].normalized_value(field), field, mode
        )
        for gold in golds
    )
    return ConfusionCounts(
        outcomes[Outcome.TP], outcomes[Outcome.FP], outcomes[Outcome.FN], outcomes[Outcome.TN]
    )


@given(st.data(), st.sampled_from(list(MatchMode)))
def test_evaluate_equals_a_classify_pair_loop(data, mode):
    golds, records = _draw_run(data)
    report = evaluate(records, golds, mode, timestamp="t0")
    for extractor, preds in records.items():
        for field in FIELDS:
            expected = _oracle_counts(golds, preds, field, mode)
            assert report.cells[extractor][field].counts == expected
            assert report.cells[extractor][field].metrics == metric_triple(expected)
            assert accumulate_confusion(golds, preds, field, mode) == expected
    # The same tally from the keys stored in predictions files.
    stored = {
        extractor: stored_keys(b"".join(map(json_line, preds)).splitlines(keepends=True))
        for extractor, preds in records.items()
    }
    assert stored == {extractor: record_keys(preds) for extractor, preds in records.items()}
    assert evaluate(stored, golds, mode, timestamp="t0") == report

    if golds:
        dropped = data.draw(st.sampled_from(golds)).document_id
        missing = [record for record in records["a"] if record.document_id != dropped]
        repeated = [*records["a"], data.draw(st.sampled_from(records["a"]))]
        for broken_preds, broken_golds in (
            (missing, golds),
            (repeated, golds),
            (records["a"], [*golds, data.draw(st.sampled_from(golds))]),
        ):
            with pytest.raises(AlignmentError):
                evaluate({"a": broken_preds}, broken_golds, mode)


_TEXT = st.text(max_size=6)
_NORMALIZED = {
    "disease": st.builds(CanonicalDisease, _TEXT, _TEXT),
    "country": st.builds(CountryCode, _TEXT, _TEXT),
    "date": st.dates(),
    "count": st.builds(
        CaseCount, st.integers(0, 10**15), st.booleans(), st.sampled_from(list(CountAttribute))
    ),
}


@st.composite
def _records(draw):
    values = {}
    for field, normalized in _NORMALIZED.items():
        values[f"{field}_raw"] = draw(st.one_of(st.none(), _TEXT))
        values[field] = draw(st.one_of(st.none(), normalized))
    return ExtractionRecord(
        draw(st.text(min_size=1, max_size=4)), "x",
        parse_failure=draw(st.booleans()), **values,
    )


@given(st.lists(_records(), max_size=4, unique_by=lambda record: record.document_id))
def test_stored_tag_is_the_comparison_key_of_the_decoded_value(records):
    keys = stored_keys(b"".join(map(json_line, records)).splitlines(keepends=True))
    assert list(keys) == [record.document_id for record in records]
    for record in records:
        decoded = ExtractionRecord.from_json(json.loads(json_line(record)))
        expected = tuple(
            None if (value := decoded.normalized_value(f)) is None else FIELD_TABLE[f].key(value)
            for f in FIELDS
        )
        assert keys[record.document_id] == expected


# --- metrics ---------------------------------------------------------------------


def test_metric_formulas():
    counts = ConfusionCounts(tp=3, fp=1, fn=2, tn=4)
    assert precision(counts) == pytest.approx(0.75)
    assert recall(counts) == pytest.approx(0.6)
    assert f1(0.75, 0.6) == pytest.approx(2 * 0.75 * 0.6 / 1.35)


@pytest.mark.parametrize(
    "counts,expected",
    [
        (ConfusionCounts(tp=0, fp=0, fn=0, tn=5), (1.0, 1.0, 1.0)),
        (ConfusionCounts(tp=0, fp=0, fn=0, tn=0), (0.0, 0.0, 0.0)),
        (ConfusionCounts(tp=0, fp=0, fn=3, tn=2), (0.0, 0.0, 0.0)),
        (ConfusionCounts(tp=0, fp=3, fn=0, tn=2), (0.0, 0.0, 0.0)),
        (ConfusionCounts(tp=2, fp=0, fn=0, tn=0), (1.0, 1.0, 1.0)),
    ],
)
def test_degenerate_conventions(counts, expected):
    triple = metric_triple(counts)
    assert (triple.precision, triple.recall, triple.f1) == expected


@given(st.floats(0, 1), st.floats(0, 1))
def test_f1_identity_and_symmetry(p, r):
    value = f1(p, r)
    assert f1(r, p) == value
    if p + r > 0:
        assert value * (p + r) == pytest.approx(2 * p * r, abs=1e-12)
    else:
        assert value == 0.0


# --- evaluate and render ---------------------------------------------------------


def _perfect_run():
    golds = [
        GoldAnnotation(f"d{i}", disease="Nipah virus", country=None, date=None, count=None)
        for i in range(5)
    ]
    preds = [_pred(f"d{i}", "Nipah virus") for i in range(5)]
    return golds, preds


def test_perfect_predictions_score_one():
    golds, preds = _perfect_run()
    report = evaluate({"x": preds}, golds, MatchMode.STRICT_VALUE, timestamp="t0")
    for field in FIELDS:
        cell = report.cells["x"][field]
        assert (cell.metrics.precision, cell.metrics.recall, cell.metrics.f1) == (1, 1, 1)
        assert cell.counts.total == 5


def test_all_absent_predictor_has_zero_recall():
    golds = [GoldAnnotation("d1", disease="Nipah virus"), GoldAnnotation("d2")]
    silent = [_pred("d1"), _pred("d2")]
    good = [_pred("d1", "Nipah virus"), _pred("d2")]
    report = evaluate({"good": good, "silent": silent}, golds, MatchMode.STRICT_VALUE)
    assert report.cells["silent"]["disease"].metrics.recall == 0.0
    assert report.cells["good"]["disease"].metrics.recall == 1.0
    assert report.extractors == ("good", "silent")


def test_render_csv_row_count_and_rounding():
    golds, preds = _perfect_run()
    report = evaluate({"x": preds, "y": preds}, golds, timestamp="t0")
    csv_bytes = render_report(report, "csv")
    lines = csv_bytes.decode().strip().split("\n")
    assert len(lines) == 1 + 2 * len(FIELDS)
    triple = metric_triple(ConfusionCounts(tp=531, fp=231, fn=208, tn=30))
    assert triple.f1 == pytest.approx(0.707528, abs=1e-5)
    assert f"{triple.f1:.3f}" == "0.708"
    assert f"{f1(0.692, 0.719):.3f}" == "0.705"


def test_render_formats_and_empty_report():
    golds, preds = _perfect_run()
    report = evaluate({"x": preds}, golds, timestamp="t0")
    table = render_report(report, "table").decode()
    assert "extractor" in table and "0.000" not in table
    plot = render_report(report, "plot").decode()
    assert plot.count("\n") == 1 + len(FIELDS) * 3
    rows = [json.loads(line) for line in render_report(report, "jsonl").decode().splitlines()]
    assert rows[0]["extractor"] == "x"
    empty = EvaluationReport(MatchMode.STRICT_VALUE, (), {}, timestamp="t0")
    with pytest.raises(EmptyReport):
        render_report(empty, "csv")
    with pytest.raises(ValueError):
        render_report(report, "xml")


def test_report_json_roundtrip():
    golds, preds = _perfect_run()
    report = evaluate(
        {"x": preds}, golds, MatchMode.DETECTION_ONLY,
        gold_path="gold.jsonl", corpus_digest="abc", timestamp="t0",
    )
    assert EvaluationReport.from_json(report.to_json()) == report


# Extractor ids with commas, quotes and non-ASCII letters (no whitespace, so
# table columns split on it); metrics that render to edge values.
_IDS = st.text(alphabet=list('ab,"\';-éß漢'), min_size=1, max_size=6)
_METRICS = st.one_of(st.sampled_from([0.0, 1.0, 1 / 3, 2 / 3, 0.0005, 0.9995]), st.floats(0, 1))


@st.composite
def _reports(draw):
    extractors = tuple(draw(st.lists(_IDS, min_size=1, max_size=3, unique=True)))
    counts = st.builds(ConfusionCounts, *[st.integers(0, 10**6)] * 4)
    metrics = st.builds(MetricTriple, _METRICS, _METRICS, _METRICS)
    cells = {
        extractor: {field: ReportCell(draw(counts), draw(metrics)) for field in FIELDS}
        for extractor in extractors
    }
    return EvaluationReport(
        draw(st.sampled_from(list(MatchMode))), extractors, cells,
        gold_path=draw(st.one_of(st.none(), _IDS)), corpus_digest="abc", timestamp="t0",
    )


@given(_reports())
def test_every_render_carries_the_same_cells_and_rounding(report):
    header = ["extractor", "field", "tp", "fp", "fn", "tn", "precision", "recall", "f1"]
    cells = [
        (extractor, field, report.cells[extractor][field])
        for extractor in report.extractors
        for field in FIELDS
    ]
    metric_names = ("precision", "recall", "f1")
    text_rows = []
    json_rows = []
    for extractor, field, cell in cells:
        counts = [cell.counts.tp, cell.counts.fp, cell.counts.fn, cell.counts.tn]
        metrics = [cell.metrics.precision, cell.metrics.recall, cell.metrics.f1]
        texts = [f"{m:.3f}" for m in metrics]
        # The text formats and JSONL round the same way.
        assert [float(t) for t in texts] == [round(m, 3) for m in metrics]
        text_rows.append([extractor, field, *map(str, counts), *texts])
        json_rows.append([extractor, field, *counts, *(round(m, 3) for m in metrics)])

    def render(fmt):
        return render_report(report, fmt).decode("utf-8")

    assert list(csv.reader(io.StringIO(render("csv")))) == [header, *text_rows]
    table = render("table").splitlines()
    assert table[0].startswith(f"# mode={report.mode.value}")
    assert [line.split() for line in table[1:]] == [header, *text_rows]
    jsonl = [json.loads(line) for line in render("jsonl").splitlines()]
    assert [list(row) for row in jsonl] == [header] * len(cells)
    assert [list(row.values()) for row in jsonl] == json_rows
    plot = list(csv.reader(io.StringIO(render("plot"))))
    assert plot == [
        ["extractor", "field", "metric", "value"],
        *(
            [row[0], row[1], name, value]
            for row in text_rows
            for name, value in zip(metric_names, row[6:])
        ),
    ]
    stored = json.loads(json.dumps(report.to_json(), ensure_ascii=False))
    assert EvaluationReport.from_json(stored) == report
