import html as html_stdlib
import json
import re
from datetime import date

import pytest
from hypothesis import given, strategies as st

from epix.corpus import (
    Document,
    GoldAnnotation,
    Source,
    load_corpus,
    load_gold,
    parse_don_article,
    parse_promed_post,
    save_corpus,
    save_gold,
    strip_markup,
    write_jsonl,
)
from epix.errors import EmptyInput, SchemaError


# --- promed ingestion -------------------------------------------------------


def test_promed_subject_becomes_title():
    doc = parse_promed_post("Subject: Nipah virus - India\n\nFifteen cases reported in Kerala.")
    assert doc.title == "Nipah virus - India"
    assert doc.body == "Fifteen cases reported in Kerala."
    assert doc.source is Source.PROMED


def test_promed_tag_stripping():
    doc = parse_promed_post("<p>Outbreak <b>update</b></p>")
    assert doc.body == "Outbreak update"


def test_promed_title_fallback_is_body_head():
    body = "word " * 60
    doc = parse_promed_post(body)
    assert doc.title == doc.body[:120]


def test_promed_empty_input():
    with pytest.raises(EmptyInput):
        parse_promed_post("   \n  ")


def test_promed_hint_metadata():
    doc = parse_promed_post(
        "Subject: X\n\nBody text.",
        hint={"id": "promed-42", "url": "http://promed/42", "published": "2019-01-02"},
    )
    assert doc.id == "promed-42"
    assert doc.url == "http://promed/42"
    assert doc.published == date(2019, 1, 2)


def test_promed_ids_are_deterministic():
    raw = "Subject: A\n\nSame content."
    assert parse_promed_post(raw).id == parse_promed_post(raw).id


# --- don ingestion ------------------------------------------------------------


def test_don_header_date():
    doc = parse_don_article(
        "<h1>Nipah virus - India</h1><p>31 May 2018 | Disease outbreak news</p><p>Body.</p>",
        url="http://who/don-1",
    )
    assert doc.published == date(2018, 5, 31)
    assert doc.title == "Nipah virus - India"
    assert doc.source is Source.WHO_DON
    assert doc.url == "http://who/don-1"


def test_don_without_date_header():
    doc = parse_don_article("<p>No date anywhere in the header.</p>", url="u")
    assert doc.published is None


def test_don_malformed_markup_is_flagged_not_fatal():
    doc = parse_don_article("<p>ok</p><a href=", url="u")
    assert "malformed-markup" in doc.warnings
    assert "ok" in doc.body


def test_don_script_and_style_text_is_dropped_from_the_body():
    doc = parse_don_article(
        "<html><head><style>p { color: red }</style><script>var cases = 99;</script></head>"
        "<body><p>Cholera in Yemen.</p><script>track('don')</script></body></html>",
        url="u",
    )
    assert doc.body == "Cholera in Yemen."
    assert doc.warnings == ()


def _reference_strip(raw: str) -> str:
    return " ".join(html_stdlib.unescape(re.sub(r"<[^>]+>", " ", raw)).split())


def test_don_fixture_bodies_match_reference_stripper(fixtures_dir):
    # Independent oracle: crude regex tag removal plus entity unescaping.
    files = sorted((fixtures_dir / "don").glob("*.html"))
    assert len(files) == 5
    for path in files:
        raw = path.read_text(encoding="utf-8")
        doc = parse_don_article(raw, url=path.name)
        assert doc.body == _reference_strip(raw), path.name
        assert not re.search(r"<[A-Za-z]", doc.body)


def test_don_fixture_headers_parse(fixtures_dir):
    doc = parse_don_article(
        (fixtures_dir / "don" / "001.html").read_text(encoding="utf-8"), url="u"
    )
    assert doc.published == date(2018, 5, 31)
    assert doc.title == "Nipah virus - India"


# --- corpus persistence ----------------------------------------------------


def _docs():
    return [
        Document("a", Source.PROMED, "t1", "body one"),
        Document("b", Source.WHO_DON, "t2", "body two", url="http://x", published=date(2020, 1, 1)),
        Document("c", Source.OTHER, "t3", "body three", warnings=("malformed-markup",)),
    ]


def test_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(_docs(), path)
    assert load_corpus(path) == _docs()


def test_corpus_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = json.dumps(_docs()[0].to_json())
    path.write_text(good + "\n{oops\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2"):
        load_corpus(path)


@pytest.mark.parametrize(
    "warnings", ["abc", [1, None], ["malformed-markup", 7], {"a": 1}, None],
    ids=["string", "numbers", "one-number", "object", "null"],
)
def test_corpus_warnings_must_be_a_list_of_strings(tmp_path, warnings):
    path = tmp_path / "corpus.jsonl"
    good = _docs()[2].to_json()
    lines = [good, {**good, "id": "d2", "warnings": warnings}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2: .*warnings must be a list of strings"):
        load_corpus(path)


def test_corpus_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus([_docs()[0], _docs()[0]], path)
    with pytest.raises(SchemaError, match="duplicate"):
        load_corpus(path)


def test_failed_write_keeps_the_old_file(tmp_path):
    class Unwritable:
        def to_json(self):
            raise RuntimeError("cannot encode")

    path = tmp_path / "corpus.jsonl"
    save_corpus(_docs(), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        write_jsonl([_docs()[0], Unwritable()], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_empty_corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


_text = st.text(
    alphabet=st.characters(blacklist_categories=["Cs"]), max_size=40
)


@given(
    st.lists(
        st.builds(
            Document,
            id=st.text(min_size=1, max_size=12),
            source=st.sampled_from(list(Source)),
            title=_text,
            body=_text,
            url=st.none() | st.text(max_size=20),
            published=st.none() | st.dates(),
            warnings=st.tuples() | st.tuples(st.just("malformed-markup")),
        ),
        max_size=8,
        unique_by=lambda d: d.id,
    )
)
def test_corpus_roundtrip_property(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    save_corpus(docs, path)
    assert load_corpus(path) == docs


@given(_text)
def test_strip_markup_idempotent(raw):
    stripped = strip_markup(raw)
    assert strip_markup(stripped) == stripped


@given(st.lists(st.sampled_from(["<p>", "</p>", "<b>", "</b>", "<table>", "<li>", "text", "&amp;", " ", "word"]), max_size=20))
def test_stripped_text_has_no_tag_remnants(pieces):
    stripped = strip_markup("".join(pieces))
    assert not re.search(r"<[A-Za-z]", stripped)


# --- gold files ----------------------------------------------------------------


def test_gold_full_record(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        '{"document_id":"d1","disease":"Nipah virus","country":"India",'
        '"date":"2018-05-31","count":15}\n',
        encoding="utf-8",
    )
    [gold] = load_gold(path)
    assert gold == GoldAnnotation("d1", "Nipah virus", "India", date(2018, 5, 31), 15)
    assert gold.value("count") == 15


def test_gold_all_nulls(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        '{"document_id":"d1","disease":null,"country":null,"date":null,"count":null}\n',
        encoding="utf-8",
    )
    [gold] = load_gold(path)
    assert gold == GoldAnnotation("d1")


def test_gold_missing_document_id(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"disease":"X"}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="line 1"):
        load_gold(path)


def test_gold_rejects_empty_strings(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"document_id":"d1","disease":""}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_gold(path)


def test_gold_rejects_negative_count(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"document_id":"d1","count":-3}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_gold(path)


# Forms CPython 3.11's ``date.fromisoformat`` reads as 2019-05-03 and 3.10's refuses.
_OTHER_ISO_FORMS = ["20190503", "2019-W18-5"]


@pytest.mark.parametrize("spelled", _OTHER_ISO_FORMS)
def test_gold_date_must_be_year_month_day(tmp_path, spelled):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        f'{{"document_id":"d1","date":"2019-05-03"}}\n{{"document_id":"d2","date":"{spelled}"}}\n',
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="line 2"):
        load_gold(path)
    path.write_text('{"document_id":"d1","date":"2019-05-03"}\n', encoding="utf-8")
    assert load_gold(path)[0].date == date(2019, 5, 3)


@pytest.mark.parametrize("spelled", _OTHER_ISO_FORMS)
def test_corpus_published_date_must_be_year_month_day(tmp_path, spelled):
    path = tmp_path / "corpus.jsonl"
    doc = {"id": "d1", "source": "PROMED", "title": "t", "body": "b", "published": "2019-05-03"}
    lines = [doc, {**doc, "id": "d2", "published": spelled}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2"):
        load_corpus(path)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert load_corpus(path)[0].published == date(2019, 5, 3)


def test_gold_roundtrip(tmp_path):
    golds = [
        GoldAnnotation("d1", "Cholera", "Yemen", None, 5000),
        GoldAnnotation("d2"),
    ]
    path = tmp_path / "gold.jsonl"
    save_gold(golds, path)
    assert load_gold(path) == golds
