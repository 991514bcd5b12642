import unicodedata
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from epix.annotator import (
    _TOKEN_RE,
    EntitySpan,
    annotate_counts,
    annotate_dates,
    annotate_entities,
    extract_rule_based,
    filter_key_entities,
    KeyEntitySet,
)
from epix.corpus import Document, Source, parse_don_article, parse_promed_post
from epix.errors import SchemaError
from epix.gazetteer import (
    COUNTRY,
    DISEASE,
    Gazetteer,
    default_gazetteer,
    fold,
    load_gazetteer,
)
from epix.normalize import CaseCount, CountAttribute


def _doc(body, doc_id="doc", published=None):
    return Document(id=doc_id, source=Source.OTHER, title="", body=body, published=published)


# --- gazetteer --------------------------------------------------------------


def test_default_gazetteer_resolves_synonyms(gazetteer):
    assert gazetteer.resolve("EVD").canonical_id == "ebola-virus-disease"
    assert gazetteer.resolve("evd").canonical_id == "ebola-virus-disease"
    assert gazetteer.resolve("DRC").canonical_id == "COD"
    assert gazetteer.resolve("no such thing") is None
    assert gazetteer.display_name("nipah-virus") == "Nipah virus"


def test_gazetteer_file_loading(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text(
        "# comment\n"
        "DISEASE\tx\tX fever\tX fever\n"
        "DISEASE\tx\tX fever\tXF\n"
        "COUNTRY\tZZZ\tZedland\tZedland\n",
        encoding="utf-8",
    )
    gaz = load_gazetteer(path)
    assert gaz.resolve("xf").canonical_id == "x"
    assert gaz.resolve("Zedland").cls == COUNTRY


def test_gazetteer_requires_display_surface(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("DISEASE\tx\tX fever\tXF\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="display name"):
        load_gazetteer(path)


def test_gazetteer_rejects_conflicting_surfaces():
    gaz = Gazetteer()
    gaz.add(DISEASE, "a", "A", "A")
    with pytest.raises(SchemaError, match="maps to both"):
        gaz.add(DISEASE, "b", "B", "a")


def _fold_reference(text):
    """``fold`` without its ASCII shortcut: the full NFKD path for every input."""
    decomposed = unicodedata.normalize("NFKD", text.casefold())
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = "".join(ch if ch.isalnum() else " " for ch in stripped)
    return " ".join(cleaned.split())


@settings(max_examples=500)
@given(
    st.one_of(
        st.text(),
        st.text(st.characters(max_codepoint=127)),
        st.text(st.sampled_from("aZ09_- \t½ﬁÉéİßǅΣ")),
    )
)
def test_fold_fast_path_matches_full_fold(text):
    assert fold(text) == _fold_reference(text)


# --- entity annotation ---------------------------------------------------------


def _window_scan(body, gazetteer):
    """The scan the prefix walk replaced, kept as its oracle.

    From each token, try every window of up to as many tokens as the longest
    key has words, longest first; a match consumes its tokens.
    """
    limit = max(len(key.split()) for key in gazetteer._by_surface)
    tokens = [(m.start(), m.end(), _fold_reference(m.group())) for m in _TOKEN_RE.finditer(body)]
    spans = []
    i = 0
    while i < len(tokens):
        for n in range(min(limit, len(tokens) - i), 0, -1):
            entry = gazetteer.resolve_key(" ".join(tok[2] for tok in tokens[i : i + n]))
            if entry is not None:
                start, end = tokens[i][0], tokens[i + n - 1][1]
                spans.append(EntitySpan(entry.cls, start, end, body[start:end], entry.canonical_id))
                i += n
                break
        else:
            i += 1
    return spans


_GAZETTEER = default_gazetteer()
# Folded keys and display names (with their accents and punctuation).
_SURFACES = sorted(set(_GAZETTEER._by_surface) | {e.display_name for e in _GAZETTEER.entries()})
# Tokens that fold to nothing, to several words, or differently under NFKD.
_EDGE_TOKENS = ["_", "__", "a_b", "x_", "½", "ﬁ", "É", "us", "US"]
_FILLER = ["in", "the", "virus", "disease", "fever", "cases", "of", "and", "42", "2019"]
_SEPARATORS = [" ", "_", "-", ", "]


@st.composite
def _mention_bodies(draw):
    parts = []
    for piece in draw(
        st.lists(st.sampled_from(_SURFACES + _FILLER + _EDGE_TOKENS), max_size=24)
    ):
        case = draw(st.sampled_from([str, str.upper, str.lower, str.title, str.swapcase]))
        parts += [case(piece), draw(st.sampled_from(_SEPARATORS))]
    return "".join(parts)


@settings(max_examples=500)
@given(_mention_bodies())
def test_prefix_scan_matches_window_oracle(body):
    assert annotate_entities(_doc(body), _GAZETTEER) == _window_scan(body, _GAZETTEER)


def test_prefix_scan_matches_window_oracle_on_fixtures(fixtures_dir):
    def texts(folder):
        return [p.read_text(encoding="utf-8") for p in sorted((fixtures_dir / folder).iterdir())]

    docs = [parse_promed_post(raw) for raw in texts("e2e/raw")]
    docs += [parse_don_article(raw, url="") for raw in texts("don")]
    assert len(docs) == 15
    for doc in docs:
        spans = annotate_entities(doc, _GAZETTEER)
        assert spans and spans == _window_scan(doc.body, _GAZETTEER)


def test_longest_match_wins(gazetteer):
    spans = annotate_entities(_doc("Ebola virus disease in DRC"), gazetteer)
    assert [(s.cls, s.canonical_id, s.surface) for s in spans] == [
        (DISEASE, "ebola-virus-disease", "Ebola virus disease"),
        (COUNTRY, "COD", "DRC"),
    ]


def test_repeated_mentions_produce_repeated_spans(gazetteer):
    spans = annotate_entities(_doc("Zika Zika Zika"), gazetteer)
    assert len(spans) == 3
    assert {s.canonical_id for s in spans} == {"zika-virus"}


def test_empty_body(gazetteer):
    assert annotate_entities(_doc(""), gazetteer) == []
    assert annotate_counts(_doc("")) == []
    assert annotate_dates(_doc("")) == []


def test_span_offsets_slice_the_body(gazetteer):
    body = "An outbreak of Lassa fever hit Nigeria; Lassa cases rose."
    for span in annotate_entities(_doc(body), gazetteer):
        assert body[span.start : span.end] == span.surface


@given(
    st.lists(
        st.sampled_from(
            ["Ebola", "Ebola virus disease", "DRC", "Nigeria", "cholera", "the", "and", "42"]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_span_offsets_property(words):
    from epix.gazetteer import default_gazetteer

    body = " ".join(words)
    doc = _doc(body)
    for span in annotate_entities(doc, default_gazetteer()):
        assert body[span.start : span.end] == span.surface


# --- count and date annotation ----------------------------------------------


def test_annotate_counts_examples():
    spans = annotate_counts(_doc("15 cases and 13 deaths"))
    assert [s.count for s in spans] == [
        CaseCount(15, False, CountAttribute.CASE),
        CaseCount(13, False, CountAttribute.DEATH),
    ]
    [span] = annotate_counts(_doc("more than 200 infections"))
    assert span.count == CaseCount(200, True, CountAttribute.CASE)
    assert annotate_counts(_doc("no counts")) == []


def test_bare_numbers_are_not_counts_in_documents():
    # years and dates must not flood the count annotator
    assert annotate_counts(_doc("The briefing of 2018 mentioned 31 May 2018.")) == []


def test_annotate_dates_in_context():
    doc = _doc("Reported on 31 May 2018 and again May 19-21, 2018; nothing else.")
    values = [d.value for d in annotate_dates(doc)]
    assert values == [date(2018, 5, 31), date(2018, 5, 19)]


def test_annotate_dates_uses_published_year_for_monthday():
    doc = _doc("Cases spiked on May 19 this year.", published=date(2018, 1, 1))
    assert [d.value for d in annotate_dates(doc)] == [date(2018, 5, 19)]
    undated = _doc("Cases spiked on May 19 this year.")
    assert annotate_dates(undated) == []


def test_date_spans_slice_the_body():
    body = "From 2 June 2019, i.e. 02/06/2019, cases fell."
    doc = _doc(body)
    for span in annotate_dates(doc):
        assert body[span.start : span.end]


# --- key-entity filtering ---------------------------------------------------


def test_filter_most_frequent_wins(gazetteer):
    doc = _doc("Zika and Zika again, Zika; but Ebola once.")
    keys = filter_key_entities(annotate_entities(doc, gazetteer), [], [])
    assert keys.disease == "zika-virus"


def test_filter_tie_breaks_to_earliest_mention(gazetteer):
    doc = _doc("Ebola first, then Zika, then Zika, then Ebola.")
    keys = filter_key_entities(annotate_entities(doc, gazetteer), [], [])
    assert keys.disease == "ebola-virus-disease"


def test_filter_empty_inputs():
    assert filter_key_entities([], [], []) == KeyEntitySet()


def test_filter_count_prefers_cases_at_equal_frequency():
    doc = _doc("15 cases and 13 deaths")
    keys = filter_key_entities([], annotate_counts(doc), [])
    assert keys.count.value == 15
    assert keys.count.attribute is CountAttribute.CASE


def test_filter_is_permutation_invariant(gazetteer):
    doc = _doc("Ebola in DRC; Zika in DRC; Ebola again on 31 May 2018; 15 cases.")
    spans = annotate_entities(doc, gazetteer)
    counts = annotate_counts(doc)
    dates = annotate_dates(doc)
    baseline = filter_key_entities(spans, counts, dates)
    assert filter_key_entities(spans[::-1], counts[::-1], dates[::-1]) == baseline


# --- end-to-end rule extraction ------------------------------------------------


def test_extract_rule_based_crafted_fixture(gazetteer):
    doc = _doc("Nipah virus outbreak in India on 31 May 2018; 15 cases.", doc_id="d1")
    record = extract_rule_based(doc, gazetteer)
    assert record.document_id == "d1"
    assert record.extractor_id == "rule-based"
    assert record.disease.canonical_id == "nipah-virus"
    assert record.country.alpha3 == "IND"
    assert record.date == date(2018, 5, 31)
    assert record.count == CaseCount(15, False, CountAttribute.CASE)
    assert record.disease_raw == "Nipah virus"
    assert record.count_raw == "15 cases"


def test_extract_rule_based_no_entities(gazetteer):
    record = extract_rule_based(_doc("Nothing to see in this text."), gazetteer)
    assert record.disease is None
    assert record.country is None
    assert record.date is None
    assert record.count is None


def test_extract_rule_based_frequency_rule(gazetteer):
    body = "France France France France France and Spain."
    record = extract_rule_based(_doc(body), gazetteer)
    assert record.country.alpha3 == "FRA"


def test_duplicating_body_never_changes_winners(gazetteer):
    bodies = [
        "Nipah virus outbreak in India on 31 May 2018; 15 cases.",
        "Ebola first, then Zika, then Zika, then Ebola.",
        "France France and Spain. 15 cases and 13 deaths.",
    ]
    for body in bodies:
        single = extract_rule_based(_doc(body), gazetteer)
        doubled = extract_rule_based(_doc(body + " " + body), gazetteer)
        assert (single.disease, single.country, single.date, single.count) == (
            doubled.disease,
            doubled.country,
            doubled.date,
            doubled.count,
        )
