import re
import string
import sys
import unicodedata
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import example, given, settings, strategies as st

from epix import annotator
from epix.annotator import (
    _TOKEN_RE,
    _build_scanner,
    _lowered,
    _scan,
    CountSpan,
    DateSpan,
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
from epix.normalize import (
    _ASCII_FOLD,
    COUNT_EXPR_RE,
    DATE_PATTERNS,
    CaseCount,
    CountAttribute,
    count_from_match,
    normalize_disease,
    resolve_date_match,
)


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


_X_ROW = b"DISEASE\tx\tX fever\tX fever\n"


@pytest.mark.parametrize(
    "content, said",
    [
        (_X_ROW + b"DISEAS\ty\tY fever\tY fever\n", "line 2: unknown gazetteer class 'DISEAS'"),
        (
            _X_ROW + b"# a comment\nDISEASE\ty\tY fever\tx FEVER\n",
            "line 3: surface form 'x FEVER' maps to both 'x' and 'y'",
        ),
        (_X_ROW + b"DISEASE\ty\tY fever\n", "line 2: expected 4 tab-separated columns, got 3"),
        (_X_ROW + b"\nDISEASE\ty\tY f\xe9ver\tY fever\n", "line 3: invalid UTF-8"),
        (_X_ROW + b"DISEASE\ty\tY fever\t__\n", "line 2: surface form '__' folds to nothing"),
        # Reported in file order: the first of many entries without their display name.
        (
            "".join(f"DISEASE\td{i}\tD{i} fever\tD{i}F\n" for i in range(50)).encode(),
            "display name 'D0 fever' is not a surface form of 'd0'",
        ),
    ],
    ids=["class", "conflict", "columns", "utf-8", "folds-to-nothing", "display-name"],
)
def test_gazetteer_file_error_starts_with_the_path_and_line(tmp_path, content, said):
    path = tmp_path / "gaz.tsv"
    path.write_bytes(content)
    with pytest.raises(SchemaError) as caught:
        load_gazetteer(path)
    assert str(caught.value) == f"{path}: {said}"


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
# Tokens that fold to nothing, to several words, or differently under NFKD;
# the case-fold letters; a combining accent; a fullwidth surface form.
_EDGE_TOKENS = ["_", "__", "a_b", "x_", "½", "ﬁ", "É", "us", "US",
                "ſ", "ı", "İ", "K", "e\u0301", "Ｅｂｏｌａ"]
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
# Tokens whose lowered form is not their fold: a scanner hit on one is no candidate.
@example("Fıji and Ebola")
@example("Ebola vırus disease")
@example("Ｅｂｏｌａ virus disease")
@example("ebola_virus disease")
@example("cholera in Côte d'Ivoire")
def test_prefix_scan_matches_window_oracle(body):
    assert annotate_entities(_doc(body), _GAZETTEER) == _window_scan(body, _GAZETTEER)


def _fixture_docs(fixtures_dir):
    def texts(folder):
        return [p.read_text(encoding="utf-8") for p in sorted((fixtures_dir / folder).iterdir())]

    docs = [parse_promed_post(raw) for raw in texts("e2e/raw")]
    docs += [parse_don_article(raw, url="") for raw in texts("don")]
    assert len(docs) == 15
    return docs


def test_prefix_scan_matches_window_oracle_on_fixtures(fixtures_dir):
    for doc in _fixture_docs(fixtures_dir):
        spans = annotate_entities(doc, _GAZETTEER)
        assert spans and spans == _window_scan(doc.body, _GAZETTEER)


# What real ProMED and WHO posts hold and the fixtures do not: accented names
# and words, en dashes and curly quotes.
_ACCENTS = {" - ": " – ", "'": "’", "ministry": "ministère", "Viet Nam": "Việt Nam",
            "outbreak": "épidémie", "update": "mise à jour"}


def _accented(body):
    for plain, accented in _ACCENTS.items():
        body = body.replace(plain, accented)
    return (
        f"Mise à jour – “{body}” Cases were also reported in Côte d’Ivoire, São Tomé and "
        "Príncipe and Curaçao: 12\u00a0cases of ebola_virus disease by 3\u00a0May\u00a02019."
    )


def test_oracles_hold_on_fixtures_with_accents_dashes_and_curly_quotes(fixtures_dir):
    for doc in _fixture_docs(fixtures_dir):
        doc = replace(doc, body=_accented(doc.body))
        scan = _scan(doc.body, _GAZETTEER)
        spans = annotate_entities(doc, _GAZETTEER)
        assert {"CIV", "STP", "CUW", "ebola-virus-disease"} <= {s.canonical_id for s in spans}
        assert spans == annotate_entities(doc, _GAZETTEER, scan=scan)
        assert spans == _window_scan(doc.body, _GAZETTEER)
        alone = _outcome(annotate_counts, doc), _outcome(annotate_dates, doc)
        assert alone == _shared_scan_outcomes(doc, _GAZETTEER) == _oracle_outcomes(doc)


def test_ascii_body_without_underscore_calls_no_fold(monkeypatch, gazetteer):
    calls = []

    def counted_fold(text):
        calls.append(text)
        return fold(text)

    monkeypatch.setattr(annotator, "fold", counted_fold)
    body = "Ebola virus disease in DRC: 15 cases, then cholera in Yemen."
    spans = annotate_entities(_doc(body), gazetteer)
    assert spans and calls == []
    # Elsewhere fold runs once for each token holding "_" or a non-ASCII
    # character, and never for the other tokens.
    assert annotate_entities(_doc(body + " _"), gazetteer) == spans
    assert calls == ["_"]
    for body in (
        _accented(body),
        "ebola_virus disease in Côte d’Ivoire – “Fıji” and Ｅｂｏｌａ, ½ ﬁ İ _ a_b",
    ):
        calls.clear()
        annotate_entities(_doc(body), gazetteer)
        tokens = _TOKEN_RE.findall(body)
        assert sorted(calls) == sorted(t for t in tokens if not t.isascii() or "_" in t)


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


def test_numeral_too_long_to_convert_is_skipped():
    [span] = annotate_counts(_doc("9" * 5000 + " cases and 12 deaths"))
    assert span.count == CaseCount(12, False, CountAttribute.DEATH)


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


# --- count and date scans against full-scan oracles ----------------------------


def _full_count_scan(doc):
    """The count scan at every offset that the keyword anchors replaced, kept as its oracle."""
    return [
        CountSpan(m.start(), m.end(), count_from_match(m))
        for m in COUNT_EXPR_RE.finditer(doc.body)
    ]


def _full_date_scan(doc):
    """The date scan at every offset that the digit and month anchors replaced, kept as its oracle."""
    default_year = doc.published.year if doc.published else None
    raw_hits = []
    for pattern in DATE_PATTERNS:
        for match in pattern.finditer(doc.body):
            value = resolve_date_match(match, default_year)
            if value is not None:
                raw_hits.append((match.start(), match.end(), value))
    raw_hits.sort(key=lambda hit: (hit[0], -(hit[1] - hit[0])))
    spans = []
    cursor = -1
    for start, end, value in raw_hits:
        if start <= cursor:
            continue
        spans.append(DateSpan(start, end, value))
        cursor = end - 1
    return spans


def test_lowered_copy_keeps_offsets_classes_and_ignorecase_letters():
    """On ``_lowered``, case-sensitive anchors match where re.IGNORECASE ones match the body."""
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    lows = [_lowered(c) for c in chars]
    assert [c for c, low in zip(chars, lows) if len(low) != 1] == []
    every, lowered = "".join(chars), "".join(lows)

    def positions(pattern, text, flags=0):
        return [m.start() for m in re.finditer(pattern, text, flags)]

    for pattern in (r"\w", r"\d"):
        assert positions(pattern, every) == positions(pattern, lowered)
    for letter in string.ascii_lowercase:
        assert positions(letter, every, re.IGNORECASE) == positions(letter, lowered)
    assert not _build_scanner(_GAZETTEER).pattern.flags & re.IGNORECASE


@given(st.one_of(st.text(), st.text(st.sampled_from("aZkKſıİ\u212a\u0307é–Σ_ 1"))))
def test_lowered_is_translate_then_lower(text):
    assert _lowered(text) == text.translate(_ASCII_FOLD).lower()


def _outcome(scan, doc):
    """The spans, or the kind of error the scan raised, so failures compare too."""
    try:
        return scan(doc)
    except (KeyError, ValueError) as exc:
        return type(exc)


_UNIT_WORDS = "one two three four five six seven eight nine".split()
_TEEN_WORDS = "ten eleven twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen".split()
_TENS_WORDS = "twenty thirty forty fifty sixty seventy eighty ninety".split()
_MONTH_SPELLINGS = [
    "January", "Jan", "feb", "FEBRUARY", "Mar", "march", "Apr", "April", "may", "MAY", "Jun",
    "June", "jul", "July", "Aug", "August", "Sep", "Sept", "September", "oct", "October",
    "Nov", "november", "Dec", "December", "Mayday", "Junk",
]
# Letters outside ASCII that re.IGNORECASE matches to an ASCII letter (the long s, ...).
_CASE_FOLD_LETTERS = [
    c for c in map(chr, range(0x80, 0x110000)) if re.fullmatch("[a-z]", c, re.IGNORECASE)
]
# Digits 0-9 in Arabic-Indic, Devanagari and fullwidth forms; \d matches them all.
_UNICODE_DIGITS = [str.maketrans("0123456789", "".join(chr(zero + i) for i in range(10)))
                   for zero in (0x660, 0x966, 0xFF10)]
_SPACES = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", " " * 201, "\u00a0" * 203]
_PUNCTUATION = ["", ", ", ". ", "; ", "(", ") ", "-", "–", "/", ":", "_"]


@st.composite
def _number_word(draw):
    n = draw(st.integers(1, 999))
    hundreds, rest = divmod(n, 100)
    words = []
    if hundreds:
        words += [draw(st.sampled_from(["a", "one"])) if hundreds == 1 else _UNIT_WORDS[hundreds - 1],
                  "hundred"]
        if rest and draw(st.booleans()):
            words.append("and")
    if rest >= 20:
        tens, unit = divmod(rest, 10)
        joiner = draw(st.sampled_from(["-", " "]))
        words.append(_TENS_WORDS[tens - 2] + (joiner + _UNIT_WORDS[unit - 1] if unit else ""))
    elif rest >= 10:
        words.append(_TEEN_WORDS[rest - 10])
    elif rest:
        words.append(_UNIT_WORDS[rest - 1])
    return draw(st.sampled_from(_SPACES[:5])).join(words)


def _numeral():
    return st.one_of(
        st.integers(0, 10**7).map(str),
        st.integers(1000, 10**7).map("{:,}".format),
        st.integers(200, 260).map(lambda n: "9" * n),
        st.sampled_from(["1,23", "12,345,6", "007"]),
    )


def _count_expression():
    hedge = st.sampled_from(["", "about ", "more than ", "at  least\n", "up to ", "nearly\u00a0"])
    modifiers = st.lists(
        st.sampled_from(["new", "confirmed", "lab-confirmed", "laboratory confirmed", "total"]),
        max_size=2,
    )
    keyword = st.sampled_from(
        ["case", "cases", "Cases", "infection", "INFECTIONS", "death", "deaths", "fatality",
         "fatalities", "casesx", "deathly"]
    )
    return st.tuples(
        hedge, st.one_of(_number_word(), _numeral()), st.sampled_from(_SPACES), modifiers, keyword
    ).map(lambda t: t[0] + t[1] + t[2] + "".join(m + " " for m in t[3]) + t[4])


@st.composite
def _date_expression(draw):
    d = draw(st.dates(min_value=date(1000, 1, 1)))
    # A day drawn apart from the month makes dates such as 31 April.
    n = draw(st.integers(1, 31))
    day = draw(st.sampled_from([str(n), f"{n:02d}", f"{n}th", f"{n}st"]))
    day_range = draw(st.sampled_from(["", "-21", " – 22nd", "-3"]))
    month = draw(st.sampled_from(_MONTH_SPELLINGS))
    dot = draw(st.sampled_from(["", "."]))
    return draw(st.sampled_from([
        d.isoformat(),
        f"{day}{day_range} {month}{dot}, {d.year}",
        f"{day} {month} {d.year}",
        f"{month}{dot} {day}{day_range}, {d.year}",
        f"{month} {day}{day_range} {d.year}",
        f"{d.day:02d}/{d.month:02d}/{d.year}",
        f"{month} {day}{day_range}",
        f"{month} {day}",
        "31 Feb 2020", "February 30, 2021", "2019-13-40", "31/31/2020", "Apr 31", "Feb 29",
        # Shapes that overlap across patterns.
        "12 May 2019-05-06", "3 May 19, 2020", "May 2019-05-06", "1 2 May 2020", "May 5 6 2019",
        "2019-05-03-4 May 2020", "31-4 Feb 2020",
    ]))


_LOOSE_TOKENS = ["cases", "deaths", "hundred", "and", "a", "twenty", "new", "May", "2019",
                 "19", "05", "the", "outbreak", "Ebola"]


@st.composite
def _count_and_date_bodies(draw):
    parts = []
    for _ in range(draw(st.integers(0, 10))):
        piece = draw(st.one_of(
            _count_expression(), _date_expression(), st.sampled_from(_LOOSE_TOKENS)
        ))
        if draw(st.integers(0, 4)) == 0:
            piece = piece.translate(draw(st.sampled_from(_UNICODE_DIGITS)))
        if draw(st.integers(0, 4)) == 0:
            letter = draw(st.sampled_from(_CASE_FOLD_LETTERS))
            for ascii_letter in "abcdefghijklmnopqrstuvwxyz":
                if re.fullmatch(ascii_letter, letter, re.IGNORECASE):
                    piece = piece.replace(ascii_letter, letter).replace(ascii_letter.upper(), letter)
        parts += [piece, draw(st.sampled_from(_SPACES + _PUNCTUATION))]
    return "".join(parts)


@settings(max_examples=300)
@given(_count_and_date_bodies(), st.one_of(st.none(), st.dates()))
@example("9" * 250 + " cases", None)
@example("about" + " " * 300 + "twenty-five new" + "\u00a0" * 250 + "deaths", None)
@example("15 cases and 13 deaths, ſix caſes; fıve FİVE deaths", None)
@example("12 May 2019-05-06, 3 May 19, 2020 and ſep 3, 2019 or APRİL 4 31 Feb 2020", date(2020, 1, 1))
@example("١٥ cases on ١٢ May ٢٠١٩", None)
@example("2019-05-03-4 May 2020 and 31-4 Feb 2020", None)
def test_count_and_date_scans_match_full_scan_oracles(body, published):
    doc = _doc(body, published=published)
    assert _outcome(annotate_counts, doc) == _outcome(_full_count_scan, doc)
    assert _outcome(annotate_dates, doc) == _outcome(_full_date_scan, doc)


def test_count_and_date_scans_match_full_scan_oracles_on_fixtures(fixtures_dir):
    spans = 0
    for doc in _fixture_docs(fixtures_dir):
        counts, dates = annotate_counts(doc), annotate_dates(doc)
        assert counts == _full_count_scan(doc)
        assert dates == _full_date_scan(doc)
        spans += len(counts) + len(dates)
    assert spans


# --- the one scan that extract_rule_based shares among the annotators ---------


def _shared_scan_outcomes(doc, gazetteer):
    """Counts and dates from the scan that ``extract_rule_based`` builds with ``gazetteer``."""
    scan = _scan(doc.body, gazetteer)
    return (
        _outcome(lambda d: annotate_counts(d, scan=scan), doc),
        _outcome(lambda d: annotate_dates(d, scan=scan), doc),
    )


def _oracle_outcomes(doc):
    return _outcome(_full_count_scan, doc), _outcome(_full_date_scan, doc)


# First tokens of the bundled keys that also start like a date or are a count keyword.
_OVERLAPPING_SURFACES = [
    s for s in _SURFACES if re.match(r"(?:\d|jan|feb|ma[ry]|apr|ju[nl]|aug|sep|oct|nov|dec)", s, re.I)
]


@st.composite
def _bodies_with_mentions(draw):
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        piece = draw(st.one_of(
            _count_expression(), _date_expression(), st.sampled_from(_LOOSE_TOKENS),
            st.sampled_from(_SURFACES), st.sampled_from(_OVERLAPPING_SURFACES),
        ))
        case = draw(st.sampled_from([str, str.upper, str.lower, str.title]))
        parts += [case(piece), draw(st.sampled_from(_SPACES[:4] + _PUNCTUATION))]
    return "".join(parts)


@settings(max_examples=300)
@given(_bodies_with_mentions(), st.one_of(st.none(), st.dates()))
@example("2019-05-03", None)
@example("Mayotte, 3 May 2019", None)
@example("A novel coronavirus: Nov 3, 2019", None)
@example("Marburg in Uganda since March 2", date(2020, 1, 1))
@example("septicemic plague, Sep 4", date(2020, 1, 1))
@example("2019 novel coronavirus on 2019-05-03; Marburg virus disease: 12 cases", None)
def test_shared_scan_with_the_bundled_gazetteer_matches_full_scan_oracles(body, published):
    doc = _doc(body, published=published)
    assert _shared_scan_outcomes(doc, _GAZETTEER) == _oracle_outcomes(doc)


def test_shared_scan_keeps_dates_at_first_tokens_that_start_like_dates():
    for body, published, expected in [
        ("2019-05-03", None, date(2019, 5, 3)),
        ("Mayotte, 3 May 2019", None, date(2019, 5, 3)),
        ("A novel coronavirus: Nov 3, 2019", None, date(2019, 11, 3)),
        ("Marburg in Uganda since March 2", date(2020, 1, 1), date(2020, 3, 2)),
        ("septicemic plague, Sep 4", date(2020, 1, 1), date(2020, 9, 4)),
    ]:
        doc = _doc(body, published=published)
        assert _scan(body, _GAZETTEER).firsts, body
        assert extract_rule_based(doc, _GAZETTEER).date == expected, body
        assert _shared_scan_outcomes(doc, _GAZETTEER) == _oracle_outcomes(doc)


def test_shared_scan_with_the_bundled_gazetteer_matches_full_scan_oracles_on_fixtures(
    fixtures_dir, monkeypatch
):
    scans = []
    original = annotator.annotate_counts

    def recording(doc, *, scan=None):
        scans.append(scan)
        return original(doc, scan=scan)

    monkeypatch.setattr(annotator, "annotate_counts", recording)
    for doc in _fixture_docs(fixtures_dir):
        extract_rule_based(doc, _GAZETTEER)
        scan = scans.pop()
        fresh = _scan(doc.body, _GAZETTEER)
        assert [m.span() for m in scan.firsts] == [m.span() for m in fresh.firsts]
        assert scan.firsts and scan._replace(firsts=None) == fresh._replace(firsts=None)
        assert annotate_counts(doc, scan=scan) == _full_count_scan(doc)
        assert annotate_dates(doc, scan=scan) == _full_date_scan(doc)


_FIRST_TOKENS = sorted(key for key in _GAZETTEER.key_prefixes if " " not in key)
_PREFIX_PAIRS = [(a, b) for a in _FIRST_TOKENS for b in _FIRST_TOKENS if a != b and b.startswith(a)]


@pytest.mark.parametrize("short, long", _PREFIX_PAIRS, ids=[f"{a}-{b}" for a, b in _PREFIX_PAIRS])
def test_first_tokens_that_prefix_each_other_match_the_oracles(short, long):
    keys = [key for key in _GAZETTEER._by_surface if key.split(" ")[0] in (short, long)]
    pieces = keys + [short, long, long + "x", short + "2019", f"{short}-{long}", "4 May 2019",
                     "12 cases"]
    for sep in (" ", ", "):
        for case in (str, str.upper, str.title):
            body = sep.join(case(piece) for piece in pieces)
            doc = _doc(body)
            assert annotate_entities(doc, _GAZETTEER) == _window_scan(body, _GAZETTEER)
            assert _shared_scan_outcomes(doc, _GAZETTEER) == _oracle_outcomes(doc)


def test_prefix_pairs_include_the_known_ones():
    assert {("dr", "drc"), ("america", "american"), ("u", "uk"), ("uk", "ukraine")} <= set(
        _PREFIX_PAIRS
    )


def test_surface_added_after_a_scan_is_found():
    gazetteer = Gazetteer([(DISEASE, "x", "X fever", "X fever")])
    doc = _doc("Zed pox and X fever in May: 3 cases on 3 May 2019; Zed pox again")
    assert extract_rule_based(doc, gazetteer).disease.canonical_id == "x"
    gazetteer.add(DISEASE, "zed-pox", "Zed pox", "Zed pox")
    record = extract_rule_based(doc, gazetteer)
    assert (record.disease.canonical_id, record.disease_raw) == ("zed-pox", "Zed pox")
    assert annotate_entities(doc, gazetteer) == _window_scan(doc.body, gazetteer)
    # A surface whose first token starts like a date keeps the date.
    gazetteer.add(COUNTRY, "MAY", "May Island", "May")
    assert annotate_entities(doc, gazetteer) == _window_scan(doc.body, gazetteer)
    assert record.date == extract_rule_based(doc, gazetteer).date == date(2019, 5, 3)
    assert _shared_scan_outcomes(doc, gazetteer) == _oracle_outcomes(doc)


def test_empty_gazetteer_scan_finds_counts_and_dates_only():
    doc = _doc("Ebola in Guinea on 3 May 2019: 5 cases, 2 deaths", published=date(2019, 1, 1))
    scan = _scan(doc.body, Gazetteer())
    assert scan.firsts == []
    assert _shared_scan_outcomes(doc, Gazetteer()) == _oracle_outcomes(doc)
    assert annotate_entities(doc, Gazetteer(), scan=scan) == []


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


def _most_frequent(occurrences, extra_rank=None):
    """Winner among (value, offset) mentions: frequency, then tie rules.

    The earlier per-field rule, kept as the oracle: ties break to the
    earliest first mention; ``extra_rank`` slots an extra criterion (count
    attribute preference) between frequency and position.
    """
    if not occurrences:
        return None
    stats = {}
    for value, offset in occurrences:
        entry = stats.setdefault(value, {"freq": 0, "first": offset})
        entry["freq"] += 1
        entry["first"] = min(entry["first"], offset)

    def sort_key(value):
        entry = stats[value]
        rank = extra_rank(value) if extra_rank else 0
        return (-entry["freq"], rank, entry["first"])

    return min(stats, key=sort_key)


_RANK = {CountAttribute.CASE: 0, CountAttribute.DEATH: 1, CountAttribute.UNKNOWN: 2}


def _filter_oracle(spans, counts, dates):
    """The earlier ``filter_key_entities``, built on ``_most_frequent``."""
    disease = _most_frequent([(s.canonical_id, s.start) for s in spans if s.cls == DISEASE])
    country = _most_frequent([(s.canonical_id, s.start) for s in spans if s.cls == COUNTRY])
    date_winner = _most_frequent([(d.value, d.start) for d in dates])
    count_winner = None
    count_groups = {}
    for span in counts:
        count_groups.setdefault(span.count.value, []).append(span)
    if count_groups:
        def group_rank(value):
            return min(_RANK[s.count.attribute] for s in count_groups[value])
        winning_value = _most_frequent(
            [(s.count.value, s.start) for s in counts], extra_rank=group_rank
        )
        best_rank = group_rank(winning_value)
        count_winner = next(
            s.count
            for s in sorted(count_groups[winning_value], key=lambda s: s.start)
            if _RANK[s.count.attribute] == best_rank
        )
    return KeyEntitySet(disease=disease, country=country, date=date_winner, count=count_winner)


# Few values and few offsets, so that frequency, attribute and offset ties are common.
_STARTS = st.integers(0, 30)
_ENTITY_MENTIONS = st.builds(
    lambda cls, i, start: EntitySpan(cls, start, start + 1, "x", f"{cls}-{i}"),
    st.sampled_from([DISEASE, COUNTRY]), st.integers(0, 3), _STARTS,
)
_COUNT_MENTIONS = st.builds(
    lambda value, approximate, attribute, start: CountSpan(
        start, start + 1, CaseCount(value, approximate, attribute)
    ),
    st.integers(0, 3), st.booleans(), st.sampled_from(list(CountAttribute)), _STARTS,
)
_DATE_MENTIONS = st.builds(
    lambda day, start: DateSpan(start, start + 1, date(2020, 1, day)), st.integers(1, 4), _STARTS
)


@settings(max_examples=500)
@given(
    st.lists(_ENTITY_MENTIONS, max_size=12),
    st.lists(_COUNT_MENTIONS, max_size=12),
    st.lists(_DATE_MENTIONS, max_size=12),
)
@example(
    [],
    [
        CountSpan(0, 1, CaseCount(13, False, CountAttribute.DEATH)),
        CountSpan(2, 3, CaseCount(15, False, CountAttribute.UNKNOWN)),
        CountSpan(4, 5, CaseCount(15, True, CountAttribute.CASE)),
        CountSpan(6, 7, CaseCount(13, False, CountAttribute.DEATH)),
        CountSpan(8, 9, CaseCount(15, False, CountAttribute.CASE)),
    ],
    [],
)
def test_filter_matches_the_per_field_oracle(spans, counts, dates):
    assert filter_key_entities(spans, counts, dates) == _filter_oracle(spans, counts, dates)


_PIECES = [
    "Ebola", "Zika", "Nipah virus", "France", "DRC", "India", "15 cases", "15 deaths",
    "fifteen cases", "about 15 cases", "13 deaths", "13 new cases", "3 May 2019",
    "2019-05-03", "4 May 2019",
]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(_PIECES), max_size=14), st.lists(st.sampled_from(" ,.")))
def test_each_raw_string_is_the_text_of_its_winners_first_mention(gazetteer, pieces, seps):
    body = "".join(p + (seps[i] if i < len(seps) else ";") + " " for i, p in enumerate(pieces))
    doc = _doc(body)
    spans, counts = annotate_entities(doc, gazetteer), annotate_counts(doc)
    dates = annotate_dates(doc)
    keys = _filter_oracle(spans, counts, dates)
    record = extract_rule_based(doc, gazetteer)
    mentions = {
        "disease": [(s.canonical_id, s) for s in spans if s.cls == DISEASE],
        "country": [(s.canonical_id, s) for s in spans if s.cls == COUNTRY],
        "date": [(d.value, d) for d in dates],
        "count": [(c.count, c) for c in counts],
    }
    for field, found in mentions.items():
        winner = getattr(keys, field)
        firsts = [m for value, m in found if value == winner]
        first = min(firsts, key=lambda m: m.start) if firsts else None
        assert record.raw_value(field) == (first and body[first.start : first.end]), field
    assert (record.disease and record.disease.canonical_id) == keys.disease
    assert (record.country and record.country.alpha3) == keys.country
    assert (record.date, record.count) == (keys.date, keys.count)


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


def test_explicit_empty_gazetteer_is_not_replaced_by_the_bundled_one():
    record = extract_rule_based(_doc("Ebola in Guinea: 5 cases"), Gazetteer())
    assert (record.disease, record.country) == (None, None)
    assert record.count == CaseCount(5, False, CountAttribute.CASE)
    assert normalize_disease("Ebola", Gazetteer()) is None


def test_country_code_missing_from_the_country_table_is_a_field_warning():
    gazetteer = Gazetteer([(COUNTRY, "ZZZ", "Zedland", "Zedland")])
    record = extract_rule_based(_doc("Cholera in Zedland: 5 cases"), gazetteer)
    assert (record.country_raw, record.country) == ("Zedland", None)
    assert record.field_warnings == ("country",)


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
