"""Rule-based extraction: gazetteer entities, counts, and dates per document.

The pipeline scans the body for disease/country mentions (longest surface
form wins), count expressions, and date expressions, then condenses each
class to a single winner by mention frequency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Optional, Sequence

from .corpus import Document, ExtractionRecord
from .gazetteer import COUNTRY, DISEASE, Gazetteer, default_gazetteer, fold
from .normalize import (
    _ASCII_FOLD,
    _CASE_KW,
    _DEATH_KW,
    _MONTH_RE,
    COUNT_EXPR_RE,
    CanonicalDisease,
    CaseCount,
    CountAttribute,
    CountryCode,
    DATE_PATTERNS,
    IsoDate,
    count_from_match,
    country_table,
    resolve_date_match,
)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
# Splits a body into its _TOKEN_RE tokens (even places) and the runs between
# them (odd places); the first and last token may be empty.
_TOKEN_SPLIT_RE = re.compile(r"(\W+)")
# The anchor patterns below run on ``_lowered(body)``, so they need no
# re.IGNORECASE, which would cost the engine its literal-prefix search.
# The keyword that ends every COUNT_EXPR_RE match.
_COUNT_KEYWORD_RE = re.compile(rf"\b(?:{_CASE_KW}|{_DEATH_KW})\b")
# A run of the only characters a count expression holds before its keyword:
# \w, \s, "," and "-". Matched on the reversed body, it walks back.
_COUNT_RUN_RE = re.compile(r"[\w\s,-]*")
# Every DATE_PATTERNS match starts at a word boundary with a digit or a month name.
_DATE_ANCHOR_RE = re.compile(rf"\b(?=\d|{_MONTH_RE})")

_ATTRIBUTE_RANK = {
    CountAttribute.CASE: 0,
    CountAttribute.DEATH: 1,
    CountAttribute.UNKNOWN: 2,
}


@dataclass(frozen=True)
class EntitySpan:
    cls: str
    start: int
    end: int
    surface: str
    canonical_id: str


@dataclass(frozen=True)
class CountSpan:
    start: int
    end: int
    count: CaseCount


@dataclass(frozen=True)
class DateSpan:
    start: int
    end: int
    value: IsoDate


@dataclass(frozen=True)
class KeyEntitySet:
    """At most one winner per class, chosen by mention frequency."""

    disease: Optional[str] = None  # canonical id
    country: Optional[str] = None  # alpha-3 code
    date: Optional[IsoDate] = None
    count: Optional[CaseCount] = None


# The letters that _ASCII_FOLD maps, each with its ASCII letter.
_FOLD_LETTERS = tuple((chr(code), chr(folded)) for code, folded in _ASCII_FOLD.items())


def _lowered(body: str) -> str:
    """``body.translate(_ASCII_FOLD).lower()``, each character still at its own offset.

    The case-sensitive anchor patterns match here exactly where their
    re.IGNORECASE forms match the body. ``_ASCII_FOLD`` maps the letters
    that re.IGNORECASE equates with an ASCII letter but ``lower`` leaves
    alone, and U+0130, the one code point whose ``lower`` is two characters
    long. No character changes whether it is a word character or a digit.
    """
    # str.translate looks up every character of a non-ASCII body; the four
    # letters are rare, so each is searched for and replaced instead.
    for letter, ascii_letter in _FOLD_LETTERS:
        if letter in body:
            body = body.replace(letter, ascii_letter)
    return body.lower()


def annotate_entities(doc: Document, gazetteer: Gazetteer) -> list[EntitySpan]:
    """Longest-match scan of the body for gazetteer surface forms.

    A match consumes its tokens, so shorter overlapping surfaces ("Ebola"
    inside "Ebola virus disease") are suppressed. From each token the
    candidate key grows one token at a time only while it is still a word
    prefix of some gazetteer key, and the longest full key seen wins.
    """
    body = doc.body
    if body.isascii() and "_" not in body:
        # Every token is ASCII letters and digits, whose fold is their lower case.
        parts = _TOKEN_SPLIT_RE.split(_lowered(body))
        keys = parts[::2]
    else:
        parts = _TOKEN_SPLIT_RE.split(body)
        keys = [fold(token) for token in parts[::2]]
    # Token k spans from the start of part 2k to that of part 2k + 1. Matches
    # come in order, so the starts are read forward, and no list of them is
    # kept. An empty first or last key is no prefix, so it never joins a match.
    starts = accumulate(map(len, parts), initial=0)
    read = 0  # how many starts have been read
    prefixes = gazetteer.key_prefixes
    spans: list[EntitySpan] = []
    resume = 0
    for i in [i for i, key in enumerate(keys) if key in prefixes]:
        if i < resume:
            continue
        key, j, entry = keys[i], i, None
        while key in prefixes:
            hit = gazetteer.resolve_key(key)
            if hit is not None:
                entry, last = hit, j
            j += 1
            if j == len(keys):
                break
            key = f"{key} {keys[j]}"
        if entry is None:
            continue
        start = next(islice(starts, 2 * i - read, None))
        end = next(islice(starts, 2 * (last - i), None))
        read = 2 * last + 2
        spans.append(EntitySpan(entry.cls, start, end, body[start:end], entry.canonical_id))
        resume = last + 1
    return spans


def annotate_counts(doc: Document) -> list[CountSpan]:
    """Every count expression in the body (number plus case/death keyword).

    The spans equal those of ``COUNT_EXPR_RE.finditer`` over the whole body.
    A match ends at a case or death keyword, holds no other keyword, and
    before its keyword holds only characters of ``_COUNT_RUN_RE``. So at most
    one match ends at each keyword, and it starts inside the run of those
    characters that ends there, after the previous keyword. Only that
    stretch is searched. A match whose numeral is too long to resolve is
    skipped.
    """
    body = doc.body
    backwards = body[::-1]
    spans: list[CountSpan] = []
    floor = 0
    for keyword in _COUNT_KEYWORD_RE.finditer(_lowered(body)):
        run = _COUNT_RUN_RE.match(backwards, len(body) - keyword.start(), len(body) - floor)
        match = COUNT_EXPR_RE.search(body, len(body) - run.end(), keyword.end())
        count = count_from_match(match) if match is not None else None
        if count is not None:
            spans.append(CountSpan(match.start(), match.end(), count))
        floor = keyword.end()
    return spans


def annotate_dates(doc: Document) -> list[DateSpan]:
    """All resolvable date mentions; ranges yield their start date.

    Year-less month-day mentions resolve against the document's published
    year and are dropped when the document is undated. Each pattern is tried
    only at the digit and month-name anchors, which gives the same spans as
    its ``finditer`` over the whole body.
    """
    body = doc.body
    default_year = doc.published.year if doc.published else None
    anchors = [m.start() for m in _DATE_ANCHOR_RE.finditer(_lowered(body))]
    raw_hits: list[tuple[int, int, IsoDate]] = []
    for pattern in DATE_PATTERNS:
        # Every match starts at an anchor; skipping the anchors inside the
        # last match keeps a pattern's matches apart, as finditer does.
        next_start = 0
        for anchor in anchors:
            if anchor < next_start:
                continue
            match = pattern.match(body, anchor)
            if match is None:
                continue
            next_start = match.end()
            value = resolve_date_match(match, default_year)
            if value is not None:
                raw_hits.append((match.start(), match.end(), value))
    # Longest-first sweep removes submatches of richer patterns.
    raw_hits.sort(key=lambda hit: (hit[0], -(hit[1] - hit[0])))
    spans: list[DateSpan] = []
    cursor = -1
    for start, end, value in raw_hits:
        if start <= cursor:
            continue
        spans.append(DateSpan(start, end, value))
        cursor = end - 1
    return spans


def _most_frequent(occurrences: list[tuple[object, int]], extra_rank=None):
    """Winner among (value, offset) mentions: frequency, then tie rules.

    Ties break to the earliest first mention; ``extra_rank`` slots an extra
    criterion (count attribute preference) between frequency and position.
    """
    if not occurrences:
        return None
    stats: dict[object, dict] = {}
    for value, offset in occurrences:
        entry = stats.setdefault(value, {"freq": 0, "first": offset})
        entry["freq"] += 1
        entry["first"] = min(entry["first"], offset)
    def sort_key(value):
        entry = stats[value]
        rank = extra_rank(value) if extra_rank else 0
        return (-entry["freq"], rank, entry["first"])
    return min(stats, key=sort_key)


def filter_key_entities(
    spans: Sequence[EntitySpan],
    counts: Sequence[CountSpan],
    dates: Sequence[DateSpan],
) -> KeyEntitySet:
    """Condense annotations to one winner per class by mention frequency."""
    disease = _most_frequent(
        [(s.canonical_id, s.start) for s in spans if s.cls == DISEASE]
    )
    country = _most_frequent(
        [(s.canonical_id, s.start) for s in spans if s.cls == COUNTRY]
    )
    date_winner = _most_frequent([(d.value, d.start) for d in dates])

    count_winner = None
    count_groups: dict[int, list[CountSpan]] = {}
    for span in counts:
        count_groups.setdefault(span.count.value, []).append(span)
    if count_groups:
        def group_rank(value):
            return min(_ATTRIBUTE_RANK[s.count.attribute] for s in count_groups[value])
        winning_value = _most_frequent(
            [(s.count.value, s.start) for s in counts], extra_rank=group_rank
        )
        best_rank = group_rank(winning_value)
        count_winner = next(
            s.count
            for s in sorted(count_groups[winning_value], key=lambda s: s.start)
            if _ATTRIBUTE_RANK[s.count.attribute] == best_rank
        )

    return KeyEntitySet(
        disease=disease, country=country, date=date_winner, count=count_winner
    )


def _first_surface(spans: Sequence[EntitySpan], cls: str, canonical_id: str) -> Optional[str]:
    hits = [s for s in spans if s.cls == cls and s.canonical_id == canonical_id]
    if not hits:
        return None
    return min(hits, key=lambda s: s.start).surface


def extract_rule_based(
    doc: Document,
    gazetteer: Gazetteer | None = None,
    extractor_id: str = "rule-based",
) -> ExtractionRecord:
    """Run the three annotators and map the per-class winners into a record."""
    if gazetteer is None:
        gazetteer = default_gazetteer()
    spans = annotate_entities(doc, gazetteer)
    counts = annotate_counts(doc)
    dates = annotate_dates(doc)
    keys = filter_key_entities(spans, counts, dates)

    disease = None
    disease_raw = None
    if keys.disease is not None:
        disease = CanonicalDisease(keys.disease, gazetteer.display_name(keys.disease))
        disease_raw = _first_surface(spans, DISEASE, keys.disease)

    country: Optional[CountryCode] = None
    country_raw = None
    if keys.country is not None:
        country = country_table().for_code(keys.country)
        country_raw = _first_surface(spans, COUNTRY, keys.country)

    date_raw = None
    if keys.date is not None:
        first = min((d for d in dates if d.value == keys.date), key=lambda d: d.start)
        date_raw = doc.body[first.start : first.end]

    count_raw = None
    if keys.count is not None:
        first = min((c for c in counts if c.count == keys.count), key=lambda c: c.start)
        count_raw = doc.body[first.start : first.end]

    return ExtractionRecord(
        document_id=doc.id,
        extractor_id=extractor_id,
        disease_raw=disease_raw,
        disease=disease,
        country_raw=country_raw,
        country=country,
        date_raw=date_raw,
        date=keys.date,
        count_raw=count_raw,
        count=keys.count,
    )
