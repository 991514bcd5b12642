"""Rule-based extraction: gazetteer entities, counts, and dates per document.

The pipeline scans the body for disease/country mentions (longest surface
form wins), count expressions, and date expressions, then condenses each
class to a single winner by mention frequency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import attrgetter
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

# Counts are grouped by their number, and a tie prefers cases, then deaths.
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
    """At most one winner per class, chosen by ``filter_key_entities``."""

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


def _winner(mentions, key=lambda value: value, rank=lambda value: 0):
    """The winning value among ``(value, span)`` mentions, or None when there are none.

    Mentions are grouped by the ``key`` of their value, and the largest group
    wins. A tie goes to the group whose best mention has the lowest ``rank``,
    then to the group mentioned first (the lowest span start). Within the
    winning group, the first mention of that lowest rank gives the value.
    """
    groups: dict[object, list] = {}
    for value, span in mentions:
        groups.setdefault(key(value), []).append((rank(value), span.start, value))
    group = min(
        groups.values(),
        key=lambda g: (-len(g), min(r for r, _, _ in g), min(s for _, s, _ in g)),
        default=None,
    )
    return None if group is None else min(group, key=lambda m: m[:2])[2]


def _mentions(spans, counts, dates) -> dict[str, list[tuple]]:
    """Each field's mentions among the annotations, as ``(value, span)`` pairs."""
    return {
        "disease": [(s.canonical_id, s) for s in spans if s.cls == DISEASE],
        "country": [(s.canonical_id, s) for s in spans if s.cls == COUNTRY],
        "date": [(d.value, d) for d in dates],
        "count": [(c.count, c) for c in counts],
    }


def filter_key_entities(
    spans: Sequence[EntitySpan],
    counts: Sequence[CountSpan],
    dates: Sequence[DateSpan],
) -> KeyEntitySet:
    """Condense annotations to one winner per class, by the rule of ``_winner``."""
    mentions = _mentions(spans, counts, dates)
    return KeyEntitySet(
        disease=_winner(mentions["disease"]),
        country=_winner(mentions["country"]),
        date=_winner(mentions["date"]),
        count=_winner(
            mentions["count"], attrgetter("value"), lambda c: _ATTRIBUTE_RANK[c.attribute]
        ),
    )


def extract_rule_based(
    doc: Document,
    gazetteer: Gazetteer | None = None,
    extractor_id: str = "rule-based",
) -> ExtractionRecord:
    """Run the three annotators and map the per-class winners into a record.

    A field's raw string is the body text of its winner's first mention.
    """
    if gazetteer is None:
        gazetteer = default_gazetteer()
    spans = annotate_entities(doc, gazetteer)
    counts = annotate_counts(doc)
    dates = annotate_dates(doc)
    keys = filter_key_entities(spans, counts, dates)
    raw = {}
    # The annotators give their spans in body order, so ``next`` finds the first mention.
    for field, mentions in _mentions(spans, counts, dates).items():
        winner = getattr(keys, field)
        first = next((span for value, span in mentions if value == winner), None)
        raw[f"{field}_raw"] = None if first is None else doc.body[first.start : first.end]
    return ExtractionRecord(
        document_id=doc.id,
        extractor_id=extractor_id,
        disease=None if keys.disease is None else CanonicalDisease(
            keys.disease, gazetteer.display_name(keys.disease)
        ),
        country=None if keys.country is None else country_table().for_code(keys.country),
        date=keys.date,
        count=keys.count,
        **raw,
    )
