"""Rule-based extraction: gazetteer entities, counts, and dates per document.

The pipeline scans the body for disease/country mentions (longest surface
form wins), count expressions, and date expressions, then condenses each
class to a single winner by mention frequency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .corpus import Document, ExtractionRecord
from .gazetteer import COUNTRY, DISEASE, Gazetteer, default_gazetteer, fold
from .normalize import (
    _ASCII_FOLD,
    _CASE_KW,
    _DEATH_KW,
    _MONTHS,
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
# The token after a position, past the run of non-word characters before it.
_NEXT_TOKEN_RE = re.compile(r"\W+(\w+)")
# The keyword that ends every COUNT_EXPR_RE match, as a whole token.
_COUNT_KEYWORD = rf"(?:{_CASE_KW}|{_DEATH_KW})"
# A run of the only characters a count expression holds before its keyword:
# \w, \s, "," and "-". Matched on the reversed body, it walks back.
_COUNT_RUN_RE = re.compile(r"[\w\s,-]*")
# Every DATE_PATTERNS match starts at a word start, with a digit or with a
# month name. A pattern whose first group is the month leads with the month.
_DIGIT_LED = tuple(p for p in DATE_PATTERNS if p.groupindex.get("mon") != 1)
_MONTH_LED = tuple(p for p in DATE_PATTERNS if p.groupindex.get("mon") == 1)

# Counts are grouped by their number, and a tie prefers cases, then deaths.
_ATTRIBUTE_RANK = {
    CountAttribute.CASE: 0,
    CountAttribute.DEATH: 1,
    CountAttribute.UNKNOWN: 2,
}
# ``_winner``'s key and rank for a field, where they are not the defaults.
_WINNER_RULES = {"count": (attrgetter("value"), lambda c: _ATTRIBUTE_RANK[c.attribute])}


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
    # Each winner's first mention in the body, by field; not compared.
    first_mentions: Mapping[str, object] = field(default_factory=dict, compare=False, repr=False)


# The letters that _ASCII_FOLD maps, each with its ASCII letter.
_FOLD_LETTERS = tuple((chr(code), chr(folded)) for code, folded in _ASCII_FOLD.items())


def _lowered(body: str) -> str:
    """``body.translate(_ASCII_FOLD).lower()``, each character still at its own offset.

    The case-sensitive scanner matches here exactly where its re.IGNORECASE
    form matches the body. ``_ASCII_FOLD`` maps the letters that
    re.IGNORECASE equates with an ASCII letter but ``lower`` leaves alone,
    and U+0130, the one code point whose ``lower`` is two characters long.
    No character changes whether it is a word character or a digit.
    """
    # str.translate looks up every character of a non-ASCII body; the four
    # letters are rare, so each is searched for and replaced instead.
    for letter, ascii_letter in _FOLD_LETTERS:
        if letter in body:
            body = body.replace(letter, ascii_letter)
    return body.lower()


def _trie(words) -> str:
    """An alternation matching exactly ``words``, their shared prefixes written once."""
    tree: dict = {}
    for word in words:
        node = tree
        for char in word:
            node = node.setdefault(char, {})
        node[""] = {}  # a word ends here

    def alternation(node) -> str:
        branches = [
            re.escape(char) + alternation(child) for char, child in sorted(node.items()) if char
        ]
        if not branches:
            return ""
        if len(branches) == 1 and "" not in node:
            return branches[0]
        return f"(?:{'|'.join(branches)})" + ("?" if "" in node else "")

    return alternation(tree)


class _Scanner(NamedTuple):
    pattern: re.Pattern
    overlaps: dict[str, str]  # first token -> the anchor kind it is too


# The anchor groups of every scanner, tried after the gazetteer's first tokens.
_ANCHOR_KINDS = {
    "keyword": _COUNT_KEYWORD + r"(?!\w)",
    "digit": r"\d",
    # Every month name starts with its three-letter abbreviation.
    "month": _trie(sorted({name[:3] for name in _MONTHS})),
}


def _build_scanner(gazetteer: Gazetteer) -> _Scanner:
    """One pattern for the gazetteer's first tokens, count keywords and date anchors.

    Everything it finds starts a word, and a match never leaves that word,
    so one left-to-right pass meets every word start. First tokens are tried
    first. A first token that is also a keyword, or starts like a date, is
    listed in ``overlaps`` with that kind, so it is not lost.
    """
    firsts = sorted(key for key in gazetteer.key_prefixes if " " not in key)
    kinds = {"entity": _trie(firsts) + r"(?!\w)"} if firsts else {}
    kinds.update(_ANCHOR_KINDS)
    # A first token is a whole word, so an anchor matches at it where it matches the token.
    overlaps = {
        token: kind
        for token in firsts
        for kind, anchor in _ANCHOR_KINDS.items()
        if re.match(anchor, token)
    }
    alternation = "|".join(f"(?P<{kind}>{anchor})" for kind, anchor in kinds.items())
    return _Scanner(re.compile(rf"(?<!\w)(?:{alternation})"), overlaps)


class _Scan(NamedTuple):
    """What one scanner pass found in a body, each list in body order."""

    lowered: str  # _lowered(body)
    firsts: list[re.Match]  # gazetteer first tokens
    keywords: list[tuple[int, int]]  # count keyword spans
    digits: list[int]  # where a word starts with a digit
    months: list[int]  # where a word starts with a month name


_NO_GAZETTEER = Gazetteer()  # scans for counts and dates alone


def _scan(body: str, gazetteer: Gazetteer = _NO_GAZETTEER) -> _Scan:
    """One pass of the gazetteer's scanner over the lowered body."""
    scanner = gazetteer.scanner(_build_scanner)
    overlaps = scanner.overlaps
    lowered = _lowered(body)
    firsts, keywords, digits, months = [], [], [], []
    for match in scanner.pattern.finditer(lowered):
        kind = match.lastgroup
        if kind == "entity":
            firsts.append(match)
            kind = overlaps.get(match.group())
        if kind == "digit":
            digits.append(match.start())
        elif kind == "month":
            months.append(match.start())
        elif kind == "keyword":
            keywords.append(match.span())
    return _Scan(lowered, firsts, keywords, digits, months)


def annotate_entities(
    doc: Document, gazetteer: Gazetteer, *, scan: Optional[_Scan] = None
) -> list[EntitySpan]:
    """Longest-match scan of the body for gazetteer surface forms.

    A match consumes its tokens, so shorter overlapping surfaces ("Ebola"
    inside "Ebola virus disease") are suppressed. From each token the
    candidate key grows one token at a time only while it is still a word
    prefix of some gazetteer key, and the longest full key seen wins. A
    token's key is its ``fold``. Only tokens holding ``_`` or a non-ASCII
    character are folded; any other is ASCII letters and digits, whose key
    is its slice of the scan's lowered body. ``scan`` is this body's
    ``_scan`` with this gazetteer; left out, it is made.
    """
    body = doc.body
    prefixes = gazetteer.key_prefixes
    scan = scan or _scan(body, gazetteer)
    candidates = scan.firsts
    folded: dict[int, str] = {}  # end -> fold of each token holding "_" or a non-ASCII character
    if not body.isascii() or "_" in body:
        tokens = [m for m in _TOKEN_RE.finditer(body) if not m[0].isascii() or "_" in m[0]]
        folded = {token.end(): fold(token[0]) for token in tokens}
        # A first-word hit on such a token is dropped: its lowered form need not be its fold.
        candidates = sorted(
            [first for first in candidates if first.end() not in folded]
            + [token for token in tokens if folded[token.end()] in prefixes],
            key=lambda match: match.start(),
        )
    spans: list[EntitySpan] = []
    resume = 0
    for candidate in candidates:
        start = candidate.start()
        if start < resume:
            continue
        end = candidate.end()
        key = folded[end] if end in folded else candidate.group()
        entry = None
        while key in prefixes:
            hit = gazetteer.resolve_key(key)
            if hit is not None:
                entry, last = hit, end
            step = _NEXT_TOKEN_RE.match(scan.lowered, end)
            if step is None:
                break
            end = step.end()
            key = f"{key} {folded[end] if end in folded else step.group(1)}"
        if entry is not None:
            spans.append(EntitySpan(entry.cls, start, last, body[start:last], entry.canonical_id))
            resume = last
    return spans


def annotate_counts(doc: Document, *, scan: Optional[_Scan] = None) -> list[CountSpan]:
    """Every count expression in the body (number plus case/death keyword).

    The spans equal those of ``COUNT_EXPR_RE.finditer`` over the whole body.
    A match ends at a case or death keyword, holds no other keyword, and
    before its keyword holds only characters of ``_COUNT_RUN_RE``. So at most
    one match ends at each keyword, and it starts inside the run of those
    characters that ends there, after the previous keyword. Only that
    stretch is searched. A match whose numeral is too long to resolve is
    skipped. ``scan`` gives the keywords; left out, it is made.
    """
    body = doc.body
    backwards = body[::-1]
    spans: list[CountSpan] = []
    floor = 0
    for start, end in (scan or _scan(body)).keywords:
        run = _COUNT_RUN_RE.match(backwards, len(body) - start, len(body) - floor)
        match = COUNT_EXPR_RE.search(body, len(body) - run.end(), end)
        count = count_from_match(match) if match is not None else None
        if count is not None:
            spans.append(CountSpan(match.start(), match.end(), count))
        floor = end
    return spans


def annotate_dates(doc: Document, *, scan: Optional[_Scan] = None) -> list[DateSpan]:
    """All resolvable date mentions; ranges yield their start date.

    Year-less month-day mentions resolve against the document's published
    year and are dropped when the document is undated. Each pattern is tried
    only at the anchors of its kind, digit or month name, which gives the
    same spans as its ``finditer`` over the whole body. ``scan`` gives the
    anchors; left out, it is made.
    """
    body = doc.body
    default_year = doc.published.year if doc.published else None
    scan = scan or _scan(body)
    raw_hits: list[tuple[int, int, IsoDate]] = []
    for patterns, anchors in ((_DIGIT_LED, scan.digits), (_MONTH_LED, scan.months)):
        for pattern in patterns:
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
    # Longest-first sweep removes submatches of richer patterns. Patterns of
    # one kind keep their DATE_PATTERNS order, and two kinds never share a start.
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
    """The winning ``(value, span)`` among mentions, or None when there are none.

    Mentions are grouped by the ``key`` of their value, and the largest group
    wins. A tie goes to the group whose best mention has the lowest ``rank``,
    then to the group mentioned first (the lowest span start). Within the
    winning group, the first mention of that lowest rank is the winner; it
    is also the first mention of its value.
    """
    groups: dict[object, list] = {}
    for value, span in mentions:
        groups.setdefault(key(value), []).append((rank(value), span.start, value, span))
    group = min(
        groups.values(),
        key=lambda g: (-len(g), min(m[0] for m in g), min(m[1] for m in g)),
        default=None,
    )
    return None if group is None else min(group, key=lambda m: m[:2])[2:]


def filter_key_entities(
    spans: Sequence[EntitySpan],
    counts: Sequence[CountSpan],
    dates: Sequence[DateSpan],
) -> KeyEntitySet:
    """Condense annotations to one winner per class, by the rule of ``_winner``."""
    mentions = {
        "disease": [(s.canonical_id, s) for s in spans if s.cls == DISEASE],
        "country": [(s.canonical_id, s) for s in spans if s.cls == COUNTRY],
        "date": [(d.value, d) for d in dates],
        "count": [(c.count, c) for c in counts],
    }
    winners = {
        name: _winner(found, *_WINNER_RULES.get(name, ())) for name, found in mentions.items()
    }
    return KeyEntitySet(
        **{name: None if winner is None else winner[0] for name, winner in winners.items()},
        first_mentions={name: w[1] for name, w in winners.items() if w is not None},
    )


def extract_rule_based(
    doc: Document,
    gazetteer: Gazetteer | None = None,
    extractor_id: str = "rule-based",
) -> ExtractionRecord:
    """Run the three annotators on one scan of the body and map the winners into a record.

    A field's raw string is the body text of its winner's first mention.
    """
    if gazetteer is None:
        gazetteer = default_gazetteer()
    scan = _scan(doc.body, gazetteer)
    keys = filter_key_entities(
        annotate_entities(doc, gazetteer, scan=scan),
        annotate_counts(doc, scan=scan),
        annotate_dates(doc, scan=scan),
    )
    raw = {
        f"{name}_raw": doc.body[span.start : span.end] for name, span in keys.first_mentions.items()
    }
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
