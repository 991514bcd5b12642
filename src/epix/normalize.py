"""Canonicalization of raw extracted strings into comparable values.

Every extractor (rule-based, model-backed, ensemble) and the evaluator speak
through the value types defined here: ISO dates, alpha-3 country codes,
canonical disease ids, and case counts. All operations are total — anything
unrecognizable comes back as None, never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping, Optional

from .gazetteer import DISEASE, Gazetteer, _read_tsv, default_gazetteer, fold

# Calendar dates serialize as YYYY-MM-DD; the stdlib date already guarantees
# a valid Gregorian (year, month, day) triple.
IsoDate = date

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class CountryCode:
    alpha3: str
    display_name: str


@dataclass(frozen=True)
class CanonicalDisease:
    canonical_id: str
    display_name: str


class CountAttribute(str, Enum):
    CASE = "CASE"
    DEATH = "DEATH"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class CaseCount:
    value: int
    approximate: bool = False
    attribute: CountAttribute = CountAttribute.UNKNOWN

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("case count cannot be negative")


# The letters outside ASCII that re.IGNORECASE matches to an ASCII letter
# (long s, dotless i, dotted capital I, Kelvin sign). Patterns accept them in
# month names and number words, so lookups fold them first.
_ASCII_FOLD = str.maketrans("\u017f\u0131\u0130\u212a", "siik")

# --- dates ---------------------------------------------------------------

_MONTHS = {
    "jan": 1, "january": 1,
    "feb": 2, "february": 2,
    "mar": 3, "march": 3,
    "apr": 4, "april": 4,
    "may": 5,
    "jun": 6, "june": 6,
    "jul": 7, "july": 7,
    "aug": 8, "august": 8,
    "sep": 9, "sept": 9, "september": 9,
    "oct": 10, "october": 10,
    "nov": 11, "november": 11,
    "dec": 12, "december": 12,
}

_MONTH_RE = (
    r"(?:jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|"
    r"jul(?:y)?|aug(?:ust)?|sep(?:t(?:ember)?)?|oct(?:ober)?|nov(?:ember)?|"
    r"dec(?:ember)?)"
)
_ORDINAL = r"(?:st|nd|rd|th)?"
_DAY_RANGE = rf"(?:\s*[-–]\s*\d{{1,2}}{_ORDINAL})?"

# Recognized shapes. Day ranges keep only the start day; "Month DD" without a
# year is resolved against a caller-supplied default year.
_ISO_DATE = re.compile(r"\b(?P<y>\d{4})-(?P<m>\d{2})-(?P<d>\d{2})\b")
_DMY_DATE = re.compile(
    rf"\b(?P<d>\d{{1,2}}){_ORDINAL}{_DAY_RANGE}\s+(?P<mon>{_MONTH_RE})\.?,?\s+(?P<y>\d{{4}})\b",
    re.IGNORECASE,
)
_MDY_DATE = re.compile(
    rf"\b(?P<mon>{_MONTH_RE})\.?\s+(?P<d>\d{{1,2}}){_ORDINAL}{_DAY_RANGE}(?:,\s*|\s+)(?P<y>\d{{4}})\b",
    re.IGNORECASE,
)
_MD_DATE = re.compile(
    rf"\b(?P<mon>{_MONTH_RE})\.?\s+(?P<d>\d{{1,2}}){_ORDINAL}{_DAY_RANGE}(?!\s*,?\s*\d{{4}})(?!\d)",
    re.IGNORECASE,
)
_SLASH_DATE = re.compile(r"\b(?P<d>\d{1,2})/(?P<m>\d{1,2})/(?P<y>\d{4})\b")

# Scanning order matters only for equal start offsets: longer, more explicit
# shapes first so "May 19, 2018" is not claimed by the year-less pattern.
DATE_PATTERNS = (_ISO_DATE, _DMY_DATE, _MDY_DATE, _SLASH_DATE, _MD_DATE)


def _safe_date(year: int, month: int, day: int) -> Optional[date]:
    try:
        return date(year, month, day)
    except ValueError:
        return None


def resolve_date_match(match: re.Match, default_year: int | None = None) -> Optional[date]:
    """Turn one DATE_PATTERNS match into a date; ranges yield their start."""
    groups = match.groupdict()
    if "mon" in groups and groups["mon"]:
        month = _MONTHS[groups["mon"].translate(_ASCII_FOLD).lower()]
    else:
        month = int(groups["m"])
    day = int(groups["d"])
    if groups.get("y"):
        year = int(groups["y"])
    elif default_year is not None:
        year = default_year
    else:
        return None
    return _safe_date(year, month, day)


def iso_date(text: str) -> IsoDate:
    """A stored date, which is ``YYYY-MM-DD`` and nothing else, read alike on
    every supported Python (3.11's ``date.fromisoformat`` also takes
    ``20190503`` and ``2019-W18-5``, 3.10's does not); else a ValueError."""
    if not (isinstance(text, str) and re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text)):
        raise ValueError(f"a date must be YYYY-MM-DD, got {text!r}")
    return date.fromisoformat(text)


def normalize_date(raw: str, default_year: int | None = None) -> Optional[IsoDate]:
    """Parse one date expression; None for anything unrecognized.

    Accepts YYYY-MM-DD, "31 May 2018", "May 31, 2018", day ranges such as
    "May 19-21, 2018" (start date wins), DD/MM/YYYY, and a year-less
    "May 31" when default_year anchors it.
    """
    if raw is None:
        return None
    text = raw.strip()
    if not text:
        return None
    for pattern in DATE_PATTERNS:
        match = pattern.fullmatch(text)
        if match:
            return resolve_date_match(match, default_year)
    return None


# --- countries -----------------------------------------------------------


class CountryTable:
    """ISO-3166 alpha-3 table plus alias lookups, loaded from a TSV resource."""

    def __init__(self, rows):
        self._display: dict[str, str] = {}
        self._lookup: dict[str, str] = {}
        for alpha3, display_name, alias in rows:
            self._display.setdefault(alpha3, display_name)
            self._lookup.setdefault(fold(alias), alpha3)
            self._lookup.setdefault(fold(alpha3), alpha3)

    def get(self, raw: str) -> Optional[CountryCode]:
        alpha3 = self._lookup.get(fold(raw))
        if alpha3 is None:
            return None
        return CountryCode(alpha3, self._display[alpha3])

    def for_code(self, alpha3: str) -> Optional[CountryCode]:
        display = self._display.get(alpha3.upper())
        if display is None:
            return None
        return CountryCode(alpha3.upper(), display)

    def __len__(self) -> int:
        return len(self._display)


@lru_cache(maxsize=1)
def country_table() -> CountryTable:
    rows: list[tuple[str, ...]] = []
    _read_tsv(_DATA_DIR / "countries.tsv", 3, lambda *row: rows.append(row))
    return CountryTable(rows)


def normalize_country(raw: str) -> Optional[CountryCode]:
    """Case-insensitive lookup against ISO-3166 names, codes, and aliases."""
    if raw is None or not raw.strip():
        return None
    return country_table().get(raw)


# --- diseases ------------------------------------------------------------


def normalize_disease(raw: str, gazetteer: Gazetteer | None = None) -> Optional[CanonicalDisease]:
    """Resolve a disease surface form to its canonical gazetteer entry."""
    if raw is None or not raw.strip():
        return None
    if gazetteer is None:
        gazetteer = default_gazetteer()
    entry = gazetteer.resolve(raw)
    if entry is None or entry.cls != DISEASE:
        return None
    return CanonicalDisease(entry.canonical_id, entry.display_name)


# --- counts --------------------------------------------------------------

_UNITS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9,
}
_TEENS = {
    "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
    "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19,
}
_TENS = {
    "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
    "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90,
}

_UNIT_RE = "|".join(_UNITS)
_TEEN_RE = "|".join(_TEENS)
_TENS_RE = "|".join(_TENS)
# English number words up to 999: "thirteen", "twenty-five", "two hundred and six".
_WORDNUM_RE = (
    rf"(?:(?:{_UNIT_RE}|a)\s+hundred(?:\s+(?:and\s+)?(?:(?:{_TENS_RE})(?:[-\s](?:{_UNIT_RE}))?|{_TEEN_RE}|{_UNIT_RE}))?"
    rf"|(?:{_TENS_RE})(?:[-\s](?:{_UNIT_RE}))?"
    rf"|{_TEEN_RE}|{_UNIT_RE})"
)
_NUMBER_RE = rf"(?:\d{{1,3}}(?:,\d{{3}})+|\d+|{_WORDNUM_RE})"
_HEDGE_RE = r"(?:about|approximately|around|nearly|roughly|more\s+than|over|at\s+least|up\s+to)"
_MODIFIER_RE = (
    r"(?:new|confirmed|suspected|probable|reported|additional|human|further|"
    r"total|laboratory[-\s]confirmed|lab[-\s]confirmed)"
)
_CASE_KW = r"(?:cases?|infections?)"
_DEATH_KW = r"(?:deaths?|fatalit(?:y|ies))"

# Full count expression: optional hedge, the number, optional modifiers, and
# an attribute keyword. Used for in-document scanning, where a bare numeral
# must not count (years and dates would flood the results).
COUNT_EXPR_RE = re.compile(
    rf"\b(?P<hedge>{_HEDGE_RE}\s+)?(?P<num>{_NUMBER_RE})\s+(?:{_MODIFIER_RE}\s+){{0,2}}"
    rf"(?P<kw>{_CASE_KW}|{_DEATH_KW})\b",
    re.IGNORECASE,
)
_BARE_COUNT_RE = re.compile(
    rf"\b(?P<hedge>{_HEDGE_RE}\s+)?(?P<num>{_NUMBER_RE})\b", re.IGNORECASE
)
_DEATH_KW_RE = re.compile(rf"^{_DEATH_KW}$", re.IGNORECASE)


def _words_to_int(phrase: str) -> int:
    total = 0
    current = 0
    for token in re.split(r"[\s-]+", phrase.translate(_ASCII_FOLD).lower()):
        if token in ("and", ""):
            continue
        if token == "a":
            current = 1
        elif token == "hundred":
            current = (current or 1) * 100
        elif token in _UNITS:
            current += _UNITS[token]
        elif token in _TEENS:
            current += _TEENS[token]
        elif token in _TENS:
            current += _TENS[token]
        else:
            raise ValueError(f"not a number word: {token!r}")
        total = current
    return total


def _number_value(text: str) -> Optional[int]:
    """A numeral's or number phrase's value; None for a numeral too long to
    convert (over ``sys.get_int_max_str_digits()`` digits)."""
    digits = text.replace(",", "")
    if digits.isdigit():
        try:
            return int(digits)
        except ValueError:
            return None
    return _words_to_int(text)


def count_from_match(match: re.Match) -> Optional[CaseCount]:
    """Build a CaseCount from a COUNT_EXPR_RE or bare-number match; None when
    its numeral is too long to resolve."""
    value = _number_value(match.group("num"))
    if value is None:
        return None
    approximate = match.group("hedge") is not None
    keyword = match.groupdict().get("kw")
    if keyword is None:
        attribute = CountAttribute.UNKNOWN
    elif _DEATH_KW_RE.match(keyword):
        attribute = CountAttribute.DEATH
    else:
        attribute = CountAttribute.CASE
    return CaseCount(value, approximate, attribute)


def parse_count_expression(raw: str) -> Optional[CaseCount]:
    """Parse the first count expression in a string.

    Digit numerals and English number words up to 999 are understood. Hedge
    markers ("about", "more than", ...) set the approximate flag; a trailing
    keyword fixes the attribute (cases vs deaths). A bare numeral parses with
    attribute UNKNOWN so model answers like "15" survive normalization. A
    numeral too long to convert leaves the count unresolved (None).
    """
    if raw is None or not raw.strip():
        return None
    match = COUNT_EXPR_RE.search(raw)
    if match is None:
        match = _BARE_COUNT_RE.search(raw)
    if match is None:
        return None
    return count_from_match(match)


# --- the four fields -----------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One target fact: how models name it, normalize it, compare it and store it.

    Prompts ask for the first of ``answer_keys``. A stored record holds
    ``encode(value)`` beside the raw string, ``tag`` marks that a normalized
    value is there, and ``decode`` reads it back. ``key`` maps a normalized
    value to what equality is judged on.
    """

    name: str
    answer_keys: tuple[str, ...]
    normalize: Callable[[str, Optional[Gazetteer]], object]
    key: Callable[[object], object]
    tag: str
    encode: Callable[[object], dict]
    decode: Callable[[Mapping], object]


FIELD_TABLE = {row.name: row for row in (
    Field(
        "disease", ("virus", "disease"), normalize_disease,
        key=lambda v: v.canonical_id,
        tag="canonical_id",
        encode=lambda v: {"canonical_id": v.canonical_id, "display_name": v.display_name},
        decode=lambda o: CanonicalDisease(o["canonical_id"], o["display_name"]),
    ),
    Field(
        "country", ("country",), lambda raw, _gazetteer: normalize_country(raw),
        key=lambda v: v.alpha3,
        tag="alpha3",
        encode=lambda v: {"alpha3": v.alpha3, "display_name": v.display_name},
        decode=lambda o: CountryCode(o["alpha3"], o["display_name"]),
    ),
    Field(
        "date", ("date",), lambda raw, _gazetteer: normalize_date(raw),
        key=lambda v: v.isoformat(),
        tag="iso",
        encode=lambda v: {"iso": v.isoformat()},
        decode=lambda o: iso_date(o["iso"]),
    ),
    Field(
        "count", ("cases", "count"), lambda raw, _gazetteer: parse_count_expression(raw),
        # Gold counts are plain integers.
        key=lambda v: v.value if isinstance(v, CaseCount) else int(v),
        tag="value",
        encode=lambda v: {
            "value": v.value, "approximate": v.approximate, "attribute": v.attribute.value
        },
        decode=lambda o: CaseCount(o["value"], o["approximate"], CountAttribute(o["attribute"])),
    ),
)}
FIELDS = tuple(FIELD_TABLE)


def comparison_key(field: str, value, gazetteer: Gazetteer | None = None):
    """What field-aware equality judges a value on; None for an absent value.

    Diseases compare by canonical id, countries by alpha-3 code, dates by
    exact day, counts by integer value (the approximate flag and the
    case/death attribute are ignored). Raw strings are coerced through the
    field's normalizer first, so "EVD" and "Ebola virus disease" get the
    same key; a string the normalizer cannot resolve keys on its folded text.
    """
    row = FIELD_TABLE.get(field)
    if row is None:
        raise ValueError(f"unknown field {field!r}")
    if value is None:
        return None
    if isinstance(value, str):
        resolved = row.normalize(value, gazetteer)
        if resolved is None:
            # A tuple never equals a resolved key, which is a str or an int.
            return ("text", fold(value))
        value = resolved
    return row.key(value)


def values_match(field: str, a, b, gazetteer: Gazetteer | None = None) -> bool:
    """Field-aware equality of two values: their comparison keys are equal."""
    return comparison_key(field, a, gazetteer) == comparison_key(field, b, gazetteer)
