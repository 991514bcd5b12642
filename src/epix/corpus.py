"""Document model and ingestion for outbreak-news feeds.

Raw mailing-list posts and bulletin articles are normalized into plain-text
Documents; corpora, gold annotations and extraction records persist as
line-delimited JSON so collections of tens of thousands of documents stream
without loading tricks.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, replace
from enum import Enum
from html.parser import HTMLParser
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

from .errors import EmptyInput, SchemaError
from .normalize import (
    FIELD_TABLE,
    FIELDS,
    CanonicalDisease,
    CaseCount,
    CountryCode,
    IsoDate,
    iso_date,
    normalize_date,
)


class Source(str, Enum):
    PROMED = "PROMED"
    WHO_DON = "WHO_DON"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Document:
    """One normalized outbreak-news item."""

    id: str
    source: Source
    title: str
    body: str
    url: Optional[str] = None
    published: Optional[IsoDate] = None
    warnings: tuple[str, ...] = ()

    def to_json(self) -> dict:
        record = {
            "id": self.id,
            "source": self.source.value,
            "url": self.url,
            "published": self.published.isoformat() if self.published else None,
            "title": self.title,
            "body": self.body,
        }
        if self.warnings:
            record["warnings"] = list(self.warnings)
        return record

    @staticmethod
    def from_json(record: Mapping) -> "Document":
        doc_id = record.get("id")
        if not isinstance(doc_id, str) or not doc_id:
            raise SchemaError("document id must be a non-empty string")
        try:
            source = Source(record.get("source"))
        except ValueError:
            raise SchemaError(f"unknown source {record.get('source')!r}") from None
        published = record.get("published")
        if published is not None:
            try:
                published = iso_date(published)
            except (TypeError, ValueError):
                raise SchemaError(f"invalid published date {published!r}") from None
        title = record.get("title")
        body = record.get("body")
        if not isinstance(title, str) or not isinstance(body, str):
            raise SchemaError("title and body must be strings")
        url = record.get("url")
        if url is not None and not isinstance(url, str):
            raise SchemaError("url must be a string or null")
        warnings = record.get("warnings", [])
        if type(warnings) is not list or not all(type(w) is str for w in warnings):
            raise SchemaError(f"warnings must be a list of strings, got {warnings!r}")
        return Document(
            id=doc_id,
            source=source,
            title=title,
            body=body,
            url=url,
            published=published,
            warnings=tuple(warnings),
        )


@dataclass(frozen=True)
class GoldAnnotation:
    """Expert-labelled ground truth for one document; any field may be absent."""

    document_id: str
    disease: Optional[str] = None
    country: Optional[str] = None
    date: Optional[IsoDate] = None
    count: Optional[int] = None

    def value(self, field_name: str):
        return getattr(self, field_name)

    def to_json(self) -> dict:
        return {
            "document_id": self.document_id,
            "disease": self.disease,
            "country": self.country,
            "date": self.date.isoformat() if self.date else None,
            "count": self.count,
        }


@dataclass(frozen=True)
class ExtractionRecord:
    """What one extractor found in one document: per field, the raw string
    and its normalized value."""

    document_id: str
    extractor_id: str
    disease_raw: Optional[str] = None
    disease: Optional[CanonicalDisease] = None
    country_raw: Optional[str] = None
    country: Optional[CountryCode] = None
    date_raw: Optional[str] = None
    date: Optional[IsoDate] = None
    count_raw: Optional[str] = None
    count: Optional[CaseCount] = None
    parse_failure: bool = False
    truncated_input: bool = False

    def __post_init__(self):
        if not self.extractor_id:
            raise ValueError("extractor_id must be non-empty")

    @property
    def field_warnings(self) -> tuple[str, ...]:
        """The fields, in FIELDS order, whose raw string is set and whose value is not."""
        return tuple(
            f for f in FIELDS if getattr(self, f) is None and getattr(self, f"{f}_raw") is not None
        )

    def normalized_value(self, field_name: str):
        if field_name not in FIELDS:
            raise ValueError(f"unknown field {field_name!r}")
        return getattr(self, field_name)

    def raw_value(self, field_name: str) -> Optional[str]:
        if field_name not in FIELDS:
            raise ValueError(f"unknown field {field_name!r}")
        return getattr(self, f"{field_name}_raw")

    def to_json(self) -> dict:
        record = {"document_id": self.document_id, "extractor_id": self.extractor_id}
        for name, row in FIELD_TABLE.items():
            raw, value = getattr(self, f"{name}_raw"), getattr(self, name)
            if raw is None and value is None:
                record[name] = None
            elif value is None:
                record[name] = {"raw": raw}
            else:
                record[name] = {"raw": raw, **row.encode(value)}
        record["flags"] = {
            "parse_failure": self.parse_failure,
            "truncated_input": self.truncated_input,
            "field_warnings": list(self.field_warnings),
        }
        return record

    @staticmethod
    def from_json(record: Mapping) -> "ExtractionRecord":
        values = {}
        for name, row in FIELD_TABLE.items():
            obj = record.get(name)
            if obj is not None:
                values[f"{name}_raw"] = raw = obj.get("raw")
                if raw is not None and type(raw) is not str:
                    raise SchemaError(f"{name}: raw must be a string or null")
                values[name] = row.decode(obj) if row.tag in obj else None
                # A null tag would make a value whose comparison key reads as absent.
                if values[name] is not None and obj[row.tag] is None:
                    raise SchemaError(f"{name}: {row.tag} must not be null")
        ids = record.get("document_id"), record.get("extractor_id")
        if not all(isinstance(i, str) and i for i in ids):
            raise SchemaError("a record needs a document_id and an extractor_id")
        flags = record.get("flags", {})
        decoded = ExtractionRecord(
            *ids,
            parse_failure=flags.get("parse_failure", False),
            truncated_input=flags.get("truncated_input", False),
            **values,
        )
        if type(decoded.parse_failure) is not bool or type(decoded.truncated_input) is not bool:
            raise SchemaError("flags parse_failure and truncated_input must be booleans")
        derived = list(decoded.field_warnings)
        if flags.get("field_warnings", derived) != derived:
            raise SchemaError(f"flags field_warnings must be {derived}, the fields left unresolved")
        return decoded


# --- markup stripping ------------------------------------------------------

_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "tr", "td", "th", "table",
    "h1", "h2", "h3", "h4", "h5", "h6", "section", "article", "header",
    "footer", "blockquote", "pre", "dd", "dt",
}
_SKIP_TAGS = {"script", "style"}


class _TextExtractor(HTMLParser):
    # Every tag acts as a whitespace boundary; block-level tags additionally
    # break lines so header detection (Subject:, date lines) keeps working.
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        self.parts.append("\n" if tag in _BLOCK_TAGS else " ")

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS and self._skip_depth:
            self._skip_depth -= 1
        self.parts.append("\n" if tag in _BLOCK_TAGS else " ")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


_STRAY_TAG_RE = re.compile(r"<[a-zA-Z!/]")


def _to_lines(raw: str) -> tuple[list[str], bool]:
    """Strip markup into normalized non-empty lines; flags suspect input.

    Stripping is best-effort and never fatal: if the parser chokes, a crude
    regex pass takes over and the result is flagged as malformed.
    """
    malformed = False
    try:
        extractor = _TextExtractor()
        extractor.feed(raw)
        extractor.close()
        text = "".join(extractor.parts)
    except Exception:
        text = re.sub(r"<[^>]*>?", " ", raw)
        malformed = True
    # An opening angle bracket after the last close is an unterminated tag.
    last_lt = raw.rfind("<")
    if last_lt > raw.rfind(">") and _STRAY_TAG_RE.match(raw, last_lt):
        malformed = True
    lines = [" ".join(line.split()) for line in text.split("\n")]
    return [line for line in lines if line], malformed


def strip_markup(raw: str) -> str:
    """Best-effort tag removal; output is whitespace-normalized linear text."""
    lines, _ = _to_lines(raw)
    return " ".join(lines)


_SUBJECT_RE = re.compile(r"^subject\s*:\s*(.+)$", re.IGNORECASE)
_TITLE_TAG_RE = re.compile(r"<(?:title|h1)[^>]*>(.*?)</(?:title|h1)>", re.IGNORECASE | re.DOTALL)
_TITLE_FALLBACK_CHARS = 120


def _content_id(prefix: str, *parts: str) -> str:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return f"{prefix}-{digest[:12]}"


def parse_promed_post(raw: str, hint: Mapping | None = None) -> Document:
    """Normalize one mailing-list post.

    The title comes from the first Subject: line when one exists, otherwise
    from the first 120 characters of the stripped body. ``hint`` may supply
    id, url, and published metadata from the feed envelope.
    """
    if raw is None or not raw.strip():
        raise EmptyInput("post is empty")
    hint = hint or {}
    lines, malformed = _to_lines(raw)

    title = None
    body_lines = []
    for line in lines:
        match = _SUBJECT_RE.match(line)
        if title is None and match:
            title = match.group(1).strip()
        else:
            body_lines.append(line)
    body = " ".join(body_lines)
    if title is None:
        title = body[:_TITLE_FALLBACK_CHARS]

    published = hint.get("published")
    if isinstance(published, str):
        published = normalize_date(published)
    return Document(
        id=hint.get("id") or _content_id("promed", title, body),
        source=Source.PROMED,
        title=title,
        body=body,
        url=hint.get("url"),
        published=published,
        warnings=("malformed-markup",) if malformed else (),
    )


def parse_don_article(raw: str, url: str) -> Document:
    """Normalize one bulletin article; markup problems are never fatal.

    The publication date is picked up from a date-like header line near the
    top of the article when one is present.
    """
    if raw is None or not raw.strip():
        raise EmptyInput("article is empty")
    lines, malformed = _to_lines(raw)
    body = " ".join(lines)

    title_match = _TITLE_TAG_RE.search(raw)
    if title_match:
        title = strip_markup(title_match.group(1))
    else:
        title = body[:_TITLE_FALLBACK_CHARS]

    published = None
    for line in lines[:10]:
        for segment in [line, *line.split("|")]:
            published = normalize_date(segment.strip())
            if published:
                break
        if published:
            break

    return Document(
        id=_content_id("don", url or "", title, body),
        source=Source.WHO_DON,
        title=title,
        body=body,
        url=url or None,
        published=published,
        warnings=("malformed-markup",) if malformed else (),
    )


def with_id(doc: Document, doc_id: str) -> Document:
    """Copy of a document under an externally assigned id."""
    return replace(doc, id=doc_id)


# --- persistence -----------------------------------------------------------


def read_jsonl(
    path: str | Path, decode: Callable[[Mapping], object], unique=None, data: bytes | None = None
) -> list:
    """Decode every non-blank line of a JSON-lines file, in order.

    A line that is not UTF-8, not a JSON object, that ``decode`` rejects, or
    whose ``unique(item)`` repeats an earlier line's is a SchemaError naming
    the file and the line. ``data``, when given, is the file's content
    already read, and ``path`` only names it.
    """
    items = []
    seen = set()
    source = open(path, "rb") if data is None else io.BytesIO(data)
    try:
        with io.TextIOWrapper(source, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise SchemaError("not a JSON object")
                    item = decode(obj)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}: invalid JSON ({exc.msg})", line=lineno) from None
                except (SchemaError, AttributeError, LookupError, TypeError, ValueError) as exc:
                    raise SchemaError(f"{path}: {exc}", line=lineno) from None
                if unique is not None:
                    key = unique(item)
                    if key in seen:
                        raise SchemaError(f"{path}: duplicate document id {key!r}", line=lineno)
                    seen.add(key)
                items.append(item)
    except UnicodeDecodeError:
        # The wrapper decodes ahead in blocks, so its error does not tell the line.
        data = Path(path).read_bytes() if data is None else data
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise SchemaError(f"{path}: invalid UTF-8", line=line) from None
        raise
    return items


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file beside ``path`` that then replaces it.

    A failure part-way leaves the previous file whole and no temporary file;
    an OSError about the temporary file is raised naming ``path`` instead.
    The directory must exist.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # Name the file asked for alone, not the temporary one.
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def json_line(item) -> bytes:
    """``item.to_json()`` as one line of a JSON-lines file."""
    return (json.dumps(item.to_json(), ensure_ascii=False) + "\n").encode("utf-8")


_TAGS = tuple((name, row.tag) for name, row in FIELD_TABLE.items())


def stored_keys(lines: Iterable[bytes]) -> dict[str, tuple]:
    """The comparison keys, in FIELDS order and by document id, of the
    ExtractionRecords on the lines of a JSON-lines file, read without
    decoding the records.

    A field's key is its stored tag (``FIELD_TABLE[f].tag``): ``json_line``
    writes ``FIELD_TABLE[f].key`` of the normalized value there. Only lines
    that ``json_line`` wrote may be read this way; a line it could not have
    written raises LookupError, TypeError or ValueError.
    """
    keys: dict[str, tuple] = {}
    for line in lines:
        record = json.loads(line.decode("utf-8"))
        doc_id = record["document_id"]
        if doc_id in keys:
            raise ValueError(f"repeated document id {doc_id!r}")
        keys[doc_id] = tuple(
            None if (stored := record.get(f)) is None else stored.get(tag) for f, tag in _TAGS
        )
    return keys


def write_jsonl(items: Iterable, path: str | Path) -> None:
    """Write each item's ``to_json()`` as one line, atomically (see write_atomic)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, map(json_line, items))


save_corpus = save_gold = write_jsonl


def load_corpus(path: str | Path) -> list[Document]:
    """Load a line-delimited corpus, preserving order; ids must be unique."""
    return read_jsonl(path, Document.from_json, unique=attrgetter("id"))


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    """Load gold annotations; absent fields must be explicit nulls."""
    return read_jsonl(path, _gold_from_json)


def _gold_from_json(record: Mapping) -> GoldAnnotation:
    doc_id = record.get("document_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise SchemaError("missing document_id")
    for key in ("disease", "country", "date"):
        value = record.get(key)
        if value is not None and (not isinstance(value, str) or not value.strip()):
            raise SchemaError(f"{key} must be null or a non-empty string")
    gold_date = record.get("date")
    if gold_date is not None:
        gold_date = iso_date(gold_date)
    count = record.get("count")
    if count is not None and (isinstance(count, bool) or not isinstance(count, int) or count < 0):
        raise SchemaError("count must be null or a non-negative integer")
    return GoldAnnotation(
        document_id=doc_id,
        disease=record.get("disease"),
        country=record.get("country"),
        date=gold_date,
        count=count,
    )
