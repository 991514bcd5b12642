"""Surface-form gazetteer mapping disease and country mentions to canonical ids.

The gazetteer is a flat in-memory table: every known surface form (a display
name, synonym, or abbreviation) points at one canonical entry. Lookups are
case-, accent-, and punctuation-insensitive.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator, TypeVar

from .errors import SchemaError

DISEASE = "DISEASE"
COUNTRY = "COUNTRY"

_DATA_DIR = Path(__file__).parent / "data"

# Folded aliases too ambiguous to scan for inside running text ("the US" vs
# the pronoun "us"). They stay valid for whole-string lookups elsewhere.
_SCAN_STOPLIST = frozenset({"us"})

_T = TypeVar("_T")


def fold(text: str) -> str:
    """Reduce text to a matching key: casefold, strip accents and punctuation."""
    if text.isascii() and text.isalnum():
        # Nothing to decompose, strip or split: the slow path would only lower it.
        return text.lower()
    decomposed = unicodedata.normalize("NFKD", text.casefold())
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    cleaned = "".join(ch if ch.isalnum() else " " for ch in stripped)
    return " ".join(cleaned.split())


@dataclass(frozen=True)
class GazetteerEntry:
    cls: str
    canonical_id: str
    display_name: str


class Gazetteer:
    """Immutable-after-load synonym table shared by annotators and normalizers."""

    def __init__(self, rows: Iterable[tuple[str, str, str, str]] = ()):
        self._by_surface: dict[str, GazetteerEntry] = {}
        self._display: dict[str, str] = {}
        self._prefixes: set[str] = set()
        self._scanner = None  # what ``scanner`` built; ``add`` drops it
        for cls, canonical_id, display_name, surface in rows:
            self.add(cls, canonical_id, display_name, surface)

    def add(self, cls: str, canonical_id: str, display_name: str, surface: str) -> None:
        if cls not in (DISEASE, COUNTRY):
            raise SchemaError(f"unknown gazetteer class {cls!r}")
        key = fold(surface)
        if not key:
            raise SchemaError(f"surface form {surface!r} folds to nothing")
        entry = GazetteerEntry(cls, canonical_id, display_name)
        existing = self._by_surface.get(key)
        if existing is not None and existing != entry:
            raise SchemaError(
                f"surface form {surface!r} maps to both "
                f"{existing.canonical_id!r} and {canonical_id!r}"
            )
        self._by_surface[key] = entry
        self._display.setdefault(canonical_id, display_name)
        words = key.split(" ")
        self._prefixes.update(" ".join(words[:n]) for n in range(1, len(words) + 1))
        self._scanner = None

    def resolve(self, surface: str) -> GazetteerEntry | None:
        """Look up one surface form; None when unknown."""
        return self._by_surface.get(fold(surface))

    def resolve_key(self, folded_key: str) -> GazetteerEntry | None:
        """Look up an already-folded key (used by the document scanner)."""
        return self._by_surface.get(folded_key)

    def display_name(self, canonical_id: str) -> str:
        return self._display[canonical_id]

    @property
    def key_prefixes(self) -> AbstractSet[str]:
        """Every whole-word prefix of every folded key, the keys themselves included.

        A scan can stop growing a candidate key as soon as it leaves this set:
        no longer candidate can then be a key.
        """
        return self._prefixes

    def scanner(self, build: Callable[["Gazetteer"], _T]) -> _T:
        """``build(self)``, made on first use and kept until ``add`` changes the keys.

        The rule-based annotator compiles its body scanner here. It is built
        on the first scan, not when the gazetteer is loaded, so loading stays
        cheap, and it lives as long as the gazetteer does.
        """
        if self._scanner is None:
            self._scanner = build(self)
        return self._scanner

    def __len__(self) -> int:
        return len(self._by_surface)

    def entries(self) -> Iterator[GazetteerEntry]:
        """Each entry once, in the order its first surface form was added."""
        return iter(dict.fromkeys(self._by_surface.values()))

    def validate(self) -> None:
        """Each canonical id must be reachable by its display name; the first that is not fails."""
        for entry in self.entries():
            hit = self.resolve(entry.display_name)
            if hit is None or hit.canonical_id != entry.canonical_id:
                raise SchemaError(
                    f"display name {entry.display_name!r} is not a surface form "
                    f"of {entry.canonical_id!r}"
                )


def _read_tsv(path: Path, columns: int, add: Callable[..., object]) -> None:
    """``add(*cells)`` for each line of a tab-separated table but its blank and ``#`` lines.

    A line that is not UTF-8, has another number of cells, or that ``add``
    rejects is a SchemaError that starts with the path and the line.
    """
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise SchemaError(f"{path}: line {lineno}: invalid UTF-8") from None
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        try:
            if len(cells) != columns:
                raise SchemaError(f"expected {columns} tab-separated columns, got {len(cells)}")
            add(*[cell.strip() for cell in cells])
        except SchemaError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}") from None


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Load a gazetteer TSV (class, canonical_id, display_name, surface_form); errors name it."""
    path = Path(path)
    gaz = Gazetteer()
    _read_tsv(path, 4, gaz.add)
    try:
        gaz.validate()
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return gaz


def bundled_digest() -> str:
    """sha256 over the bundled tables that ``default_gazetteer`` reads, file by file."""
    digest = hashlib.sha256()
    for name in ("diseases.tsv", "countries.tsv"):
        digest.update(hashlib.sha256((_DATA_DIR / name).read_bytes()).digest())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def default_gazetteer() -> Gazetteer:
    """Bundled gazetteer: disease table plus country names and aliases.

    Country entries are derived from the bundled ISO-3166 table so the
    annotator and the country normalizer never disagree; their canonical id
    is the alpha-3 code.
    """
    gaz = Gazetteer()
    _read_tsv(_DATA_DIR / "diseases.tsv", 4, gaz.add)

    def add_country(alpha3: str, display_name: str, alias: str) -> None:
        if fold(alias) not in _SCAN_STOPLIST:
            gaz.add(COUNTRY, alpha3, display_name, alias)

    _read_tsv(_DATA_DIR / "countries.tsv", 3, add_country)
    gaz.validate()
    return gaz
