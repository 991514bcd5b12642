"""Resume state: the sidecar journals that vouch for committed lines.

A data file that epix appends to (a corpus, or an extractor's predictions)
has a sidecar in JSON lines: a header, ``{"fingerprint": …}``, then one
row, ``[document id, input digest, record digest]``, per committed line of
the data file, in file order. The sidecar vouches for the data file's first
lines when each hashes, in order, to its row's record digest (see
``vouched``). When its data file is appended, the journal is appended after
it; when its data file is rewritten, so is the journal. A torn journal tail
is ignored and cut on the next append.

``ingest``, ``extract`` and ``evaluate`` read and write state only here.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quoted
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .corpus import Document, ExtractionRecord, read_jsonl, write_atomic
from .errors import SchemaError

if TYPE_CHECKING:
    from .cli import RunConfig


def digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def document_digest(doc: Document) -> str:
    """Digest of what an extractor reads of a document: its publication date and body."""
    return digest(doc.published.isoformat() if doc.published else "", doc.body)


class Sidecar(NamedTuple):
    """A journal as read: its fingerprint, the ``[input digest, record
    digest]`` entry of each committed line by document id, in file order,
    and the length of its whole lines, which a journal append goes after."""

    fingerprint: str
    documents: dict[str, list[str]]
    length: int


def read_state(path: Path) -> Optional[Sidecar]:
    """The sidecar at ``path``; none when the file does not exist.

    Bytes after the journal's last newline (a torn append) are not read.
    Anything else that is not a journal, or a journal that repeats a
    document id, is a SchemaError naming the file.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    head, newline, body = data.partition(b"\n")
    try:
        header = json.loads(head)
        *lines, tail = body.split(b"\n")
        # One parse for every row, then one pass over their shapes.
        rows = json.loads(b"[" + b",".join(lines) + b"]")
    except ValueError as exc:
        raise SchemaError(f"{path}: unreadable resume state ({exc})") from None
    if not (
        newline and type(header) is dict and list(header) == ["fingerprint"]
        and type(header["fingerprint"]) is str and len(rows) == len(lines)
        and all(
            type(r) is list and len(r) == 3
            and type(r[0]) is str and type(r[1]) is str and type(r[2]) is str
            for r in rows
        )
    ):
        raise SchemaError(f"{path}: unreadable resume state")
    documents = {r[0]: r[1:] for r in rows}
    if len(documents) < len(rows):
        repeated = [d for d, n in Counter(r[0] for r in rows).items() if n > 1]
        raise SchemaError(f"{path}: unreadable resume state (repeated ids {repeated})")
    return Sidecar(header["fingerprint"], documents, len(data) - len(tail))


def vouched(data: bytes, documents: dict) -> Optional[list[bytes]]:
    """A data file's committed lines: its first ``len(documents)`` lines,
    when each hashes, in order, to its sidecar entry's record digest."""
    lines = data.splitlines(keepends=True)[: len(documents)]
    if len(lines) == len(documents) and all(
        hashlib.sha256(line).hexdigest() == entry[1] for line, entry in zip(lines, documents.values())
    ):
        return lines
    return None


def wholly_vouched(data: bytes, state_path: Path) -> Optional[tuple[Sidecar, list[bytes]]]:
    """The sidecar at ``state_path`` and its committed lines (see ``vouched``),
    when those are all of ``data``; None for a missing or unreadable sidecar,
    a line that fails its digest, or bytes past the committed lines."""
    try:
        state = read_state(state_path)
    except (SchemaError, OSError):
        return None
    lines = None if state is None else vouched(data, state.documents)
    if lines is None or sum(map(len, lines)) != len(data):
        return None
    return state, lines


def read_records(path: Path, data: bytes) -> list[ExtractionRecord]:
    """Decode and validate every record of a predictions file; a fault names its line."""
    return read_jsonl(path, ExtractionRecord.from_json, unique=attrgetter("document_id"), data=data)


def _append(path: Path, offset: int, chunks) -> None:
    """Write ``chunks`` at ``offset``, cutting any bytes past it first; a
    failed write is cut back to ``offset``."""
    try:
        with open(path, "r+b") as fh:
            fh.truncate(offset)
            fh.seek(offset)
            fh.writelines(chunks)
    except BaseException:
        os.truncate(path, offset)
        raise


def _row(doc_id: str, entry: list[str]) -> bytes:
    """A journal row, as ``json.dumps([doc_id, *entry], separators=(",", ":"))`` writes it."""
    return f"[{_quoted(doc_id)},{_quoted(entry[0])},{_quoted(entry[1])}]\n".encode("ascii")


@dataclass
class Stored:
    """What a resume may reuse of one data file, and what it made of it.

    ``path`` is the data file, ``state_path`` its sidecar and
    ``fingerprint`` what the sidecar must hold. ``inputs`` holds the input
    digest of each document that may be written now. ``lines`` holds each
    reusable line by document id, and ``entries`` the sidecar entry,
    ``[input digest, record digest]``, of each line the sidecar vouches
    for; after ``save`` they are the new sidecar's. ``offset`` and
    ``journal`` are where new lines and their rows may be appended, after
    the committed ones, else None, and ``cut`` says that an interrupted
    append left bytes past ``offset``. ``records`` holds the records this
    run made.
    """

    path: Path
    state_path: Path
    fingerprint: str
    inputs: dict[str, str]
    lines: dict[str, bytes] = field(default_factory=dict)
    entries: dict[str, list[str]] = field(default_factory=dict)
    offset: Optional[int] = None
    journal: Optional[int] = None
    cut: bool = False
    records: dict[str, ExtractionRecord] = field(default_factory=dict)

    def save(self, new: dict[str, bytes], order: Iterable[str]) -> None:
        """Commit the ``new`` lines, by document id, and their sidecar rows.

        With an append point (``offset``) and no committed id among ``new``,
        they are appended after the committed lines, cutting the bytes of an
        interrupted append, and their rows after the journal's; with nothing
        new and nothing to cut, neither file is written. Otherwise both are
        rewritten, the data file as the kept ``lines`` and ``new`` of the ids
        in ``order``. A failed append is cut back to ``offset``; a failed
        journal write cuts both files back, so both stay as they were. A
        line's entry is ``[inputs[id], SHA-256 of the line]``.
        """
        offset = self.offset if new.keys().isdisjoint(self.entries) else None
        if offset is None:
            kept = self.lines | new
            new = {d: kept[d] for d in order if d in kept}
            self.path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(self.path, new.values())
            self.entries, self.journal = {}, None
        elif new or self.cut:
            _append(self.path, offset, new.values())
        else:
            return
        new = {d: [self.inputs[d], hashlib.sha256(line).hexdigest()] for d, line in new.items()}
        self.entries |= new
        try:
            if self.journal is None:
                header = json.dumps({"fingerprint": self.fingerprint}, separators=(",", ":"))
                self.state_path.parent.mkdir(parents=True, exist_ok=True)
                rows = map(_row, self.entries, self.entries.values())
                write_atomic(self.state_path, [f"{header}\n".encode("ascii"), *rows])
            else:
                _append(self.state_path, self.journal, map(_row, new, new.values()))
        except BaseException:
            if offset is not None:
                os.truncate(self.path, offset)
            raise


def stored(path: Path, state_path: Path, fingerprint: str, inputs: dict[str, str]) -> Stored:
    """Check a predictions file against its sidecar.

    The sidecar vouches for the file's first lines, one per entry, when
    each hashes, in order, to its entry's record digest (see ``vouched``);
    those lines are the committed bytes. A vouched line is reused as it is
    when the sidecar's fingerprint is ``fingerprint`` and the input digest
    of the line's document is unchanged. Bytes the sidecar does not vouch
    for are read in full, so an input error names its line: a file without
    a sidecar or whose lines fail that check, whose records are then all
    redone, and whole lines after the committed bytes (added by hand, or
    appended while the journal append was not). Other bytes after the
    committed ones are what an interrupted append leaves, and are cut.
    Appending is safe when every committed record is reused.
    """
    found = Stored(path, state_path, fingerprint, inputs)
    if not path.exists():
        return found
    data = path.read_bytes()
    state = read_state(state_path)
    lines = None if state is None else vouched(data, state.documents)
    length = 0 if lines is None else sum(map(len, lines))
    tail = data[length:]
    if lines is None or tail.endswith(b"\n"):
        read_records(path, data)
        if lines is None:
            return found
    found.cut = bool(tail)
    if state.fingerprint == fingerprint:
        found.journal = state.length
        for (doc_id, entry), line in zip(state.documents.items(), lines):
            if inputs.get(doc_id) == entry[0]:
                found.lines[doc_id], found.entries[doc_id] = line, entry
    if len(found.entries) == len(state.documents) and not tail.endswith(b"\n"):
        found.offset = length
    return found


def committed(path: Path, state_path: Path, fingerprint: str, order: Iterable[str]) -> Stored:
    """A data file whose sidecar holds ``fingerprint`` and vouches for every
    byte of it (see ``wholly_vouched``), with every committed line by
    document id; otherwise nothing, to be rewritten whole. Lines may be
    appended only when the committed ids come first in ``order``, as a full
    write would put them."""
    found = Stored(path, state_path, fingerprint, {})
    try:
        data = path.read_bytes()
    except OSError:
        return found
    vouch = wholly_vouched(data, state_path)
    if vouch is not None and vouch[0].fingerprint == fingerprint:
        state, lines = vouch
        found.lines, found.entries = dict(zip(state.documents, lines)), state.documents
        if list(order)[: len(lines)] == list(state.documents):
            found.offset, found.journal = len(data), state.length
    return found


class Reuse:
    """What one ``extract`` may reuse, worked out once per extractor.

    An extractor's input digest for a document is the document's digest.
    An ensemble's also covers the record digests of its members' current
    records of the document, so a vote goes stale when a member redoes a
    record, in this run or an earlier one.
    """

    def __init__(self, config: RunConfig, docs: Sequence[Document]):
        self.config = config
        self.digests = {doc.id: document_digest(doc) for doc in docs}
        self.specs = {spec.id: spec for spec in config.extractors}
        self._stored: dict[str, Stored] = {}

    def stored(self, extractor_id: str) -> Stored:
        if extractor_id not in self._stored:
            spec = self.specs[extractor_id]
            inputs = self.digests
            if spec.ensemble is not None:
                members = [self.stored(member).entries for member in spec.ensemble.members]
                inputs = {
                    doc_id: digest(doc_digest, *(found[doc_id][1] for found in members))
                    for doc_id, doc_digest in self.digests.items()
                    if all(doc_id in found for found in members)
                }
            config = self.config
            self._stored[extractor_id] = stored(
                config.predictions_path(extractor_id), config.state_path(extractor_id),
                config.fingerprints[extractor_id], inputs,
            )
        return self._stored[extractor_id]
