"""Command-line entry point: ingest, extract, evaluate, report.

A single JSON config file declares the corpus, the gold file, every
extractor, and the transport, so multi-extractor comparisons rerun
reproducibly. Model predictions are persisted per extractor; evaluation
never re-queries a model.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from . import annotator, llm, state
from .corpus import (
    Document,
    ExtractionRecord,
    json_line,
    load_corpus,
    load_gold,
    parse_don_article,
    parse_promed_post,
    stored_keys,
    with_id,
    write_atomic,
)
from .ensemble import EnsembleConfig, TieBreak, VotePolicy, ensemble_records
from .errors import (
    AlignmentError,
    ConfigError,
    EmptyInput,
    EpixError,
    ExtractionFailed,
    SchemaError,
    TransportError,
)
from .evaluation import (
    REPORT_FORMATS,
    EvaluationReport,
    MatchMode,
    evaluate,
    record_keys,
    render_report,
)
from .gazetteer import bundled_digest, default_gazetteer
from .llm import Sampling, Transport, TransportMode, default_registry, load_template

EXIT_OK = 0
EXIT_INPUT = 2

RULE_BASED = "rule_based"
LLM = "llm"
ENSEMBLE = "ensemble"

@dataclass(frozen=True)
class ExtractorSpec:
    """One configured extractor, resolved into what it runs."""

    id: str
    kind: str
    profile: Optional[llm.ModelProfile] = None
    template: Optional[llm.PromptTemplate] = None
    ensemble: Optional[EnsembleConfig] = None


@dataclass
class RunConfig:
    """A loaded run config; only ``_parse_run_config`` builds one, from ``_CONFIG``."""

    corpus: Path
    gold: Optional[Path]
    output_dir: Path
    extractors: list[ExtractorSpec]
    match_mode: MatchMode
    transport_mode: TransportMode
    cache_dir: Optional[Path]
    max_attempts: int
    backoff_base: float
    concurrency: int
    sampling: Sampling
    # Each extractor's fingerprint (see ``_fingerprints``); members come before their ensembles.
    fingerprints: dict[str, str]

    def predictions_path(self, extractor_id: str) -> Path:
        return self.output_dir / "predictions" / f"{extractor_id}.jsonl"

    def state_path(self, extractor_id: str) -> Path:
        """The sidecar that proves which of an extractor's records are current."""
        return self.output_dir / "state" / f"{extractor_id}.json"

    def transport(self) -> Transport:
        return Transport(self.transport_mode, self.cache_dir, self.max_attempts, self.backoff_base)


@dataclass(frozen=True)
class _Key:
    """One config key: its kind, its default when left out, and its lower bound.

    A kind is ``str``; ``int``; ``float`` (finite, read as a float); an Enum or
    a tuple of names (a string naming one, in any case, with ``-`` for ``_``);
    ``_IDS``; a dict of keys (an object that takes just those); ``[kind]`` (a
    list); or ``_ENTRIES`` (an object that takes the keys of its ``kind``).
    Defaults are checked like given values. A key whose default is None may
    be ``null``; a ``_REQUIRED`` one must be given, and not as ``null``, ``""``
    or ``[]``.
    """

    kind: object
    default: object = None
    minimum: Optional[float] = None


_REQUIRED = object()
_IDS = "a list of extractor ids"
_NAME = _Key(str, _REQUIRED)
_KIND = _Key((RULE_BASED, LLM, ENSEMBLE), _REQUIRED)
_ENTRIES = {
    RULE_BASED: {"id": _NAME, "kind": _KIND},
    LLM: {"id": _NAME, "kind": _KIND, "model": _NAME, "template": _Key(str, "zero-shot")},
    ENSEMBLE: {"id": _NAME, "kind": _KIND, "members": _Key(_IDS, _REQUIRED), "policy": _Key({
        "min_agreement": _Key(int, VotePolicy.min_agreement, minimum=1),
        "tie_break": _Key(TieBreak, VotePolicy.tie_break),
        "priority": _Key(_IDS, []),  # empty: the members, in order
    }, {})},
}
_CONFIG = {
    "corpus": _NAME,
    "gold": _Key(str),
    "output_dir": _Key(str, "out"),
    "match_mode": _Key(MatchMode, MatchMode.STRICT_VALUE),
    "concurrency": _Key(int, 4, minimum=1),
    "transport": _Key({
        "mode": _Key(TransportMode, TransportMode.REPLAY),
        "cache_dir": _Key(str),
        "max_attempts": _Key(int, Transport.max_attempts, minimum=1),
        "backoff_base": _Key(float, Transport.backoff_base, minimum=0),
    }, {}),
    "sampling": _Key({
        "temperature": _Key(float, Sampling.temperature),
        "max_tokens": _Key(int, Sampling.max_tokens, minimum=1),
    }, {}),
    "extractors": _Key([_ENTRIES], []),
}
_JSON = {dict: "a JSON object", list: "a JSON list", str: "a JSON string"}


def _walk(value, key: _Key, path: str):
    """``value``, the config value at ``path``, checked against ``key``, defaults filled in."""
    kind = key.kind
    if value is None and key.default is None:
        return None
    where = path or "the top level"
    expected = type(kind) if isinstance(kind, (dict, list)) else kind
    if expected in _JSON and type(value) is not expected:
        raise ConfigError(f"{where} must be {_JSON[expected]}, got {value!r}")
    if isinstance(kind, dict):
        if kind is _ENTRIES:
            # Without its kind, an entry is checked against every entry key,
            # so a misspelled key is named before the missing kind.
            kind = (
                _ENTRIES[_walk(value["kind"], _KIND, f"{path}.kind")] if "kind" in value
                else {name: row for table in _ENTRIES.values() for name, row in table.items()}
            )
        prefix = f"{path}." if path else ""
        unknown = [name for name in value if name not in kind]
        if unknown:
            allowed = ", ".join(kind)
            raise ConfigError(f"{prefix}{unknown[0]} is not a config key; {where} takes {allowed}")
        checked = {}
        for name, row in kind.items():
            if row.default is _REQUIRED and value.get(name) in (None, "", []):
                raise ConfigError(f"{prefix}{name} is required")
            checked[name] = _walk(value.get(name, row.default), row, prefix + name)
        return checked
    if isinstance(kind, list):
        return [_walk(v, _Key(kind[0], _REQUIRED), f"{path}[{i}]") for i, v in enumerate(value)]
    if kind is _IDS:
        if type(value) is list and all(type(v) is str for v in value):
            return tuple(value)
        raise ConfigError(f"{path} must be {_IDS}, got {value!r}")
    if kind is int or kind is float:
        # ``type`` keeps out ``true`` and ``false``; a float must be finite.
        if type(value) in (int, kind) and (kind is int or abs(value) <= sys.float_info.max) and (
            key.minimum is None or value >= key.minimum
        ):
            # + 0 turns -0.0 into 0.0, so that both encode, and fingerprint, alike.
            return kind(value) + 0
        number = "an integer" if kind is int else "a finite number"
        bound = "" if key.minimum is None else f" >= {key.minimum}"
        raise ConfigError(f"{path} must be {number}{bound}, got {value!r}")
    if kind is str:
        return value
    names = kind if isinstance(kind, tuple) else tuple(choice.value.lower() for choice in kind)
    name = value.lower().replace("-", "_") if isinstance(value, str) else None
    if name not in names:
        raise ConfigError(f"{path} must be a JSON string, one of {', '.join(names)}; got {value!r}")
    return name if isinstance(kind, tuple) else kind(name.upper())


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate the run config; bad entries fail, naming the file, before any work."""
    path = Path(path)
    try:
        return _parse_run_config(json.loads(path.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
    except (ConfigError, AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_run_config(data) -> RunConfig:
    config = _walk(data, _Key(_CONFIG), "")
    ids = [entry["id"] for entry in config["extractors"]]
    extractors: list[ExtractorSpec] = []
    for i, entry in enumerate(config["extractors"]):
        spec = ExtractorSpec(entry["id"], entry["kind"])
        # The id names the predictions file, so it must stay a single file name.
        if spec.id in (".", "..") or any(c in spec.id for c in "/\\\0"):
            raise ConfigError(f"extractors[{i}].id must be a plain file name, got {spec.id!r}")
        if spec.id in ids[:i]:
            raise ConfigError(f"duplicate extractor id {spec.id!r}")
        try:
            if spec.kind == LLM:
                profile = default_registry().get(entry["model"])
                if profile is None:
                    raise ConfigError(f"unknown model profile {entry['model']!r}")
                spec = replace(spec, profile=profile, template=load_template(entry["template"]))
            elif spec.kind == ENSEMBLE:
                members, policy = entry["members"], entry["policy"]
                dangling = [m for m in members if m not in ids or m == spec.id]
                if dangling:
                    raise ConfigError(f"ensemble {spec.id!r} has undeclared members: {dangling}")
                # EnsembleConfig validates member count, distinctness and priority order.
                ensemble = EnsembleConfig(spec.id, members, VotePolicy(**policy))
                spec = replace(spec, ensemble=ensemble)
        except ConfigError as exc:
            raise ConfigError(f"extractors[{i}]: {exc}") from None
        extractors.append(spec)

    transport = config["transport"]
    sampling = Sampling(**config["sampling"])
    return RunConfig(
        corpus=Path(config["corpus"]), gold=Path(config["gold"]) if config["gold"] else None,
        output_dir=Path(config["output_dir"]), extractors=extractors,
        match_mode=config["match_mode"], concurrency=config["concurrency"],
        transport_mode=transport["mode"],
        cache_dir=Path(transport["cache_dir"]) if transport["cache_dir"] else None,
        max_attempts=transport["max_attempts"], backoff_base=transport["backoff_base"],
        sampling=sampling, fingerprints=_fingerprints(extractors, sampling),
    )


# The modules whose code decides a corpus line, a rule-based record, a model record and a vote.
_SOURCES = {
    "ingest": ("corpus.py", "normalize.py", "cli.py"),
    RULE_BASED: ("annotator.py", "normalize.py", "gazetteer.py"),
    LLM: ("llm.py", "normalize.py", "gazetteer.py"),
    ENSEMBLE: ("ensemble.py", "normalize.py"),
}


@lru_cache(maxsize=None)
def source_digest(kind: str) -> str:
    """sha256 over the source of the ``_SOURCES[kind]`` modules, file by file, once per process."""
    digest = hashlib.sha256()
    for name in _SOURCES[kind]:
        source = Path(annotator.__file__).with_name(name).read_bytes()
        digest.update(hashlib.sha256(source).digest())
    return digest.hexdigest()


def _fingerprints(extractors: Sequence[ExtractorSpec], sampling: Sampling) -> dict[str, str]:
    """Each extractor's sha256 over canonical JSON of everything that decides its records.

    Each covers the source of its kind's modules (``_SOURCES``). A
    rule-based or model extractor's also covers the bundled gazetteer
    tables; a model extractor's also its model profile, template and the
    sampling; an ensemble's its members' ids and its policy (its input
    digests cover its members' records, so their fingerprints would add
    nothing). Where answers come from is left out: the transport mode and
    the endpoint, which the request digest keying the cache omits too.
    Members come before their ensembles in the result; an ensemble that
    is, through its members, its own member is a ConfigError.
    """
    specs = {spec.id: spec for spec in extractors}
    done: dict[str, str] = {}
    gazetteer = bundled_digest()

    def visit(spec: ExtractorSpec, within: tuple[str, ...]) -> str:
        if spec.id in done:
            return done[spec.id]
        if spec.id in within:
            raise ConfigError(f"ensemble {spec.id!r} is a member of itself via {list(within)}")
        source: dict = {"kind": spec.kind, "code": source_digest(spec.kind)}
        if spec.kind != ENSEMBLE:
            source["gazetteer"] = gazetteer
        if spec.profile is not None:
            source["model"] = {k: v for k, v in vars(spec.profile).items() if k != "endpoint"}
            # The scaffold is derived from the template's other fields.
            source["template"] = {k: v for k, v in vars(spec.template).items() if k != "scaffold"}
            source["sampling"] = sampling
        if spec.ensemble is not None:
            inner = (*within, spec.id)
            for member in spec.ensemble.members:
                visit(specs[member], inner)
            source["members"] = spec.ensemble.members
            source["policy"] = spec.ensemble.policy
        # Dataclasses encode as their fields (``default=vars``).
        canonical = json.dumps(
            source, default=vars, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        done[spec.id] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return done[spec.id]

    for spec in extractors:
        visit(spec, ())
    return done


# --- commands ----------------------------------------------------------------


def _decode(raw: bytes) -> str:
    """A raw file's text as ``Path.read_text(encoding="utf-8", errors="replace")``
    reads it, universal newlines included."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="replace").read()


def _corpus_line(source: str, file: Path, raw: bytes) -> bytes:
    """The corpus line of one raw file; its stem is the document id."""
    text = _decode(raw)
    try:
        if source == "promed":
            doc = parse_promed_post(text, hint={"id": file.stem})
        else:
            doc = with_id(parse_don_article(text, url=""), file.stem)
    except EmptyInput as exc:
        raise EmptyInput(f"{file}: {exc}") from None
    return json_line(doc)


def cmd_ingest(source: str, input_path: Path, out_path: Path) -> int:
    """Parse raw feed dumps into a corpus file; document ids come from filenames.

    Only raw files that are new or whose bytes changed are parsed. The
    sidecar ``<out>.state.json`` maps each document id to the SHA-256 of its
    raw file and of its corpus line, under a fingerprint of ``source`` and
    the ingest code. ``state.stored`` decides which lines are reused, as for
    predictions, except that a sidecar it cannot read means a full ingest,
    an append must keep file-name order, and unvouched corpus bytes are not
    decoded. Either way the corpus is byte-identical to a full ingest's.

    An empty raw file, two raw files with one id (``a.txt`` and
    ``a.html``), an ``out_path`` that is the raw input file, or one in the
    input directory, which a later ingest would read as a raw file, is an
    input error naming them, and nothing is written.
    """
    files = [input_path]
    if out_path.resolve() == input_path.resolve():
        raise ConfigError(f"--out {out_path} is the raw input file {input_path}")
    if input_path.is_dir():
        if out_path.parent.resolve() == input_path.resolve():
            raise ConfigError(
                f"--out {out_path} is in the input directory {input_path}, "
                "so a later ingest would read it as a raw file"
            )
        files = sorted(p for p in input_path.iterdir() if p.is_file())
    by_stem: dict[str, Path] = {}
    for file in files:
        twin = by_stem.setdefault(file.stem, file)
        if twin is not file:
            raise SchemaError(f"{twin} and {file} would both be document {file.stem!r}")

    state_path = out_path.with_name(out_path.name + ".state.json")
    fingerprint = state.digest(source, source_digest("ingest"))
    inputs = {stem: hashlib.sha256(file.read_bytes()).hexdigest() for stem, file in by_stem.items()}
    try:
        # Unvouched corpus bytes go unread: their raw files are parsed anew.
        stored = state.stored(
            out_path, state_path, fingerprint, inputs, read=lambda path, data: None
        )
    except (SchemaError, OSError):
        stored = state.Stored(out_path, state_path, fingerprint, inputs)  # a full ingest
    if list(by_stem)[: len(stored.entries)] != list(stored.entries):
        stored.offset = None  # an append would not be in file-name order
    new = {
        stem: _corpus_line(source, file, file.read_bytes())
        for stem, file in by_stem.items()
        if stem not in stored.lines
    }
    stored.save(new, by_stem)
    if not by_stem:
        print("warning: no input files found", file=sys.stderr)
    print(f"ingested {len(by_stem)} documents ({len(new)} parsed) into {out_path}")
    return EXIT_OK


def cmd_extract(config: RunConfig, only: Sequence[str] | None = None) -> int:
    """Run every configured extractor over the corpus, resuming where possible.

    A record is reused only when the extractor's sidecar proves it current
    (see ``state.stored``); every other document is extracted, and
    ``state.Stored.save`` commits the new records, appended or rewritten in
    corpus order. Any per-document failure first commits the records
    finished before it. The transport is built only when a model
    extractor runs, so rule-based runs need no cache. An
    ensemble votes from its members' records of this run, and decodes a
    member's stored line only for documents those lack.
    """
    docs = load_corpus(config.corpus)
    reuse = state.Reuse(config, docs)
    order = [doc.id for doc in docs]
    gazetteer = default_gazetteer()
    transport = None

    # Members run before their ensembles, so that their records of this run exist.
    rank = {extractor_id: i for i, extractor_id in enumerate(config.fingerprints)}
    for spec in sorted(config.extractors, key=lambda s: rank[s.id] if s.kind == ENSEMBLE else -1):
        if only and spec.id not in only:
            continue
        path = config.predictions_path(spec.id)
        stored = reuse.stored(spec.id)
        missing = [doc for doc in docs if doc.id not in stored.lines]
        failure = None
        try:
            if spec.kind == RULE_BASED:
                new = llm.extract_each(
                    missing,
                    lambda doc: annotator.extract_rule_based(doc, gazetteer, extractor_id=spec.id),
                )
            elif spec.kind == LLM:
                if transport is None:
                    transport = config.transport()
                new = llm.extract_documents(
                    missing, spec.profile, spec.template, transport,
                    sampling=config.sampling, extractor_id=spec.id,
                    gazetteer=gazetteer, concurrency=config.concurrency,
                )
            else:
                new = llm.extract_each(missing, _voter(spec, reuse))
        except ExtractionFailed as exc:
            new, failure = exc.partial_records, exc
        if new or failure is None:
            stored.save({record.document_id: json_line(record) for record in new}, order)
        if failure is not None:
            raise failure if isinstance(failure.cause, TransportError) else failure.cause
        stored.records = {record.document_id: record for record in new}
        print(f"{spec.id}: {len(stored.lines) + len(new)} records ({len(new)} new) -> {path}")
    return EXIT_OK


def _voter(spec: ExtractorSpec, reuse: state.Reuse):
    """Vote on one document from the members' current records.

    The ensemble can vote on a document only when each member has a record
    of it that the member itself would reuse. That record comes from this
    run when there is one, else it is decoded from the member's stored line.
    """
    stored = reuse.stored(spec.id)
    members = {member: reuse.stored(member) for member in spec.ensemble.members}

    def vote(doc: Document) -> ExtractionRecord:
        if doc.id not in stored.inputs:
            lacking = [member for member, found in members.items() if doc.id not in found.entries]
            raise ConfigError(
                f"ensemble {spec.id!r}: members {lacking} have no current record "
                f"for document {doc.id!r}; extract members first"
            )
        records = [
            found.records.get(doc.id) or ExtractionRecord.from_json(json.loads(found.lines[doc.id]))
            for found in members.values()
        ]
        return ensemble_records(records, spec.ensemble)

    return vote


def _corpus_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _prediction_keys(config: RunConfig, extractor_id: str) -> dict[str, tuple]:
    """The comparison keys of an extractor's records, by document id.

    When the sidecar vouches for every line of the predictions file, the
    keys are read from the stored tags without decoding any record. Any
    other file (no sidecar or an unreadable one, a line that
    ``state.vouched`` refuses, bytes past the committed lines) is decoded
    and validated in full, so an edited line is still an input error
    naming the line.
    """
    path = config.predictions_path(extractor_id)
    data = path.read_bytes()
    vouched = state.wholly_vouched(data, config.state_path(extractor_id))
    if vouched is not None:
        try:
            return stored_keys(vouched[1])
        except (LookupError, TypeError, ValueError, AttributeError):
            pass  # not what epix writes: the full read below names the fault
    return record_keys(state.read_records(path, data))


def cmd_evaluate(config: RunConfig) -> int:
    """Score all extractors against gold and write every report format."""
    if config.gold is None:
        raise AlignmentError("config has no gold file")
    golds = load_gold(config.gold)
    records_by_extractor = {}
    for spec in config.extractors:
        path = config.predictions_path(spec.id)
        if not path.exists():
            raise AlignmentError(f"no predictions for extractor {spec.id!r} at {path}")
        records_by_extractor[spec.id] = _prediction_keys(config, spec.id)

    report = evaluate(
        records_by_extractor,
        golds,
        mode=config.match_mode,
        gold_path=str(config.gold),
        corpus_digest=_corpus_digest(config.corpus),
    )
    # Every format is rendered before any is written, so a failed render writes nothing.
    text = json.dumps(report.to_json(), ensure_ascii=False, indent=2) + "\n"
    rendered = {"report.json": text.encode("utf-8")}
    rendered |= {name: render_report(report, fmt) for fmt, name in REPORT_FORMATS.items()}
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, data in rendered.items():
        write_atomic(out / name, [data])
    print(f"evaluated {len(records_by_extractor)} extractors over {len(golds)} gold documents")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_report(report_path: Path, fmt: str, out_path: Path | None = None) -> int:
    """Re-render a stored report into another format."""
    try:
        report = EvaluationReport.from_json(json.loads(report_path.read_text(encoding="utf-8")))
    except (SchemaError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise SchemaError(f"{report_path}: not a readable report ({exc})") from None
    rendered = render_report(report, fmt)
    if out_path is not None:
        write_atomic(out_path, [rendered])
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(rendered.decode("utf-8"))
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epix",
        description="Extract structured epidemic facts from outbreak news and score extractors.",
    )
    parser.add_argument("--config", type=Path, help="path to the run config (JSON)")
    parser.add_argument("--output", type=Path, help="override the config output directory")
    parser.add_argument(
        "--mode", choices=["live", "record", "replay"], help="override the transport mode"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse raw feed dumps into a corpus file")
    ingest.add_argument("--source", choices=["promed", "don"], required=True)
    ingest.add_argument("input", type=Path, help="raw file or directory of files")
    ingest.add_argument("--out", type=Path, required=True, help="corpus file to write")

    extract = sub.add_parser("extract", help="run extractors over the corpus")
    extract.add_argument(
        "--only", action="append", default=None, help="restrict to this extractor id"
    )

    sub.add_parser("evaluate", help="score predictions against gold and write reports")

    report = sub.add_parser("report", help="re-render an existing report")
    report.add_argument("report_path", type=Path)
    report.add_argument("--format", default="table", choices=list(REPORT_FORMATS))
    report.add_argument("--out", type=Path, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            return cmd_ingest(args.source, args.input, args.out)
        if args.command == "report":
            return cmd_report(args.report_path, args.format, args.out)
        if not args.config:
            raise ConfigError("--config is required for this command")
        config = load_run_config(args.config)
        config.output_dir = args.output or config.output_dir
        config.transport_mode = TransportMode((args.mode or config.transport_mode).upper())
        if args.command == "extract":
            ids = {spec.id for spec in config.extractors}
            unknown = [extractor_id for extractor_id in args.only or () if extractor_id not in ids]
            if unknown:
                raise ConfigError(f"{args.config}: --only names no configured extractor: {unknown}")
            return cmd_extract(config, only=args.only)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        raise AssertionError(f"unhandled command {args.command}")
    except (EpixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, EpixError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
