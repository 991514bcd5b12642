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
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
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
    corpus: Path
    gold: Optional[Path]
    output_dir: Path
    extractors: list[ExtractorSpec]
    match_mode: MatchMode = MatchMode.STRICT_VALUE
    transport_mode: TransportMode = TransportMode.REPLAY
    cache_dir: Optional[Path] = None
    max_attempts: int = 3
    backoff_base: float = 0.5
    concurrency: int = 4
    sampling: Sampling = field(default_factory=Sampling)
    # Each extractor's fingerprint (see ``_fingerprints``); members come before their ensembles.
    fingerprints: dict[str, str] = field(default_factory=dict)

    def predictions_path(self, extractor_id: str) -> Path:
        return self.output_dir / "predictions" / f"{extractor_id}.jsonl"

    def state_path(self, extractor_id: str) -> Path:
        """The sidecar that proves which of an extractor's records are current."""
        return self.output_dir / "state" / f"{extractor_id}.json"

    def transport(self) -> Transport:
        return Transport(
            mode=self.transport_mode,
            cache_dir=self.cache_dir,
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base,
        )


def _number(
    section: dict, name: str, default: float, *, integer: bool, minimum: float | None = None
) -> float:
    """The config value ``name`` (``section.key``) checked to be a number, never a bool.

    An integer when ``integer``; a float must be finite.
    """
    value = section.get(name.rpartition(".")[2], default)
    ok = (
        isinstance(value, int if integer else (int, float))
        and not isinstance(value, bool)
        and (isinstance(value, int) or math.isfinite(value))
        and (minimum is None or value >= minimum)
    )
    if not ok:
        kind = "an integer" if integer else "a finite number"
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
    return value


def _ids(section: dict, name: str, default: list[str]) -> tuple[str, ...]:
    """The config value ``name`` (``section.key``) checked to be a list of extractor ids."""
    value = section.get(name.rpartition(".")[2], default)
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{name} must be a list of extractor ids, got {value!r}")
    return tuple(value)


def _checked(value, name: str, kind: type):
    """``value``, the config value ``name``, checked to be a JSON object, list or string."""
    if not isinstance(value, kind):
        expected = {dict: "a JSON object", list: "a JSON list", str: "a JSON string"}[kind]
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value


def _choice(section: dict, name: str, default: str, choices: type[Enum]):
    """The config value ``name`` (``section.key``) checked to be one of ``choices``, any case."""
    value = section.get(name.rpartition(".")[2], default)
    if not isinstance(value, str) or value.upper() not in {c.value for c in choices}:
        allowed = ", ".join(c.value.lower() for c in choices)
        raise ConfigError(f"{name} must be a JSON string, one of {allowed}; got {value!r}")
    return choices(value.upper())


def _parse_policy(data: dict, members: Sequence[str]) -> VotePolicy:
    return VotePolicy(
        min_agreement=_number(data, "policy.min_agreement", 2, integer=True, minimum=1),
        tie_break=_choice(data, "policy.tie_break", "priority_order", TieBreak),
        priority=_ids(data, "policy.priority", list(members)),
    )


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
    if not isinstance(data, dict):
        raise ConfigError("the top level must be a JSON object")
    registry = default_registry()
    extractors: list[ExtractorSpec] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(_checked(data.get("extractors", []), "extractors", list)):
        extractor_id = _checked(entry, f"extractors[{i}]", dict).get("id")
        if not extractor_id:
            raise ConfigError("every extractor needs an id")
        # The id names the predictions file, so it must stay a single file name.
        if (
            not isinstance(extractor_id, str)
            or extractor_id in (".", "..")
            or any(c in extractor_id for c in "/\\\0")
        ):
            raise ConfigError(f"extractor id must be a plain file name, got {extractor_id!r}")
        if extractor_id in seen_ids:
            raise ConfigError(f"duplicate extractor id {extractor_id!r}")
        seen_ids.add(extractor_id)
        kind = str(entry.get("kind", "")).lower().replace("-", "_")
        if kind == RULE_BASED:
            extractors.append(ExtractorSpec(extractor_id, kind))
        elif kind == LLM:
            model = entry.get("model")
            if not model:
                raise ConfigError(f"extractor {extractor_id!r}: llm kind needs a model")
            profile = registry.get(_checked(model, f"extractors[{i}].model", str))
            if profile is None:
                raise ConfigError(f"extractor {extractor_id!r}: unknown model profile {model!r}")
            try:
                template = load_template(entry.get("template", "zero-shot"))
            except ConfigError as exc:
                raise ConfigError(f"extractor {extractor_id!r}: {exc}") from None
            extractors.append(ExtractorSpec(extractor_id, kind, profile=profile, template=template))
        elif kind == ENSEMBLE:
            # EnsembleConfig validates member count, distinctness and priority coverage.
            members = _ids(entry, "members", [])
            policy = _parse_policy(_checked(entry.get("policy", {}), "policy", dict), members)
            ensemble = EnsembleConfig(extractor_id, members, policy)
            extractors.append(ExtractorSpec(extractor_id, kind, ensemble=ensemble))
        else:
            raise ConfigError(f"extractor {extractor_id!r}: unknown kind {entry.get('kind')!r}")

    for spec in extractors:
        if spec.ensemble is not None:
            dangling = [m for m in spec.ensemble.members if m not in seen_ids or m == spec.id]
            if dangling:
                raise ConfigError(
                    f"ensemble {spec.id!r} references undeclared members: {dangling}"
                )

    if not data.get("corpus"):
        raise ConfigError("config needs a corpus path")
    transport = _checked(data.get("transport", {}), "transport", dict)
    mode = _choice(transport, "transport.mode", "replay", TransportMode)
    cache_dir = transport.get("cache_dir")
    sampling = _checked(data.get("sampling", {}), "sampling", dict)
    config = RunConfig(
        corpus=Path(_checked(data["corpus"], "corpus", str)),
        gold=Path(_checked(data["gold"], "gold", str)) if data.get("gold") else None,
        output_dir=Path(_checked(data.get("output_dir", "out"), "output_dir", str)),
        extractors=extractors,
        match_mode=_choice(data, "match_mode", "strict_value", MatchMode),
        transport_mode=mode,
        cache_dir=Path(_checked(cache_dir, "transport.cache_dir", str)) if cache_dir else None,
        max_attempts=_number(transport, "transport.max_attempts", 3, integer=True, minimum=1),
        backoff_base=_number(transport, "transport.backoff_base", 0.5, integer=False, minimum=0),
        concurrency=_number(data, "concurrency", 4, integer=True, minimum=1),
        sampling=Sampling(
            temperature=_number(sampling, "sampling.temperature", 0.0, integer=False),
            max_tokens=_number(sampling, "sampling.max_tokens", 512, integer=True, minimum=1),
        ),
    )
    config.fingerprints = _fingerprints(extractors, config.sampling)
    return config


# The modules whose code decides a rule-based record, and a corpus line.
_RULE_BASED_SOURCES = ("annotator.py", "normalize.py", "gazetteer.py")
_INGEST_SOURCES = ("corpus.py", "normalize.py")


def source_digest(names: Sequence[str]) -> str:
    """sha256 over the source of the named epix modules, file by file."""
    digest = hashlib.sha256()
    for name in names:
        source = Path(annotator.__file__).with_name(name).read_bytes()
        digest.update(hashlib.sha256(source).digest())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def rule_based_source_digest() -> str:
    """``source_digest`` of the rule-based extractor's modules, once per process."""
    return source_digest(_RULE_BASED_SOURCES)


@lru_cache(maxsize=1)
def ingest_source_digest() -> str:
    """``source_digest`` of the modules that turn a raw file into a corpus line."""
    return source_digest(_INGEST_SOURCES)


def _fingerprints(extractors: Sequence[ExtractorSpec], sampling: Sampling) -> dict[str, str]:
    """Each extractor's sha256 over canonical JSON of everything that decides its records.

    A rule-based extractor's covers the bundled gazetteer tables and the
    source of its modules; a model extractor's its model profile, template
    and the sampling; an ensemble's its members' ids and its policy (its
    input digests cover its members' records, so their fingerprints would
    add nothing). Where answers come from is left out: the transport mode
    and the endpoint, which the request digest keying the cache omits too.
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
        source: dict = {"kind": spec.kind}
        if spec.kind == RULE_BASED:
            source["gazetteer"] = gazetteer
            source["code"] = rule_based_source_digest()
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
    the ingest code (see ``state.committed``). When the sidecar vouches
    for every byte of the corpus and its fingerprint matches, a document
    whose raw bytes are unchanged keeps its line, copied as bytes, and
    ``state.Stored.save`` appends, rewrites in file-name order or leaves
    the corpus as it is. Either way the corpus is byte-identical to a full
    ingest's.

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
    fingerprint = state.digest(source, ingest_source_digest())
    stored = state.committed(out_path, state_path, fingerprint, by_stem)
    new: dict[str, bytes] = {}
    for stem, file in by_stem.items():
        raw = file.read_bytes()
        stored.inputs[stem] = hashlib.sha256(raw).hexdigest()
        if stem not in stored.entries or stored.entries[stem][0] != stored.inputs[stem]:
            new[stem] = _corpus_line(source, file, raw)
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


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.output:
        config.output_dir = args.output
    if args.mode:
        config.transport_mode = TransportMode(args.mode.upper())
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            return cmd_ingest(args.source, args.input, args.out)
        if args.command == "report":
            return cmd_report(args.report_path, args.format, args.out)
        if not args.config:
            raise ConfigError("--config is required for this command")
        config = _apply_overrides(load_run_config(args.config), args)
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
