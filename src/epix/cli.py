"""Command-line entry point: ingest, extract, evaluate, report.

A single JSON config file declares the corpus, the gold file, every
extractor, and the transport, so multi-extractor comparisons rerun
reproducibly. Model predictions are persisted per extractor; evaluation
never re-queries a model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from . import annotator, llm
from .corpus import (
    Document,
    ExtractionRecord,
    load_corpus,
    load_gold,
    parse_don_article,
    parse_promed_post,
    read_jsonl,
    save_corpus,
    with_id,
    write_atomic,
    write_jsonl,
)
from .ensemble import EnsembleConfig, TieBreak, VotePolicy, ensemble_records
from .errors import (
    AlignmentError,
    ConfigError,
    EmptyInput,
    EmptyReport,
    EpixError,
    ExtractionFailed,
    SchemaError,
    TransportError,
)
from .evaluation import REPORT_FORMATS, EvaluationReport, MatchMode, evaluate, render_report
from .gazetteer import default_gazetteer
from .llm import Sampling, Transport, TransportMode, default_registry, load_template

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRANSPORT = 3
EXIT_EVALUATION = 4

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

    def predictions_path(self, extractor_id: str) -> Path:
        return self.output_dir / "predictions" / f"{extractor_id}.jsonl"

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


def _parse_policy(data: dict, members: Sequence[str]) -> VotePolicy:
    tie_break = TieBreak(data.get("tie_break", "priority_order").upper())
    priority = tuple(data.get("priority", members))
    return VotePolicy(
        min_agreement=_number(data, "policy.min_agreement", 2, integer=True, minimum=1),
        tie_break=tie_break,
        priority=priority,
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
    for entry in data.get("extractors", []):
        extractor_id = entry.get("id")
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
            profile = registry.get(model)
            if profile is None:
                raise ConfigError(f"extractor {extractor_id!r}: unknown model profile {model!r}")
            try:
                template = load_template(entry.get("template", "zero-shot"))
            except ConfigError as exc:
                raise ConfigError(f"extractor {extractor_id!r}: {exc}") from None
            extractors.append(ExtractorSpec(extractor_id, kind, profile=profile, template=template))
        elif kind == ENSEMBLE:
            # EnsembleConfig validates member count, distinctness and priority coverage.
            members = tuple(entry.get("members", ()))
            policy = _parse_policy(entry.get("policy", {}), members)
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
    transport = data.get("transport", {})
    mode = TransportMode(str(transport.get("mode", "replay")).upper())
    cache_dir = transport.get("cache_dir")
    sampling = data.get("sampling", {})
    return RunConfig(
        corpus=Path(data["corpus"]),
        gold=Path(data["gold"]) if data.get("gold") else None,
        output_dir=Path(data.get("output_dir", "out")),
        extractors=extractors,
        match_mode=MatchMode(str(data.get("match_mode", "strict_value")).upper()),
        transport_mode=mode,
        cache_dir=Path(cache_dir) if cache_dir else None,
        max_attempts=_number(transport, "transport.max_attempts", 3, integer=True, minimum=1),
        backoff_base=_number(transport, "transport.backoff_base", 0.5, integer=False, minimum=0),
        concurrency=_number(data, "concurrency", 4, integer=True, minimum=1),
        sampling=Sampling(
            temperature=_number(sampling, "sampling.temperature", 0.0, integer=False),
            max_tokens=_number(sampling, "sampling.max_tokens", 512, integer=True, minimum=1),
        ),
    )


# --- commands ----------------------------------------------------------------


def _iter_input_files(input_path: Path):
    if input_path.is_dir():
        return sorted(p for p in input_path.iterdir() if p.is_file())
    return [input_path]


def cmd_ingest(source: str, input_path: Path, out_path: Path) -> int:
    """Parse raw feed dumps into a corpus file; document ids come from filenames."""
    files = _iter_input_files(input_path)
    docs: list[Document] = []
    for file in files:
        raw = file.read_text(encoding="utf-8", errors="replace")
        if source == "promed":
            doc = parse_promed_post(raw, hint={"id": file.stem})
        else:
            doc = with_id(parse_don_article(raw, url=""), file.stem)
        docs.append(doc)
    save_corpus(docs, out_path)
    if not docs:
        print("warning: no input files found", file=sys.stderr)
    print(f"ingested {len(docs)} documents into {out_path}")
    return EXIT_OK


def _read_predictions(path: Path) -> dict[str, ExtractionRecord]:
    """A predictions file's records by document id; none when there is no file yet."""
    if not path.exists():
        return {}
    records = read_jsonl(path, ExtractionRecord.from_json, unique=attrgetter("document_id"))
    return {record.document_id: record for record in records}


def cmd_extract(config: RunConfig, only: Sequence[str] | None = None) -> int:
    """Run every configured extractor over the corpus, resuming where possible.

    Documents that already have a persisted record are skipped. On transport
    failure the completed records are saved before exiting. The transport is
    built only when a model extractor runs, so rule-based runs need no cache.
    An ensemble votes from its members' records of this run, and reads a
    member's predictions file only when ``only`` left that member out.
    """
    docs = load_corpus(config.corpus)
    gazetteer = default_gazetteer()
    transport = None
    records_of: dict[str, dict[str, ExtractionRecord]] = {}

    # Ensembles run last, so that their members' records of this run exist.
    for spec in sorted(config.extractors, key=lambda s: s.kind == ENSEMBLE):
        if only and spec.id not in only:
            continue
        path = config.predictions_path(spec.id)
        existing = _read_predictions(path)
        missing = [doc for doc in docs if doc.id not in existing]
        failure = None

        if spec.kind == RULE_BASED:
            new = [
                annotator.extract_rule_based(doc, gazetteer, extractor_id=spec.id)
                for doc in missing
            ]
        elif spec.kind == LLM:
            if transport is None:
                transport = config.transport()
            try:
                new = llm.extract_documents(
                    missing, spec.profile, spec.template, transport,
                    sampling=config.sampling, extractor_id=spec.id,
                    gazetteer=gazetteer, concurrency=config.concurrency,
                )
            except ExtractionFailed as exc:
                new, failure = exc.partial_records, exc
        else:  # ensemble
            members = spec.ensemble.members
            for member in [m for m in members if m not in records_of]:
                records_of[member] = _read_predictions(config.predictions_path(member))
            new = []
            for doc in missing:
                lacking = [m for m in members if doc.id not in records_of[m]]
                if lacking:
                    raise ConfigError(
                        f"ensemble {spec.id!r}: members {lacking} have no record "
                        f"for document {doc.id!r}; extract members first"
                    )
                votes = [records_of[m][doc.id] for m in members]
                new.append(ensemble_records(votes, spec.ensemble))

        existing.update((record.document_id, record) for record in new)
        records_of[spec.id] = existing
        write_jsonl([existing[d.id] for d in docs if d.id in existing], path)
        if failure is not None:
            raise failure
        print(f"{spec.id}: {len(existing)} records ({len(missing)} new) -> {path}")
    return EXIT_OK


def _corpus_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_evaluate(config: RunConfig) -> int:
    """Score all extractors against gold and write every report format."""
    if config.gold is None:
        print("error: config has no gold file", file=sys.stderr)
        return EXIT_EVALUATION
    golds = load_gold(config.gold)
    records_by_extractor = {}
    for spec in config.extractors:
        path = config.predictions_path(spec.id)
        if not path.exists():
            print(f"error: no predictions for extractor {spec.id!r} at {path}", file=sys.stderr)
            return EXIT_EVALUATION
        records_by_extractor[spec.id] = list(_read_predictions(path).values())

    report = evaluate(
        records_by_extractor,
        golds,
        mode=config.match_mode,
        gold_path=str(config.gold),
        corpus_digest=_corpus_digest(config.corpus),
    )
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report.to_json(), ensure_ascii=False, indent=2) + "\n"
    write_atomic(out / "report.json", [text.encode("utf-8")])
    for fmt, filename in REPORT_FORMATS.items():
        write_atomic(out / filename, [render_report(report, fmt)])
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
            print("error: --config is required for this command", file=sys.stderr)
            return EXIT_INPUT
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
    except (EmptyInput, SchemaError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ExtractionFailed, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (AlignmentError, EmptyReport) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except EpixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
