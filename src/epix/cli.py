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
import sys
from dataclasses import dataclass, field
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
    save_corpus,
    with_id,
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
from .evaluation import MatchMode, EvaluationReport, evaluate, render_report
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
    id: str
    kind: str
    model: Optional[str] = None
    template: Optional[str] = None
    members: tuple[str, ...] = ()
    policy: Optional[VotePolicy] = None


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


def _parse_policy(data: dict, members: Sequence[str]) -> VotePolicy:
    tie_break = TieBreak(data.get("tie_break", "priority_order").upper())
    priority = tuple(data.get("priority", members))
    return VotePolicy(
        min_agreement=data.get("min_agreement", 2),
        tie_break=tie_break,
        priority=priority,
    )


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate the run config; bad references fail before any work."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None

    extractors: list[ExtractorSpec] = []
    seen_ids: set[str] = set()
    for entry in data.get("extractors", []):
        extractor_id = entry.get("id")
        if not extractor_id:
            raise ConfigError("every extractor needs an id")
        if extractor_id in seen_ids:
            raise ConfigError(f"duplicate extractor id {extractor_id!r}")
        seen_ids.add(extractor_id)
        kind = str(entry.get("kind", "")).lower().replace("-", "_")
        if kind == RULE_BASED:
            extractors.append(ExtractorSpec(extractor_id, kind))
        elif kind == LLM:
            model = entry.get("model")
            template = entry.get("template", "zero-shot")
            if not model:
                raise ConfigError(f"extractor {extractor_id!r}: llm kind needs a model")
            try:
                load_template(template)
            except ConfigError as exc:
                raise ConfigError(f"extractor {extractor_id!r}: {exc}") from None
            extractors.append(ExtractorSpec(extractor_id, kind, model=model, template=template))
        elif kind == ENSEMBLE:
            members = tuple(entry.get("members", ()))
            policy = _parse_policy(entry.get("policy", {}), members)
            extractors.append(
                ExtractorSpec(extractor_id, kind, members=members, policy=policy)
            )
        else:
            raise ConfigError(f"extractor {extractor_id!r}: unknown kind {entry.get('kind')!r}")

    declared = {spec.id for spec in extractors}
    for spec in extractors:
        if spec.kind == ENSEMBLE:
            dangling = [m for m in spec.members if m not in declared or m == spec.id]
            if dangling:
                raise ConfigError(
                    f"ensemble {spec.id!r} references undeclared members: {dangling}"
                )
            # Constructing the EnsembleConfig validates member count,
            # distinctness, and priority coverage.
            EnsembleConfig(spec.id, spec.members, spec.policy)

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
        max_attempts=transport.get("max_attempts", 3),
        backoff_base=transport.get("backoff_base", 0.5),
        concurrency=data.get("concurrency", 4),
        sampling=Sampling(
            temperature=sampling.get("temperature", 0.0),
            max_tokens=sampling.get("max_tokens", 512),
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


def _load_predictions(path: Path) -> dict[str, ExtractionRecord]:
    records: dict[str, ExtractionRecord] = {}
    if not path.exists():
        return records
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: invalid JSON ({exc.msg})", line=lineno) from None
            record = ExtractionRecord.from_json(data)
            records[record.document_id] = record
    return records


def _save_predictions(records: Sequence[ExtractionRecord], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json(), ensure_ascii=False) + "\n")


def cmd_extract(config: RunConfig, only: Sequence[str] | None = None) -> int:
    """Run every configured extractor over the corpus, resuming where possible.

    Documents that already have a persisted record are skipped. On transport
    failure the completed records are saved before exiting. The transport is
    built only when a model extractor runs, so rule-based runs need no cache.
    """
    docs = load_corpus(config.corpus)
    gazetteer = default_gazetteer()
    registry = default_registry()
    transport = None

    ordered = [s for s in config.extractors if s.kind != ENSEMBLE] + [
        s for s in config.extractors if s.kind == ENSEMBLE
    ]
    for spec in ordered:
        if only and spec.id not in only:
            continue
        path = config.predictions_path(spec.id)
        existing = _load_predictions(path)
        missing = [doc for doc in docs if doc.id not in existing]

        if spec.kind == RULE_BASED:
            for doc in missing:
                existing[doc.id] = annotator.extract_rule_based(
                    doc, gazetteer, extractor_id=spec.id
                )
        elif spec.kind == LLM:
            profile = registry.get(spec.model)
            if profile is None:
                raise ConfigError(f"unknown model profile {spec.model!r}")
            template = load_template(spec.template)
            if transport is None:
                transport = config.transport()
            try:
                records = llm.extract_documents(
                    missing, profile, template, transport,
                    sampling=config.sampling, extractor_id=spec.id,
                    gazetteer=gazetteer, concurrency=config.concurrency,
                )
            except ExtractionFailed as exc:
                for record in exc.partial_records:
                    existing[record.document_id] = record
                _save_predictions(
                    [existing[d.id] for d in docs if d.id in existing], path
                )
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_TRANSPORT
            for record in records:
                existing[record.document_id] = record
        else:  # ensemble
            member_records = {}
            for member in spec.members:
                member_path = config.predictions_path(member)
                member_records[member] = _load_predictions(member_path)
            ens = EnsembleConfig(spec.id, spec.members, spec.policy)
            for doc in missing:
                try:
                    votes = [member_records[m][doc.id] for m in spec.members]
                except KeyError as exc:
                    raise ConfigError(
                        f"ensemble {spec.id!r}: member {exc.args[0]!r} has no record "
                        f"for document {doc.id!r}; extract members first"
                    ) from None
                existing[doc.id] = ensemble_records(votes, ens)

        _save_predictions([existing[d.id] for d in docs if d.id in existing], path)
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
        records_by_extractor[spec.id] = list(_load_predictions(path).values())

    report = evaluate(
        records_by_extractor,
        golds,
        mode=config.match_mode,
        gold_path=str(config.gold),
        corpus_digest=_corpus_digest(config.corpus),
    )
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    for fmt, filename in (
        ("table", "report.txt"),
        ("csv", "report.csv"),
        ("jsonl", "report.jsonl"),
        ("plot", "report_plot.csv"),
    ):
        (out / filename).write_bytes(render_report(report, fmt))
    print(f"evaluated {len(records_by_extractor)} extractors over {len(golds)} gold documents")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_report(report_path: Path, fmt: str, out_path: Path | None = None) -> int:
    """Re-render a stored report into another format."""
    report = EvaluationReport.from_json(
        json.loads(report_path.read_text(encoding="utf-8"))
    )
    rendered = render_report(report, fmt)
    if out_path is not None:
        out_path.write_bytes(rendered)
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
    report.add_argument(
        "--format", default="table", choices=["table", "csv", "jsonl", "plot"]
    )
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
