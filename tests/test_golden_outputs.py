"""Golden outputs of the end-to-end replay pipeline.

Ingests tests/fixtures/e2e/raw, seeds a replay cache from the canned
responses, runs extract and evaluate with the rule-based extractor, three
zero-shot models, one three-shot model and their ensemble, and compares what
was written against the committed files in tests/fixtures/e2e/golden:

- the bytes of every predictions file and of report.csv, report.jsonl and
  report_plot.csv;
- the sorted names of the cache entries, which pin the request digest of
  every prompt under both templates.

report.json and report.txt are left out because they hold the run timestamp
and the gold path. After an intended change of output, copy the new files of
one run over the golden ones and review the diff.

A second test scores the same predictions twice: from the keys stored in
files their sidecars vouch for, and, with out/state removed, from decoded
records. Every report must come out the same.
"""

import json
import shutil
from pathlib import Path

from epix.cli import main
from epix.corpus import ExtractionRecord, load_corpus
from epix.llm import (
    Sampling,
    Transport,
    TransportMode,
    build_messages,
    default_registry,
    load_template,
)

E2E = Path(__file__).parent / "fixtures" / "e2e"
GOLDEN = E2E / "golden"
MEMBERS = ("llama-2-70b-chat", "mistral-7b-openorca", "zephyr-7b-alpha")
# (extractor id, model, template, canned answers to replay)
LLM_EXTRACTORS = (
    *((member, member, "zero-shot", member) for member in MEMBERS),
    ("gpt-4-fewshots", "gpt-4-32k", "three-shot", "llama-2-70b-chat"),
)
REPORTS = ("report.csv", "report.jsonl", "report_plot.csv")


def _config(tmp_path) -> dict:
    return {
        "corpus": str(tmp_path / "corpus.jsonl"),
        "gold": str(E2E / "gold.jsonl"),
        "output_dir": str(tmp_path / "out"),
        "match_mode": "strict_value",
        "transport": {"mode": "replay", "cache_dir": str(tmp_path / "cache")},
        "extractors": [
            {"id": "rule-based", "kind": "rule_based"},
            *(
                {"id": ext_id, "kind": "llm", "model": model, "template": template}
                for ext_id, model, template, _ in LLM_EXTRACTORS
            ),
            {
                "id": "open-ensemble",
                "kind": "ensemble",
                "members": list(MEMBERS),
                "policy": {
                    "min_agreement": 2,
                    "tie_break": "priority_order",
                    "priority": list(MEMBERS),
                },
            },
        ],
    }


def _seed_cache(tmp_path) -> None:
    canned = json.loads((E2E / "canned_responses.json").read_text(encoding="utf-8"))
    docs = load_corpus(tmp_path / "corpus.jsonl")
    registry = default_registry()
    transport = Transport(mode=TransportMode.RECORD, cache_dir=tmp_path / "cache")
    for _, model, template_name, answers_of in LLM_EXTRACTORS:
        profile = registry[model]
        template = load_template(template_name)
        for doc in docs:
            build = build_messages(doc, template, profile)
            transport.put(profile, build.messages, Sampling(), canned[answers_of][doc.id])


def _run_pipeline(tmp_path) -> Path:
    """Ingest, seed the cache, extract and evaluate; the run config's path."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--source", "promed", str(E2E / "raw"), "--out", str(corpus)]) == 0
    _seed_cache(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_config(tmp_path)), encoding="utf-8")
    assert main(["--config", str(config), "extract"]) == 0
    assert main(["--config", str(config), "evaluate"]) == 0
    return config


def test_replay_pipeline_matches_golden_outputs(tmp_path):
    _run_pipeline(tmp_path)
    out = tmp_path / "out"
    predictions = sorted(p.name for p in (out / "predictions").iterdir())
    assert predictions == sorted(p.name for p in (GOLDEN / "predictions").iterdir())
    for name in [f"predictions/{p}" for p in predictions] + list(REPORTS):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    digests = sorted(p.name for p in (tmp_path / "cache").iterdir())
    expected = (GOLDEN / "cache_entries.txt").read_text(encoding="utf-8").split()
    assert digests == expected


def test_scoring_from_stored_keys_equals_scoring_decoded_records(tmp_path, monkeypatch):
    config = _run_pipeline(tmp_path)
    out = tmp_path / "out"
    decoded = []
    decode = ExtractionRecord.from_json

    def counted(record):
        decoded.append(record["document_id"])
        return decode(record)

    def reports():
        report = json.loads((out / "report.json").read_bytes())
        report["timestamp"] = None
        names = [*REPORTS, "report.txt"]
        return report, {name: (out / name).read_bytes() for name in names}

    monkeypatch.setattr(ExtractionRecord, "from_json", staticmethod(counted))
    assert main(["--config", str(config), "evaluate"]) == 0
    assert decoded == []  # every sidecar vouches for its predictions file
    from_keys = reports()
    shutil.rmtree(out / "state")
    assert main(["--config", str(config), "evaluate"]) == 0
    extractors = len(_config(tmp_path)["extractors"])
    assert len(decoded) == extractors * len(load_corpus(tmp_path / "corpus.jsonl"))
    assert reports() == from_keys
