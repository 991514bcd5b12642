import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epix import cli, llm, state
from epix.cli import load_run_config, main
from epix.corpus import (
    Document, ExtractionRecord, GoldAnnotation, Source, json_line, load_corpus, save_corpus,
    save_gold,
)
from epix.ensemble import TieBreak
from epix.errors import (
    AlignmentError, AuthError, BudgetExhausted, CacheMiss, ConfigError, EmptyInput, EmptyReport,
    EpixError, ExtractionFailed, NoIsland, SchemaError, TransportError,
)
from epix.evaluation import MatchMode
from epix.gazetteer import bundled_digest
from epix.llm import Sampling, Transport, TransportMode, build_messages, default_registry, load_template


def _write_config(tmp_path, extractors, transport=None, **extra):
    config = {
        "corpus": str(tmp_path / "corpus.jsonl"),
        "gold": str(tmp_path / "gold.jsonl"),
        "output_dir": str(tmp_path / "out"),
        "match_mode": "strict_value",
        "transport": transport or {"mode": "replay", "cache_dir": str(tmp_path / "cache")},
        "extractors": extractors,
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _small_corpus(tmp_path, n=3):
    docs = [
        Document(
            id=f"d{i}",
            source=Source.PROMED,
            title=f"t{i}",
            body=f"Measles outbreak in France on 2 March 2019; {10 + i} cases.",
        )
        for i in range(n)
    ]
    save_corpus(docs, tmp_path / "corpus.jsonl")
    save_gold(
        [GoldAnnotation(f"d{i}", disease="Measles", country="France") for i in range(n)],
        tmp_path / "gold.jsonl",
    )
    return docs


# --- config validation ---------------------------------------------------------


def test_dangling_ensemble_member_rejected(tmp_path):
    path = _write_config(
        tmp_path,
        [
            {"id": "rule", "kind": "rule_based"},
            {"id": "ens", "kind": "ensemble", "members": ["rule", "ghost"]},
        ],
    )
    with pytest.raises(ConfigError, match="ghost"):
        load_run_config(path)


def test_duplicate_extractor_ids_rejected(tmp_path):
    path = _write_config(
        tmp_path,
        [{"id": "rule", "kind": "rule_based"}, {"id": "rule", "kind": "rule_based"}],
    )
    with pytest.raises(ConfigError, match="duplicate"):
        load_run_config(path)


def test_llm_extractor_needs_known_template(tmp_path):
    path = _write_config(
        tmp_path,
        [{"id": "m", "kind": "llm", "model": "gpt-4-32k", "template": "nine-shot"}],
    )
    with pytest.raises(ConfigError, match="template"):
        load_run_config(path)


# --- ingest ----------------------------------------------------------------------


def test_ingest_don_files(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "corpus.jsonl"
    rc = main(["ingest", "--source", "don", str(fixtures_dir / "don"), "--out", str(out)])
    assert rc == 0
    docs = load_corpus(out)
    assert len(docs) == 5
    assert {d.source for d in docs} == {Source.WHO_DON}
    assert docs[0].id == "001"
    assert "ingested 5 documents" in capsys.readouterr().out


def test_ingest_empty_dir_warns(tmp_path, capsys):
    empty = tmp_path / "raw"
    empty.mkdir()
    out = tmp_path / "corpus.jsonl"
    rc = main(["ingest", "--source", "promed", str(empty), "--out", str(out)])
    assert rc == 0
    assert load_corpus(out) == []
    assert "warning" in capsys.readouterr().err


def test_ingest_unreadable_path_exits_2(tmp_path):
    rc = main(
        ["ingest", "--source", "promed", str(tmp_path / "missing"), "--out", str(tmp_path / "c")]
    )
    assert rc == 2


_POST = "Subject: Measles - France\nMeasles in France; 3 cases.\n"


@pytest.mark.parametrize(
    "source, files, said",
    [
        ("promed", {"a.txt": _POST, "b.txt": " \n\t\n"}, "{raw}/b.txt: post is empty"),
        ("don", {"a.txt": _POST, "b.txt": " \n\t\n"}, "{raw}/b.txt: article is empty"),
        (
            "promed", {"a.txt": _POST, "a.html": _POST},
            "{raw}/a.html and {raw}/a.txt would both be document 'a'",
        ),
    ],
    ids=["empty-post", "empty-article", "one-id-twice"],
)
def test_bad_raw_file_exits_2_naming_it_and_writing_nothing(tmp_path, capsys, source, files, said):
    raw = tmp_path / "raw"
    raw.mkdir()
    for name, text in files.items():
        (raw / name).write_text(text, encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--source", source, str(raw), "--out", str(out)]) == 2
    assert said.format(raw=raw) in capsys.readouterr().err
    assert not out.exists()


# --- extract ---------------------------------------------------------------------


def test_extract_rule_based(tmp_path, capsys):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    rc = main(["--config", str(config), "extract"])
    assert rc == 0
    lines = (tmp_path / "out" / "predictions" / "rule.jsonl").read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["disease"]["canonical_id"] == "measles"
    assert first["country"]["alpha3"] == "FRA"


def test_extract_is_resumable(tmp_path):
    docs = _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    assert main(["--config", str(config), "extract"]) == 0
    predictions = tmp_path / "out" / "predictions" / "rule.jsonl"
    before = predictions.read_bytes()
    # append a new document: only it is extracted, earlier records survive
    docs.append(
        Document(id="d9", source=Source.PROMED, title="t", body="Cholera in Yemen; 7 cases.")
    )
    save_corpus(docs, tmp_path / "corpus.jsonl")
    assert main(["--config", str(config), "extract"]) == 0
    after = predictions.read_text().splitlines()
    assert len(after) == 4
    assert before.decode().splitlines() == after[:3]


def test_extract_replay_missing_cache_names_document(tmp_path, capsys):
    _small_corpus(tmp_path)
    (tmp_path / "cache").mkdir()
    config = _write_config(
        tmp_path,
        [{"id": "llm-x", "kind": "llm", "model": "gpt-4-32k", "template": "zero-shot"}],
    )
    rc = main(["--config", str(config), "extract"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "d0" in err or "d1" in err or "d2" in err


def test_extract_rule_based_needs_no_transport(tmp_path):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    data = json.loads(config.read_text())
    del data["transport"]
    config.write_text(json.dumps(data))
    assert main(["--config", str(config), "extract"]) == 0
    assert len((tmp_path / "out" / "predictions" / "rule.jsonl").read_text().splitlines()) == 3


def _seed_cache(tmp_path, docs, answer, model="gpt-4-32k", template="zero-shot", sampling=Sampling()):
    """Replay entries for ``model`` prompted with ``template`` answering ``answer`` to each document."""
    profile = default_registry()[model]
    template = load_template(template)
    transport = Transport(mode=TransportMode.RECORD, cache_dir=tmp_path / "cache")
    return [
        transport.put(profile, build_messages(doc, template, profile).messages, sampling, answer)
        for doc in docs
    ], transport


_CORRUPT_ENTRIES = pytest.mark.parametrize(
    "entry",
    [
        b"{corrupt", b'{"digest": "x"}', b'{"response": "\xff"}', b'{"response": {}}',
        b'{"response": {"choices": [{"message": {"content": 5}}]}}',
        b'{"response": {"choices": [{"message": {"content": null}}]}}',
    ],
    ids=["torn", "no-response", "not-utf-8", "no-choices", "content-number", "content-null"],
)


@_CORRUPT_ENTRIES
def test_corrupt_cache_entry_keeps_finished_records(tmp_path, capsys, entry):
    docs = _small_corpus(tmp_path)
    digests, transport = _seed_cache(
        tmp_path, docs,
        '{"virus": "Measles", "country": "France", "date": "None", "cases": "None"}',
    )
    corrupt = transport.cache_path(digests[-1])
    corrupt.write_bytes(entry)
    # At concurrency 1 the documents run in turn, so the corrupt entry is read last.
    config = _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k", "template": "zero-shot"}],
        concurrency=1,
    )
    assert main(["--config", str(config), "extract"]) == 3
    assert str(corrupt) in capsys.readouterr().err
    lines = (tmp_path / "out" / "predictions" / "m.jsonl").read_text().splitlines()
    assert [json.loads(line)["document_id"] for line in lines] == ["d0", "d1"]


@pytest.mark.parametrize(
    "damage, line",
    [
        (lambda data: data[:-40], 3),
        (lambda data: data.replace(b'"document_id": "d1", ', b"", 1), 2),
        (lambda data: data + data.splitlines(keepends=True)[0], 4),
    ],
    ids=["torn", "no-document-id", "repeated-document-id"],
)
def test_torn_predictions_line_exits_2(tmp_path, capsys, damage, line):
    config = _extract_and_evaluate(tmp_path)
    predictions = tmp_path / "out" / "predictions" / "rule.jsonl"
    predictions.write_bytes(damage(predictions.read_bytes()))
    capsys.readouterr()
    for command in ("evaluate", "extract"):
        assert main(["--config", str(config), command]) == 2, command
        err = capsys.readouterr().err
        assert str(predictions) in err and f"line {line}" in err, command


@pytest.mark.parametrize(
    "name, commands",
    [
        ("corpus.jsonl", ("extract",)),
        ("gold.jsonl", ("evaluate",)),
        ("out/predictions/rule.jsonl", ("evaluate", "extract")),
    ],
    ids=["corpus", "gold", "predictions"],
)
def test_invalid_utf8_line_exits_2_naming_the_file_and_line(tmp_path, capsys, name, commands):
    config = _extract_and_evaluate(tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(1, b'{"document_id": "d\xff"}\n')
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    for command in commands:
        assert main(["--config", str(config), command]) == 2, command
        err = capsys.readouterr().err
        assert str(path) in err and "line 2" in err and "UTF-8" in err, command


def _edit_line(index, before, after):
    def edit(data):
        lines = data.splitlines(keepends=True)
        assert before in lines[index]
        lines[index] = lines[index].replace(before, after)
        return b"".join(lines)

    return edit


def _append_edited_copy(data):
    line = data.splitlines(keepends=True)[0]
    return data + line.replace(b'"d0"', b'"d9"').replace(b'"CASE"', b'"BOGUS"')


@pytest.mark.parametrize(
    "edit, line",
    [
        (_edit_line(1, b'"attribute": "CASE"', b'"attribute": "BOGUS"'), 2),
        (_edit_line(1, b'"iso": "2019-03-02"', b'"iso": "2019-02-30"'), 2),
        (_edit_line(1, b'"canonical_id": "measles"', b'"canonical_id": null'), 2),
        (_append_edited_copy, 4),
    ],
    ids=["count-attribute", "date", "null-disease-id", "line-past-the-committed-bytes"],
)
def test_hand_edited_value_exits_2_though_the_line_is_json(tmp_path, capsys, edit, line):
    config = _extract_and_evaluate(tmp_path)
    predictions = tmp_path / "out" / "predictions" / "rule.jsonl"
    predictions.write_bytes(edit(predictions.read_bytes()))
    capsys.readouterr()
    for command in ("evaluate", "extract"):
        assert main(["--config", str(config), command]) == 2, command
        err = capsys.readouterr().err
        assert str(predictions) in err and f"line {line}" in err, command


@pytest.mark.parametrize(
    "before, after",
    [
        (b'"raw": "Measles"', b'"raw": 5'),
        (b'"parse_failure": false', b'"parse_failure": "no"'),
        (b'"truncated_input": false', b'"truncated_input": null'),
        (b'"field_warnings": []', b'"field_warnings": "disease"'),
        (b'"field_warnings": []', b'"field_warnings": [1]'),
        (b'"field_warnings": []', b'"field_warnings": ["disease"]'),
        (b'"iso": "2019-03-02"', b'"iso": "20190302"'),
        (b'"iso": "2019-03-02"', b'"iso": "2019-W09-6"'),
    ],
    ids=[
        "raw-number", "parse-failure-string", "truncated-input-null", "field-warnings-string",
        "field-warnings-number", "field-warnings-resolved-field", "date-basic-form",
        "date-week-form",
    ],
)
def test_predictions_value_of_the_wrong_type_exits_2_naming_its_line(
    tmp_path, capsys, before, after
):
    config = _extract_and_evaluate(tmp_path)
    predictions = _predictions_file(tmp_path, "rule")
    predictions.write_bytes(_edit_line(1, before, after)(predictions.read_bytes()))
    # No sidecar: extract reads every record in full before it would redo them all.
    _state_file(tmp_path, "rule").unlink()
    capsys.readouterr()
    for command in ("evaluate", "extract"):
        assert main(["--config", str(config), command]) == 2, command
        err = capsys.readouterr().err
        assert str(predictions) in err and "line 2" in err, command
    assert not _state_file(tmp_path, "rule").exists()


def test_vouched_line_that_stored_keys_cannot_read_is_read_in_full(tmp_path, capsys):
    config = _extract_and_evaluate(tmp_path)
    predictions, sidecar = _predictions_file(tmp_path, "rule"), _state_file(tmp_path, "rule")
    lines = predictions.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[1])
    del record["document_id"]
    lines[1] = (json.dumps(record) + "\n").encode("utf-8")
    predictions.write_bytes(b"".join(lines))
    # The journal row is re-hashed, so the sidecar vouches for the edited line.
    header, rows = _journal(sidecar)
    rows[1][2] = hashlib.sha256(lines[1]).hexdigest()
    sidecar.write_bytes(_journal_bytes(header, rows))
    assert state.wholly_vouched(predictions.read_bytes(), sidecar) is not None
    capsys.readouterr()
    assert main(["--config", str(config), "evaluate"]) == 2
    err = capsys.readouterr().err
    assert f"{predictions}: line 2: a record needs a document_id" in err


def test_unreadable_sidecar_leaves_evaluate_as_it_was(tmp_path):
    config = _extract_and_evaluate(tmp_path)
    out = tmp_path / "out"
    before = (out / "report.csv").read_bytes()
    sidecar = out / "state" / "rule.json"
    sidecar.write_text("{corrupt", encoding="utf-8")
    assert main(["--config", str(config), "evaluate"]) == 0
    assert (out / "report.csv").read_bytes() == before
    # A sidecar that cannot be read at all is no different.
    sidecar.unlink()
    sidecar.mkdir()
    assert main(["--config", str(config), "evaluate"]) == 0
    assert (out / "report.csv").read_bytes() == before


def test_ensemble_votes_alike_from_memory_and_from_member_files(tmp_path):
    docs = _small_corpus(tmp_path)
    _seed_cache(
        tmp_path, docs,
        '{"virus": "Measles", "country": "Spain", "date": "2 March 2019", "cases": "None"}',
    )
    config = _write_config(
        tmp_path,
        [
            {"id": "rule", "kind": "rule_based"},
            {"id": "m", "kind": "llm", "model": "gpt-4-32k"},
            {"id": "ens", "kind": "ensemble", "members": ["rule", "m"]},
        ],
    )
    full = tmp_path / "full"
    assert main(["--config", str(config), "--output", str(full), "extract"]) == 0
    assert main(["--config", str(config), "extract", "--only", "rule", "--only", "m"]) == 0
    ensemble = tmp_path / "out" / "predictions" / "ens.jsonl"
    assert not ensemble.exists()
    assert main(["--config", str(config), "extract", "--only", "ens"]) == 0
    assert ensemble.read_bytes() == (full / "predictions" / "ens.jsonl").read_bytes()


# --- resume ------------------------------------------------------------------------

_FRANCE = '{"virus": "Measles", "country": "France", "date": "2 March 2019", "cases": "None"}'
_ITALY = '{"virus": "Measles", "country": "Italy", "date": "2 March 2019", "cases": "None"}'
_YEMEN = '{"virus": "Cholera", "country": "Yemen", "date": "5 May 2020", "cases": "7"}'
_THREE = ("rule", "m", "ens")


def _three_extractors(tmp_path, n=3, **extra):
    """A rule-based extractor, a replayed model answering France and their ensemble."""
    docs = _small_corpus(tmp_path, n)
    _seed_cache(tmp_path, docs, _FRANCE)
    config = _write_config(
        tmp_path,
        [
            {"id": "rule", "kind": "rule_based"},
            {"id": "m", "kind": "llm", "model": "gpt-4-32k", "template": "zero-shot"},
            {"id": "ens", "kind": "ensemble", "members": ["rule", "m"]},
        ],
        **extra,
    )
    assert main(["--config", str(config), "extract"]) == 0
    return docs, config


def _predictions(tmp_path, extractor_id, out="out"):
    path = tmp_path / out / "predictions" / f"{extractor_id}.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _add_document(tmp_path, docs, doc_id="d9", answer=_FRANCE):
    docs.append(
        Document(id=doc_id, source=Source.PROMED, title="t", body="Measles in France; 9 cases.")
    )
    save_corpus(docs, tmp_path / "corpus.jsonl")
    _seed_cache(tmp_path, docs[-1:], answer)


def _edit_config(path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _set_template(data):
    data["extractors"][1]["template"] = "three-shot"


def _set_model(data):
    data["extractors"][1]["model"] = "gpt-35-turbo-16k"


def _set_temperature(data):
    data["sampling"] = {"temperature": 0.5}


@pytest.mark.parametrize(
    "edit, seeded",
    [
        (_set_template, {"template": "three-shot"}),
        (_set_model, {"model": "gpt-35-turbo-16k"}),
        (_set_temperature, {"sampling": Sampling(temperature=0.5)}),
    ],
    ids=["template", "model", "temperature"],
)
def test_changed_model_extractor_reextracts_every_document(tmp_path, capsys, edit, seeded):
    docs, config = _three_extractors(tmp_path)
    _seed_cache(tmp_path, docs, _ITALY, **seeded)
    _edit_config(config, edit)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    assert "rule: 3 records (0 new)" in out
    assert "m: 3 records (3 new)" in out and "ens: 3 records (3 new)" in out
    assert [r["country"]["alpha3"] for r in _predictions(tmp_path, "m")] == ["ITA"] * 3
    # Rule (France) and model (Italy) now disagree, so the ensemble abstains.
    assert [r["country"] for r in _predictions(tmp_path, "ens")] == [None] * 3


def test_changed_body_reextracts_that_document_for_every_extractor(tmp_path, capsys):
    docs, config = _three_extractors(tmp_path)
    before = {ext: _predictions(tmp_path, ext) for ext in _THREE}
    docs[1] = Document(
        id="d1", source=Source.PROMED, title="t1",
        body="Cholera outbreak in Yemen on 5 May 2020; 7 cases.",
    )
    save_corpus(docs, tmp_path / "corpus.jsonl")
    _seed_cache(tmp_path, docs[1:2], _YEMEN)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        assert f"{ext}: 3 records (1 new)" in out
        after = _predictions(tmp_path, ext)
        assert [r["document_id"] for r in after] == ["d0", "d1", "d2"]
        assert after[0] == before[ext][0] and after[2] == before[ext][2], ext
        assert after[1]["country"]["alpha3"] == "YEM", ext


def test_document_that_left_the_corpus_loses_its_record(tmp_path, capsys):
    docs, config = _three_extractors(tmp_path)
    save_corpus([docs[0], docs[2]], tmp_path / "corpus.jsonl")
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        assert f"{ext}: 2 records (0 new)" in out
        assert [r["document_id"] for r in _predictions(tmp_path, ext)] == ["d0", "d2"]


def _predictions_file(tmp_path, extractor_id):
    return tmp_path / "out" / "predictions" / f"{extractor_id}.jsonl"


def _state_file(tmp_path, extractor_id):
    return tmp_path / "out" / "state" / f"{extractor_id}.json"


def _journal(path):
    """A journal's header and its rows, each line parsed on its own; every line is whole."""
    data = path.read_bytes()
    assert data.endswith(b"\n"), path
    header, *rows = (json.loads(line) for line in data.split(b"\n")[:-1])
    assert list(header) == ["fingerprint"] and all(len(row) == 3 for row in rows), path
    return header, rows


def _journal_bytes(header, rows):
    return b"".join(
        json.dumps(item, separators=(",", ":")).encode("utf-8") + b"\n" for item in [header, *rows]
    )


@pytest.mark.parametrize("whole", [0, 2], ids=["partial-line", "two-lines-and-a-partial"])
def test_interrupted_append_is_cut_and_redone(tmp_path, whole):
    docs, config = _three_extractors(tmp_path)
    for doc_id in ("d9", "d10", "d11"):
        _add_document(tmp_path, docs, doc_id)
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    # The committed file and sidecar, plus what an append stopped part-way leaves:
    # some whole lines, then the start of a line never finished.
    for ext in _THREE:
        clean = (tmp_path / "clean" / "predictions" / f"{ext}.jsonl").read_bytes()
        appended = clean.splitlines(keepends=True)[3:]
        path = _predictions_file(tmp_path, ext)
        path.write_bytes(path.read_bytes() + b"".join(appended[:whole]) + appended[whole][:30])
    assert main(["--config", str(config), "extract"]) == 0
    for ext in _THREE:
        assert _predictions(tmp_path, ext) == _predictions(tmp_path, ext, out="clean"), ext


class _FullDisk:
    """A file opened for an append that takes one line, then runs out of space."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def truncate(self, size):
        self.fh.truncate(size)

    def seek(self, offset):
        self.fh.seek(offset)

    def writelines(self, lines):
        for line in lines:
            self.fh.write(line)
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_append_is_cut_back_to_the_committed_bytes(tmp_path, monkeypatch, capsys):
    docs, config = _three_extractors(tmp_path)
    for doc_id in ("d9", "d10"):
        _add_document(tmp_path, docs, doc_id)
    before = {
        ext: (_predictions_file(tmp_path, ext).read_bytes(), _state_file(tmp_path, ext).read_bytes())
        for ext in _THREE
    }
    monkeypatch.setattr(state, "open", _FullDisk, raising=False)
    assert main(["--config", str(config), "extract"]) == 2
    assert "No space left" in capsys.readouterr().err
    for ext in _THREE:
        after = (_predictions_file(tmp_path, ext).read_bytes(), _state_file(tmp_path, ext).read_bytes())
        assert after == before[ext], ext
    monkeypatch.undo()
    assert main(["--config", str(config), "extract"]) == 0
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        assert _predictions(tmp_path, ext) == _predictions(tmp_path, ext, out="clean"), ext


def test_failed_ingest_append_is_cut_back_to_the_committed_bytes(tmp_path, monkeypatch, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    corpus = tmp_path / "corpus.jsonl"
    sidecar = tmp_path / "corpus.jsonl.state.json"
    ingest = ["ingest", "--source", "promed", str(raw), "--out"]
    for name in ("a.txt", "b.txt"):
        (raw / name).write_text(_POST, encoding="utf-8")
    assert main([*ingest, str(corpus)]) == 0
    before = corpus.read_bytes(), sidecar.read_bytes()
    for name in ("c.txt", "d.txt"):
        (raw / name).write_text(_POST, encoding="utf-8")
    monkeypatch.setattr(state, "open", _FullDisk, raising=False)
    assert main([*ingest, str(corpus)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert (corpus.read_bytes(), sidecar.read_bytes()) == before
    monkeypatch.undo()
    assert main([*ingest, str(corpus)]) == 0
    assert main([*ingest, str(tmp_path / "clean.jsonl")]) == 0
    assert corpus.read_bytes() == (tmp_path / "clean.jsonl").read_bytes()


def _full_disk_for_journals(path, mode):
    """``open`` where a journal append runs out of space and a data file append does not."""
    return _FullDisk(path, mode) if Path(path).suffix == ".json" else open(path, mode)


def test_failed_journal_append_is_cut_back_with_its_predictions(tmp_path, monkeypatch, capsys):
    docs, config = _three_extractors(tmp_path)
    for doc_id in ("d9", "d10"):
        _add_document(tmp_path, docs, doc_id)
    before = {
        ext: (_predictions_file(tmp_path, ext).read_bytes(), _state_file(tmp_path, ext).read_bytes())
        for ext in _THREE
    }
    monkeypatch.setattr(state, "open", _full_disk_for_journals, raising=False)
    assert main(["--config", str(config), "extract"]) == 2
    assert "No space left" in capsys.readouterr().err
    # The predictions append landed, then the journal append failed: both are cut back.
    for ext in _THREE:
        after = (_predictions_file(tmp_path, ext).read_bytes(), _state_file(tmp_path, ext).read_bytes())
        assert after == before[ext], ext
    monkeypatch.undo()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        # Only the batch that never committed is extracted again.
        assert f"{ext}: 5 records (2 new)" in out, ext
        assert _predictions(tmp_path, ext) == _predictions(tmp_path, ext, out="clean"), ext
        assert _journal(_state_file(tmp_path, ext)) == _journal(
            tmp_path / "clean" / "state" / f"{ext}.json"
        ), ext


def test_failed_ingest_journal_append_is_cut_back_with_the_corpus(tmp_path, monkeypatch, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    corpus = tmp_path / "corpus.jsonl"
    sidecar = tmp_path / "corpus.jsonl.state.json"
    ingest = ["ingest", "--source", "promed", str(raw), "--out"]
    for name in ("a.txt", "b.txt"):
        (raw / name).write_text(_POST, encoding="utf-8")
    assert main([*ingest, str(corpus)]) == 0
    before = corpus.read_bytes(), sidecar.read_bytes()
    for name in ("c.txt", "d.txt"):
        (raw / name).write_text(_POST, encoding="utf-8")
    monkeypatch.setattr(state, "open", _full_disk_for_journals, raising=False)
    assert main([*ingest, str(corpus)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert (corpus.read_bytes(), sidecar.read_bytes()) == before
    monkeypatch.undo()
    capsys.readouterr()
    assert main([*ingest, str(corpus)]) == 0
    assert "(2 parsed)" in capsys.readouterr().out
    assert main([*ingest, str(tmp_path / "clean.jsonl")]) == 0
    assert corpus.read_bytes() == (tmp_path / "clean.jsonl").read_bytes()
    assert sidecar.read_bytes() == (tmp_path / "clean.jsonl.state.json").read_bytes()


@pytest.mark.parametrize("torn", [1, 2], ids=["last-row", "last-two-rows"])
def test_torn_journal_tail_redoes_only_the_documents_past_the_cut(tmp_path, capsys, torn):
    docs, config = _three_extractors(tmp_path)
    for doc_id in ("d9", "d10"):
        _add_document(tmp_path, docs, doc_id)
    assert main(["--config", str(config), "extract"]) == 0
    for ext in _THREE:
        sidecar = _state_file(tmp_path, ext)
        # Cut inside the row ``torn`` rows from the end, as a stopped journal append leaves it.
        lines = sidecar.read_bytes().splitlines(keepends=True)
        sidecar.write_bytes(b"".join(lines[: len(lines) - torn + 1])[:-7])
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        assert f"{ext}: 5 records ({torn} new)" in out, ext
        assert _predictions_file(tmp_path, ext).read_bytes() == (
            tmp_path / "clean" / "predictions" / f"{ext}.jsonl"
        ).read_bytes(), ext
        assert _journal(_state_file(tmp_path, ext)) == _journal(
            tmp_path / "clean" / "state" / f"{ext}.json"
        ), ext


def test_predictions_appended_without_their_journal_rows_are_read_in_full_and_redone(
    tmp_path, monkeypatch, capsys
):
    docs, config = _three_extractors(tmp_path)
    journals = {ext: _state_file(tmp_path, ext).read_bytes() for ext in _THREE}
    for doc_id in ("d9", "d10"):
        _add_document(tmp_path, docs, doc_id)
    assert main(["--config", str(config), "extract"]) == 0
    # As a kill between the two appends leaves it: the journal as it was before.
    for ext in _THREE:
        _state_file(tmp_path, ext).write_bytes(journals[ext])
    calls = _count_codec_calls(monkeypatch)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    # Every line of each file goes through the full read; only d9 and d10 are redone.
    assert calls == Counter(decode=5 * len(_THREE), encode=2 * len(_THREE))
    monkeypatch.undo()
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        assert f"{ext}: 5 records (2 new)" in out, ext
        assert _predictions(tmp_path, ext) == _predictions(tmp_path, ext, out="clean"), ext
        assert _journal(_state_file(tmp_path, ext)) == _journal(
            tmp_path / "clean" / "state" / f"{ext}.json"
        ), ext


def test_journal_that_repeats_a_document_id_exits_2_naming_it(tmp_path, capsys):
    _, config = _three_extractors(tmp_path)
    sidecar = _state_file(tmp_path, "m")
    header, rows = _journal(sidecar)
    sidecar.write_bytes(_journal_bytes(header, [*rows, rows[0]]))
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 2
    err = capsys.readouterr().err
    assert str(sidecar) in err and "unreadable resume state" in err and repr(rows[0][0]) in err


def test_resume_with_nothing_new_writes_nothing(tmp_path, monkeypatch, capsys):
    _, config = _three_extractors(tmp_path)
    _no_writes(monkeypatch)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        assert f"{ext}: 3 records (0 new)" in out


def _assert_redone(tmp_path, monkeypatch, capsys, digest, redone):
    """A changed ``digest`` in ``cli`` redoes every record of the ``redone``
    extractors, and nothing else."""
    _, config = _three_extractors(tmp_path)
    before = {ext: _predictions(tmp_path, ext) for ext in _THREE}
    monkeypatch.setattr(cli, digest, lambda: "0" * 64)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        assert f"{ext}: 3 records ({3 if ext in redone else 0} new)" in out, ext
    # The redone records came out the same, so the vote stands.
    assert {ext: _predictions(tmp_path, ext) for ext in _THREE} == before


def test_changed_gazetteer_reextracts_every_rule_based_document(tmp_path, monkeypatch, capsys):
    # The model's records are normalized through the gazetteer too.
    _assert_redone(tmp_path, monkeypatch, capsys, "bundled_digest", ("rule", "m"))


def test_changed_rule_based_code_reextracts_every_rule_based_document(
    tmp_path, monkeypatch, capsys
):
    _assert_redone(tmp_path, monkeypatch, capsys, "rule_based_source_digest", ("rule",))


def _assert_covers_each_module(monkeypatch, tmp_path, digest, names):
    """``cli.<digest>`` changes with an edit to each of the ``names`` modules."""
    for name in names:
        (tmp_path / name).write_bytes(Path(cli.__file__).with_name(name).read_bytes())
    monkeypatch.setattr(cli.annotator, "__file__", str(tmp_path / "annotator.py"))
    of_sources = getattr(cli, digest)
    digests = set()
    try:
        for edited in (None, *names):
            if edited is not None:
                with open(tmp_path / edited, "a", encoding="utf-8") as fh:
                    fh.write("# edited\n")
            of_sources.cache_clear()
            digests.add(of_sources())
    finally:
        of_sources.cache_clear()
    assert len(digests) == 4


def test_rule_based_source_digest_covers_each_of_its_modules(monkeypatch, tmp_path):
    names = ("annotator.py", "normalize.py", "gazetteer.py")
    _assert_covers_each_module(monkeypatch, tmp_path, "rule_based_source_digest", names)


def test_model_source_digest_covers_each_of_its_modules(monkeypatch, tmp_path):
    names = ("llm.py", "normalize.py", "gazetteer.py")
    _assert_covers_each_module(monkeypatch, tmp_path, "model_source_digest", names)


def test_ensemble_source_digest_covers_each_of_its_modules(monkeypatch, tmp_path, capsys):
    _, config = _three_extractors(tmp_path)
    before = {ext: _predictions(tmp_path, ext) for ext in _THREE}
    names = ("ensemble.py", "normalize.py")
    for name in names:
        (tmp_path / name).write_bytes(Path(cli.__file__).with_name(name).read_bytes())
    monkeypatch.setattr(cli.annotator, "__file__", str(tmp_path / "annotator.py"))
    digests = set()
    try:
        for edited in (None, *names):
            if edited is not None:
                with open(tmp_path / edited, "a", encoding="utf-8") as fh:
                    fh.write("# edited\n")
            cli.ensemble_source_digest.cache_clear()
            digests.add(cli.ensemble_source_digest())
            capsys.readouterr()
            assert main(["--config", str(config), "extract"]) == 0
            out = capsys.readouterr().out
            # Each edit re-votes every document and redoes no member record.
            new = "0" if edited is None else "3"
            assert f"ens: 3 records ({new} new)" in out, edited
            assert "rule: 3 records (0 new)" in out and "m: 3 records (0 new)" in out, edited
            assert {ext: _predictions(tmp_path, ext) for ext in _THREE} == before
    finally:
        cli.ensemble_source_digest.cache_clear()
    assert len(digests) == 3


@pytest.mark.parametrize("later", [False, True], ids=["same-run", "later-run"])
def test_ensemble_revotes_where_a_member_redid_its_records(tmp_path, capsys, later):
    docs, config = _three_extractors(tmp_path)
    # The member's file is gone and the model now answers differently.
    _predictions_file(tmp_path, "m").unlink()
    _seed_cache(tmp_path, docs, _ITALY)
    if later:
        assert main(["--config", str(config), "extract", "--only", "m"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    assert "ens: 3 records (3 new)" in capsys.readouterr().out
    assert [r["country"]["alpha3"] for r in _predictions(tmp_path, "m")] == ["ITA"] * 3
    # Rule (France) and model (Italy) now disagree, so the ensemble abstains.
    assert [r["country"] for r in _predictions(tmp_path, "ens")] == [None] * 3


def test_ensemble_of_an_ensemble_declared_first_runs_after_it(tmp_path, capsys):
    docs = _small_corpus(tmp_path)
    _seed_cache(tmp_path, docs, _FRANCE)
    config = _write_config(
        tmp_path,
        [
            {"id": "top", "kind": "ensemble", "members": ["ens", "m"]},
            {"id": "rule", "kind": "rule_based"},
            {"id": "m", "kind": "llm", "model": "gpt-4-32k"},
            {"id": "ens", "kind": "ensemble", "members": ["rule", "m"]},
        ],
    )
    assert main(["--config", str(config), "extract"]) == 0
    _add_document(tmp_path, docs)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["rule", "m", "ens", "top"]
    assert all("4 records (1 new)" in line for line in out)
    assert [r["country"]["alpha3"] for r in _predictions(tmp_path, "top")] == ["FRA"] * 4


def _change_body_of_d1(tmp_path, config):
    docs = load_corpus(tmp_path / "corpus.jsonl")
    docs[1] = Document(id="d1", source=Source.PROMED, title="t1", body="Cholera in Yemen.")
    save_corpus(docs, tmp_path / "corpus.jsonl")


@pytest.mark.parametrize(
    "stale",
    [lambda tmp_path, config: _edit_config(config, _set_template), _change_body_of_d1],
    ids=["template", "body"],
)
def test_ensemble_over_a_stale_member_file_exits_2(tmp_path, capsys, stale):
    _, config = _three_extractors(tmp_path)
    ensemble = tmp_path / "out" / "predictions" / "ens.jsonl"
    before = ensemble.read_bytes()
    stale(tmp_path, config)
    capsys.readouterr()
    assert main(["--config", str(config), "extract", "--only", "ens"]) == 2
    err = capsys.readouterr().err
    assert "'m'" in err and "no current record" in err
    assert ensemble.read_bytes() == before


@pytest.mark.parametrize(
    "edit, seeded",
    [(_set_template, {"template": "three-shot"}), (_set_model, {"model": "gpt-35-turbo-16k"})],
    ids=["template", "model"],
)
def test_lost_state_and_a_changed_model_extractor_redo_every_record(
    tmp_path, capsys, edit, seeded
):
    docs, config = _three_extractors(tmp_path)
    _seed_cache(tmp_path, docs, _ITALY, **seeded)
    shutil.rmtree(tmp_path / "out" / "state")
    _edit_config(config, edit)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        assert f"{ext}: 3 records (3 new)" in out, ext
    assert [r["country"]["alpha3"] for r in _predictions(tmp_path, "m")] == ["ITA"] * 3
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        assert _predictions(tmp_path, ext) == _predictions(tmp_path, ext, out="clean"), ext
    # The rewritten sidecars vouch under the new fingerprints.
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        assert f"{ext}: 3 records (0 new)" in out, ext


def test_failure_on_one_document_keeps_the_finished_records(tmp_path, monkeypatch, capsys):
    docs = _small_corpus(tmp_path)
    _seed_cache(tmp_path, docs, _FRANCE)
    # At concurrency 1 the documents run in turn, so d2 fails after d0 and d1 are done.
    config = _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k"}], concurrency=1
    )
    parse_fields = llm.parse_fields
    parsed = []

    def failing_on_d2(field_map, doc_id, *args, **kwargs):
        parsed.append(doc_id)
        if doc_id == "d2":
            raise RuntimeError("parser fault")
        return parse_fields(field_map, doc_id, *args, **kwargs)

    monkeypatch.setattr(llm, "parse_fields", failing_on_d2)
    with pytest.raises(RuntimeError, match="parser fault"):
        main(["--config", str(config), "extract"])
    assert parsed == ["d0", "d1", "d2"]
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0", "d1"]

    def counted(field_map, doc_id, *args, **kwargs):
        parsed.append(doc_id)
        return parse_fields(field_map, doc_id, *args, **kwargs)

    monkeypatch.setattr(llm, "parse_fields", counted)
    parsed.clear()
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    assert parsed == ["d2"]
    assert "m: 3 records (1 new)" in capsys.readouterr().out


def test_replay_cache_miss_mid_batch_commits_only_the_documents_before_it(tmp_path, capsys):
    docs = _small_corpus(tmp_path)
    digests, transport = _seed_cache(tmp_path, docs, _FRANCE)
    transport.cache_path(digests[1]).unlink()
    # Replay takes the documents in turn whatever the concurrency, so d1 stops the batch.
    config = _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k"}], concurrency=4
    )
    assert main(["--config", str(config), "extract"]) == CacheMiss.exit_code
    assert digests[1] in capsys.readouterr().err
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0"]
    assert [row[0] for row in _journal(_state_file(tmp_path, "m"))[1]] == ["d0"]
    kept = _predictions_file(tmp_path, "m").read_bytes()

    _seed_cache(tmp_path, docs[1:2], _FRANCE)
    assert main(["--config", str(config), "extract"]) == 0
    assert "m: 3 records (2 new)" in capsys.readouterr().out
    assert _predictions_file(tmp_path, "m").read_bytes().startswith(kept)
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0", "d1", "d2"]


def test_replay_extract_starts_no_thread(tmp_path, monkeypatch, gazetteer):
    docs = _small_corpus(tmp_path)
    _seed_cache(tmp_path, docs, _FRANCE)
    config = _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k"}], concurrency=4
    )

    def refused(thread):
        raise AssertionError(f"replay started thread {thread.name}")

    with monkeypatch.context() as patched:
        patched.setattr(threading.Thread, "start", refused)
        assert main(["--config", str(config), "extract"]) == 0
    profile, template = default_registry()["gpt-4-32k"], load_template("zero-shot")
    transport = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path / "cache")
    expected = b"".join(
        json_line(llm.extract_with_llm(doc, profile, template, transport, Sampling(), "m", gazetteer))
        for doc in docs
    )
    assert _predictions_file(tmp_path, "m").read_bytes() == expected


def test_replay_extract_loads_neither_the_pool_nor_logging_nor_http(tmp_path):
    docs = _small_corpus(tmp_path)
    _seed_cache(tmp_path, docs, _FRANCE)
    config = _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k"}], concurrency=4
    )
    probe = (
        "import sys, epix.cli; code = epix.cli.main(['--config', sys.argv[1], 'extract']); "
        "print(code, [m for m in ('concurrent.futures', 'logging', 'http.client') "
        "if m in sys.modules])"
    )
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe, str(config)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout


def test_resume_of_one_document_decodes_no_record_and_encodes_one_per_extractor(
    tmp_path, monkeypatch
):
    docs, config = _three_extractors(tmp_path, n=6)
    _add_document(tmp_path, docs)
    calls = Counter()
    decode, encode = ExtractionRecord.from_json, ExtractionRecord.to_json

    def counted_decode(record):
        calls["decode"] += 1
        return decode(record)

    def counted_encode(self):
        calls["encode"] += 1
        return encode(self)

    monkeypatch.setattr(ExtractionRecord, "from_json", staticmethod(counted_decode))
    monkeypatch.setattr(ExtractionRecord, "to_json", counted_encode)
    assert main(["--config", str(config), "extract"]) == 0
    assert calls == Counter(encode=len(_THREE))
    for ext in _THREE:
        assert [r["document_id"] for r in _predictions(tmp_path, ext)][-1] == "d9"


def _count_codec_calls(monkeypatch) -> Counter:
    """Counts every ExtractionRecord decode and encode from now on."""
    calls = Counter()
    decode, encode = ExtractionRecord.from_json, ExtractionRecord.to_json

    def counted_decode(record):
        calls["decode"] += 1
        return decode(record)

    def counted_encode(self):
        calls["encode"] += 1
        return encode(self)

    monkeypatch.setattr(ExtractionRecord, "from_json", staticmethod(counted_decode))
    monkeypatch.setattr(ExtractionRecord, "to_json", counted_encode)
    return calls


def test_resume_after_one_changed_body_decodes_no_record_and_encodes_one_per_extractor(
    tmp_path, monkeypatch, capsys
):
    docs, config = _three_extractors(tmp_path, n=6)
    docs[1] = Document(
        id="d1", source=Source.PROMED, title="t1",
        body="Cholera outbreak in Yemen on 5 May 2020; 7 cases.",
    )
    save_corpus(docs, tmp_path / "corpus.jsonl")
    _seed_cache(tmp_path, docs[1:2], _YEMEN)
    calls = _count_codec_calls(monkeypatch)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    assert calls == Counter(encode=len(_THREE))
    out = capsys.readouterr().out
    monkeypatch.undo()
    # The rewrite, kept lines copied as they are, is what a clean run writes.
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        assert f"{ext}: 6 records (1 new)" in out
        for name in (f"predictions/{ext}.jsonl", f"state/{ext}.json"):
            resumed, clean = (tmp_path / side / name for side in ("out", "clean"))
            assert resumed.read_bytes() == clean.read_bytes(), name


def _swap_order(rows):
    """The first two rows in each other's place, each still under its own id."""
    first, second, *rest = rows
    return [second, first, *rest]


def _swap_values(rows):
    """Each of the first two ids holding the other's entry."""
    (a, *first), (b, *second), *rest = rows
    return [[a, *second], [b, *first], *rest]


@pytest.mark.parametrize("swap", [_swap_order, _swap_values], ids=["order", "values"])
def test_swapped_sidecar_entries_attribute_no_record_to_another_document(tmp_path, capsys, swap):
    _, config = _three_extractors(tmp_path)
    assert main(["--config", str(config), "--output", str(tmp_path / "clean"), "extract"]) == 0
    for ext in _THREE:
        sidecar = _state_file(tmp_path, ext)
        header, rows = _journal(sidecar)
        sidecar.write_bytes(_journal_bytes(header, swap(rows)))
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    out = capsys.readouterr().out
    for ext in _THREE:
        # The sidecar no longer vouches for the lines, so every record is redone.
        assert f"{ext}: 3 records (3 new)" in out
        assert _predictions(tmp_path, ext) == _predictions(tmp_path, ext, out="clean"), ext
        assert _state_file(tmp_path, ext).read_bytes() == (
            tmp_path / "clean" / "state" / f"{ext}.json"
        ).read_bytes(), ext


def _no_write(path, *args):
    raise AssertionError(f"wrote {path}")


def _no_writes(monkeypatch):
    """Fail any write of a data file, a sidecar or a report."""
    for module in (state, cli):
        monkeypatch.setattr(module, "write_atomic", _no_write)
    monkeypatch.setattr(state, "open", _no_write, raising=False)


@pytest.mark.parametrize("four_keys", [False, True], ids=["two-key", "four-key"])
def test_one_object_sidecar_exits_2_naming_it_and_writing_nothing(
    tmp_path, monkeypatch, capsys, four_keys
):
    _, config = _three_extractors(tmp_path)
    sidecar = _state_file(tmp_path, "m")
    header, rows = _journal(sidecar)
    # The one JSON object older versions wrote, with or without the whole file's length and SHA-256.
    old = dict(header)
    if four_keys:
        data = _predictions_file(tmp_path, "m").read_bytes()
        old |= {"length": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    old["documents"] = {doc_id: entry for doc_id, *entry in rows}
    sidecar.write_text(json.dumps(old, separators=(",", ":")), encoding="utf-8")
    _no_writes(monkeypatch)
    capsys.readouterr()
    assert main(["--config", str(config), "extract", "--only", "m"]) == 2
    err = capsys.readouterr().err
    assert str(sidecar) in err and "unreadable resume state" in err


def _whole_file_vouched(data, state):
    """The check of a sidecar that also held the committed ``length`` and
    ``sha256``, which per-line digests alone replaced, kept as their oracle:
    the verdict, and the bytes after the committed ones when vouched."""
    length = state["length"]
    committed = data[:length]
    lines = committed.splitlines(keepends=True)
    vouched = (
        len(data) >= length
        and hashlib.sha256(committed).hexdigest() == state["sha256"]
        and len(lines) == len(state["documents"])
        and all(
            hashlib.sha256(line).hexdigest() == entry[1]
            for line, entry in zip(lines, state["documents"].values())
        )
    )
    return vouched, data[length:] if vouched else None


def _note(i):
    """A json_line whose body holds newlines and carriage returns, escaped."""
    body = f"Cholera in Yemen\r\n{7 + i} cases\rsince May\n"
    return json_line(Document(id=f"d{i}", source=Source.PROMED, title=f"t{i}", body=body))


def _lines_edit(edit):
    """An edit of ``data`` as lines: ``edit(lines, i, j)``, for two drawn line indices."""

    def apply(draw, data):
        lines = data.splitlines(keepends=True)
        if lines:
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            edit(lines, i, j)
        return b"".join(lines)

    return apply


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _insert_line(draw, data):
    lines = data.splitlines(keepends=True)
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_SPARE)))
    return b"".join(lines)


def _insert_at(draw, data, insert):
    at = draw(st.integers(0, len(data)))
    return data[:at] + insert + data[at:]


def _flip_bit(draw, data):
    if not data:
        return data
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1 :]


_SPARE = [_note(i) for i in range(5, 8)]
_EDITS = [
    # truncated
    lambda draw, data: data[: draw(st.integers(0, len(data)))],
    # a line inserted, deleted, duplicated or swapped with another
    _insert_line,
    _lines_edit(lambda lines, i, j: lines.pop(i)),
    _lines_edit(lambda lines, i, j: lines.insert(j, lines[i])),
    _lines_edit(_swap),
    # whole lines appended, or the start of one
    lambda draw, data: data + b"".join(draw(st.lists(st.sampled_from(_SPARE), max_size=2))),
    lambda draw, data: data + draw(st.sampled_from(_SPARE))[: draw(st.integers(1, 60))],
    # a flipped bit, a stray carriage return or newline
    _flip_bit,
    lambda draw, data: _insert_at(draw, data, draw(st.sampled_from([b"\r", b"\n", b"\r\n"]))),
]


@settings(max_examples=500)
@given(st.data())
def test_line_digests_vouch_exactly_when_the_whole_file_digest_did(data):
    lines = [_note(i) for i in range(data.draw(st.integers(0, 4)))]
    committed = b"".join(lines)
    sidecar = {
        "fingerprint": "f",
        "length": len(committed),
        "sha256": hashlib.sha256(committed).hexdigest(),
        "documents": {
            f"d{i}": ["input", hashlib.sha256(line).hexdigest()] for i, line in enumerate(lines)
        },
    }
    edited = committed
    for edit in data.draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        edited = edit(data.draw, edited)
    vouched = state.vouched(edited, sidecar["documents"])
    tail = None if vouched is None else edited[sum(map(len, vouched)) :]
    assert (vouched is not None, tail) == _whole_file_vouched(edited, sidecar)
    if vouched is not None:
        assert b"".join(vouched) == committed


def _vouch(data, documents):
    """Whether ``documents`` vouch for ``data`` and, when they do, the bytes
    after the committed lines."""
    vouched = state.vouched(data, documents)
    return vouched is not None, None if vouched is None else data[sum(map(len, vouched)) :]


def _verdict(data, sidecar_path):
    """What the sidecar file says of ``data``: that it cannot be read, or ``_vouch``'s verdict."""
    try:
        found = state.read_state(sidecar_path)
    except SchemaError:
        return "unreadable"
    return _vouch(data, found.documents)


@settings(max_examples=300)
@given(st.data())
def test_journal_cut_at_any_byte_vouches_exactly_as_its_whole_rows(data):
    lines = {f"d{i}": _note(i) for i in range(data.draw(st.integers(0, 4)))}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        written = state.Stored(tmp / "p.jsonl", tmp / "p.json", "f", dict.fromkeys(lines, "input"))
        written.save(lines, lines)
        committed, journal = written.path.read_bytes(), written.state_path.read_bytes()
        edited = committed
        for edit in data.draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
            edited = edit(data.draw, edited)
        # A journal cut at any byte holds the rows on its whole lines after the header.
        cut = journal[: data.draw(st.integers(0, len(journal)))]
        written.state_path.write_bytes(cut)
        rows = cut.count(b"\n") - 1
        if rows < 0:
            expected = "unreadable"
        else:
            kept = dict(list(written.entries.items())[:rows])
            expected = _vouch(edited, kept)
            assert state.read_state(written.state_path).length == cut.rfind(b"\n") + 1
        if rows == len(lines):
            sha256 = hashlib.sha256(committed).hexdigest()
            four_keys = {"documents": kept, "length": len(committed), "sha256": sha256}
            assert expected == _whole_file_vouched(edited, four_keys)
        assert _verdict(edited, written.state_path) == expected


# --- the extract oracle: after any sequence of edits, a clean extract's bytes -------

_BODIES = [
    "Measles outbreak in France on 2 March 2019; 11 cases.",
    "Cholera in Yemen: 7 cases reported on 5 May 2020.",
    "Ebola virus disease in Guinea, 12 deaths.",
    "No outbreak was reported this week.",
]


def _corpus_edit(edit):
    """A step that rewrites the corpus as ``edit`` leaves its list of documents."""

    def step(tmp, *args):
        docs = load_corpus(tmp / "corpus.jsonl")
        save_corpus(edit(docs, *args), tmp / "corpus.jsonl")

    step.__name__ = edit.__name__
    return step


def _doc(doc_id, body):
    return Document(id=doc_id, source=Source.PROMED, title=doc_id, body=_BODIES[body])


def _append_document(docs, body):
    ids = {doc.id for doc in docs}
    return [*docs, _doc(next(f"d{i}" for i in range(len(ids) + 1) if f"d{i}" not in ids), body)]


def _change_body(docs, index, body):
    if docs:
        docs[index % len(docs)] = _doc(docs[index % len(docs)].id, body)
    return docs


def _remove_document(docs, index):
    return [doc for i, doc in enumerate(docs) if i != index % max(len(docs), 1)]


def _torn_predictions_tail(tmp, cut):
    path = _predictions_file(tmp, "rule")
    path.write_bytes(path.read_bytes() + json_line(ExtractionRecord("torn", "rule"))[:cut])


def _line_for_a_new_id(tmp):
    path = _predictions_file(tmp, "rule")
    path.write_bytes(path.read_bytes() + json_line(ExtractionRecord("new", "rule")))


def _journal_cut_after_its_header(tmp):
    path = _state_file(tmp, "rule")
    path.write_bytes(path.read_bytes().partition(b"\n")[0] + b"\n")


def _sidecar_dropped(tmp):
    _state_file(tmp, "rule").unlink()


_EXTRACT_STEPS = st.one_of(
    st.tuples(st.just(_corpus_edit(_append_document)), st.integers(0, len(_BODIES) - 1)),
    st.tuples(
        st.just(_corpus_edit(_change_body)), st.integers(0, 5), st.integers(0, len(_BODIES) - 1)
    ),
    st.tuples(st.just(_corpus_edit(_remove_document)), st.integers(0, 5)),
    st.tuples(st.just(_torn_predictions_tail), st.integers(1, 60)),
    st.tuples(st.just(_line_for_a_new_id)),
    st.tuples(st.just(_journal_cut_after_its_header)),
    st.tuples(st.just(_sidecar_dropped)),
)


@settings(max_examples=60)
@given(steps=st.lists(_EXTRACT_STEPS, min_size=1, max_size=8))
def test_reextract_after_any_edits_writes_what_a_clean_extract_writes(steps):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_corpus([_doc("d0", 0), _doc("d1", 1)], tmp / "corpus.jsonl")
        config = str(_write_config(tmp, [{"id": "rule", "kind": "rule_based"}]))
        assert main(["--config", config, "extract"]) == 0
        for n, (step, *args) in enumerate(steps):
            step(tmp, *args)
            assert main(["--config", config, "extract"]) == 0, (step.__name__, args)
            clean = tmp / f"clean{n}"
            assert main(["--config", config, "--output", str(clean), "extract"]) == 0
            for path in (Path("predictions", "rule.jsonl"), Path("state", "rule.json")):
                written = (tmp / "out" / path).read_bytes()
                assert written == (clean / path).read_bytes(), (step.__name__, args, path)


def test_model_fingerprint_covers_the_template_fields_not_its_scaffold(tmp_path):
    config = load_run_config(_write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k", "template": "three-shot"}]
    ))
    template = config.extractors[0].template
    source = {
        "kind": "llm",
        "model": {
            "name": "gpt-4-32k", "context_length": 32768, "parameter_count": None,
            "kind": "COMMERCIAL",
        },
        "template": {
            "name": "three-shot",
            "instruction": template.instruction,
            "demonstrations": [
                {"excerpt": demo.excerpt, "answer": dict(demo.answer)}
                for demo in template.demonstrations
            ],
        },
        "sampling": {"temperature": 0.0, "max_tokens": 512},
        "gazetteer": bundled_digest(),
        "code": cli.model_source_digest(),
    }
    canonical = json.dumps(source, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert config.fingerprints["m"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fingerprint_of(source):
    canonical = json.dumps(source, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_rule_based_fingerprint_covers_the_gazetteer_and_the_code(tmp_path):
    config = load_run_config(_write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}]))
    source = {
        "kind": "rule_based",
        "gazetteer": bundled_digest(),
        "code": cli.rule_based_source_digest(),
    }
    assert config.fingerprints["rule"] == _fingerprint_of(source)


def test_ensemble_fingerprint_covers_its_members_and_its_policy(tmp_path):
    policy = {"min_agreement": 1, "tie_break": "abstain", "priority": ["b", "a"]}
    config = load_run_config(_write_config(tmp_path, _ensemble_policy(policy)))
    source = {
        "kind": "ensemble",
        "members": ["a", "b"],
        "policy": {"min_agreement": 1, "tie_break": "ABSTAIN", "priority": ["b", "a"]},
        "code": cli.ensemble_source_digest(),
    }
    assert config.fingerprints["ab"] == _fingerprint_of(source)


def test_ensemble_fingerprint_is_the_same_without_priority_as_with_the_members_in_order(tmp_path):
    left_out = load_run_config(_write_config(tmp_path, _ensemble_policy({})))
    in_order = load_run_config(_write_config(tmp_path, _ensemble_policy({"priority": ["a", "b"]})))
    assert left_out.fingerprints == in_order.fingerprints
    reordered = load_run_config(_write_config(tmp_path, _ensemble_policy({"priority": ["b", "a"]})))
    assert reordered.fingerprints["ab"] != in_order.fingerprints["ab"]


@pytest.mark.parametrize("temperature", [0, 0.0, -0.0], ids=["int", "float", "negative-zero"])
def test_integer_temperature_keys_requests_as_the_default_sampling(tmp_path, temperature):
    extractors = [{"id": "m", "kind": "llm", "model": "gpt-4-32k"}]
    plain = load_run_config(_write_config(tmp_path, extractors))
    config = load_run_config(_write_config(tmp_path, extractors, sampling={"temperature": temperature}))
    assert config.fingerprints == plain.fingerprints
    messages = [{"role": "user", "content": "Measles in France."}]
    assert llm.request_digest("gpt-4-32k", messages, config.sampling) == llm.request_digest(
        "gpt-4-32k", messages, Sampling()
    )


def test_loading_a_config_does_not_import_requests(tmp_path):
    config = _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k", "template": "three-shot"}]
    )
    probe = (
        "import sys, epix.cli; epix.cli.load_run_config(sys.argv[1]); "
        "print([m for m in ('requests', 'http.client', 'concurrent.futures', 'logging', "
        "'difflib') if m in sys.modules])"
    )
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe, str(config)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"


def test_setting_up_does_not_build_the_rule_based_scanner(tmp_path):
    """Loading a config and the bundled tables leaves the annotator's scanner unbuilt."""
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    probe = (
        "import sys, epix.cli; epix.cli.load_run_config(sys.argv[1]); "
        "from epix.gazetteer import default_gazetteer; "
        "from epix.normalize import country_table; "
        "country_table(); print(default_gazetteer()._scanner)"
    )
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe, str(config)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "None"


def _answer(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def _record_config(tmp_path, monkeypatch, endpoint, **extra):
    """A config recording one model over the small corpus from ``endpoint``."""
    _small_corpus(tmp_path)
    monkeypatch.setenv("EPIX_API_KEY", "k")
    monkeypatch.setenv("EPIX_ENDPOINT", endpoint)
    return _write_config(
        tmp_path, [{"id": "m", "kind": "llm", "model": "gpt-4-32k"}],
        transport={"mode": "record", "cache_dir": str(tmp_path / "cache"), "backoff_base": 0},
        **extra,
    )


def test_record_extract_runs_without_requests(tmp_path, monkeypatch, stub_server):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_FRANCE))]
    config = _record_config(tmp_path, monkeypatch, endpoint)
    probe = (
        "import sys; sys.modules['requests'] = None; import epix.cli; "
        "sys.exit(epix.cli.main(['--config', sys.argv[1], 'extract']))"
    )
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe, str(config)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert len(handler.seen) == 3
    assert [r["country"]["alpha3"] for r in _predictions(tmp_path, "m")] == ["FRA"] * 3
    assert len(list((tmp_path / "cache").glob("*.json"))) == 3


def test_record_extract_at_concurrency_2_runs_through_the_pool(
    tmp_path, monkeypatch, stub_server
):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_FRANCE))]
    config = _record_config(tmp_path, monkeypatch, endpoint, concurrency=2)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    assert main(["--config", str(config), "extract"]) == 0
    assert any(name.startswith("ThreadPoolExecutor") for name in started), started
    assert len(handler.seen) == 3
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0", "d1", "d2"]


@pytest.mark.parametrize("missing", [0, 1, 3])
def test_record_redo_after_lost_state_sends_one_request_per_missing_cache_entry(
    tmp_path, monkeypatch, capsys, stub_server, missing
):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_FRANCE))]
    config = _record_config(tmp_path, monkeypatch, endpoint)
    assert main(["--config", str(config), "extract"]) == 0
    before = _predictions_file(tmp_path, "m").read_bytes()
    shutil.rmtree(tmp_path / "out" / "state")
    entries = sorted((tmp_path / "cache").glob("*.json"))
    for entry in entries[:missing]:
        entry.unlink()
    handler.seen.clear()
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    assert "m: 3 records (3 new)" in capsys.readouterr().out
    assert len(handler.seen) == missing
    assert _predictions_file(tmp_path, "m").read_bytes() == before
    assert sorted((tmp_path / "cache").glob("*.json")) == entries


@_CORRUPT_ENTRIES
def test_corrupt_cache_entry_in_record_mode_exits_3_naming_it(
    tmp_path, monkeypatch, capsys, stub_server, entry
):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_ITALY))]
    # At concurrency 1 the documents run in turn, so the corrupt entry is read last.
    config = _record_config(tmp_path, monkeypatch, endpoint, concurrency=1)
    digests, transport = _seed_cache(tmp_path, load_corpus(tmp_path / "corpus.jsonl"), _FRANCE)
    corrupt = transport.cache_path(digests[-1])
    corrupt.write_bytes(entry)
    assert main(["--config", str(config), "extract"]) == 3
    assert str(corrupt) in capsys.readouterr().err
    # Neither answered anew nor overwritten: the entry is left for a person to look at.
    assert handler.seen == [] and corrupt.read_bytes() == entry
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0", "d1"]


@pytest.mark.parametrize("digest", ["bundled_digest", "model_source_digest"])
def test_changed_tables_or_model_code_redo_record_mode_records_without_a_request(
    tmp_path, monkeypatch, capsys, stub_server, digest
):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_FRANCE))]
    config = _record_config(tmp_path, monkeypatch, endpoint)
    assert main(["--config", str(config), "extract"]) == 0
    assert len(handler.seen) == 3
    before = _predictions_file(tmp_path, "m").read_bytes()
    monkeypatch.setattr(cli, digest, lambda: "0" * 64)
    capsys.readouterr()
    assert main(["--config", str(config), "extract"]) == 0
    assert "m: 3 records (3 new)" in capsys.readouterr().out
    assert len(handler.seen) == 3
    assert _predictions_file(tmp_path, "m").read_bytes() == before


def test_reply_that_is_not_json_exits_3_keeping_finished_records(
    tmp_path, monkeypatch, capsys, stub_server
):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_FRANCE))] * 2 + [(200, b"<html>busy</html>")]
    # At concurrency 1 the documents run in turn, so d2 gets the bad reply.
    config = _record_config(tmp_path, monkeypatch, endpoint, concurrency=1)
    assert main(["--config", str(config), "extract"]) == 3
    err = capsys.readouterr().err
    assert endpoint in err and "HTTP 200" in err and "'d2'" in err
    assert len(handler.seen) == 3
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0", "d1"]


@pytest.mark.parametrize("content", [None, 5, ["x"]], ids=["null", "number", "list"])
def test_reply_whose_content_is_not_a_string_exits_3_keeping_finished_records(
    tmp_path, monkeypatch, capsys, stub_server, content
):
    handler, endpoint = stub_server
    handler.responses = [(200, _answer(_FRANCE))] * 2 + [(200, _answer(content))]
    # At concurrency 1 the documents run in turn, so d2 gets the bad reply.
    config = _record_config(tmp_path, monkeypatch, endpoint, concurrency=1)
    assert main(["--config", str(config), "extract"]) == 3
    err = capsys.readouterr().err
    assert endpoint in err and "malformed completion response" in err and "'d2'" in err
    assert [r["document_id"] for r in _predictions(tmp_path, "m")] == ["d0", "d1"]
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


@pytest.mark.parametrize("scheme", ["", "ftp://"], ids=["no-scheme", "ftp"])
def test_endpoint_that_is_not_an_http_url_exits_2_before_any_request(
    tmp_path, monkeypatch, capsys, stub_server, scheme
):
    handler, endpoint = stub_server
    bad = scheme + endpoint.removeprefix("http://")
    config = _record_config(tmp_path, monkeypatch, bad)
    monkeypatch.setattr("time.sleep", None)
    assert main(["--config", str(config), "extract"]) == 2
    err = capsys.readouterr().err
    assert repr(bad) in err and "EPIX_ENDPOINT" in err
    assert handler.seen == []
    assert not (tmp_path / "out" / "predictions" / "m.jsonl").exists()


def test_extract_unknown_model_exits_2(tmp_path, capsys):
    _small_corpus(tmp_path)
    config = _write_config(
        tmp_path,
        [
            {"id": "rule", "kind": "rule_based"},
            {"id": "m", "kind": "llm", "model": "mystery-13b", "template": "zero-shot"},
        ],
    )
    assert main(["--config", str(config), "extract"]) == 2
    err = capsys.readouterr().err
    assert str(config) in err and "mystery-13b" in err
    assert not (tmp_path / "out").exists()


def _rule_and_model_config(tmp_path, **extra):
    _small_corpus(tmp_path)
    return _write_config(
        tmp_path,
        [
            {"id": "rule", "kind": "rule_based"},
            {"id": "m", "kind": "llm", "model": "gpt-4-32k", "template": "zero-shot"},
        ],
        **extra,
    )


def test_extract_only_unknown_id_exits_2(tmp_path, capsys):
    config = _rule_and_model_config(tmp_path)
    argv = ["--config", str(config), "extract", "--only", "rule", "--only", "ghost"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(config) in err and "ghost" in err
    assert not (tmp_path / "out").exists()


# Config sections the numbers below live in, with their other keys.
_SECTIONS = {"transport": {"mode": "replay", "cache_dir": "cache"}, "sampling": {}}


@pytest.mark.parametrize(
    "key, value",
    [
        ("concurrency", "x"),
        ("concurrency", 0),
        ("concurrency", True),
        ("concurrency", 2.0),
        ("transport.max_attempts", 0),
        ("transport.max_attempts", "3"),
        ("transport.backoff_base", -0.5),
        ("transport.backoff_base", False),
        ("transport.backoff_base", float("nan")),
        ("sampling.temperature", "hot"),
        ("sampling.temperature", True),
        ("sampling.max_tokens", 0),
        ("sampling.max_tokens", 256.0),
    ],
)
def test_bad_number_in_config_exits_2_before_any_write(tmp_path, capsys, key, value):
    section, _, name = key.rpartition(".")
    extra = {section: {**_SECTIONS[section], name: value}} if section else {name: value}
    config = _rule_and_model_config(tmp_path, **extra)
    assert main(["--config", str(config), "extract"]) == 2
    err = capsys.readouterr().err
    assert str(config) in err and key in err
    assert not (tmp_path / "out").exists()


def test_good_numbers_in_config_load(tmp_path):
    config = load_run_config(
        _rule_and_model_config(
            tmp_path,
            concurrency=1,
            transport={**_SECTIONS["transport"], "max_attempts": 1, "backoff_base": 0},
            sampling={"temperature": 0.7, "max_tokens": 1},
        )
    )
    assert (config.concurrency, config.max_attempts, config.backoff_base) == (1, 1, 0)
    assert config.sampling == Sampling(temperature=0.7, max_tokens=1)


# --- evaluate and report -----------------------------------------------------------


def _extract_and_evaluate(tmp_path):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    assert main(["--config", str(config), "extract"]) == 0
    assert main(["--config", str(config), "evaluate"]) == 0
    return config


def test_evaluate_writes_all_formats(tmp_path):
    _extract_and_evaluate(tmp_path)
    out = tmp_path / "out"
    for name in ("report.json", "report.txt", "report.csv", "report.jsonl", "report_plot.csv"):
        assert (out / name).exists(), name
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "extractor,field,tp,fp,fn,tn,precision,recall,f1"
    assert len(csv_lines) == 1 + 4
    assert csv_lines[1].startswith("rule,disease,3,0,0,0,1.000,1.000,1.000")


def test_evaluate_without_a_gold_file_exits_4(tmp_path, capsys):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}], gold=None)
    assert main(["--config", str(config), "evaluate"]) == 4
    assert "error: config has no gold file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_missing_predictions_exits_4(tmp_path, capsys):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    rc = main(["--config", str(config), "evaluate"])
    assert rc == 4
    assert "no predictions" in capsys.readouterr().err


def test_repeat_evaluation_is_deterministic_except_timestamp(tmp_path):
    config = _extract_and_evaluate(tmp_path)
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert main(["--config", str(config), "evaluate"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    for name in first:
        if name == "report.json":
            a = json.loads(first[name])
            b = json.loads(second[name])
            a["timestamp"] = b["timestamp"] = None
            assert a == b
        else:
            assert first[name] == second[name], name


def test_failed_report_write_keeps_the_old_report(tmp_path, monkeypatch):
    config = _extract_and_evaluate(tmp_path)
    out = tmp_path / "out"
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}

    def failed_move(src, dst):
        raise OSError(f"cannot move {src} over {dst}")

    # The new report is written in full but never moved over the old one.
    monkeypatch.setattr(os, "replace", failed_move)
    assert main(["--config", str(config), "evaluate"]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before


def test_evaluate_that_cannot_render_writes_no_report(tmp_path, capsys):
    config = _extract_and_evaluate(tmp_path)
    out = tmp_path / "out"
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    _edit_config(config, lambda data: data.update(extractors=[]))
    capsys.readouterr()
    assert main(["--config", str(config), "evaluate"]) == 4
    assert "no extractors" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before


def test_report_out_into_a_missing_directory_names_that_file(tmp_path, capsys):
    _extract_and_evaluate(tmp_path)
    target = tmp_path / "nodir" / "x.txt"
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out" / "report.json"), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"'{target}'" in err and ".tmp" not in err


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_out_that_is_a_directory_names_it_and_leaves_no_temporary_file(tmp_path, capsys, command):
    _extract_and_evaluate(tmp_path)
    target = tmp_path / "outdir"
    target.mkdir()
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text(_POST, encoding="utf-8")
    argv = {
        "ingest": ["ingest", "--source", "promed", str(raw), "--out", str(target)],
        "report": ["report", str(tmp_path / "out" / "report.json"), "--out", str(target)],
    }[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"Is a directory: '{target}'" in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not any(target.iterdir())


def test_report_format_conversions(tmp_path, capsys):
    _extract_and_evaluate(tmp_path)
    report_path = tmp_path / "out" / "report.json"
    for fmt, probe in (("table", "extractor"), ("csv", "extractor,field"), ("plot", "metric")):
        rc = main(["report", str(report_path), "--format", fmt])
        assert rc == 0
        assert probe in capsys.readouterr().out
    out_file = tmp_path / "again.csv"
    rc = main(["report", str(report_path), "--format", "csv", "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_bytes() == (tmp_path / "out" / "report.csv").read_bytes()


def _edited_config(edit):
    def make(tmp_path):
        path = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
        path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
        return path, ["--config", str(path), "extract"]

    return make


def _bad_ensemble(said, **fields):
    """A config whose ensemble of ``a`` and ``b`` (``extractors[2]``) has ``fields``.

    The error, after the config's path, reads ``said``.
    """

    def make(tmp_path):
        ensemble = {"id": "ab", "kind": "ensemble", "members": ["a", "b"], **fields}
        extractors = [{"id": "a", "kind": "rule_based"}, {"id": "b", "kind": "rule_based"}, ensemble]
        path, argv = _edited_config(lambda c: {**c, "extractors": extractors})(tmp_path)
        return f"{path}: {said}", argv

    return make


def _not_ids(key):
    return f"extractors[2].{key} must be a list of extractor ids"


def _said(said, edit):
    """``_edited_config(edit)``, whose error, after the config's path, reads ``said``."""

    def make(tmp_path):
        path, argv = _edited_config(edit)(tmp_path)
        return f"{path}: {said}", argv

    return make


def _torn_report(tmp_path):
    _extract_and_evaluate(tmp_path)
    report = tmp_path / "out" / "report.json"
    report.write_bytes(report.read_bytes()[:-40])
    return report, ["report", str(report)]


def _edited_report(edit):
    def make(tmp_path):
        _extract_and_evaluate(tmp_path)
        path = tmp_path / "out" / "report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        edit(report)
        path.write_text(json.dumps(report), encoding="utf-8")
        return path, ["report", str(path)]

    return make


@pytest.mark.parametrize(
    "make",
    [
        _edited_config(lambda c: {**c, "match_mode": "fuzzy"}),
        _edited_config(lambda c: {**c, "transport": {"mode": "psychic"}}),
        _edited_config(
            lambda c: {
                **c,
                "extractors": [
                    {"id": "a", "kind": "rule_based"},
                    {"id": "b", "kind": "rule_based"},
                    {"id": "ab", "kind": "ensemble", "members": ["a", "b"],
                     "policy": {"tie_break": "coin_flip"}},
                ],
            }
        ),
        _edited_config(
            lambda c: {
                **c,
                "extractors": [
                    {"id": "a", "kind": "rule_based"},
                    {"id": "b", "kind": "rule_based"},
                    {"id": "ab", "kind": "ensemble", "members": ["a", "b"],
                     "policy": {"min_agreement": 1.5}},
                ],
            }
        ),
        _edited_config(
            lambda c: {
                **c,
                "extractors": [
                    {"id": "a", "kind": "rule_based"},
                    {"id": "b", "kind": "rule_based"},
                    {"id": "ab", "kind": "ensemble", "members": ["a", "ba"]},
                    {"id": "ba", "kind": "ensemble", "members": ["b", "ab"]},
                ],
            }
        ),
        _bad_ensemble(_not_ids("members"), members="ab"),
        _bad_ensemble(_not_ids("members"), members={"a": 1, "b": 2}),
        _bad_ensemble(_not_ids("members"), members={}),
        _bad_ensemble(_not_ids("members"), members=["a", "b", 3], policy={"priority": ["b", "a"]}),
        _bad_ensemble(_not_ids("policy.priority"), policy={"priority": "ba"}),
        _bad_ensemble(_not_ids("policy.priority"), policy={"priority": ["b", "a", 3]}),
        _bad_ensemble("extractors[2]: ensemble members must be distinct", members=["a", "a"]),
        _bad_ensemble(
            "extractors[2]: priority order repeats members: ['b']",
            policy={"priority": ["b", "a", "b"]},
        ),
        _bad_ensemble("extractors[2]: an ensemble needs at least 2 members", members=["a"]),
        _bad_ensemble(
            "extractors[2]: min_agreement cannot exceed the member count",
            policy={"min_agreement": 3},
        ),
        _edited_config(lambda c: [c]),
        # A required key that is there, but falsy and of the wrong type, is named by its type.
        _said("corpus must be a JSON string, got 0", lambda c: {**c, "corpus": 0}),
        _said("corpus must be a JSON string, got False", lambda c: {**c, "corpus": False}),
        _said(
            "extractors[0].id must be a JSON string, got 0",
            lambda c: {**c, "extractors": [{"id": 0, "kind": "rule_based"}]},
        ),
        *(
            _edited_config(lambda c, bad=bad: {**c, "extractors": [{"id": bad, "kind": "rule_based"}]})
            for bad in ("..", ".", "../../corpus", "a/b", "a\\b", "/tmp/abs", "nul\0", 7, ["x"])
        ),
        _torn_report,
        _edited_report(lambda r: r["cells"]["rule"].pop("count")),
        _edited_report(lambda r: r["extractors"].append("ghost")),
        _edited_report(lambda r: r["cells"]["rule"]["date"].update(precision="0.5")),
        _edited_report(lambda r: r["cells"]["rule"]["date"].update(tp="3")),
        _edited_report(lambda r: r["cells"]["rule"]["date"].update(fn=-1)),
        _edited_report(lambda r: r["cells"]["rule"]["date"].update(tn=True)),
    ],
    ids=[
        "match-mode", "transport-mode", "tie-break", "min-agreement", "ensemble-cycle",
        "members-string", "members-object", "members-empty-object", "members-number",
        "priority-string", "priority-number", "members-twice", "priority-repeats", "one-member",
        "min-agreement-above-members", "top-level-list", "corpus-zero", "corpus-false", "id-zero",
        "id-parent", "id-dot", "id-escape", "id-slash", "id-backslash", "id-absolute",
        "id-nul", "id-number", "id-list",
        "torn-report", "report-cell-missing", "report-extractor-without-cells",
        "report-string-metric", "report-string-count", "report-negative-count",
        "report-bool-count",
    ],
)
def test_bad_config_value_or_report_exits_2_naming_the_file(tmp_path, capsys, make):
    named, argv = make(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert str(named) in capsys.readouterr().err


def _ensemble_policy(policy):
    ensemble = {"id": "ab", "kind": "ensemble", "members": ["a", "b"], "policy": policy}
    return [{"id": "a", "kind": "rule_based"}, {"id": "b", "kind": "rule_based"}, ensemble]


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda c: {**c, "extractors": {"id": "a"}}, "extractors"),
        (lambda c: {**c, "extractors": ["a"]}, "extractors[0]"),
        (lambda c: {**c, "extractors": [{"id": "a", "kind": "rule_based"}, None]}, "extractors[1]"),
        (lambda c: {**c, "transport": "x"}, "transport"),
        (lambda c: {**c, "sampling": []}, "sampling"),
        (lambda c: {**c, "extractors": _ensemble_policy("x")}, "extractors[2].policy"),
        (
            lambda c: {**c, "extractors": _ensemble_policy({"tie_break": 5})},
            "extractors[2].policy.tie_break",
        ),
        (
            lambda c: {**c, "extractors": [{"id": "m", "kind": "llm", "model": ["x"]}]},
            "extractors[0].model",
        ),
        (lambda c: {**c, "corpus": 5}, "corpus"),
        (lambda c: {**c, "gold": 5}, "gold"),
        (lambda c: {**c, "output_dir": 5}, "output_dir"),
        (lambda c: {**c, "transport": {"mode": "replay", "cache_dir": 5}}, "transport.cache_dir"),
    ],
    ids=[
        "extractors-object", "extractor-string", "extractor-null", "transport", "sampling", "policy",
        "tie-break", "model", "corpus", "gold", "output-dir", "cache-dir",
    ],
)
def test_config_section_of_the_wrong_type_exits_2_naming_its_key(tmp_path, capsys, edit, key):
    path, argv = _edited_config(edit)(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {path}: {key} must be a JSON " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, key, allowed",
    [
        (lambda c: {**c, "match_mode": 5}, "match_mode", "strict_value, detection_only"),
        (lambda c: {**c, "match_mode": "fuzzy"}, "match_mode", "strict_value, detection_only"),
        (lambda c: {**c, "transport": {"mode": None}}, "transport.mode", "live, record, replay"),
        (lambda c: {**c, "transport": {"mode": "psy"}}, "transport.mode", "live, record, replay"),
        (
            lambda c: {**c, "extractors": _ensemble_policy({"tie_break": "coin"})},
            "extractors[2].policy.tie_break",
            "priority_order, abstain",
        ),
        (
            lambda c: {**c, "extractors": _ensemble_policy({"tie_break": ["abstain"]})},
            "extractors[2].policy.tie_break",
            "priority_order, abstain",
        ),
    ],
    ids=[
        "match-mode-number", "match-mode-unknown", "transport-mode-null", "transport-mode-unknown",
        "tie-break-unknown", "tie-break-list",
    ],
)
def test_config_choice_that_is_not_allowed_exits_2_naming_its_key_and_the_choices(
    tmp_path, capsys, edit, key, allowed
):
    path, argv = _edited_config(edit)(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {key} must be a JSON string, one of {allowed}; got " in err
    assert not (tmp_path / "out").exists()


def test_config_choices_load_in_any_case(tmp_path):
    path = _write_config(
        tmp_path,
        _ensemble_policy({"tie_break": "Abstain"}),
        transport={"mode": "LIVE"},
        match_mode="Detection_Only",
    )
    config = load_run_config(path)
    assert config.match_mode is MatchMode.DETECTION_ONLY
    assert config.transport_mode is TransportMode.LIVE
    assert config.extractors[2].ensemble.policy.tie_break is TieBreak.ABSTAIN


_TOP_KEYS = "corpus, gold, output_dir, match_mode, concurrency, transport, sampling, extractors"


@pytest.mark.parametrize(
    "edit, key, where, allowed",
    [
        (lambda c: {**c, "concurency": 0}, "concurency", "the top level", _TOP_KEYS),
        (lambda c: {**c, "transprot": {"mode": "live"}}, "transprot", "the top level", _TOP_KEYS),
        (
            lambda c: {**c, "transport": {**c["transport"], "max_attempt": 9}},
            "transport.max_attempt", "transport", "mode, cache_dir, max_attempts, backoff_base",
        ),
        (
            lambda c: {**c, "sampling": {"temprature": 0.7}},
            "sampling.temprature", "sampling", "temperature, max_tokens",
        ),
        (
            lambda c: {**c, "extractors": [{"id": "rule", "kind": "rule_based", "modle": "x"}]},
            "extractors[0].modle", "extractors[0]", "id, kind",
        ),
        (
            lambda c: {
                **c,
                "extractors": [
                    {"id": "rule", "kind": "rule_based"},
                    {"id": "m", "kind": "llm", "modle": "gpt-4-32k", "template": "zero-shot"},
                ],
            },
            "extractors[1].modle", "extractors[1]", "id, kind, model, template",
        ),
        (
            lambda c: {
                **c,
                "extractors": [
                    *_ensemble_policy({})[:2],
                    {"id": "ab", "kind": "ensemble", "members": ["a", "b"], "polciy": {}},
                ],
            },
            "extractors[2].polciy", "extractors[2]", "id, kind, members, policy",
        ),
        (
            lambda c: {**c, "extractors": _ensemble_policy({"tei_break": "abstain"})},
            "extractors[2].policy.tei_break", "extractors[2].policy",
            "min_agreement, tie_break, priority",
        ),
        (
            lambda c: {**c, "extractors": [{"id": "a", "knid": "rule_based"}]},
            "extractors[0].knid", "extractors[0]", "id, kind, model, template, members, policy",
        ),
    ],
    ids=[
        "top-level", "top-level-section", "transport", "sampling", "rule-based-entry", "llm-entry",
        "ensemble-entry", "ensemble-policy", "misspelled-kind",
    ],
)
def test_misspelled_config_key_exits_2_naming_its_path_and_the_keys_allowed_there(
    tmp_path, capsys, edit, key, where, allowed
):
    _small_corpus(tmp_path)
    path, argv = _edited_config(edit)(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {key} is not a config key; {where} takes {allowed}\n" == err
    assert not (tmp_path / "out").exists()


def test_entry_without_a_kind_exits_2_saying_that_kind_is_required(tmp_path, capsys):
    _small_corpus(tmp_path)
    path, argv = _edited_config(lambda c: {**c, "extractors": [{"id": "a"}]})(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: extractors[0].kind is required\n"
    assert not (tmp_path / "out").exists()


_README = Path(__file__).parents[1] / "README.md"


def _schema_paths(rows, prefix=""):
    """Every key path of the config schema ``rows``; ``[i]`` stands for an entry's index."""
    for name, key in rows.items():
        yield prefix + name
        if isinstance(key.kind, list):
            for entry in cli._ENTRIES.values():
                yield from _schema_paths(entry, f"{prefix}{name}[i].")
        elif isinstance(key.kind, dict):
            yield from _schema_paths(key.kind, f"{prefix}{name}.")


def test_readme_config_reference_lists_exactly_the_schema_keys():
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n### Config reference\n", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(_schema_paths(cli._CONFIG))


def test_readme_config_example_loads(tmp_path):
    text = _README.read_text(encoding="utf-8")
    example = text.split("\n## CLI\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.json"
    path.write_text(example, encoding="utf-8")
    config = load_run_config(path)
    assert [spec.kind for spec in config.extractors] == ["rule_based", "llm", "llm", "llm", "ensemble"]


def test_extractor_id_outside_the_output_directory_writes_nothing(tmp_path):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "../../escaped", "kind": "rule_based"}])
    (tmp_path / "out" / "predictions").mkdir(parents=True)
    assert main(["--config", str(config), "extract"]) == 2
    assert not any((tmp_path / "out" / "predictions").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "corpus.jsonl", "gold.jsonl", "out"
    ]


def test_partial_priority_exits_2_naming_the_missing_members(tmp_path, capsys):
    policy = {"tie_break": "abstain", "priority": ["a"]}
    path, argv = _edited_config(lambda c: {**c, "extractors": _ensemble_policy(policy)})(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "priority order does not cover members: ['b']" in err
    assert not (tmp_path / "out").exists()


def test_run_config_that_is_not_json_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    path.write_text('{"corpus": ', encoding="utf-8")
    assert main(["--config", str(path), "extract"]) == 2
    assert f"error: {path}: invalid JSON" in capsys.readouterr().err


def _corpus_lines(tmp_path, *lines):
    docs = _small_corpus(tmp_path, n=1)
    good = json.dumps(docs[0].to_json())
    (tmp_path / "corpus.jsonl").write_text("".join(f"{line}\n" for line in (good, *lines)))
    return _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])


def _corpus_doc(**fields):
    doc = {"id": "d1", "source": "PROMED", "url": None, "published": None, "title": "t"}
    return json.dumps({**doc, "body": "Measles in France.", **fields})


@pytest.mark.parametrize(
    "bad",
    [
        "[1, 2]", _corpus_doc(id=""), _corpus_doc(source="RSS"), _corpus_doc(body=5),
        _corpus_doc(url=5),
    ],
    ids=["array", "empty-id", "unknown-source", "body-number", "url-number"],
)
def test_bad_corpus_line_exits_2_naming_the_file_and_line(tmp_path, capsys, bad):
    # The blank line is skipped but still counted, so the bad line is line 3.
    config = _corpus_lines(tmp_path, "", bad)
    assert main(["--config", str(config), "extract"]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "corpus.jsonl") in err and "line 3" in err
    assert not (tmp_path / "out").exists()


def test_blank_corpus_lines_are_skipped(tmp_path, capsys):
    config = _corpus_lines(tmp_path, "", "   ", _corpus_doc())
    assert main(["--config", str(config), "extract"]) == 0
    assert "rule: 2 records (2 new)" in capsys.readouterr().out
    assert [r["document_id"] for r in _predictions(tmp_path, "rule")] == ["d0", "d1"]


_ONE_PER_CLASS = [
    (EpixError("generic"), 2), (EmptyInput("empty"), 2), (SchemaError("bad", line=3), 2),
    (ConfigError("config"), 2), (BudgetExhausted("budget"), 2), (NoIsland("island"), 2),
    (OSError(errno.ENOSPC, "No space left on device", "f"), 2), (TransportError("t"), 3),
    (CacheMiss("miss"), 3), (AuthError("auth"), 3), (ExtractionFailed("d1", ValueError("v")), 3),
    (AlignmentError("align"), 4), (EmptyReport("empty"), 4),
]


@pytest.mark.parametrize(
    "error, code", _ONE_PER_CLASS, ids=[type(error).__name__ for error, _ in _ONE_PER_CLASS]
)
def test_each_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert main(["report", str(tmp_path / "report.json")]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_commands_require_config(capsys):
    assert main(["extract"]) == 2
    assert "--config" in capsys.readouterr().err


def test_global_output_and_mode_overrides(tmp_path):
    _small_corpus(tmp_path)
    config = _write_config(tmp_path, [{"id": "rule", "kind": "rule_based"}])
    other = tmp_path / "elsewhere"
    rc = main(["--config", str(config), "--output", str(other), "--mode", "replay", "extract"])
    assert rc == 0
    assert (other / "predictions" / "rule.jsonl").exists()
    parsed = load_run_config(config)
    assert parsed.transport_mode.value == "REPLAY"
