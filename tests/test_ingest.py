"""Incremental ``epix ingest``: a re-ingest parses only new or changed raw
files, and the corpus it leaves is byte-identical to a fresh full ingest's."""

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epix import cli, state
from epix.cli import main
from epix.corpus import write_atomic

SOURCES = ["promed", "don"]

# Raw files as feeds deliver them: LF, CRLF and lone-CR line ends, non-ASCII
# text, bytes that are not UTF-8, plain posts and HTML articles.
BODIES = [
    b"Subject: Measles - France\nMeasles in France; 3 cases.\n",
    b"Subject: Cholera - Yemen\r\nCholera in Yemen on 2 March 2019;\r\n7 cases.\r\n",
    b"Subject: Ebola - Guinea\rEbola in Guinea\r12 cases\r",
    b"Subject: Dengue \xe2\x80\x93 Viet Nam\nDengue in Vi\xe1\xbb\x87t Nam; 40 cases.\n",
    b"Subject: Zika \xff\xfe\nZika in Brazil \xc3; 5 cases.\r\n\r",
    b"<html><head><title>Yellow fever \xe2\x80\x93 Angola</title></head>"
    b"<body><p>12 March 2016</p><p>Yellow fever in Angola: 51 cases.</p></body></html>",
    b"<p>Mpox | 3 June 2022</p>\r\n<p>Mpox in Nigeria &amp; Ghana; 21\xa0cases.</p>",
]
# Distinct stems; ``a-b.txt`` sorts before ``a.txt`` by name but after it by stem.
NAMES = ["a.txt", "a-b.txt", "b.html", "c.txt", "été.txt", "z.txt"]


def _ingest(source, raw: Path, out: Path) -> int:
    return main(["ingest", "--source", source, str(raw), "--out", str(out)])


def _sidecar(out: Path) -> Path:
    return out.with_name(out.name + ".state.json")


def _fresh(source, raw: Path, scratch: Path) -> bytes:
    """The corpus a full ingest of ``raw`` writes where no corpus was before."""
    out = scratch / "fresh.jsonl"
    out.unlink(missing_ok=True)
    _sidecar(out).unlink(missing_ok=True)
    assert _ingest(source, raw, out) == 0
    return out.read_bytes()


def _no_write(path, *args):
    raise AssertionError(f"wrote {path}")


def _count_parses(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in ("parse_promed_post", "parse_don_article"):
        real = getattr(cli, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def _raw_dir(tmp_path, names) -> Path:
    raw = tmp_path / "raw"
    raw.mkdir(exist_ok=True)
    for i, name in enumerate(names):
        (raw / name).write_bytes(BODIES[i % len(BODIES)])
    return raw


# --- the oracle: after any sequence of edits, a fresh full ingest's bytes ----------


def _put(raw, corpus, name, body):
    (raw / NAMES[name]).write_bytes(BODIES[body])


def _delete(raw, corpus, name):
    (raw / NAMES[name]).unlink(missing_ok=True)


def _rename(raw, corpus, name, to):
    source, target = raw / NAMES[name], raw / NAMES[to]
    if source.exists() and not target.exists():
        source.rename(target)


def _torn_append(raw, corpus, cut):
    """What an append stopped part-way leaves: the start of a line never finished."""
    if corpus.exists():
        corpus.write_bytes(corpus.read_bytes() + b'{"id": "torn", "source": "PROMED"'[:cut])


def _hand_edit(raw, corpus, index):
    lines = corpus.read_bytes().splitlines(keepends=True) if corpus.exists() else []
    if lines:
        i = index % len(lines)
        lines[i] = lines[i].replace(b'"body": "', b'"body": "edited ', 1)
        corpus.write_bytes(b"".join(lines))


def _whole_line_added(raw, corpus, index):
    lines = corpus.read_bytes().splitlines(keepends=True) if corpus.exists() else []
    if lines:
        copy = lines[index % len(lines)].replace(b'"id": "', b'"id": "x', 1)
        corpus.write_bytes(b"".join(lines) + copy)


def _drop_sidecar(raw, corpus):
    _sidecar(corpus).unlink(missing_ok=True)


def _torn_sidecar(raw, corpus, cut):
    """What a journal append stopped part-way leaves (or, cut deeper, damage)."""
    sidecar = _sidecar(corpus)
    if sidecar.exists():
        sidecar.write_bytes(sidecar.read_bytes()[:-cut])


_name = st.integers(0, len(NAMES) - 1)
_STEPS = st.one_of(
    st.tuples(st.just(_put), _name, st.integers(0, len(BODIES) - 1)),
    st.tuples(st.just(_delete), _name),
    st.tuples(st.just(_rename), _name, _name),
    st.tuples(st.just(_torn_append), st.integers(1, 30)),
    st.tuples(st.just(_hand_edit), st.integers(0, 9)),
    st.tuples(st.just(_whole_line_added), st.integers(0, 9)),
    st.tuples(st.just(_drop_sidecar)),
    st.tuples(st.just(_torn_sidecar), st.integers(1, 300)),
)


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=40)
@given(steps=st.lists(_STEPS, min_size=1, max_size=10))
def test_reingest_after_any_edits_writes_what_a_full_ingest_writes(source, steps):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        raw, corpus = tmp / "raw", tmp / "corpus.jsonl"
        raw.mkdir()
        for step, *args in steps:
            step(raw, corpus, *args)
            assert _ingest(source, raw, corpus) == 0
            assert corpus.read_bytes() == _fresh(source, raw, tmp), (step.__name__, args)


@pytest.mark.parametrize("source", SOURCES)
def test_scripted_edits_keep_the_corpus_equal_to_a_full_ingest(tmp_path, source, capsys):
    raw = _raw_dir(tmp_path, ["b.html", "c.txt"])
    corpus = tmp_path / "corpus.jsonl"
    steps = [
        lambda: None,  # the first ingest
        lambda: _put(raw, corpus, NAMES.index("z.txt"), 3),  # a daily file: appended
        lambda: _put(raw, corpus, NAMES.index("a.txt"), 1),  # sorts first: rewritten
        lambda: _put(raw, corpus, NAMES.index("c.txt"), 4),  # changed bytes
        lambda: _rename(raw, corpus, NAMES.index("b.html"), NAMES.index("a-b.txt")),
        lambda: _delete(raw, corpus, NAMES.index("a.txt")),
        lambda: _torn_append(raw, corpus, 12),
        lambda: _hand_edit(raw, corpus, 1),
        lambda: _whole_line_added(raw, corpus, 0),
        lambda: (raw / "z.txt").write_bytes(BODIES[2].replace(b"\r", b"\r\n")),
        lambda: _drop_sidecar(raw, corpus),
        lambda: _put(raw, corpus, NAMES.index("z.txt"), 0),
        lambda: _torn_sidecar(raw, corpus, 9),
    ]
    for i, step in enumerate(steps):
        step()
        assert _ingest(source, raw, corpus) == 0
        assert corpus.read_bytes() == _fresh(source, raw, tmp_path), i
    assert "ingested 3 documents" in capsys.readouterr().out


def test_decoded_text_is_what_read_text_gives(tmp_path):
    """Universal newlines and replaced bytes, exactly as ``Path.read_text`` decodes them."""
    for i, body in enumerate(BODIES):
        path = tmp_path / f"{i}.txt"
        path.write_bytes(body)
        assert cli._decode(body) == path.read_text(encoding="utf-8", errors="replace"), i


# --- cost: only new or changed files are parsed ---------------------------------------


@pytest.mark.parametrize("source", SOURCES)
def test_reingest_parses_only_the_new_files_and_appends_them(tmp_path, monkeypatch, source):
    raw = _raw_dir(tmp_path, ["a.txt", "b.txt", "c.txt"])
    corpus = tmp_path / "corpus.jsonl"
    parsed = _count_parses(monkeypatch)
    assert _ingest(source, raw, corpus) == 0
    assert sum(parsed.values()) == 3
    parser = "parse_promed_post" if source == "promed" else "parse_don_article"
    opened, replaced = [], []

    def spy_open(path, mode="r", *args):
        opened.append((Path(path).name, mode))
        return open(path, mode, *args)

    def spy_write(path, chunks):
        replaced.append(Path(path).name)
        return write_atomic(path, chunks)

    monkeypatch.setattr(state, "open", spy_open, raising=False)
    monkeypatch.setattr(state, "write_atomic", spy_write)
    for names in (["d.txt"], ["e.txt", "f.txt"]):
        for name in names:
            (raw / name).write_bytes(BODIES[4])
        before = corpus.read_bytes()
        parsed.clear()
        opened.clear()
        replaced.clear()
        assert _ingest(source, raw, corpus) == 0
        assert parsed == Counter({parser: len(names)})
        # Appended after the kept bytes, then the journal after its rows; nothing is replaced.
        assert opened == [("corpus.jsonl", "r+b"), ("corpus.jsonl.state.json", "r+b")]
        assert replaced == []
        assert corpus.read_bytes().startswith(before)
    monkeypatch.setattr(state, "open", _no_write, raising=False)
    monkeypatch.setattr(state, "write_atomic", _no_write)
    parsed.clear()
    assert _ingest(source, raw, corpus) == 0
    assert not parsed
    monkeypatch.undo()
    assert corpus.read_bytes() == _fresh(source, raw, tmp_path)


@pytest.mark.parametrize("four_keys", [False, True], ids=["two-key", "four-key"])
def test_old_one_object_sidecar_forces_a_full_ingest(tmp_path, monkeypatch, four_keys):
    raw = _raw_dir(tmp_path, ["a.txt", "b.txt", "c.txt"])
    corpus = tmp_path / "corpus.jsonl"
    assert _ingest("promed", raw, corpus) == 0
    journal = _sidecar(corpus).read_bytes()
    header, *rows = (json.loads(line) for line in journal.splitlines())
    # The one JSON object older versions wrote, with or without the whole file's length and SHA-256.
    old = dict(header)
    if four_keys:
        data = corpus.read_bytes()
        old |= {"length": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    old["documents"] = {doc_id: entry for doc_id, *entry in rows}
    _sidecar(corpus).write_text(json.dumps(old, separators=(",", ":")), encoding="utf-8")
    parsed = _count_parses(monkeypatch)
    assert _ingest("promed", raw, corpus) == 0
    assert sum(parsed.values()) == 3
    monkeypatch.undo()
    # Rewritten whole, as a journal.
    assert corpus.read_bytes() == _fresh("promed", raw, tmp_path)
    assert _sidecar(corpus).read_bytes() == journal


@pytest.mark.parametrize("source", SOURCES)
def test_one_changed_file_is_the_only_one_parsed(tmp_path, monkeypatch, source):
    raw = _raw_dir(tmp_path, ["a.txt", "b.txt", "c.txt"])
    corpus = tmp_path / "corpus.jsonl"
    assert _ingest(source, raw, corpus) == 0
    (raw / "b.txt").write_bytes(BODIES[5])
    parsed = _count_parses(monkeypatch)
    assert _ingest(source, raw, corpus) == 0
    assert sum(parsed.values()) == 1
    monkeypatch.undo()
    assert corpus.read_bytes() == _fresh(source, raw, tmp_path)


@pytest.mark.parametrize("change", ["code", "source"])
def test_changed_ingest_code_or_source_reparses_every_file(tmp_path, monkeypatch, change):
    raw = _raw_dir(tmp_path, ["a.txt", "b.txt", "c.txt"])
    corpus = tmp_path / "corpus.jsonl"
    assert _ingest("promed", raw, corpus) == 0
    source = "promed"
    if change == "code":
        monkeypatch.setattr(cli, "ingest_source_digest", lambda: "0" * 64)
    else:
        source = "don"
    parsed = _count_parses(monkeypatch)
    assert _ingest(source, raw, corpus) == 0
    assert sum(parsed.values()) == 3
    assert corpus.read_bytes() == _fresh(source, raw, tmp_path)


def test_ingest_source_digest_covers_corpus_and_normalize(monkeypatch, tmp_path):
    names = ("corpus.py", "normalize.py")
    for name in names:
        (tmp_path / name).write_bytes(Path(cli.__file__).with_name(name).read_bytes())
    monkeypatch.setattr(cli.annotator, "__file__", str(tmp_path / "annotator.py"))
    digests = set()
    try:
        for edited in (None, *names):
            if edited is not None:
                with open(tmp_path / edited, "a", encoding="utf-8") as fh:
                    fh.write("# edited\n")
            cli.ingest_source_digest.cache_clear()
            digests.add(cli.ingest_source_digest())
    finally:
        cli.ingest_source_digest.cache_clear()
    assert len(digests) == 3


# --- failures leave the corpus and its sidecar as they were ------------------------------


@pytest.mark.parametrize(
    "name, body", [("d.txt", b" \r\n\t"), ("a.html", BODIES[0])], ids=["empty", "twin-stem"]
)
def test_bad_raw_file_leaves_the_corpus_and_its_sidecar(tmp_path, name, body):
    raw = _raw_dir(tmp_path, ["a.txt", "b.txt", "c.txt"])
    corpus = tmp_path / "corpus.jsonl"
    assert _ingest("promed", raw, corpus) == 0
    before = corpus.read_bytes(), _sidecar(corpus).read_bytes()
    (raw / "b.txt").write_bytes(BODIES[4])  # a change that would be parsed
    (raw / name).write_bytes(body)
    assert _ingest("promed", raw, corpus) == 2
    assert (corpus.read_bytes(), _sidecar(corpus).read_bytes()) == before


@pytest.mark.parametrize("spelled", ["plain", "dotted"])
def test_out_inside_the_input_directory_exits_2_writing_nothing(tmp_path, capsys, spelled):
    raw = _raw_dir(tmp_path, ["a.txt"])
    out = raw / "corpus.jsonl" if spelled == "plain" else raw / ".." / "raw" / "corpus.jsonl"
    assert _ingest("promed", raw, out) == 2
    err = capsys.readouterr().err
    assert str(out) in err and str(raw) in err
    assert [p.name for p in raw.iterdir()] == ["a.txt"]


@pytest.mark.parametrize("spelled", ["plain", "dotted"])
def test_out_that_is_the_raw_input_file_exits_2_writing_nothing(tmp_path, capsys, spelled):
    raw = _raw_dir(tmp_path, ["a.txt"])
    post = raw / "a.txt"
    out = post if spelled == "plain" else raw / ".." / "raw" / "a.txt"
    assert _ingest("promed", post, out) == 2
    assert str(out) in capsys.readouterr().err
    assert post.read_bytes() == BODIES[0]
    assert [p.name for p in raw.iterdir()] == ["a.txt"]
