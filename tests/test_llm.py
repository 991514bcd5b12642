import http.client
import json
import socket
import ssl
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from epix.corpus import Document, ExtractionRecord, Source, json_line
from epix.errors import (
    AuthError,
    BudgetExhausted,
    CacheMiss,
    ConfigError,
    ExtractionFailed,
    NoIsland,
    TransportError,
)
from epix.llm import (
    ABSENT_MARKER,
    ANSWER_RESERVE_TOKENS,
    CHARS_PER_TOKEN,
    MESSAGE_OVERHEAD_TOKENS,
    OUTPUT_KEYS,
    ModelKind,
    ModelProfile,
    PromptTemplate,
    Demonstration,
    Sampling,
    Transport,
    TransportMode,
    build_messages,
    complete,
    default_registry,
    estimate_tokens,
    extract_documents,
    extract_json_island,
    extract_with_llm,
    load_template,
    _stringify,
    parse_fields,
    request_digest,
)
from epix.normalize import FIELD_TABLE


def _doc(body, doc_id="d1"):
    return Document(id=doc_id, source=Source.PROMED, title="t", body=body)


# --- model registry ----------------------------------------------------------


def test_registry_profiles():
    reg = default_registry(endpoint="http://example/v1")
    billion = 1_000_000_000
    expected = {
        "pythia-12b": (4096, 12 * billion, ModelKind.OPEN),
        "mpt-30b-chat": (8192, 30 * billion, ModelKind.OPEN),
        "llama-2-70b-chat": (4096, 70 * billion, ModelKind.OPEN),
        "mistral-7b-openorca": (4096, 7 * billion, ModelKind.OPEN),
        "zephyr-7b-alpha": (4096, 7 * billion, ModelKind.OPEN),
        "gpt-35-turbo-16k": (16384, None, ModelKind.COMMERCIAL),
        "gpt-4-32k": (32768, None, ModelKind.COMMERCIAL),
    }
    assert {
        name: (p.context_length, p.parameter_count, p.kind) for name, p in reg.items()
    } == expected


def test_profile_requires_positive_context():
    with pytest.raises(ConfigError):
        ModelProfile("x", 0, None, "http://e", ModelKind.OPEN)


# --- templates and message building ----------------------------------------------


def test_template_presets():
    zero = load_template("zero-shot")
    assert zero.shots == 0
    three = load_template("three-shot")
    assert three.shots == 3
    for demo in three.demonstrations:
        assert set(demo.answer) == set(OUTPUT_KEYS)
    with pytest.raises(ConfigError):
        load_template("five-shot")


def test_template_rejects_mismatched_demo_keys():
    with pytest.raises(ConfigError):
        PromptTemplate(
            name="bad",
            instruction="x",
            demonstrations=(Demonstration("e", {"virus": "a"}),),
        )


def test_zero_shot_message_structure():
    profile = default_registry()["pythia-12b"]
    build = build_messages(_doc("Short body."), load_template("zero-shot"), profile)
    assert [m["role"] for m in build.messages] == ["system", "user"]
    assert build.messages[-1]["content"] == "Short body."
    assert not build.truncated


def test_three_shot_message_structure():
    profile = default_registry()["pythia-12b"]
    build = build_messages(_doc("Short body."), load_template("three-shot"), profile)
    assert len(build.messages) == 8  # 1 instruction + 3 x (query, answer) + 1 query
    roles = [m["role"] for m in build.messages]
    assert roles == ["system", "user", "assistant", "user", "assistant", "user", "assistant", "user"]


def test_truncation_budget_arithmetic():
    profile = default_registry()["pythia-12b"]
    template = load_template("zero-shot")
    body = "x" * 100_000
    build = build_messages(_doc(body), template, profile)
    # oracle: compute the advertised budget formula independently
    overhead = estimate_tokens(template.instruction) + 2 * MESSAGE_OVERHEAD_TOKENS
    budget_chars = (profile.context_length - ANSWER_RESERVE_TOKENS - overhead) * CHARS_PER_TOKEN
    query = build.messages[-1]["content"]
    assert build.truncated
    assert len(query) == budget_chars
    assert query == body[:budget_chars]  # head-first truncation


def test_budget_exhausted():
    profile = ModelProfile("tiny", 64, None, "http://e", ModelKind.OPEN)
    with pytest.raises(BudgetExhausted):
        build_messages(_doc("body"), load_template("zero-shot"), profile)


# --- request digest -----------------------------------------------------------------


def test_digest_stable_and_byte_sensitive():
    messages = [{"role": "user", "content": "hello"}]
    a = request_digest("m", messages, Sampling())
    b = request_digest("m", [{"role": "user", "content": "hello"}], Sampling())
    assert a == b
    c = request_digest("m", [{"role": "user", "content": "hello!"}], Sampling())
    assert a != c
    d = request_digest("m", messages, Sampling(temperature=0.5))
    assert a != d


# --- json island extraction ------------------------------------------------------------


def test_island_in_prose():
    text = (
        'Sure! {"virus": "Nipah virus", "country": "India", "date": "2018-05-31",'
        ' "cases": "15"} hope this helps'
    )
    assert extract_json_island(text) == {
        "virus": "Nipah virus",
        "country": "India",
        "date": "2018-05-31",
        "cases": "15",
    }


def test_island_balance_rule():
    assert extract_json_island('{"a": {"b": 1}} trailing') == {"a": '{"b": 1}'}


def test_island_skips_garbage_braces():
    assert extract_json_island('{not json} then {"k": "v"}') == {"k": "v"}


def test_island_casefolds_keys_and_stringifies():
    assert extract_json_island('{"Virus": "x", "Cases": 15, "flag": true, "gone": null}') == {
        "virus": "x",
        "cases": "15",
        "flag": "true",
        "gone": "None",
    }


def test_no_island():
    with pytest.raises(NoIsland):
        extract_json_island("no braces at all")


@settings(max_examples=200)
@given(
    st.dictionaries(
        st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
        st.text(max_size=20),
        max_size=6,
    ),
    st.text(alphabet=st.characters(blacklist_characters="{}", blacklist_categories=["Cs"]), max_size=30),
    st.text(alphabet=st.characters(blacklist_characters="{}", blacklist_categories=["Cs"]), max_size=30),
)
def test_island_roundtrip_property(mapping, prefix, suffix):
    text = prefix + json.dumps(mapping, ensure_ascii=False) + suffix
    assert extract_json_island(text) == mapping


# --- parse_fields ----------------------------------------------------------------------


def test_parse_fields_contract(gazetteer):
    record = parse_fields(
        {"virus": "None", "country": "India", "date": "2018-05-31", "cases": "15"},
        "d1",
        "x",
        gazetteer,
    )
    assert record.disease is None
    assert record.country.alpha3 == "IND"
    assert record.date == date(2018, 5, 31)
    assert record.count.value == 15
    assert record.field_warnings == ()


def test_parse_fields_synonym_resolution(gazetteer):
    record = parse_fields({"virus": "EVD"}, "d1", "x", gazetteer)
    assert record.disease.display_name == "Ebola virus disease"
    assert record.disease_raw == "EVD"


def test_parse_fields_empty_map():
    record = parse_fields({}, "d1", "x")
    assert (record.disease, record.country, record.date, record.count) == (None,) * 4


def test_parse_fields_warns_on_unparseable(gazetteer):
    record = parse_fields({"virus": "mystery illness", "date": "someday"}, "d1", "x", gazetteer)
    assert record.disease is None
    assert record.disease_raw == "mystery illness"
    assert set(record.field_warnings) == {"disease", "date"}


def test_parse_fields_accepts_count_alias_and_numbers(gazetteer):
    record = parse_fields({"disease": "Zika", "count": 7}, "d1", "x", gazetteer)
    assert record.disease.canonical_id == "zika-virus"
    assert record.count.value == 7


def test_parse_fields_warns_on_a_numeral_too_long_to_convert(gazetteer):
    record = parse_fields({"virus": "Zika", "cases": "9" * 5000}, "d1", "x", gazetteer)
    assert (record.count, record.count_raw) == (None, "9" * 5000)
    assert record.field_warnings == ("count",)


def test_field_warnings_are_derived_never_built():
    with pytest.raises(TypeError):
        ExtractionRecord("d1", "x", disease_raw="mystery illness", field_warnings=("disease",))
    assert "warnings" not in parse_fields.__code__.co_varnames
    assert "ExtractionRecord" not in extract_with_llm.__code__.co_names


def _reference_warnings(field_map, gazetteer):
    """The reference rule for field warnings, written out field by field: the
    fields whose answer is present, not the absent marker, and not normalized."""
    folded = {str(key).casefold(): value for key, value in field_map.items()}
    warnings = []
    for name, row in FIELD_TABLE.items():
        raw = next((folded[key] for key in row.answer_keys if key in folded), None)
        if raw is not None:
            raw = _stringify(raw).strip()
        if not raw or raw.casefold() == ABSENT_MARKER.casefold():
            continue
        if row.normalize(raw, gazetteer) is None:
            warnings.append(name)
    return tuple(warnings)


_ANSWER_KEYS = sorted({key for row in FIELD_TABLE.values() for key in row.answer_keys})
_ANSWER_VALUES = st.one_of(
    st.sampled_from([
        "Ebola", "EVD", "Nipah virus", "India", "Viet Nam", "2019-06-11", "31 May 2018",
        "15", "about 15 deaths", "mystery illness", "Atlantis", "someday", "many",
        ABSENT_MARKER, "none", " NONE ", "", "   ", None, True,
    ]),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)


@given(
    st.dictionaries(
        st.sampled_from(_ANSWER_KEYS).flatmap(lambda key: st.sampled_from([key, key.upper()])),
        _ANSWER_VALUES,
        max_size=6,
    )
)
def test_parse_fields_warns_exactly_where_the_reference_rule_did(gazetteer, field_map):
    record = parse_fields(field_map, "d1", "x", gazetteer)
    assert record.field_warnings == _reference_warnings(field_map, gazetteer)
    assert ExtractionRecord.from_json(json.loads(json_line(record))) == record


# --- transport: replay, record, retries --------------------------------------------------


def test_replay_hit_and_miss(tmp_path):
    transport = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path)
    profile = default_registry()["llama-2-70b-chat"]
    messages = [{"role": "user", "content": "q"}]
    transport.put(profile, messages, Sampling(), "cached answer")
    assert complete(transport, profile, messages) == "cached answer"
    with pytest.raises(CacheMiss):
        complete(transport, profile, [{"role": "user", "content": "other"}])


def test_replay_requires_cache_dir():
    with pytest.raises(ConfigError):
        Transport(mode=TransportMode.REPLAY, cache_dir=None)


def test_record_miss_requires_credential(tmp_path, monkeypatch):
    monkeypatch.delenv("EPIX_API_KEY", raising=False)
    transport = Transport(mode=TransportMode.RECORD, cache_dir=tmp_path)
    profile = default_registry()["llama-2-70b-chat"]
    with pytest.raises(AuthError):
        complete(transport, profile, [{"role": "user", "content": "q"}])


def _ok_body(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def test_retries_two_503s_then_success(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(503, {}), (503, {}), (200, _ok_body("finally"))]
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport = Transport(
        mode=TransportMode.RECORD, cache_dir=tmp_path, max_attempts=3, backoff_base=0.0
    )
    profile = ModelProfile("m", 4096, None, endpoint, ModelKind.OPEN)
    assert complete(transport, profile, [{"role": "user", "content": "q"}]) == "finally"
    assert len(handler.seen) == 3


def test_retries_exhausted(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(503, {})]
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport = Transport(
        mode=TransportMode.RECORD, cache_dir=tmp_path, max_attempts=2, backoff_base=0.0
    )
    profile = ModelProfile("m", 4096, None, endpoint, ModelKind.OPEN)
    with pytest.raises(TransportError):
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert len(handler.seen) == 2


def test_auth_rejection_is_not_retried(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(401, {})]
    monkeypatch.setenv("EPIX_API_KEY", "bad")
    transport = Transport(
        mode=TransportMode.RECORD, cache_dir=tmp_path, max_attempts=3, backoff_base=0.0
    )
    profile = ModelProfile("m", 4096, None, endpoint, ModelKind.OPEN)
    with pytest.raises(AuthError):
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert len(handler.seen) == 1


def test_record_mode_writes_cache_then_replays(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(200, _ok_body("recorded"))]
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport = Transport(mode=TransportMode.RECORD, cache_dir=tmp_path, backoff_base=0.0)
    profile = ModelProfile("m", 4096, None, endpoint, ModelKind.OPEN)
    messages = [{"role": "user", "content": "q"}]
    assert complete(transport, profile, messages) == "recorded"
    entry = transport.read_cached(request_digest("m", messages, Sampling()))
    assert entry["request"]["model"] == "m"

    replay = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path)
    assert complete(replay, profile, messages) == "recorded"
    assert len(handler.seen) == 1


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
def test_cache_entry_in_another_unicode_encoding_is_corrupt(tmp_path, encoding):
    transport = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path)
    digest = request_digest("m", [{"role": "user", "content": "q"}], Sampling())
    entry = {"digest": digest, "request": {}, "response": _ok_body("answer")}
    path = transport.cache_path(digest)
    path.write_bytes(json.dumps(entry).encode(encoding))  # with a byte order mark
    assert json.loads(path.read_bytes()) == entry  # which json.loads alone would take
    with pytest.raises(TransportError, match=r"corrupt cache entry \(invalid UTF-8\)") as excinfo:
        transport.read_cached(digest)
    assert str(path) in str(excinfo.value)


def _record(endpoint, cache_dir, max_attempts=3):
    transport = Transport(
        mode=TransportMode.RECORD, cache_dir=cache_dir, max_attempts=max_attempts, backoff_base=0.0
    )
    return transport, ModelProfile("m", 4096, None, endpoint, ModelKind.OPEN)


def test_refused_connection_is_tried_max_attempts_times(monkeypatch, tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    connects = []
    connect = http.client.HTTPConnection.connect

    def counted(self):
        connects.append(self.port)
        return connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport, profile = _record(f"http://127.0.0.1:{port}/v1/chat/completions", tmp_path)
    with pytest.raises(TransportError, match="after 3 attempts"):
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert connects == [port] * 3


def test_server_closing_without_an_answer_is_retried(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(None, None), (200, _ok_body("second"))]
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport, profile = _record(endpoint, tmp_path)
    assert complete(transport, profile, [{"role": "user", "content": "q"}]) == "second"
    assert len(handler.seen) == 2


def test_request_carries_token_content_type_path_and_query(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(200, _ok_body("ok"))]
    monkeypatch.setenv("EPIX_API_KEY", "secret-key")
    transport, profile = _record(endpoint + "?api-version=2024-02-01", tmp_path)
    messages = [{"role": "user", "content": "q"}]
    assert complete(transport, profile, messages, Sampling(max_tokens=7)) == "ok"
    [(path, headers, body)] = handler.seen
    assert path == "/v1/chat/completions?api-version=2024-02-01"
    assert headers["Authorization"] == "Bearer secret-key"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {
        "model": "m", "messages": messages, "temperature": 0.0, "max_tokens": 7
    }


def test_redirect_is_not_followed(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(302, {})]
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport, profile = _record(endpoint, tmp_path)
    with pytest.raises(TransportError, match="HTTP 302"):
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert [path for path, _, _ in handler.seen] == ["/v1/chat/completions"]


def test_reply_that_is_not_json_is_not_retried(stub_server, monkeypatch, tmp_path):
    handler, endpoint = stub_server
    handler.responses = [(200, b"<html>busy</html>")]
    monkeypatch.setenv("EPIX_API_KEY", "k")
    transport, profile = _record(endpoint, tmp_path)
    with pytest.raises(TransportError) as excinfo:
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert endpoint in str(excinfo.value) and "HTTP 200" in str(excinfo.value)
    assert len(handler.seen) == 1


class _FakeHTTPS:
    """Stands in for ``http.client.HTTPSConnection``; ``fail`` is raised by each request."""

    opened = []
    fail = None

    def __init__(self, host, port, timeout, context):
        self.opened.append((host, port, context))

    def request(self, method, target, body, headers):
        if self.fail is not None:
            raise self.fail
        self.opened.append((method, target))

    def getresponse(self):
        reply = json.dumps(_ok_body("over tls")).encode()
        return type("Reply", (), {"status": 200, "read": lambda self: reply})()

    def close(self):
        pass


@pytest.fixture()
def fake_https(monkeypatch):
    class Fake(_FakeHTTPS):
        opened = []

    monkeypatch.setattr(http.client, "HTTPSConnection", Fake)
    monkeypatch.setenv("EPIX_API_KEY", "k")
    return Fake


def test_https_endpoint_opens_a_verified_tls_connection(fake_https, tmp_path):
    transport, profile = _record("https://localhost/v1/chat/completions", tmp_path)
    assert complete(transport, profile, [{"role": "user", "content": "q"}]) == "over tls"
    (host, port, context), request = fake_https.opened
    assert (host, port, request) == ("localhost", 443, ("POST", "/v1/chat/completions"))
    assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname


def test_failed_certificate_check_is_retried(fake_https, tmp_path):
    fake_https.fail = ssl.SSLCertVerificationError("certificate verify failed")
    transport, profile = _record("https://localhost/v1/chat/completions", tmp_path, max_attempts=2)
    with pytest.raises(TransportError, match="certificate verify failed"):
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert len(fake_https.opened) == 2


def test_key_that_a_header_cannot_carry_is_refused_without_showing_it(
    stub_server, monkeypatch, tmp_path
):
    handler, endpoint = stub_server
    monkeypatch.setenv("EPIX_API_KEY", "secret\nkey")
    monkeypatch.setattr("time.sleep", None)
    transport, profile = _record(endpoint, tmp_path)
    with pytest.raises(ConfigError, match="EPIX_API_KEY") as excinfo:
        complete(transport, profile, [{"role": "user", "content": "q"}])
    assert "secret" not in str(excinfo.value)
    assert handler.seen == []


@pytest.mark.parametrize(
    "endpoint",
    [
        "localhost:8080/v1/chat/completions",
        "ftp://127.0.0.1/v1",
        "http:///v1",
        "http://127.0.0.1/v1 chat",
        "http://127.0.0.1/v1/\u00e9",
    ],
    ids=["no-scheme", "ftp", "no-host", "space", "non-ascii"],
)
def test_endpoint_that_is_not_an_http_url_is_refused_before_any_request(
    endpoint, monkeypatch, tmp_path
):
    monkeypatch.setenv("EPIX_API_KEY", "k")
    monkeypatch.setattr(http.client, "HTTPConnection", None)
    monkeypatch.setattr("time.sleep", None)
    transport, profile = _record(endpoint, tmp_path)
    messages = [{"role": "user", "content": "q"}]
    with pytest.raises(ConfigError, match="EPIX_ENDPOINT") as excinfo:
        complete(transport, profile, messages)
    assert repr(endpoint) in str(excinfo.value)
    # Replay never looks at the endpoint.
    replay = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path)
    replay.put(profile, messages, Sampling(), "cached")
    assert complete(replay, profile, messages) == "cached"


# --- end-to-end extraction over replay ------------------------------------------------


def _seeded_transport(tmp_path, doc, template, profile, text):
    transport = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path)
    build = build_messages(doc, template, profile)
    transport.put(profile, build.messages, Sampling(), text)
    return transport


def test_extract_with_llm_full_record(tmp_path, gazetteer):
    doc = _doc("Nipah virus in India.")
    template = load_template("zero-shot")
    profile = default_registry()["llama-2-70b-chat"]
    transport = _seeded_transport(
        tmp_path, doc, template, profile,
        'Answer: {"virus": "Nipah virus", "country": "India", "date": "31 May 2018", "cases": "15"}',
    )
    record = extract_with_llm(doc, profile, template, transport, gazetteer=gazetteer)
    assert record.extractor_id == "llama-2-70b-chat"
    assert record.disease.canonical_id == "nipah-virus"
    assert record.date == date(2018, 5, 31)  # normalized from "31 May 2018"
    assert record.count.value == 15
    assert not record.parse_failure


def test_extract_with_llm_gibberish_flags_parse_failure(tmp_path, gazetteer):
    doc = _doc("whatever")
    template = load_template("zero-shot")
    profile = default_registry()["zephyr-7b-alpha"]
    transport = _seeded_transport(tmp_path, doc, template, profile, "cannot comply, sorry")
    record = extract_with_llm(doc, profile, template, transport, gazetteer=gazetteer)
    assert record.parse_failure
    assert (record.disease, record.country, record.date, record.count) == (None,) * 4


@pytest.mark.parametrize(
    "answer, parsed",
    [('{"virus": "Zika", "country": "Brazil"}', True), ("cannot comply, sorry", False)],
    ids=["parsed", "parse-failure"],
)
def test_extract_with_llm_flags_a_body_over_the_prompt_budget(tmp_path, gazetteer, answer, parsed):
    doc = _doc("Zika in Brazil. " + "x" * 100_000)
    template = load_template("zero-shot")
    profile = default_registry()["pythia-12b"]
    assert build_messages(doc, template, profile).truncated
    transport = _seeded_transport(tmp_path, doc, template, profile, answer)
    record = extract_with_llm(doc, profile, template, transport, gazetteer=gazetteer)
    assert record.truncated_input
    assert record.parse_failure is not parsed
    assert (record.disease is not None, record.country is not None) == (parsed, parsed)
    # The same answer to a body within the budget leaves the flag down.
    short = _doc("Zika in Brazil.", doc_id="d2")
    transport = _seeded_transport(tmp_path, short, template, profile, answer)
    record = extract_with_llm(short, profile, template, transport, gazetteer=gazetteer)
    assert not record.truncated_input


def test_extract_documents_preserves_order_and_reports_failures(tmp_path, gazetteer):
    template = load_template("zero-shot")
    profile = default_registry()["mistral-7b-openorca"]
    docs = [_doc(f"body {i}", doc_id=f"d{i}") for i in range(3)]
    transport = Transport(mode=TransportMode.REPLAY, cache_dir=tmp_path)
    for doc in docs[:2]:
        build = build_messages(doc, template, profile)
        transport.put(profile, build.messages, Sampling(), '{"virus": "Zika"}')

    with pytest.raises(ExtractionFailed) as excinfo:
        extract_documents(docs, profile, template, transport, gazetteer=gazetteer, concurrency=2)
    assert excinfo.value.document_id == "d2"
    completed = {r.document_id for r in excinfo.value.partial_records}
    assert completed == {"d0", "d1"}

    build = build_messages(docs[2], template, profile)
    transport.put(profile, build.messages, Sampling(), '{"virus": "Zika"}')
    records = extract_documents(docs, profile, template, transport, gazetteer=gazetteer)
    assert [r.document_id for r in records] == ["d0", "d1", "d2"]
    assert all(r.disease.canonical_id == "zika-virus" for r in records)
