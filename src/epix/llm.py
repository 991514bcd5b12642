"""Model-backed extraction over a chat-completion transport.

Covers the whole prompted path: few-shot message construction under a token
budget, an HTTP transport with retries and a record/replay response cache,
recovery of the answer object from free-form model text, and normalization
of the four answer fields into an ExtractionRecord.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence
from urllib.parse import urlsplit

from .corpus import Document, ExtractionRecord, write_atomic
from .errors import (
    AuthError,
    BudgetExhausted,
    CacheMiss,
    ConfigError,
    ExtractionFailed,
    NoIsland,
    TransportError,
)
from .gazetteer import Gazetteer
from .normalize import FIELD_TABLE

_DATA_DIR = Path(__file__).parent / "data"
API_KEY_ENV = "EPIX_API_KEY"
ENDPOINT_ENV = "EPIX_ENDPOINT"
_FALLBACK_ENDPOINT = "http://localhost:8080/v1/chat/completions"

OUTPUT_KEYS = tuple(row.answer_keys[0] for row in FIELD_TABLE.values())
ABSENT_MARKER = "None"

ANSWER_RESERVE_TOKENS = 512
MESSAGE_OVERHEAD_TOKENS = 4
CHARS_PER_TOKEN = 4


class ModelKind(str, Enum):
    OPEN = "OPEN"
    COMMERCIAL = "COMMERCIAL"


@dataclass(frozen=True)
class ModelProfile:
    name: str
    context_length: int
    parameter_count: Optional[int]
    endpoint: str
    kind: ModelKind

    def __post_init__(self):
        if self.context_length <= 0:
            raise ConfigError("context_length must be positive")


def default_endpoint() -> str:
    return os.environ.get(ENDPOINT_ENV) or _FALLBACK_ENDPOINT


def default_registry(endpoint: str | None = None) -> dict[str, ModelProfile]:
    """The stock model roster with published context windows and sizes."""
    endpoint = endpoint or default_endpoint()
    billion = 1_000_000_000
    profiles = [
        ModelProfile("pythia-12b", 4096, 12 * billion, endpoint, ModelKind.OPEN),
        ModelProfile("mpt-30b-chat", 8192, 30 * billion, endpoint, ModelKind.OPEN),
        ModelProfile("llama-2-70b-chat", 4096, 70 * billion, endpoint, ModelKind.OPEN),
        ModelProfile("mistral-7b-openorca", 4096, 7 * billion, endpoint, ModelKind.OPEN),
        ModelProfile("zephyr-7b-alpha", 4096, 7 * billion, endpoint, ModelKind.OPEN),
        ModelProfile("gpt-35-turbo-16k", 16384, None, endpoint, ModelKind.COMMERCIAL),
        ModelProfile("gpt-4-32k", 32768, None, endpoint, ModelKind.COMMERCIAL),
    ]
    return {profile.name: profile for profile in profiles}


# --- prompt templates ------------------------------------------------------


@dataclass(frozen=True)
class Demonstration:
    excerpt: str
    answer: Mapping[str, str]


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    instruction: str
    demonstrations: tuple[Demonstration, ...] = ()
    # The messages before the query and their token overhead, the query's own
    # framing included: derived from the fields above when the template is made.
    scaffold: tuple[tuple[dict, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for demo in self.demonstrations:
            if set(demo.answer) != set(OUTPUT_KEYS):
                raise ConfigError(
                    f"demonstration answer keys {sorted(demo.answer)} do not match "
                    f"output keys {list(OUTPUT_KEYS)}"
                )
        messages: list[dict] = [{"role": "system", "content": self.instruction}]
        for demo in self.demonstrations:
            messages.append({"role": "user", "content": demo.excerpt})
            messages.append({"role": "assistant", "content": _answer_text(demo.answer)})
        overhead = sum(
            estimate_tokens(m["content"]) + MESSAGE_OVERHEAD_TOKENS for m in messages
        )
        overhead += MESSAGE_OVERHEAD_TOKENS  # framing of the query message itself
        object.__setattr__(self, "scaffold", (tuple(messages), overhead))

    @property
    def shots(self) -> int:
        return len(self.demonstrations)


def load_template(preset: str) -> PromptTemplate:
    """Load a bundled prompt preset: "zero-shot" or "three-shot"."""
    instruction = (_DATA_DIR / "prompts" / "instruction_v1.txt").read_text(
        encoding="utf-8"
    ).strip()
    if preset == "zero-shot":
        return PromptTemplate(name=preset, instruction=instruction)
    if preset == "three-shot":
        raw = json.loads(
            (_DATA_DIR / "prompts" / "demonstrations_v1.json").read_text(encoding="utf-8")
        )
        demos = tuple(Demonstration(d["excerpt"], d["answer"]) for d in raw)
        if len(demos) != 3:
            raise ConfigError(f"three-shot preset needs 3 demonstrations, found {len(demos)}")
        return PromptTemplate(name=preset, instruction=instruction, demonstrations=demos)
    raise ConfigError(f"unknown template preset {preset!r}")


def estimate_tokens(text: str) -> int:
    return (len(text) + CHARS_PER_TOKEN - 1) // CHARS_PER_TOKEN


@dataclass(frozen=True)
class PromptBuild:
    messages: tuple[dict, ...]
    truncated: bool


def _answer_text(answer: Mapping[str, str]) -> str:
    ordered = {key: answer[key] for key in OUTPUT_KEYS}
    return json.dumps(ordered, ensure_ascii=False)


def build_messages(
    doc: Document, template: PromptTemplate, profile: ModelProfile
) -> PromptBuild:
    """Assemble chat messages, truncating the document to the token budget.

    The budget is the context window minus a fixed 512-token answer reserve
    and the scaffolding overhead (instruction, demonstrations, per-message
    framing), at 4 characters per token. The document keeps its head. The
    scaffold messages are the template's own, shared by every build, so a
    caller must not change them.
    """
    scaffold, overhead = template.scaffold
    budget_tokens = profile.context_length - ANSWER_RESERVE_TOKENS - overhead
    if budget_tokens <= 0:
        raise BudgetExhausted(
            f"template {template.name!r} needs {overhead} tokens plus the answer "
            f"reserve; nothing left of {profile.name}'s {profile.context_length}"
        )
    max_chars = budget_tokens * CHARS_PER_TOKEN
    truncated = len(doc.body) > max_chars
    messages = (*scaffold, {"role": "user", "content": doc.body[:max_chars]})
    return PromptBuild(messages=messages, truncated=truncated)


# --- transport -------------------------------------------------------------


class TransportMode(str, Enum):
    RECORD = "RECORD"
    REPLAY = "REPLAY"


@dataclass(frozen=True)
class Sampling:
    temperature: float = 0.0
    max_tokens: int = ANSWER_RESERVE_TOKENS


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Transport:
    """Chat-completion transport with retries and a response cache.

    Both modes answer from the cache, keyed by the request digest, when it
    holds the request; on a miss REPLAY fails and RECORD makes the call and
    persists its response.
    """

    mode: TransportMode = TransportMode.REPLAY
    cache_dir: Optional[Path] = None
    max_attempts: int = 3
    backoff_base: float = 0.5
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        self.mode = TransportMode(self.mode)
        if self.cache_dir is None:
            raise ConfigError(f"{self.mode.value} mode requires a cache_dir")
        self.cache_dir = Path(self.cache_dir)

    def cache_path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"

    def read_cached(self, digest: str) -> Optional[dict]:
        path = self.cache_path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            # Decoded first: json.loads would take UTF-16 and UTF-32 bytes as well.
            entry = json.loads(data.decode("utf-8"))
        except UnicodeDecodeError:
            raise TransportError(f"{path}: corrupt cache entry (invalid UTF-8)") from None
        except json.JSONDecodeError as exc:
            raise TransportError(f"{path}: corrupt cache entry ({exc.msg})") from None
        except RecursionError as exc:
            raise TransportError(f"{path}: corrupt cache entry ({exc})") from None
        if not isinstance(entry, dict) or "response" not in entry:
            raise TransportError(f"{path}: corrupt cache entry (no response)")
        return entry

    def write_cached(self, digest: str, request_body: dict, response_body: dict) -> None:
        entry = {"digest": digest, "request": request_body, "response": response_body}
        text = json.dumps(entry, ensure_ascii=False, indent=2) + "\n"
        with self._lock:
            path = self.cache_path(digest)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, [text.encode("utf-8")])

    def put(
        self,
        model: ModelProfile,
        messages: Sequence[Mapping],
        sampling: Sampling,
        response_text: str,
    ) -> str:
        """Seed the cache with a canned response; returns the digest.

        Useful for building replay fixtures without any network traffic.
        """
        request_body = _request_body(model.name, messages, sampling)
        digest = request_digest(model.name, messages, sampling)
        response_body = {"choices": [{"message": {"role": "assistant", "content": response_text}}]}
        self.write_cached(digest, request_body, response_body)
        return digest


def _request_body(model_name: str, messages: Sequence[Mapping], sampling: Sampling) -> dict:
    return {
        "model": model_name,
        "messages": [dict(m) for m in messages],
        "temperature": sampling.temperature,
        "max_tokens": sampling.max_tokens,
    }


def request_digest(model_name: str, messages: Sequence[Mapping], sampling: Sampling) -> str:
    """Stable digest over the full request; any message byte change alters it."""
    canonical = json.dumps(
        _request_body(model_name, messages, sampling),
        sort_keys=True, separators=(",", ":"), ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _content_of(response_body: dict, source: Callable[[], object]) -> str:
    """The model text of a reply; ``source()`` names a malformed reply's origin, lazily."""
    try:
        content = response_body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if type(content) is not str:
        raise TransportError(f"{source()}: malformed completion response: {response_body!r}")
    return content


def _endpoint_address(endpoint: str) -> tuple[bool, str, int, str]:
    """Whether an endpoint URL is https, and its host, port and request target.

    Anything but an http or https URL with a host, in printable ASCII
    without spaces as a request line needs it, is a ConfigError naming the
    endpoint.
    """
    try:
        parts = urlsplit(endpoint)
        port = parts.port
    except ValueError:
        parts = None
    if (
        parts is None
        or parts.scheme not in ("http", "https")
        or not parts.hostname
        or not (endpoint.isascii() and endpoint.isprintable())
        or " " in endpoint
    ):
        raise ConfigError(
            f"model endpoint {endpoint!r} is not an http:// or https:// URL with a host, "
            f"in printable ASCII without spaces (set {ENDPOINT_ENV})"
        )
    https = parts.scheme == "https"
    if port is None:
        port = 443 if https else 80
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return https, parts.hostname, port, target


def _warn(message: str, *args) -> None:
    # Imported here so that runs where no attempt fails never pay for loading it.
    import logging

    logging.getLogger(__name__).warning(message, *args)


@functools.cache
def _tls_context():
    """The default client context, certificates checked; built once, as it loads the CA store."""
    import ssl

    return ssl.create_default_context()


def complete(
    transport: Transport,
    model: ModelProfile,
    messages: Sequence[Mapping],
    sampling: Sampling = Sampling(),
) -> str:
    """Return the model text for one chat completion.

    The cache answers first: a hit returns its text, a miss raises
    CacheMiss in REPLAY and sends the request in RECORD, which caches the
    reply, and an unreadable entry is a TransportError naming its path.
    Each attempt opens one connection and closes it. Transient failures
    (connection errors, 429/5xx) are retried with exponential backoff up
    to the transport's attempt limit; redirects are not followed.
    """
    digest = request_digest(model.name, messages, sampling)
    entry = transport.read_cached(digest)
    if entry is not None:
        return _content_of(entry["response"], lambda: transport.cache_path(digest))
    if transport.mode is TransportMode.REPLAY:
        raise CacheMiss(f"no cached response for digest {digest}")

    https, host, port, target = _endpoint_address(model.endpoint)
    api_key = os.environ.get(API_KEY_ENV)
    if not api_key:
        raise AuthError(f"{API_KEY_ENV} is not set; required for {transport.mode.value} mode")
    # Imported here so that replay-only runs never pay for loading it.
    import http.client

    if https:
        connect = functools.partial(http.client.HTTPSConnection, context=_tls_context())
    else:
        connect = http.client.HTTPConnection
    request_body = _request_body(model.name, messages, sampling)
    payload = json.dumps(request_body).encode("utf-8")
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}

    last_error: Exception | None = None
    for attempt in range(transport.max_attempts):
        if attempt:
            time.sleep(transport.backoff_base * 2 ** (attempt - 1))
        conn = connect(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", target, body=payload, headers=headers)
            response = conn.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            _warn("attempt %d/%d failed: %s", attempt + 1, transport.max_attempts, exc)
            continue
        except ValueError:  # a refused Authorization header; the message would show the key
            raise ConfigError(
                f"{API_KEY_ENV} holds a character that an HTTP header cannot carry"
            ) from None
        finally:
            conn.close()
        if status in (401, 403):
            raise AuthError(f"endpoint rejected credential (HTTP {status})")
        if status != 200:
            error = TransportError(
                f"{model.endpoint}: HTTP {status}: {data[:200].decode('utf-8', 'replace')}"
            )
            if status not in _RETRYABLE_STATUSES:
                raise error
            last_error = error
            _warn("attempt %d/%d got HTTP %d", attempt + 1, transport.max_attempts, status)
            continue
        try:
            response_body = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise TransportError(f"{model.endpoint}: HTTP 200 reply is not JSON ({exc})") from None
        content = _content_of(response_body, lambda: model.endpoint)
        transport.write_cached(digest, request_body, response_body)
        return content
    raise TransportError(
        f"{model.endpoint}: request failed after {transport.max_attempts} attempts: {last_error}"
    )


# --- response parsing ------------------------------------------------------


def _stringify(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ABSENT_MARKER
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    return json.dumps(value, ensure_ascii=False)


def extract_json_island(text: str) -> dict[str, str]:
    """Recover the first balanced object embedded anywhere in model prose.

    Keys are casefolded and values stringified; nested structures survive as
    their serialized form. Raises NoIsland when no parseable object exists.
    """
    decoder = json.JSONDecoder()
    index = text.find("{")
    while index != -1:
        try:
            obj, _ = decoder.raw_decode(text, index)
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict):
            return {str(key).casefold(): _stringify(value) for key, value in obj.items()}
        index = text.find("{", index + 1)
    raise NoIsland("no balanced object found in response text")


def parse_fields(
    field_map: Mapping[str, object],
    doc_id: str,
    extractor_id: str,
    gazetteer: Gazetteer | None = None,
) -> ExtractionRecord:
    """Map an answer object's keys onto the record fields and normalize them.

    A missing key or the absent marker means the field is absent; a value
    that defeats normalization keeps its raw string, and so shows in the
    record's ``field_warnings``.
    """
    folded = {str(key).casefold(): value for key, value in field_map.items()}
    values: dict[str, object] = {}
    for name, row in FIELD_TABLE.items():
        raw = next((folded[key] for key in row.answer_keys if key in folded), None)
        if raw is not None:
            raw = _stringify(raw).strip()
        if not raw or raw.casefold() == ABSENT_MARKER.casefold():
            continue
        values[f"{name}_raw"] = raw
        values[name] = row.normalize(raw, gazetteer)
    return ExtractionRecord(
        document_id=doc_id,
        extractor_id=extractor_id,
        **values,
    )


def extract_with_llm(
    doc: Document,
    model: ModelProfile,
    template: PromptTemplate,
    transport: Transport,
    sampling: Sampling = Sampling(),
    extractor_id: str | None = None,
    gazetteer: Gazetteer | None = None,
) -> ExtractionRecord:
    """Prompt one model about one document and parse the structured answer.

    An unparseable response yields an all-absent record flagged as a parse
    failure rather than an error; transport problems do propagate.
    """
    build = build_messages(doc, template, model)
    text = complete(transport, model, build.messages, sampling)
    try:
        island, parse_failure = extract_json_island(text), False
    except NoIsland:
        island, parse_failure = {}, True
    record = parse_fields(island, doc.id, extractor_id or model.name, gazetteer=gazetteer)
    if parse_failure or build.truncated:
        record = replace(record, parse_failure=parse_failure, truncated_input=build.truncated)
    return record


def extract_each(
    docs: Sequence[Document], extract: Callable[[Document], ExtractionRecord]
) -> list[ExtractionRecord]:
    """``extract`` each document in turn, in the calling thread, in document order.

    The first failure raises ExtractionFailed carrying its cause and the
    records finished before it, so callers can persist progress.
    """
    done: list[ExtractionRecord] = []
    for doc in docs:
        try:
            done.append(extract(doc))
        except Exception as exc:
            raise ExtractionFailed(doc.id, exc, partial_records=done) from exc
    return done


def extract_documents(
    docs: Sequence[Document],
    model: ModelProfile,
    template: PromptTemplate,
    transport: Transport,
    sampling: Sampling = Sampling(),
    extractor_id: str | None = None,
    gazetteer: Gazetteer | None = None,
    concurrency: int = 4,
) -> list[ExtractionRecord]:
    """Extract a batch through ``extract_each``: in document order, stopping
    at the first failing document with the records before it.

    Replay, and record at ``concurrency`` 1, run in the calling thread:
    nothing waits on the network, so a pool would only add hand-offs.
    Otherwise up to ``concurrency`` requests are in flight; a failure
    cancels those not yet sent, and every reply received is cached.
    """
    if concurrency < 1:
        raise ConfigError("concurrency must be >= 1")

    def one(doc: Document) -> ExtractionRecord:
        return extract_with_llm(doc, model, template, transport, sampling, extractor_id, gazetteer)

    if transport.mode is TransportMode.REPLAY or concurrency == 1:
        return extract_each(docs, one)

    # Imported here so that runs without overlapping requests never pay for loading it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        # extract_each asks for the documents in order, so it reads the futures in order.
        answers = iter([pool.submit(one, doc) for doc in docs])
        try:
            return extract_each(docs, lambda doc: next(answers).result())
        finally:
            pool.shutdown(cancel_futures=True)
