"""The benchmark tracer's targets still exist where it looks them up.

``bench/tracing.py`` wraps program functions by module and attribute path.
A target that was moved or renamed would not fail a traced run; its
per-layer figure would just read 0. These checks load the tracer as it is
and resolve every target the way it does.
"""

import importlib.util
from pathlib import Path

import pytest

import epix.annotator
from epix.corpus import Document, Source

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

TARGETS = [(module, path) for _, module, path, _ in tracing.TIMED] + [
    (module, path) for _, module, path in tracing.COUNTED
]


@pytest.mark.parametrize("module,path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_every_trace_target_resolves(module, path):
    owner, attr = tracing._owner(module, path)
    # A method is wrapped on the class that defines it, as the tracer does.
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(found) or isinstance(found, staticmethod), f"{module}.{path}"


ANNOTATOR_TARGETS = [path for _, module, path, _ in tracing.TIMED if module == "epix.annotator"]


@pytest.mark.parametrize("name", ANNOTATOR_TARGETS)
def test_rule_based_extractor_calls_traced_annotators_through_the_module(
    monkeypatch, gazetteer, name
):
    calls = []
    original = getattr(epix.annotator, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(epix.annotator, name, recording)
    doc = Document(
        id="d", source=Source.OTHER, title="", body="Ebola in Guinea on 3 May 2019; 15 cases."
    )
    epix.annotator.extract_rule_based(doc, gazetteer)
    assert calls == [name]
