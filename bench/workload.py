"""One workload run, in its own process: ``python3 bench/workload.py SPEC.json``.

``run.py`` writes the inputs and SPEC, then starts this process with
``PYTHONPATH`` pointing at the checkout's ``src``. It drives the real CLI
(``epix.cli.main``) in whole rounds until the time budget is spent:

1. ingest the base raw files, then ``extract`` into an empty output directory;
2. ``evaluate`` a few times against the base gold;
3. for each daily batch: add its raw files, re-ingest the raw directory and
   run ``extract`` again, which resumes over every earlier prediction.

After every round a fresh interpreter times the set-up every CLI command
pays, so those samples spread over the run like the others.

After every step it checks the outputs against what the generator knows,
apart from the program: one record per document and extractor, the planted
gold (``rules_long``), the fixture's records and k times the fixture's
confusion cells (k-copy corpora), stub-side request counts and a
record-then-replay round trip (``record_stub``), and no socket in replay.
The result goes to ``result.json`` in the work directory.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from epix.cli import main as epix_main

from tracing import Tracer, summarize, write_spans

FIELDS = ("disease", "country", "date", "count")

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import epix.cli
t1 = time.perf_counter()
epix.cli.load_run_config(sys.argv[1])
from epix.gazetteer import default_gazetteer
from epix.normalize import country_table
default_gazetteer()
country_table()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "gazetteer_s": t2 - t1}))
"""
REQUESTS_PROBE = """
import time
t0 = time.perf_counter()
import requests
print(time.perf_counter() - t0)
"""


def wchar() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def cli(*argv) -> int:
    """One CLI call; its stdout chatter is kept out of the written-bytes count."""
    with contextlib.redirect_stdout(io.StringIO()):
        return epix_main([str(a) for a in argv])


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def comparable(record: dict) -> dict:
    """A record without its document id and truncation flag, for copy-to-fixture checks."""
    out = dict(record, document_id=None)
    out["flags"] = dict(record["flags"], truncated_input=None)
    return out


class SocketGuard:
    """Counts and refuses every socket opened while installed (replay only)."""

    def __init__(self):
        self.attempts = 0
        self._real = socket.socket

    def _refuse(self, *args, **kwargs):
        self.attempts += 1
        raise OSError("network activity during a replay run")

    def __enter__(self):
        socket.socket = self._refuse
        return self

    def __exit__(self, *exc):
        socket.socket = self._real


class StubClient:
    def __init__(self, port: int):
        self.port = port

    def stats(self) -> Counter:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return Counter(json.loads(conn.getresponse().read()))
        finally:
            conn.close()


class Run:
    def __init__(self, spec: dict):
        self.spec = spec
        self.work = Path(spec["work"])
        self.inputs = self.work / "inputs"
        self.extractors = [e["id"] for e in spec["extractors"]]
        self.llm_ids = {e["id"] for e in spec["extractors"] if e["kind"] == "llm"}
        self.expect = spec["expect"]
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples = {"setup_s": [], "extract_docs_per_s": [], "evaluate_s": [], "resume_s": [],
                        "written_b": []}
        self.setup = {"import_s": [], "gazetteer_s": [], "requests_import_s": []}
        self.stub = StubClient(spec["stub_port"]) if spec.get("stub_port") else None
        self.reference: dict | None = None
        self.tracer = Tracer() if spec["trace"] else None
        self.last_spans: list[tuple] = []  # of the last traced round, written out at the end
        self.layer = {"summary": {}, "counts": Counter(), "docs": 0, "gold_docs": 0,
                      "resumes": [], "stub": Counter(), "entry_bytes": [],
                      "extract_s": {True: [], False: []}}

    # -- helpers ----------------------------------------------------------

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def config(self, round_dir: Path, gold: Path, cache: Path) -> Path:
        data = {
            "corpus": str(round_dir / "corpus.jsonl"),
            "gold": str(gold),
            "output_dir": str(round_dir / "out"),
            "match_mode": "strict_value",
            "concurrency": self.spec["concurrency"],
            "transport": dict(self.spec["transport"], cache_dir=str(cache)),
            "extractors": self.spec["extractors"],
        }
        path = round_dir / "run.json"
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")
        return path

    def add_raw(self, names: list[str], round_dir: Path) -> None:
        for name in names:
            rel = self.spec["files"][name]
            target = round_dir / "raw" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            os.link(self.inputs / "raw" / rel, target)

    def ingest(self, round_dir: Path) -> int:
        """Re-ingest every feed directory into the one corpus the config names."""
        feeds = sorted(p.name for p in (round_dir / "raw").iterdir())
        corpus = round_dir / "corpus.jsonl"
        if feeds == ["promed"]:
            return cli("ingest", "--source", "promed", round_dir / "raw" / "promed", "--out", corpus)
        parts = []
        for feed in feeds:
            part = round_dir / f"corpus-{feed}.jsonl"
            rc = cli("ingest", "--source", feed, round_dir / "raw" / feed, "--out", part)
            if rc:
                return rc
            parts.append(part.read_bytes())
        corpus.write_bytes(b"".join(parts))
        return 0

    # -- checks -----------------------------------------------------------

    def check_records(self, round_dir: Path, corpus: list[str], new: list[str], rc: int) -> None:
        """Exactly one record per corpus document for every extractor; new ones correct."""
        self.attempted += len(new) * len(self.extractors)
        if rc != 0:
            self.fail(f"extract exited {rc}")
            self.failed += len(new) * len(self.extractors)
            return
        new_set = set(new)
        for ext in self.extractors:
            records = read_records(round_dir / "out" / "predictions" / f"{ext}.jsonl")
            ids = [r["document_id"] for r in records]
            missing = new_set - set(ids)
            self.failed += len(missing)
            if len(ids) != len(set(ids)) or set(ids) != set(corpus):
                self.fail(f"{ext}: {len(ids)} records, {len(set(ids))} distinct ids, "
                          f"{len(corpus)} corpus documents")
            for record in records:
                if record["document_id"] in new_set:
                    self.check_record(ext, record)

    def check_record(self, ext: str, record: dict) -> None:
        doc_id = record["document_id"]
        expect = self.expect[doc_id]
        if "fixture" not in expect:  # planted gold
            got = {
                "disease": (record["disease"] or {}).get("canonical_id"),
                "country": (record["country"] or {}).get("alpha3"),
                "date": (record["date"] or {}).get("iso"),
                "count": (record["count"] or {}).get("value"),
            }
            if got != expect:
                self.fail(f"{ext}/{doc_id}: got {got}, planted {expect}")
            return
        ref = self.reference["records"][ext][expect["fixture"]]
        if comparable(record) != comparable(ref):
            self.fail(f"{ext}/{doc_id}: record differs from fixture {expect['fixture']}")
        truncated = expect["long"] and ext in self.llm_ids
        if record["flags"]["truncated_input"] != truncated:
            self.fail(f"{ext}/{doc_id}: truncated_input should be {truncated}")

    def check_report(self, round_dir: Path, rc: int) -> None:
        if rc != 0:
            self.fail(f"evaluate exited {rc}")
            return
        cells = json.loads((round_dir / "out" / "report.json").read_text())["cells"]
        for name in ("report.txt", "report.csv", "report.jsonl", "report_plot.csv"):
            if not (round_dir / "out" / name).stat().st_size:
                self.fail(f"empty {name}")
        for ext in self.extractors:
            for field in FIELDS:
                got = [cells[ext][field][k] for k in ("tp", "fp", "fn", "tn")]
                want = self.expected_cell(ext, field)
                if got != want:
                    self.fail(f"report {ext}/{field}: {got}, expected {want}")

    def expected_cell(self, ext: str, field: str) -> list[int]:
        if self.reference is None:  # planted gold: every present value is found
            golds = [self.expect[d][field] for d in self.spec["base"]]
            present = sum(v is not None for v in golds)
            return [present, 0, 0, len(golds) - present]
        cell = self.reference["cells"][ext][field]
        return [self.spec["k_base"] * cell[k] for k in ("tp", "fp", "fn", "tn")]

    # -- the reference fixture run (k = 1) ----------------------------------

    def run_reference(self) -> None:
        """Score the plain 10-document fixture once and check the published anchors."""
        ref_dir = self.work / "reference"
        shutil.copytree(self.inputs / "fixture", ref_dir / "raw" / "promed")
        config = self.config(ref_dir, self.inputs / "fixture_gold.jsonl", self.inputs / "ref_cache")
        rcs = [self.ingest(ref_dir), cli("--config", config, "--mode", "replay", "extract"),
               cli("--config", config, "--mode", "replay", "evaluate")]
        if any(rcs):
            raise RuntimeError(f"reference fixture run exited {rcs}")
        cells = json.loads((ref_dir / "out" / "report.json").read_text())["cells"]
        records = {
            ext: {r["document_id"]: r for r in read_records(ref_dir / "out" / "predictions" / f"{ext}.jsonl")}
            for ext in self.extractors
        }
        self.reference = {"cells": cells, "records": records}
        anchors = self.spec["anchors"]
        for field in FIELDS:
            cell = cells[anchors["ensemble"]][field]
            if (cell["precision"], cell["recall"], cell["f1"]) != (1.0, 1.0, 1.0):
                self.fail(f"fixture anchor: ensemble {field} P/R/F1 {cell}")
        for ext, field, want in anchors["cells"]:
            cell = cells[ext][field]
            if [cell[k] for k in ("tp", "fp", "fn", "tn")] != want:
                self.fail(f"fixture anchor: {ext}/{field} {cell}, expected {want}")
        shutil.rmtree(ref_dir)

    # -- rounds -----------------------------------------------------------

    def timed(self, step):
        """Run one CLI step; its exit code, wall time and the spans it recorded."""
        spans = self.tracer.spans if self.tracer is not None else []
        before = len(spans)
        start = time.perf_counter()
        rc = step()
        elapsed = time.perf_counter() - start
        return rc, elapsed, spans[before:]

    def probe_setup(self) -> None:
        """Time a fresh interpreter paying what every CLI command pays first."""
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, self.work / "run.json"],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-500:]}")
        inner = json.loads(done.stdout)
        self.samples["setup_s"].append(elapsed)
        self.setup["import_s"].append(inner["import_s"])
        self.setup["gazetteer_s"].append(inner["gazetteer_s"])
        if self.tracer is not None:
            done = subprocess.run([sys.executable, "-c", REQUESTS_PROBE],
                                  capture_output=True, text=True, timeout=60, check=True)
            self.setup["requests_import_s"].append(float(done.stdout))

    def round(self, index: int, traced: bool) -> Path:
        spec = self.spec
        round_dir = self.work / f"round-{index}"
        cache = (round_dir / "cache") if spec["transport"]["mode"] == "record" else self.inputs / "cache"
        round_dir.mkdir(parents=True)
        config = self.config(round_dir, self.inputs / "gold_base.jsonl", cache)
        stub_before = self.stub.stats() if self.stub else None
        if self.tracer is not None:
            self.tracer.reset()
            if traced:
                self.tracer.install()
        written = 0
        try:
            self.add_raw(spec["base"], round_dir)
            corpus = list(spec["base"])
            if self.ingest(round_dir):
                raise RuntimeError("initial ingest failed")

            w = wchar()
            rc, elapsed, _ = self.timed(lambda: cli("--config", config, "extract"))
            written += wchar() - w
            self.samples["extract_docs_per_s"].append(len(corpus) / elapsed)
            self.layer["extract_s"][traced].append(elapsed)
            self.check_records(round_dir, corpus, corpus, rc)

            for repeat in range(spec["evaluate_repeats"]):
                w = wchar()
                rc, elapsed, _ = self.timed(lambda: cli("--config", config, "evaluate"))
                if repeat == 0:
                    written += wchar() - w
                    self.check_report(round_dir, rc)
                self.samples["evaluate_s"].append(elapsed)

            for batch in spec["batches"]:
                self.add_raw(batch, round_dir)
                corpus += batch

                def resume():
                    return self.ingest(round_dir) or cli("--config", config, "extract")

                w = wchar()
                rc, elapsed, spans = self.timed(resume)
                written += wchar() - w
                self.samples["resume_s"].append(elapsed)
                if traced:
                    names = Counter(s[2] for s in spans)
                    self.layer["resumes"].append(
                        (names["ensemble.record_decode"], names["ensemble.record_encode"],
                         len(batch) * len(self.extractors))
                    )
                self.check_records(round_dir, corpus, batch, rc)
        finally:
            if self.tracer is not None and traced:
                self.tracer.remove()
        self.samples["written_b"].append(written)

        if self.stub:
            delta = self.stub.stats()
            delta.subtract(stub_before)
            delta["connections"] -= 1  # the /stats request that took the first snapshot
            requests = len(corpus) * len(self.llm_ids)
            if delta["ok"] != requests or delta["unknown"]:
                self.fail(f"stub answered {delta['ok']} requests ({delta['unknown']} unknown), "
                          f"expected {requests}")
            if delta["status_503"] != spec["flaky_per_round"]:
                self.fail(f"stub sent {delta['status_503']} 503s, expected {spec['flaky_per_round']}")
            if traced:
                self.layer["stub"].update(delta)
        if traced:
            self.collect_layers(len(corpus), cache)
        return round_dir

    def collect_layers(self, docs: int, cache: Path) -> None:
        layer = self.layer
        for name, entry in summarize(self.tracer.spans).items():
            total = layer["summary"].setdefault(name, {"calls": 0, "docs": 0, "ns": 0})
            for key in total:
                total[key] += entry[key]
        layer["counts"].update(self.tracer.counts())
        layer["docs"] += docs
        layer["gold_docs"] += len(self.spec["base"]) * self.spec["evaluate_repeats"]
        if cache.exists():
            sizes = [p.stat().st_size for p in cache.iterdir()]
            layer["entry_bytes"].append(sum(sizes) / len(sizes))
        self.last_spans = list(self.tracer.spans)

    def round_trip(self, round_dir: Path) -> None:
        """Replaying the recorded cache gives the records that recording gave."""
        rc = cli("--config", round_dir / "run.json", "--mode", "replay",
                 "--output", round_dir / "replayed", "extract")
        if rc != 0:
            self.fail(f"replay of the recorded cache exited {rc}")
            return
        for ext in self.extractors:
            recorded = (round_dir / "out" / "predictions" / f"{ext}.jsonl").read_bytes()
            replayed = (round_dir / "replayed" / "predictions" / f"{ext}.jsonl").read_bytes()
            if recorded != replayed:
                self.fail(f"{ext}: replayed records differ from recorded ones")

    def run(self) -> dict:
        spec = self.spec
        if spec["anchors"]:
            self.run_reference()
        self.config(self.work, self.inputs / "gold_base.jsonl", self.inputs / "cache")
        subprocess.run([sys.executable, "-c", SETUP_PROBE, self.work / "run.json"],
                       capture_output=True, timeout=60)  # fills a fresh checkout's bytecode caches
        guard = SocketGuard() if spec["transport"]["mode"] == "replay" else contextlib.nullcontext()
        deadline = time.perf_counter() + spec["seconds"]
        index = 0
        last = None
        with guard:
            # Whole rounds only; a traced run alternates untraced and traced
            # rounds and needs at least one of each for the overhead figure.
            while index < spec["min_rounds"] or time.perf_counter() < deadline:
                if last is not None:
                    shutil.rmtree(last)
                last = self.round(index, traced=bool(spec["trace"]) and index % 2 == 1)
                self.probe_setup()
                index += 1
        if isinstance(guard, SocketGuard) and guard.attempts:
            self.fail(f"{guard.attempts} socket(s) opened during replay")
        if spec["transport"]["mode"] == "record":
            self.round_trip(last)
        shutil.rmtree(last)
        result = {
            "rounds": index,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": not self.errors,
            "errors": self.errors,
            "samples": self.samples,
            "setup": self.setup,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self.tracer is not None:
            result["layers"] = self.layer_metrics()
            write_spans(self.last_spans, Path(spec["trace_path"]))
        return result

    def layer_metrics(self) -> dict[str, float]:
        layer = self.layer
        summary = layer["summary"]

        def per_call(name):
            entry = summary.get(name)
            return entry["ns"] / entry["calls"] / 1000 if entry else 0.0

        def per_doc(name):
            entry = summary.get(name)
            return entry["ns"] / entry["docs"] / 1000 if entry and entry["docs"] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        counts, stub = layer["counts"], layer["stub"]
        resumes = layer["resumes"]
        complete_calls = summary.get("llm.complete", {}).get("calls", 0)
        untraced = statistics.median(layer["extract_s"][False])
        traced = statistics.median(layer["extract_s"][True])
        return {
            "corpus.ingest_us_per_doc": per_doc("corpus.ingest"),
            "corpus.load_us_per_doc": per_doc("corpus.load"),
            "gazetteer.fold_calls_per_doc": ratio(counts["gazetteer.fold"], layer["docs"]),
            "gazetteer.resolve_key_calls_per_doc": ratio(counts["gazetteer.resolve_key"], layer["docs"]),
            "annotator.entities_us_per_doc": per_call("annotator.entities"),
            "annotator.counts_us_per_doc": per_call("annotator.counts"),
            "annotator.dates_us_per_doc": per_call("annotator.dates"),
            "annotator.filter_us_per_doc": per_call("annotator.filter"),
            "llm.build_messages_us": per_call("llm.build_messages"),
            "llm.digest_us": per_call("llm.digest"),
            "llm.island_us": per_call("llm.island"),
            "llm.parse_fields_us": per_call("llm.parse_fields"),
            "llm.extract_documents_us_per_doc": per_doc("llm.extract_documents"),
            "llm.extract_with_llm_us_per_doc": per_call("llm.extract_with_llm"),
            "llm.cache_read_us": per_call("llm.cache_read"),
            "llm.cache_write_us": per_call("llm.cache_write"),
            "llm.cache_entry_bytes": statistics.mean(layer["entry_bytes"]) if layer["entry_bytes"] else 0.0,
            "llm.complete_us": per_call("llm.complete"),
            "llm.attempts_per_completion": ratio(stub["requests"], complete_calls),
            "llm.connections_per_request": ratio(stub["connections"], stub["requests"]),
            "ensemble.vote_us_per_doc": per_call("ensemble.vote"),
            "ensemble.record_encode_us": per_call("ensemble.record_encode"),
            "ensemble.record_decode_us": per_call("ensemble.record_decode"),
            "evaluation.evaluate_us_per_doc": per_doc("evaluation.evaluate"),
            "evaluation.values_match_calls_per_doc": ratio(counts["evaluation.values_match"], layer["gold_docs"]),
            "evaluation.render_us": per_call("evaluation.render"),
            "cli.records_loaded_per_resume": statistics.mean(r[0] for r in resumes) if resumes else 0.0,
            "cli.records_written_per_resume": statistics.mean(r[1] for r in resumes) if resumes else 0.0,
            "cli.records_new_per_resume": statistics.mean(r[2] for r in resumes) if resumes else 0.0,
            "trace.overhead_pct": (traced / untraced - 1) * 100,
        }


def main(argv: list[str]) -> int:
    spec_path = Path(argv[0])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result = Run(spec).run()
    (spec_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
