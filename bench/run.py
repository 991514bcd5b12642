"""Benchmark entry point.

    python3 bench/run.py --workload rules_long --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. It builds the workload's inputs from the
seed under ``.bench_work/``, seeds the model caches or starts the stub, runs
the workload in a child process (``workload.py``) and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
a run that wraps the program's public functions. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpora
from stub import request_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("rules_long", "replay_ensemble", "record_stub")
CHILD_DEADLINE_S = 170  # every run ends within 180 s

# The paper's open ensemble: three open models (Mistral prompted three-shot)
# and their majority vote. The zero-shot Mistral rides along in replay so
# that both prompt presets are read and the evaluation is five-way.
MEMBERS = ("llama-2-70b-chat", "mistral-7b-openorca-3shot", "zephyr-7b-alpha")
LLM_EXTRACTORS = (
    {"id": "llama-2-70b-chat", "kind": "llm", "model": "llama-2-70b-chat", "template": "zero-shot"},
    {"id": "mistral-7b-openorca", "kind": "llm", "model": "mistral-7b-openorca", "template": "zero-shot"},
    {"id": "mistral-7b-openorca-3shot", "kind": "llm", "model": "mistral-7b-openorca", "template": "three-shot"},
    {"id": "zephyr-7b-alpha", "kind": "llm", "model": "zephyr-7b-alpha", "template": "zero-shot"},
)
ENSEMBLE = {
    "id": "open-ensemble",
    "kind": "ensemble",
    "members": list(MEMBERS),
    "policy": {"min_agreement": 2, "tie_break": "priority_order", "priority": list(MEMBERS)},
}
# Acceptance-suite anchors on the 10-document fixture (criterion 5).
ANCHORS = {
    "ensemble": "open-ensemble",
    "cells": [
        ["mistral-7b-openorca", "count", [7, 2, 0, 1]],
        ["mistral-7b-openorca-3shot", "count", [7, 2, 0, 1]],
        ["llama-2-70b-chat", "disease", [8, 0, 1, 1]],
    ],
}
FLAKY_EVERY = 8  # one completion in 8 meets a 503 before it succeeds

# Input sizes: base documents, daily batches, evaluate repeats per round.
SIZES = {
    "full": {
        "rules_long": {"base": 48, "batches": 4, "batch": 6, "evaluate_repeats": 10},
        "replay_ensemble": {"base": 24, "batches": 4, "batch": 2, "evaluate_repeats": 5},
        "record_stub": {"base": 8, "batches": 4, "batch": 1, "evaluate_repeats": 5},
    },
    "tiny": {
        "rules_long": {"base": 4, "batches": 1, "batch": 2, "evaluate_repeats": 1},
        "replay_ensemble": {"base": 1, "batches": 1, "batch": 1, "evaluate_repeats": 1},
        "record_stub": {"base": 1, "batches": 1, "batch": 1, "evaluate_repeats": 1},
    },
}
class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = "127.0.0.1,localhost"
    env["EPIX_API_KEY"] = "bench"
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


# --- inputs --------------------------------------------------------------


def build_inputs(workload: str, seed: int, size: dict) -> corpora.Inputs:
    if workload == "rules_long":
        return corpora.rules_long_inputs(seed, size["base"], size["batches"], size["batch"])
    return corpora.fixture_copy_inputs(seed, size["base"], size["batches"], size["batch"])


def extractors_for(workload: str) -> list[dict]:
    if workload == "rules_long":
        return [{"id": "rule-based", "kind": "rule_based"}]
    return [*LLM_EXTRACTORS, ENSEMBLE]


def prepare_models(work: Path, inputs: corpora.Inputs, workload: str) -> dict:
    """Seed the replay caches, or the stub's answer table, from the canned answers."""
    sys.path.insert(0, str(SRC))
    from epix.cli import main as epix_main
    from epix.corpus import load_corpus
    from epix.llm import Sampling, Transport, TransportMode, build_messages, default_registry, load_template

    registry = default_registry()
    canned = corpora.canned_answers()
    fixture = {doc.name: doc.expect["fixture"] for doc in inputs.all_docs}
    fixture.update({stem: stem for stem, _ in corpora.fixture_docs()})

    def prompts(raw_dir: Path):
        corpus = work / "prepare.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = epix_main(["ingest", "--source", "promed", str(raw_dir), "--out", str(corpus)])
        if rc != 0:
            raise BenchError(f"ingest of {raw_dir} failed")
        for doc in load_corpus(corpus):
            for spec in LLM_EXTRACTORS:
                profile = registry[spec["model"]]
                build = build_messages(doc, load_template(spec["template"]), profile)
                yield profile, build.messages, canned[spec["model"]][fixture[doc.id]]

    def seed_cache(raw_dir: Path, cache: Path):
        transport = Transport(mode=TransportMode.RECORD, cache_dir=cache)
        for profile, messages, answer in prompts(raw_dir):
            transport.put(profile, messages, Sampling(), answer)

    inputs_dir = work / "inputs"
    seed_cache(inputs_dir / "fixture", inputs_dir / "ref_cache")
    if workload == "replay_ensemble":
        seed_cache(inputs_dir / "raw" / "promed", inputs_dir / "cache")
        return {}
    table = {}
    for i, (profile, messages, answer) in enumerate(prompts(inputs_dir / "raw" / "promed")):
        table[request_key(profile.name, messages)] = {"answer": answer, "flaky": i % FLAKY_EVERY == 0}
    (work / "stub_table.json").write_text(json.dumps(table), encoding="utf-8")
    return {"flaky_per_round": sum(e["flaky"] for e in table.values())}


def write_inputs(work: Path, workload: str, seed: int, size: dict, trace: int, seconds: float) -> dict:
    inputs = build_inputs(workload, seed, size)
    inputs_dir = work / "inputs"
    corpora.write_raw(inputs.all_docs, inputs_dir / "raw")
    corpora.write_gold(inputs.base, inputs_dir / "gold_base.jsonl")
    spec = {
        "work": str(work),
        "seconds": seconds,
        "trace": trace,
        "min_rounds": 2 if trace else 1,
        "trace_path": str(ROOT / ".bench_out" / f"trace-{workload}-{seed}.jsonl"),
        "concurrency": 2,
        "extractors": extractors_for(workload),
        "evaluate_repeats": size["evaluate_repeats"],
        "k_base": size["base"],
        "base": [doc.name for doc in inputs.base],
        "batches": [[doc.name for doc in batch] for batch in inputs.batches],
        "files": {doc.name: f"{doc.feed}/{doc.name}{'.html' if doc.feed == 'don' else '.txt'}"
                  for doc in inputs.all_docs},
        "expect": {doc.name: doc.expect for doc in inputs.all_docs},
        "anchors": None,
        "stub_port": None,
    }
    if workload == "rules_long":
        spec["transport"] = {"mode": "replay"}
        return spec
    fixture_dir = inputs_dir / "fixture"
    fixture_dir.mkdir(parents=True)
    for stem, raw in corpora.fixture_docs():
        (fixture_dir / f"{stem}.txt").write_text(raw, encoding="utf-8")
    shutil.copy(corpora.E2E_GOLD, inputs_dir / "fixture_gold.jsonl")
    spec["anchors"] = ANCHORS
    if workload == "replay_ensemble":
        spec["transport"] = {"mode": "replay"}
    else:
        spec["transport"] = {"mode": "record", "max_attempts": 4, "backoff_base": 0.002}
    spec.update(prepare_models(work, inputs, workload))
    return spec


# --- the run ---------------------------------------------------------------


def start_stub(work: Path) -> tuple[subprocess.Popen, int]:
    stub = subprocess.Popen(
        [sys.executable, str(BENCH / "stub.py"), str(work / "stub_table.json")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), text=True,
    )
    line = stub.stdout.readline().strip()
    if not line.isdigit():
        stop(stub)
        raise BenchError("stub did not report its port")
    return stub, int(line)


def stop(proc: subprocess.Popen | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_child(work: Path, spec: dict, budget: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = child_env()
    if spec["stub_port"]:
        env["EPIX_ENDPOINT"] = f"http://127.0.0.1:{spec['stub_port']}/v1/chat/completions"
    log_path = work / "workload.log"
    with open(log_path, "wb") as log:
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "workload.py"), str(spec_path)],
            stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=work,
        )
        try:
            rc = child.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload did not finish within {budget:.0f} s") from None
        finally:
            stop(child)
    result_path = work / "result.json"
    if rc != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchError(f"workload exited {rc}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(result: dict) -> dict[str, float]:
    samples = result["samples"]
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "extract_docs_per_s": statistics.median(samples["extract_docs_per_s"]),
        "resume_s": statistics.median(samples["resume_s"]),
        "evaluate_s": statistics.median(samples["evaluate_s"]),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "written_mb": statistics.median(samples["written_b"]) / 1e6,
    }


def per_layer(result: dict) -> dict[str, float]:
    setup = result["setup"]
    return {
        "setup.import_s": statistics.median(setup["import_s"]),
        "setup.requests_import_s": statistics.median(setup["requests_import_s"]),
        "setup.gazetteer_s": statistics.median(setup["gazetteer_s"]),
        **result["layers"],
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    # A terminated run still stops its stub and workload and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "epix" / "cli.py").is_file() or not corpora.E2E_RAW.is_dir():
        print(f"error: {ROOT} is not an epix checkout (needs src/epix and tests/fixtures)",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    size = SIZES[args.size][args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    try:
        spec = write_inputs(work, args.workload, args.seed, size, args.trace, args.seconds)
        if args.workload == "record_stub":
            stub, spec["stub_port"] = start_stub(work)
        budget = CHILD_DEADLINE_S - (time.perf_counter() - started)
        result = run_child(work, spec, budget)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop(stub)
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer(result) if args.trace else end_to_end(result)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {result['rounds']} rounds", file=sys.stderr)
    for name, samples in result["samples"].items():
        low, mid, high = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        print(f"  {name}: {len(samples)} samples, quartiles {low:.4g} {mid:.4g} {high:.4g}",
              file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
