"""The benchmark: the paper loop and the serve daemon, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload loop-warm --seed 1 --seconds 15 --trace 0

Workloads:

* ``loop-warm``  — the paper's bootstrap loop (``PipelineConfig()``: 5
  iterations, semantic cleaning on) through ``PAEPipeline.run_streamed``
  over a ``JsonlPageSource`` of 200 ``vacuum_cleaner`` (ja) pages, with
  the prep cache filled by one untimed one-iteration run. The trainer
  and the semantic filter do most of the work; ingest, html and nlp
  almost none.
* ``loop-cold``  — the same loop over 500 ``garden_de`` (de, table-poor)
  pages, 10 % damaged by ``corpus.dirt.dirty_pages``; every run starts
  with an empty prep cache and a fresh checkpoint directory, so the
  gate, cache-store and checkpoint write paths run.
* ``serve-open`` — the serve daemon in its own process under open-loop
  Poisson arrivals from one load process over ``nproc`` persistent
  HTTP/1.1 connections: a 10 req/s reference step of 400 requests,
  then 30/60/120 req/s steps of 200 requests. The mix is held-out page
  HTML, text-only descriptions and 5 % dirty HTML (a structured 422).

Catalog content is fixed (one generator seed): the loop's output and
cost depend on page order, so reordering would change the workload.
The workload seed shapes the bytes of the batch catalogs (JSON key
order, escaping, separators), which must not change the output, and
the serve traffic (mix order, damaged requests, arrival times). Every
measured run is a fresh child interpreter with ``PYTHONHASHSEED``
fixed.

End-to-end metrics (every workload prints all of them):

* ``pages_per_s`` — batch: corpus pages ÷ wall time of ``run_streamed``;
  serve: responses completed per second at the 120 req/s step (the
  daemon's saturation throughput).
* ``setup_s`` — child start to ready, median of several set-ups. Batch:
  imports + source open + query-log load. Serve: imports +
  ``ModelRegistry.activate_latest`` (with warm-up) + bind, until the
  first ``/healthz`` 200.
* ``peak_rss_mb`` — peak summed PSS of the measured process tree (the
  run and its shard workers; the daemon), sampled from outside.
* ``precision``, ``coverage`` — ``evaluation.metrics.precision`` against
  the generator's truth and ``PipelineResult.coverage()``; serve: over
  the triples served for clean requests, and the share of clean
  responses carrying at least one triple.
* ``p50_ms``, ``tail_ms`` — serve: latency from each request's due time
  at the 10 req/s reference step; the tail is the highest percentile
  with ten samples beyond it (p97.5 of 400). Batch: a page's latency
  is its run's wall time, since every triple appears when the run ends.
* ``goodput_rps`` — serve: requests answered correctly within 100 ms per
  second at the highest step that passes (tail <= 100 ms, >= 99 % of
  sent requests correct within the limit, no growing backlog), else at
  the reference step. Batch: pages the ingest gate admitted per second.

``failed_share`` (shard tasks failed, requeued or poisoned plus failed
correctness checks ÷ attempted; for serve, errors, 429s, 5xx, timeouts
and oracle mismatches ÷ requests sent) is printed with the report and
carried by the result's ``attempted`` and ``failed``; it is zero on a
healthy commit, so it is not a bounded metric.

``--trace 0`` prints the end-to-end metrics. Batch workloads time fresh
runs until ``--seconds`` have passed (at least two) and report
medians; every page's triples appear when its run ends, so a page's
latency is its run's wall time. ``--trace 1`` runs the workload once
untraced and once with spans around each layer's public calls (serve:
a 200-request reference step each, no ladder), and prints the
per-layer metrics plus the tracing overhead (traced ÷ untraced wall;
for serve, the ratio of the reference-step median latencies).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable report
comes before it. A run whose load generator fell behind its schedule
is not a measurement: it exits with code 3 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request

from common import (
    BENCH_DIR,
    ROOT,
    STATE_DIR,
    PssSampler,
    child_env,
    median,
    percentile,
    tree_digest,
    tail_percentile,
    wait_until,
)
from loadgen import LATENCY_LIMIT_MS
from spans import Tracer, missing_layers

WORKLOADS = {
    "loop-warm": "paper loop over a ja catalog with a filled prep cache: "
    "trainer and semantic filter dominate",
    "loop-cold": "first run over a dirty de catalog: gate repairs and "
    "quarantines, prep-cache stores and checkpoint writes",
    "serve-open": "open-loop page uploads to the serve daemon: ingest, "
    "html, nlp, tag and serve do all the work",
}

#: name -> (unit, better, bound: how much worse than the parent
#: commit's median a change may read, as a share of that median).
#: Wall-clock metrics get a wide bound: on a shared 2-vCPU VM the
#: host's speed drifts by up to ~20 % over minutes (no steal time is
#: reported), which repetition inside one run cannot average out.
#: Memory and quality barely move between seeds.
END_TO_END = {
    "pages_per_s": ("pages/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "precision": ("ratio", "higher", 0.05),
    "coverage": ("ratio", "higher", 0.05),
    "p50_ms": ("ms", "lower", 0.25),
    "tail_ms": ("ms", "lower", 0.25),
    "goodput_rps": ("req/s", "higher", 0.25),
}

#: name -> (unit, better).
PER_LAYER = {
    "corpus.read_s": ("s", "lower"),
    "corpus.shards_read": ("count", "lower"),
    "ingest.gate_s": ("s", "lower"),
    "ingest.pages": ("count", "higher"),
    "ingest.repaired": ("count", "higher"),
    "ingest.quarantined": ("count", "lower"),
    "html.parse_s": ("s", "lower"),
    "html.parses": ("count", "lower"),
    "nlp.tokenize_s": ("s", "lower"),
    "nlp.sentences": ("count", "higher"),
    "preprocess.discover_s": ("s", "lower"),
    "preprocess.seed_s": ("s", "lower"),
    "preprocess.material_s": ("s", "lower"),
    "prep_cache.hits": ("count", "higher"),
    "prep_cache.misses": ("count", "lower"),
    "prep_cache.hit_ratio": ("ratio", "higher"),
    "prep_cache.load_s": ("s", "lower"),
    "prep_cache.store_s": ("s", "lower"),
    "features.featurize_s": ("s", "lower"),
    "features.rows": ("count", "lower"),
    "crf.train_s": ("s", "lower"),
    "crf.train_sentences": ("count", "higher"),
    "crf.estep_calls": ("count", "lower"),
    "crf.estep_s": ("s", "lower"),
    "crf.lbfgs_self_s": ("s", "lower"),
    "crf.tag_s": ("s", "lower"),
    "crf.tag_sentences": ("count", "higher"),
    "crf.viterbi_s": ("s", "lower"),
    "crf.tag_self_s": ("s", "lower"),
    "embeddings.train_s": ("s", "lower"),
    "embeddings.trains": ("count", "lower"),
    "cleaning.semantic_s": ("s", "lower"),
    "cleaning.merge_s": ("s", "lower"),
    "cleaning.core_self_s": ("s", "lower"),
    "cleaning.semantic_kept_ratio": ("ratio", "higher"),
    "cleaning.veto_s": ("s", "lower"),
    "cleaning.veto_discard_rate": ("ratio", "lower"),
    "pool.run_s": ("s", "lower"),
    "pool.tasks": ("count", "lower"),
    "pool.requeued": ("count", "lower"),
    "pool.poisoned": ("count", "lower"),
    "pool.busy_share": ("ratio", "higher"),
    "checkpoint.writes": ("count", "lower"),
    "checkpoint.write_s": ("s", "lower"),
    "storage.bytes_written": ("bytes", "lower"),
    "serve.handle_p50_ms": ("ms", "lower"),
    "serve.handle_tail_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.shed": ("count", "lower"),
    "serve.quarantined": ("count", "lower"),
    "serve.http_gap_p50_ms": ("ms", "lower"),
    "serve.http_gap_tail_ms": ("ms", "lower"),
    "registry.activate_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

#: Layers each workload must exercise: zero calls fails the traced run.
EXPECTED_LAYERS = {
    "loop-warm": (
        "prep_cache", "preprocess", "features", "crf.train", "crf.tag",
        "embeddings", "cleaning", "pool",
    ),
    "loop-cold": (
        "corpus", "ingest", "html", "nlp", "preprocess", "prep_cache",
        "features", "crf.train", "crf.tag", "embeddings", "cleaning",
        "pool", "checkpoint",
    ),
    "serve-open": (
        "ingest", "html", "nlp", "features", "crf.tag", "serve", "registry",
    ),
}

#: Pipeline stage -> the span covering the same work (cross-check).
STAGE_SPANS = {
    "seed_build": "preprocess.seed",
    "tagger_train": "crf.train",
    "tagger_tag": "crf.tag",
    "veto": "cleaning.veto",
    "semantic_clean": "cleaning.semantic",
    "checkpoint_write": "checkpoint.write",
}

#: Batch: fewest timed runs, most timed runs, wall budget of the phase.
MIN_RUNS, MAX_RUNS, BATCH_BUDGET_S = 2, 9, 100.0
#: Serve: (rate req/s, requests) after the reference step.
SERVE_LADDER = ((30, 200), (60, 200), (120, 200))
#: The reference step's size puts its tail percentile (p97.5) clear of
#: the ~5 % of requests that take an extra ~40 ms on a reused
#: connection, so the tail reads the same mode on every seed.
REFERENCE_RATE, REFERENCE_REQUESTS = 10, 400
#: Requests per traced reference step (its tail needs no cross-seed
#: stability; 200 still leaves ten samples beyond p95).
MIN_STEP_REQUESTS = 200
SERVE_GRACE_S = 1.0
#: Set-ups measured per run: daemon start-ups (the last one takes the
#: load), or batch runs' set-ups topped up with set-up-only children.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


class MeasurementInvalid(Exception):
    """The benchmark could not produce a valid measurement."""


# -- child processes -------------------------------------------------------


def _child(mode: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "child.py"), mode, *args]


def run_child(mode: str, *args: str, sample_pss: bool = False) -> dict:
    """Run one child to completion; returns its JSON result (+ peak PSS)."""
    out = args[args.index("--out") + 1] if "--out" in args else None
    started = time.monotonic()
    process = subprocess.Popen(
        _child(mode, *args, "--t0", repr(started)),
        env=child_env(), cwd=ROOT,
    )
    sampler = PssSampler(process.pid) if sample_pss else None
    try:
        if sampler is not None:
            with sampler:
                code = process.wait(timeout=CHILD_TIMEOUT_S)
        else:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise RuntimeError(f"child {mode} exited with code {code}")
    result = json.loads(open(out, encoding="utf-8").read()) if out else {}
    if sampler is not None:
        result["peak_pss_mib"] = sampler.peak_mib
    return result


class Daemon:
    """The serve daemon in its own process; stops when stdin closes."""

    def __init__(self, registry: str, trace_out: str | None = None):
        args = ["--registry", registry]
        if trace_out:
            args += ["--trace", "--out", trace_out]
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            _child("daemon", *args), env=child_env(), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("serve daemon exited before binding")
        self.port = int(line)
        healthy = wait_until(self._healthy, timeout=60.0)
        self.setup_s = time.monotonic() - self.started
        if not healthy:
            self.stop()
            raise RuntimeError("serve daemon never answered /healthz")

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}/healthz", timeout=5
            ) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# -- batch workloads -------------------------------------------------------


def _loop_run(work: str, corpus: str, label: str, cold: bool,
              spool: str | None = None, fill: bool = False) -> dict:
    args = ["--dir", corpus, "--out", os.path.join(work, f"{label}.json")]
    if fill:
        args.append("--fill")
    if cold:
        args += ["--cache", os.path.join(work, f"cache-{label}"),
                 "--checkpoint", os.path.join(work, f"ckpt-{label}")]
    else:
        args += ["--cache", os.path.join(work, "cache")]
    if spool:
        os.makedirs(spool, exist_ok=True)
        args += ["--spool", spool]
    return run_child("loop", *args, sample_pss=True)


def _census_check(run: dict, meta: dict) -> list[str]:
    """The gate's quarantine + repair census must equal the dirt ledger."""
    seen = dict(run["quarantined"])
    for check, count in run["repaired"].items():
        seen[check] = seen.get(check, 0) + count
    expected = meta["dirt_expected_checks"]
    if seen != expected:
        return [f"gate census {seen} != injected dirt {expected}"]
    return []


def batch_workload(name: str, seed: int, seconds: float, trace: bool,
                   work: str) -> dict:
    cold = name == "loop-cold"
    corpus = os.path.join(work, "corpus")
    run_child("gen-loop", "--workload", name, "--seed", str(seed),
              "--dir", corpus)
    meta = json.load(open(os.path.join(corpus, "meta.json")))
    runs, untimed = [], []
    if not cold:
        untimed.append(_loop_run(work, corpus, "fill", cold, fill=True))
    if trace:
        runs.append(_loop_run(work, corpus, "untraced", cold))
        traced = _loop_run(work, corpus, "traced", cold,
                           spool=os.path.join(work, "spool"))
    else:
        began = time.monotonic()
        while len(runs) < MAX_RUNS and (
            len(runs) < MIN_RUNS
            or (time.monotonic() - began < seconds
                and time.monotonic() - began < BATCH_BUDGET_S)
        ):
            runs.append(_loop_run(work, corpus, f"run{len(runs)}", cold))
        traced = None
        setups = [run["setup_s"] for run in untimed + runs]
        while len(setups) < SETUP_PROBES:
            setups.append(run_child(
                "loop", "--dir", corpus, "--setup-only", "--out",
                os.path.join(work, f"setup{len(setups)}.json"),
            )["setup_s"])
    every = runs + ([traced] if traced else [])
    problems = []
    digests = {run["digest"] for run in every}
    if len(digests) != 1:
        problems.append(f"triples digest differs between runs: {digests}")
    for run in every:
        if cold:
            problems += _census_check(run, meta)
        elif run["prep_cache"]["misses"]:
            problems.append(f"prep cache missed {run['prep_cache']} "
                            "after the fill run")
    tasks = sum(w["tasks"] for run in runs for w in run["waves"])
    failed_tasks = sum(
        w["requeued"] + w["poisoned"] + w["failed"]
        for run in runs for w in run["waves"]
    )
    report = {
        "digest": digests.pop() if len(digests) == 1 else None,
        "problems": problems,
        "attempted": max(1, tasks) + len(every),
        "failed": failed_tasks + len(problems),
    }
    if traced:
        report["layers"] = layer_metrics(traced["spans"], {})
        report["layers"]["trace.overhead"] = (
            traced["wall_s"] / runs[0]["wall_s"]
        )
        report["missing_layers"] = missing(traced["spans"], name)
        report["stage_totals"] = traced["stage_totals"]
        report["spans"] = traced["spans"]
        return report
    walls = [run["wall_s"] for run in runs]
    good = [
        (run["pages"] - sum(run["quarantined"].values())) / run["wall_s"]
        for run in runs
    ]
    page_latency_ms = [
        1000 * run["wall_s"] for run in runs for _ in range(run["pages"])
    ]
    report["metrics"] = {
        "pages_per_s": median([run["pages"] / w for run, w in zip(runs, walls)]),
        "setup_s": median(setups),
        "peak_rss_mb": median([run["peak_pss_mib"] for run in runs]),
        "precision": median([run["precision"] for run in runs]),
        "coverage": median([run["coverage"] for run in runs]),
        "p50_ms": median([1000 * w for w in walls]),
        "tail_ms": tail_percentile(page_latency_ms)[1],
        "goodput_rps": median(good),
    }
    report["samples"] = (
        f"{len(runs)} timed runs, {len(setups)} set-ups"
    )
    return report


# -- serve workload --------------------------------------------------------


def serve_plan(seed: int, trace: bool) -> dict:
    steps = [{
        "rate": REFERENCE_RATE,
        "count": MIN_STEP_REQUESTS if trace else REFERENCE_REQUESTS,
    }]
    if not trace:
        steps += [{"rate": r, "count": n} for r, n in SERVE_LADDER]
    for number, step in enumerate(steps):
        step["seed"] = seed * 1000 + number
    return {"steps": steps, "grace_s": SERVE_GRACE_S}


def _load(work: str, daemon: Daemon, plan: dict, label: str) -> dict:
    plan_path = os.path.join(work, f"plan-{label}.json")
    with open(plan_path, "w") as handle:
        json.dump(plan, handle)
    connections = len(os.sched_getaffinity(0))
    result = run_child(
        "load", "--plan", plan_path,
        "--dir", work,
        "--port", str(daemon.port), "--connections", str(connections),
        "--out", os.path.join(work, f"load-{label}.json"),
    )
    result["connections"] = connections
    for step in result["steps"]:
        if not step["generator_valid"]:
            raise MeasurementInvalid(
                f"load generator fell behind at {step['rate']} req/s "
                f"(lateness p99 {step['lateness_p99_ms']:.1f} ms)"
            )
    return result


def serve_workload(seed: int, trace: bool, work: str) -> dict:
    plan = serve_plan(seed, trace)
    total = sum(step["count"] for step in plan["steps"])
    run_child("serve-prep", "--seed", str(seed), "--dir", work,
              "--count", str(total))
    registry = os.path.join(work, "registry")
    loads, setups = [], []
    if trace:
        for label, trace_out in (
            ("untraced", None), ("traced", os.path.join(work, "spans.json"))
        ):
            daemon = Daemon(registry, trace_out)
            try:
                loads.append(_load(work, daemon, plan, label))
            finally:
                daemon.stop()
    else:
        for probe in range(SETUP_PROBES):
            daemon = Daemon(registry)
            setups.append(daemon.setup_s)
            if probe < SETUP_PROBES - 1:
                daemon.stop()
        try:
            with PssSampler(daemon.process.pid) as sampler:
                loads.append(_load(work, daemon, plan, "ladder"))
            peak = sampler.peak_mib
        finally:
            daemon.stop()
    steps = [step for load in loads for step in load["steps"]]
    failed = sum(step["failed"] for step in steps)
    problems = [
        f"{failure['id']}: got {failure['got']} expected {failure['expected']}"
        f" ({failure['error']})"
        for step in steps for failure in step["failures"]
    ]
    report = {
        "loads": loads,
        "problems": problems,
        "attempted": sum(step["sent"] for step in steps),
        "failed": failed,
    }
    if trace:
        spans = json.load(open(os.path.join(work, "spans.json")))
        traced_load = loads[1]
        report["layers"] = layer_metrics(spans, traced_load)
        report["layers"]["trace.overhead"] = (
            traced_load["steps"][0]["p50_ms"] / loads[0]["steps"][0]["p50_ms"]
        )
        report["missing_layers"] = missing(spans, "serve-open")
        report["stats"] = traced_load["stats"]
        return report
    load = loads[0]
    reference = load["steps"][0]
    passing = [step for step in load["steps"] if step["passed"]]
    report["metrics"] = {
        "pages_per_s": load["steps"][-1]["completed_rps"],
        "setup_s": median(setups),
        "peak_rss_mb": peak,
        "precision": load["quality"]["precision"],
        "coverage": load["quality"]["coverage"],
        "p50_ms": reference["p50_ms"],
        "tail_ms": reference["tail_ms"],
        "goodput_rps": (passing or [reference])[-1]["goodput_rps"],
    }
    report["samples"] = (
        f"{reference['sent']} requests at the reference step "
        f"(tail = p{reference['tail_p']:g}) over {load['connections']} "
        f"connections, {len(setups)} daemon start-ups; "
        f"highest step with tail <= {LATENCY_LIMIT_MS:g} ms, >= 99% "
        f"correct within it and no growing backlog: "
        f"{passing[-1]['rate'] if passing else 'none'} req/s"
    )
    return report


# -- per-layer metrics -----------------------------------------------------


def missing(spans: dict, workload: str) -> list[str]:
    return missing_layers(spans["totals"], EXPECTED_LAYERS[workload])


def layer_metrics(snapshot: dict, load: dict) -> dict[str, float]:
    """Per-layer metrics from a span snapshot (and, for serve, the load
    generator's per-request client times and the daemon's /stats)."""
    tracer = Tracer()
    tracer.merge(snapshot)
    secs, calls, counts = tracer.seconds, tracer.calls, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    hits = counts.get("prep_cache.hits", 0)
    misses = counts.get("prep_cache.misses", 0)
    handle = tracer.samples.get("serve.handle", [])
    queue_wait = tracer.samples.get("serve.queue_wait", [])
    gaps = [
        client - 1000 * tracer.handle_by_request[request]
        for step in load.get("steps", [])
        for request, client in step["client_ms"].items()
        if request in tracer.handle_by_request
    ]
    stats = load.get("stats", {})
    batcher = stats.get("batcher", {})
    counters = stats.get("counters", {})
    return {
        "corpus.read_s": secs("corpus.read"),
        "corpus.shards_read": counts.get("corpus.shards_read", 0),
        "ingest.gate_s": secs("ingest.gate"),
        "ingest.pages": counts.get("ingest.pages", 0),
        "ingest.repaired": counts.get("ingest.repaired", 0),
        "ingest.quarantined": counts.get("ingest.quarantined", 0),
        "html.parse_s": secs("html.parse"),
        "html.parses": counts.get("html.parses", 0),
        "nlp.tokenize_s": secs("nlp.tokenize"),
        "nlp.sentences": counts.get("nlp.sentences", 0),
        "preprocess.discover_s": secs("preprocess.discover"),
        "preprocess.seed_s": secs("preprocess.seed"),
        "preprocess.material_s": secs("preprocess.material"),
        "prep_cache.hits": hits,
        "prep_cache.misses": misses,
        "prep_cache.hit_ratio": ratio(hits, hits + misses),
        "prep_cache.load_s": secs("prep_cache.load"),
        "prep_cache.store_s": secs("prep_cache.store"),
        "features.featurize_s": secs("features.featurize"),
        "features.rows": counts.get("features.rows", 0),
        "crf.train_s": secs("crf.train"),
        "crf.train_sentences": counts.get("crf.train_sentences", 0),
        "crf.estep_calls": calls("crf.estep"),
        "crf.estep_s": secs("crf.estep"),
        "crf.lbfgs_self_s": secs("crf.train", self_time=True),
        "crf.tag_s": secs("crf.tag"),
        "crf.tag_sentences": counts.get("crf.tag_sentences", 0),
        "crf.viterbi_s": secs("crf.viterbi"),
        "crf.tag_self_s": secs("crf.tag", self_time=True),
        "embeddings.train_s": secs("embeddings.train"),
        "embeddings.trains": calls("embeddings.train"),
        "cleaning.semantic_s": secs("cleaning.semantic"),
        "cleaning.merge_s": secs("cleaning.merge"),
        "cleaning.core_self_s": secs("cleaning.semantic", self_time=True),
        "cleaning.semantic_kept_ratio": ratio(
            counts.get("cleaning.semantic_kept", 0),
            counts.get("cleaning.semantic_in", 0),
        ),
        "cleaning.veto_s": secs("cleaning.veto"),
        "cleaning.veto_discard_rate": ratio(
            counts.get("cleaning.veto_discarded", 0),
            counts.get("cleaning.veto_in", 0),
        ),
        "pool.run_s": secs("pool.run"),
        "pool.tasks": counts.get("pool.tasks", 0),
        "pool.requeued": counts.get("pool.requeued", 0),
        "pool.poisoned": counts.get("pool.poisoned", 0),
        "pool.busy_share": ratio(
            secs("pool.task"), counts.get("pool.slot_s", 0)
        ),
        "checkpoint.writes": calls("checkpoint.write"),
        "checkpoint.write_s": secs("checkpoint.write"),
        "storage.bytes_written": counts.get("storage.bytes_written", 0),
        "serve.handle_p50_ms": (
            1000 * percentile(handle, 50) if handle else 0.0
        ),
        "serve.handle_tail_ms": (
            1000 * tail_percentile(handle)[1] if handle else 0.0
        ),
        "serve.queue_wait_ms": (
            1000 * percentile(queue_wait, 50) if queue_wait else 0.0
        ),
        "serve.batch_size_mean": ratio(
            batcher.get("batched_jobs", 0), batcher.get("batches", 0)
        ),
        "serve.shed": counters.get("shed", 0),
        "serve.quarantined": counters.get("quarantined", 0),
        "serve.http_gap_p50_ms": percentile(gaps, 50) if gaps else 0.0,
        "serve.http_gap_tail_ms": (
            tail_percentile(gaps)[1] if gaps else 0.0
        ),
        "registry.activate_s": secs("registry.activate"),
    }


# -- report ----------------------------------------------------------------


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "git_sha": sha,
        "source_digest": tree_digest(ROOT / "src")[:16],
        "bench_digest": tree_digest(BENCH_DIR)[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pythonhashseed": child_env()["PYTHONHASHSEED"],
    }


def check_digest_ledger(workload: str, digest: str | None,
                        env: dict) -> list[str]:
    """A batch workload's triples digest must repeat across invocations
    on one program and benchmark tree, whatever the seed: the seed only
    changes how the catalog is serialized."""
    if digest is None:
        return []
    path = STATE_DIR / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = f"{env['source_digest']}:{env['bench_digest']}:{workload}"
    previous = ledger.setdefault(key, digest)
    path.write_text(json.dumps(ledger, indent=1))
    if previous != digest:
        return [f"triples digest {digest[:12]} differs from an earlier run "
                f"of this workload on this tree ({previous[:12]})"]
    return []


def print_report(workload: str, seed: int, env: dict, report: dict,
                 metrics: dict, units: dict, trace: bool) -> None:
    print(f"== perfbench {workload} seed={seed} trace={int(trace)}")
    print("env: " + json.dumps(env))
    share = report["failed"] / report["attempted"]
    print(f"failed_share: {share:.4f} ratio "
          f"({report['failed']} of {report['attempted']} attempted)")
    for problem in report["problems"]:
        print(f"CORRECTNESS: {problem}")
    if "samples" in report:
        print(f"samples: {report['samples']}")
    for load in report.get("loads", []):
        for step in load["steps"]:
            print(
                f"  step {step['rate']:>4} req/s: sent {step['sent']} "
                f"ok {step['ok']} failed {step['failed']} "
                f"missed {step['missed']} p50 {step['p50_ms']:.1f} ms "
                f"p{step['tail_p']:g} {step['tail_ms']:.1f} ms "
                f"goodput {step['goodput_rps']:.2f} req/s "
                f"passed={step['passed']} "
                f"lateness p99 {step['lateness_p99_ms']:.2f} ms"
            )
    if trace and "stage_totals" in report:
        print("cross-check: PipelineTrace.stage_totals() beside span totals"
              " (spans sum over worker processes)")
        totals = report["spans"]["totals"]
        for stage, seconds in sorted(report["stage_totals"].items()):
            span = STAGE_SPANS.get(stage)
            beside = (
                f"   span {span:<18} {totals.get(span, [0, 0.0])[1]:9.3f} s"
                if span else ""
            )
            print(f"  stage {stage:<18} {seconds:9.3f} s{beside}")
    if trace and "stats" in report:
        print("cross-check: daemon /stats counters "
              + json.dumps(report["stats"].get("counters", {})))
    for name, value in metrics.items():
        print(f"  {name:<30} {value:14.6g} {units[name]}")
    if report.get("missing_layers"):
        print("TRACE FAILED: no calls recorded in layers "
              + ", ".join(report["missing_layers"]))


def verdict(report: dict) -> bool:
    """Correct when every check passed and, for a traced run, every
    layer the workload exercises recorded at least one call."""
    return not report["problems"] and not report.get("missing_layers")


def _finite(value: float) -> float:
    """JSON has no infinity: a latency with no successful requests (all
    counted as missing the limit) is reported as 1e9."""
    return float(value) if math.isfinite(value) else 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = environment()
    STATE_DIR.mkdir(exist_ok=True)
    work = STATE_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-open":
            report = serve_workload(args.seed, trace, str(work))
        else:
            report = batch_workload(
                args.workload, args.seed, args.seconds, trace, str(work)
            )
            report["problems"] += check_digest_ledger(
                args.workload, report["digest"], env
            )
    except MeasurementInvalid as error:
        print(f"INVALID MEASUREMENT: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = report["layers"] if trace else report["metrics"]
    declared = PER_LAYER if trace else END_TO_END
    units = {name: spec[0] for name, spec in declared.items()}
    correct = verdict(report)
    print_report(args.workload, args.seed, env, report, metrics, units, trace)
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": _finite(metrics[name]), "unit": units[name]}
            for name in declared
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
