"""Layer spans recorded from outside the program.

:func:`install` wraps public functions and methods of each layer
(named after ``src/repro`` modules) with a timing wrapper that feeds a
:class:`Tracer`. Nothing inside the program changes: the wrappers are
swapped into the defining module or class and into every loaded
``repro`` module that imported the name by value.

Spans nest per thread. A span's self time is its duration minus the
time of the spans it directly contains; a call nested inside a span of
the same name is not counted again. Forked shard workers inherit the
wrappers; each worker writes its totals to a spool directory when it
exits and :func:`merge_spool` folds them into the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import pathlib
import pkgutil
import re
import sys
import threading
import time

#: Layer -> span names whose calls show the layer was exercised.
LAYER_SPANS = {
    "corpus": ("corpus.read",),
    "ingest": ("ingest.gate",),
    "html": ("html.parse",),
    "nlp": ("nlp.tokenize",),
    "preprocess": (
        "preprocess.discover", "preprocess.seed", "preprocess.material",
    ),
    "prep_cache": ("prep_cache.load",),
    "features": ("features.featurize",),
    "crf.train": ("crf.train",),
    "crf.tag": ("crf.tag",),
    "embeddings": ("embeddings.train",),
    "cleaning": ("cleaning.semantic", "cleaning.veto"),
    "pool": ("pool.run",),
    "checkpoint": ("checkpoint.write",),
    "serve": ("serve.handle",),
    "registry": ("registry.activate",),
}

_PRODUCT_ID_RE = re.compile(rb'"product_id":\s*"([^"]*)"')


class Tracer:
    """Span and counter totals of one process (plus merged workers).

    ``totals[name] = [calls, inclusive_s, self_s]``; ``counts`` holds
    layer counters; ``samples`` keeps per-call durations for the spans
    whose distribution is reported.
    """

    def __init__(self, spool_dir: str | None = None):
        self.spool_dir = spool_dir
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.handle_by_request: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pending_jobs: dict[int, float] = {}

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list) -> float:
        stack = self._stack()
        stack.pop()
        duration = time.perf_counter() - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            row = self.totals.setdefault(frame[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[2]
        return duration

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, [0])[0])

    def seconds(self, name: str, self_time: bool = False) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2 if self_time else 1]

    # -- worker processes ----------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start empty, flush to the spool at exit."""
        self.totals, self.counts, self.samples = {}, {}, {}
        self.handle_by_request = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        if self.spool_dir is None:
            return
        path = pathlib.Path(self.spool_dir) / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def snapshot(self) -> dict:
        return {
            "totals": self.totals,
            "counts": self.counts,
            "samples": self.samples,
            "handle_by_request": self.handle_by_request,
        }

    def merge(self, other: dict) -> None:
        for name, (calls, inclusive, own) in other["totals"].items():
            row = self.totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += inclusive
            row[2] += own
        for name, amount in other["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + amount
        for name, values in other["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        self.handle_by_request.update(other.get("handle_by_request", {}))

    def merge_spool(self) -> int:
        """Fold every worker's spooled totals in; returns files merged."""
        if self.spool_dir is None:
            return 0
        merged = 0
        for path in sorted(pathlib.Path(self.spool_dir).glob("*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()
            merged += 1
        return merged


def missing_layers(tracer_totals: dict, expected: tuple[str, ...]) -> list[str]:
    """Layers in ``expected`` none of whose spans recorded a call."""
    missing = []
    for layer in expected:
        calls = sum(
            tracer_totals.get(span, [0])[0] for span in LAYER_SPANS[layer]
        )
        if calls == 0:
            missing.append(layer)
    return missing


# -- wrapping -------------------------------------------------------------


class TimedTask:
    """Picklable wrapper timing one pool task wherever it executes."""

    def __init__(self, fn, tracer: Tracer):
        self.fn = fn
        self.tracer = tracer

    def __getstate__(self):
        return {"fn": self.fn}

    def __setstate__(self, state):
        self.fn = state["fn"]
        self.tracer = _PROCESS_TRACER[0]

    def __call__(self, context, index):
        frame = self.tracer.enter("pool.task")
        try:
            return self.fn(context, index)
        finally:
            self.tracer.leave(frame)


#: The installed tracer of this process, for unpickled :class:`TimedTask`.
_PROCESS_TRACER: list[Tracer] = []


def _span(tracer: Tracer, fn, name: str, after=None, on_error=None):
    """Wrap ``fn`` in a span; ``after(tracer, result, args)`` adds counts,
    ``on_error(tracer, error, args)`` counts a raised exception."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.active(name):
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as error:
            if on_error is not None:
                on_error(tracer, error, args)
            raise
        finally:
            tracer.leave(frame)
        if after is not None:
            after(tracer, result, args)
        return result

    return traced


def _count(name: str, measure=lambda result, args: 1):
    def after(tracer, result, args):
        tracer.add(name, measure(result, args))

    return after


def _gate_page_after(tracer, result, args):
    entry, _kept, repairs = result[:3]
    tracer.add("ingest.pages")
    if entry is not None:
        tracer.add("ingest.quarantined")
    elif repairs:
        tracer.add("ingest.repaired")


def _gate_process_after(tracer, result, args):
    tracer.add("ingest.pages", result.pages_in)
    tracer.add("ingest.quarantined", result.pages_in - len(result.pages))
    tracer.add("ingest.repaired", sum(result.repaired.values()))


def _gate_process_error(tracer, error, args):
    """The strict policy raises on the first rejected page."""
    from repro.errors import PageQuarantinedError

    if isinstance(error, PageQuarantinedError):
        tracer.add("ingest.pages", len(args[1]))
        tracer.add("ingest.quarantined")


def _prep_load_after(tracer, result, args):
    tracer.add("prep_cache.misses" if result is None else "prep_cache.hits")


def _semantic_after(tracer, result, args):
    kept, _stats = result
    tracer.add("cleaning.semantic_in", len(args[1]))
    tracer.add("cleaning.semantic_kept", len(kept))


def _veto_after(tracer, result, args):
    _kept, stats = result
    tracer.add("cleaning.veto_in", stats.total)
    tracer.add("cleaning.veto_discarded", stats.discarded)


def _pool_run(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(self, task, context, indices, *args, **kwargs):
        indices = list(indices)
        active = 1 if self.workers <= 1 else min(self.workers, len(indices))
        frame = tracer.enter("pool.run")
        try:
            results, failures, report = fn(
                self, TimedTask(task, tracer), context, indices,
                *args, **kwargs,
            )
        finally:
            wall = tracer.leave(frame)
        tracer.add("pool.slot_s", wall * max(1, active))
        tracer.add("pool.tasks", len(indices) + report.requeues)
        tracer.add("pool.requeued", report.requeues)
        tracer.add("pool.poisoned", report.poisoned)
        return results, failures, report

    return traced


def count_pool_waves(waves: list[dict]) -> None:
    """Record each pool wave's size and supervision report, untimed."""
    from repro.runtime.pool import ShardWorkerPool

    run = ShardWorkerPool.run

    @functools.wraps(run)
    def counted(self, task, context, indices, *args, **kwargs):
        indices = list(indices)
        results, failures, report = run(
            self, task, context, indices, *args, **kwargs
        )
        waves.append({
            "tasks": len(indices) + report.requeues,
            "requeued": report.requeues,
            "poisoned": report.poisoned,
            "failed": len(failures),
        })
        return results, failures, report

    ShardWorkerPool.run = counted


def _handle_extract(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(self, body):
        frame = tracer.enter("serve.handle")
        try:
            return fn(self, body)
        finally:
            duration = tracer.leave(frame)
            tracer.sample("serve.handle", duration)
            match = _PRODUCT_ID_RE.search(body)
            if match is not None:
                with tracer._lock:
                    tracer.handle_by_request[match.group(1).decode()] = (
                        duration
                    )

    return traced


def _batcher_submit(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(self, job):
        submitted = time.perf_counter()
        with tracer._lock:
            for sentence in job.sentences:
                tracer._pending_jobs[id(sentence)] = submitted
        return fn(self, job)

    return traced


def _crf_tag(tracer: Tracer, fn, name: str):
    """CRF tagging span; on the batcher thread also the queue wait."""
    counted = _span(
        tracer, fn, name,
        _count("crf.tag_sentences", lambda result, args: len(args[1])),
    )

    @functools.wraps(fn)
    def traced(self, sentences, *args, **kwargs):
        if tracer._pending_jobs:
            started = time.perf_counter()
            waits = set()
            with tracer._lock:
                for sentence in sentences:
                    submitted = tracer._pending_jobs.pop(id(sentence), None)
                    if submitted is not None:
                        waits.add(submitted)
            for submitted in waits:
                tracer.sample("serve.queue_wait", started - submitted)
        return counted(self, sentences, *args, **kwargs)

    return traced


def _specs(tracer: Tracer):
    """``(module, attribute path, wrapper factory)`` for every layer."""
    span = functools.partial(_span, tracer)
    design_rows = _count("features.rows", lambda result, args: result.shape[0])
    return [
        ("repro.corpus.stream", "JsonlPageSource.shard",
         lambda f: span(f, "corpus.read", _count("corpus.shards_read"))),
        ("repro.ingest.gate", "IngestGate.process",
         lambda f: span(f, "ingest.gate", _gate_process_after,
                        _gate_process_error)),
        ("repro.ingest.gate", "IngestGate.gate_page",
         lambda f: span(f, "ingest.gate", _gate_page_after)),
        ("repro.ingest.gate", "IngestGate.gate_page_prepared",
         lambda f: span(f, "ingest.gate", _gate_page_after)),
        ("repro.html.parser", "parse_html",
         lambda f: span(f, "html.parse", _count("html.parses"))),
        ("repro.html.parser", "parse_token_stream",
         lambda f: span(f, "html.parse", _count("html.parses"))),
        ("repro.core.text", "tokenize_page",
         lambda f: span(f, "nlp.tokenize", _count(
             "nlp.sentences", lambda result, args: len(result.sentences)))),
        ("repro.nlp.tokenizer", "LocaleNlp.tokens",
         lambda f: span(f, "nlp.tokenize")),
        ("repro.core.preprocess.candidate_discovery", "discover_candidates",
         lambda f: span(f, "preprocess.discover")),
        ("repro.core.preprocess.candidate_discovery",
         "discover_page_candidates",
         lambda f: span(f, "preprocess.discover")),
        ("repro.core.preprocess.seed", "build_seed",
         lambda f: span(f, "preprocess.seed")),
        ("repro.core.preprocess.training_set", "build_training_material",
         lambda f: span(f, "preprocess.material")),
        ("repro.core.preprocess.training_set", "label_page",
         lambda f: span(f, "preprocess.material")),
        ("repro.perf.prep_cache", "PrepStore.load",
         lambda f: span(f, "prep_cache.load", _prep_load_after)),
        ("repro.perf.prep_cache", "PrepStore.store",
         lambda f: span(f, "prep_cache.store")),
        ("repro.ml.features", "FeatureIndexer.fit",
         lambda f: span(f, "features.featurize")),
        ("repro.ml.features", "FeatureIndexer.design_matrix",
         lambda f: span(f, "features.featurize", design_rows)),
        ("repro.ml.features", "FeatureIndexer.fit_interned",
         lambda f: span(f, "features.featurize")),
        ("repro.ml.features", "FeatureIndexer.design_matrix_interned",
         lambda f: span(f, "features.featurize", design_rows)),
        ("repro.ml.crf.model", "CrfTagger.train",
         lambda f: span(f, "crf.train", _count(
             "crf.train_sentences", lambda result, args: len(args[1])))),
        ("repro.ml.crf.inference", "PackedEstep.run",
         lambda f: span(f, "crf.estep")),
        ("repro.ml.crf.model", "CrfTagger.tag",
         lambda f: _crf_tag(tracer, f, "crf.tag")),
        ("repro.ml.crf.model", "CrfTagger.tag_with_confidence",
         lambda f: _crf_tag(tracer, f, "crf.tag")),
        ("repro.ml.crf.inference", "viterbi",
         lambda f: span(f, "crf.viterbi")),
        ("repro.embeddings.word2vec", "Word2Vec.train",
         lambda f: span(f, "embeddings.train")),
        ("repro.core.cleaning.semantic", "SemanticCleaner.clean",
         lambda f: span(f, "cleaning.semantic", _semantic_after)),
        ("repro.core.cleaning.semantic", "merge_values_in_corpus",
         lambda f: span(f, "cleaning.merge")),
        ("repro.core.cleaning.veto", "apply_veto",
         lambda f: span(f, "cleaning.veto", _veto_after)),
        ("repro.runtime.pool", "ShardWorkerPool.run",
         lambda f: _pool_run(tracer, f)),
        ("repro.runtime.checkpoint", "CheckpointStore.write_iteration",
         lambda f: span(f, "checkpoint.write")),
        ("repro.runtime.checkpoint", "CheckpointStore.write_shard_tags",
         lambda f: span(f, "checkpoint.write")),
        ("repro.runtime.storage", "atomic_write_bytes",
         lambda f: span(f, "storage.write", _count(
             "storage.bytes_written", lambda result, args: len(args[1])))),
        ("repro.serve.server", "ExtractionService.handle_extract",
         lambda f: _handle_extract(tracer, f)),
        ("repro.serve.batcher", "MicroBatcher.submit",
         lambda f: _batcher_submit(tracer, f)),
        ("repro.serve.registry", "ModelRegistry.activate",
         lambda f: span(f, "registry.activate")),
    ]


def _import_all() -> None:
    """Load every ``repro`` module so by-value imports can be rewired."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def install(tracer: Tracer) -> int:
    """Wrap every layer's public calls; returns the names rewired."""
    _import_all()
    _PROCESS_TRACER[:] = [tracer]
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    modules = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("repro") and module is not None
    ]
    rewired = 0
    for module_name, path, factory in _specs(tracer):
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute]
        wrapper = factory(original)
        setattr(owner, attribute, wrapper)
        rewired += 1
        if outer:
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    rewired += 1
    return rewired
